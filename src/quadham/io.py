"""CSV/JSON/config I/O helpers.

CSV output uses RFC-4180 quoting, and ``csv`` writes each float as its
``repr``, the shortest decimal that reads back to the same float, so files
can be diffed byte-wise across runs.  Config files are plain
key=value sections (INI syntax); command-line flags override file values.
``csv``, ``json`` and ``configparser`` are imported by the functions that
use them, so that a CLI call loads only the format it writes.
"""

import sys


def write_csv(path, header, rows):
    """Write rows (iterables of values) with RFC-4180 quoting."""
    import csv

    def emit(fh):
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        w.writerow(header)
        w.writerows(rows)

    if path in (None, "-"):
        emit(sys.stdout)
    else:
        with open(path, "w", newline="") as fh:
            emit(fh)


def write_json(path, obj):
    """Strict UTF-8 JSON with keys kept in insertion order: a nan or an
    infinity in ``obj`` raises ValueError before anything is written."""
    import json

    text = json.dumps(obj, indent=2, allow_nan=False)
    if path in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def flush_stdout():
    """Flush stdout: a closed pipe fails here, as in a long write."""
    sys.stdout.flush()


def read_config(path) -> dict:
    """Parse a key=value sectioned config file into {section: {key: value}}."""
    import configparser

    cp = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        cp.read_file(fh)
    return {section: dict(cp.items(section)) for section in cp.sections()}
