"""CSV/JSON/config I/O helpers.

CSV output uses RFC-4180 quoting and shortest round-trip float formatting
so files can be diffed byte-wise across runs.  Config files are plain
key=value sections (INI syntax); command-line flags override file values.
``csv``, ``json`` and ``configparser`` are imported by the functions that
use them, so that a CLI call loads only the format it writes.
"""

import sys


def format_value(v) -> str:
    """Shortest exact decimal representation for floats, plain str otherwise."""
    if isinstance(v, bool):
        return "true" if v else "false"
    # numpy is not imported here (no CLI subcommand loads it); a numpy
    # scalar can only exist once something else has loaded it
    np = sys.modules.get("numpy")
    if isinstance(v, float) or (np is not None and isinstance(v, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows):
    """Write rows (iterables of values) with RFC-4180 quoting."""
    import csv

    def emit(fh):
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow([format_value(v) for v in row])

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
