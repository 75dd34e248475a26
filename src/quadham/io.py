"""CSV/JSON/config I/O helpers.

CSV output uses RFC-4180 quoting, and ``csv`` writes each float as its
``repr``, the shortest decimal that reads back to the same float, so files
can be diffed byte-wise across runs.  Config files are plain
key=value sections (INI syntax); command-line flags override file values.
Every CLI output passes through the two writers, which refuse a result
holding a nan or an infinity with NumericalError before anything is
written.  ``csv``, ``json`` and ``configparser`` are imported by the
functions that use them, so that a CLI call loads only the format it
writes.
"""

import math
import sys

from .errors import NumericalError, ValidationError


def _require_finite(value):
    """Raise NumericalError when value, or a value inside its lists, tuples
    and dicts, is a float that is not finite."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            _require_finite(item)
    elif isinstance(value, float) and not math.isfinite(value):
        raise NumericalError("the result is not finite", value=value)


def write_csv(path, header, rows):
    """Write rows (tuples of values) with RFC-4180 quoting."""
    import csv

    rows = list(rows)
    _require_finite(rows)

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
    """Strict UTF-8 JSON with keys kept in insertion order."""
    import json

    _require_finite(obj)
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
    """{section: {key: value}} of an INI file; ValidationError if malformed."""
    import configparser

    cp = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cp.read_file(fh)
        except configparser.Error as exc:
            raise ValidationError("the config file is malformed",
                                  path=str(path), error=str(exc)) from exc
    return {section: dict(cp.items(section)) for section in cp.sections()}
