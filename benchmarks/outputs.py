"""Compare the CLI outputs of this checkout with another's.

Usage: python3 benchmarks/outputs.py --against OTHER [--seeds N [N ...]]

Draws the argvs of the ``cli_session`` workload once, from OTHER's
``quadbench/workloads.py`` on OTHER's source: every call, timed or probe,
of the blocks that ``quadbench/run.py --seconds 40`` executes for each
seed (1 to 5 by default).  Drawing them on one side keeps a change to the
code under test from moving the inputs (the workload draws some flags from
``GaussianState.moments``).  Then runs every argv through
``quadham.cli.main`` in one child interpreter per checkout, and prints
each argv whose exit code, stdout or stderr differ between the two, then
a tally of the moved keys by stream (a CSV cell by its column alone) and
the count of the argvs that moved.  Under each such argv it prints every
JSON key, CSV cell (of the subcommands in TABLES) or line of other text
that moved, OTHER's value first, and for two floats their distance in
ulps.
An exception that leaves ``main`` counts as exit 1 with its type and
message on stderr.
"""

import argparse
import collections
import csv
import io
import json
import math
import os
import re
import struct
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 40.0
# the subcommands whose stdout is a CSV table (list-models unless --json);
# verify_all writes lines of text, the others JSON
TABLES = {"list-models", "mu", "kernel", "propagate", "moments",
          "appendix_d", "uncertainty"}

DRAW = """
import json, sys
import run, workloads
blocks = run.block_count("cli_session", float(sys.argv[1]))
argvs = []
for seed in json.loads(sys.argv[2]):
    gen = workloads.blocks("cli_session", seed)
    argvs += [task.argv for _ in range(blocks) for task in next(gen)]
print(json.dumps(argvs))
"""

RUN = """
import contextlib, io, json, sys
from quadham.cli import main
outputs = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    outputs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(outputs))
"""


def _child(root, code, args=(), stdin=None, path=("src",)):
    """Run ``code`` in a fresh interpreter on ``root``'s directories
    ``path``; returns its stdout read as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        os.path.join(root, p) for p in path)}
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=root,
                          env=env, input=stdin, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"child on {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _flatten(doc, where=""):
    """{key path: value} of the leaves of a JSON document."""
    if not isinstance(doc, (dict, list)):
        return {where or "value": doc}
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    out = {}
    for key, value in items:
        out.update(_flatten(value, f"{where}.{key}" if where else str(key)))
    return out


def _cells(text, table):
    """{address: value} of an output: the leaves of a JSON document, else
    for a table the cells of CSV text as "row:column", column by its header
    name, else each line as "line N", so that a moved line names no other."""
    try:
        return _flatten(json.loads(text))
    except ValueError:
        pass
    if not table:
        return {f"line {n}": line
                for n, line in enumerate(text.splitlines(), 1)}
    rows = list(csv.reader(io.StringIO(text)))
    head = rows[0] if rows else []
    return {f"{i}:{head[j] if i and j < len(head) else j}": cell
            for i, row in enumerate(rows) for j, cell in enumerate(row)}


def _ordinal(x: float) -> int:
    """x's place on the line of doubles, where neighbours differ by one."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulps(a, b):
    """The number of doubles from a to b, or None unless both are finite
    numbers (a CSV cell is read as one)."""
    try:
        a, b = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    return abs(_ordinal(a) - _ordinal(b))


def moved_cells(theirs: str, mine: str, table: bool = False):
    """(address, their value, my value, ulps) of each cell that moved; text
    that is not JSON is read as CSV where ``table`` is true."""
    a, b = _cells(theirs, table), _cells(mine, table)
    return [(key, a.get(key), b.get(key), ulps(a.get(key), b.get(key)))
            for key in [*a, *(k for k in b if k not in a)]
            if a.get(key) != b.get(key)]


def tally(moves):
    """A line "stream key ×n" for each (stream, key) that ``moves`` lists n
    times, most moved first; a CSV cell's key "row:column" counts as its
    column, so that one column moved in many rows is one line."""
    counts = collections.Counter((stream, re.sub(r"^\d+:", "", key))
                                 for stream, key in moves)
    return [f"{stream} {key} ×{n}" for (stream, key), n in
            sorted(counts.items(), key=lambda item: (-item[1], item[0]))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", required=True,
                    help="the other checkout, whose quadbench draws the argvs")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = ap.parse_args(argv)
    other = os.path.abspath(args.against)
    argvs = _child(other, DRAW, (str(SECONDS), json.dumps(args.seeds)),
                   path=("src", "quadbench"))
    batch = json.dumps(argvs)
    here, there = (_child(root, RUN, stdin=batch) for root in (ROOT, other))
    moved, keys = 0, []
    for argv, mine, theirs in zip(argvs, here, there):
        parts = [name for name, a, b in zip(("exit", "stdout", "stderr"),
                                            mine, theirs) if a != b]
        if parts:
            moved += 1
            print(f"moved ({', '.join(parts)}): {' '.join(argv)}")
            if "exit" in parts:
                keys.append(("exit", "code"))
            for stream, name in ((1, "stdout"), (2, "stderr")):
                table = stream == 1 and argv[0] in TABLES
                for key, a, b, n in moved_cells(theirs[stream], mine[stream],
                                                table):
                    gap = "" if n is None else f" ({n} ulp)"
                    print(f"  {key}: {a} -> {b}{gap}")
                    keys.append((name, key))
    for line in tally(keys):
        print(line)
    print(f"{moved} of {len(argvs)} outputs moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
