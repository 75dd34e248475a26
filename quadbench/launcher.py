"""Traced stand-in for ``python -m quadham.cli``.

Usage: python3 quadbench/launcher.py SPANS_PATH TASK_ID -- CLI ARGS...

Times the import of ``quadham.cli``, installs the span wrappers, calls
``quadham.cli.main(argv)`` and writes the spans to SPANS_PATH on the way
out, whatever the outcome.  Exit status and output are those of the CLI.
"""

import json
import os
import sys
from time import perf_counter

_T0 = perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import quadham.cli  # noqa: E402

_T1 = perf_counter()

import tracing  # noqa: E402


def main():
    path, task = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = tracing.Tracer()
    # the import is this task's first span; it belongs to no module layer
    tracer.spans.append(["import", "import", _T0, _T1, -1, task, 0.0, False,
                         None])
    tracer.install()
    tracer.task = task
    try:
        return quadham.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
