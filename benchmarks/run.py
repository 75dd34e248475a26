"""End-to-end timings of a quadham checkout: each CLI subcommand and each
package import as a fresh subprocess, plus the wall time of the tier-1
suite.

Usage: python3 benchmarks/run.py --tag TAG [--root CHECKOUT]

Writes ``benchmarks/BENCH_<yyyymmdd>_<TAG>.json`` beside this script.
Every subprocess timing is the median of 7 runs after one untimed run,
measured with ``perf_counter`` from spawn to exit.  The children run with
``PYTHONDONTWRITEBYTECODE=1``, so that each call compiles the package
as the ``quadbench`` children do and the measured checkout is left as it
was.  ``--root`` measures another checkout (for example the parent
commit) with this same script, so two records compare like with like.
The record names the measured code twice: by ``git describe`` and by a
sha256 of the package source, which stays exact for uncommitted changes.
"""

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATS = 7
_CK = ["--model", "caldirola_kanai", "--lambda", "0.2"]
# one call of each subcommand, with a window and sample count of the size
# the ROADMAP baseline used
COMMANDS = {
    "list-models": ["list-models"],
    "mu": ["mu", *_CK, "--t-end", "1.4"],
    "kernel": ["kernel", *_CK, "--t-end", "1.4", "--samples", "200"],
    "green": ["green", *_CK, "--t", "1.0", "--x", "0.3", "--y", "-0.2"],
    "propagate": ["propagate", *_CK, "--t-end", "1.4", "--samples", "200"],
    "moments": ["moments", *_CK, "--t-end", "3"],
    "invariant": ["invariant", *_CK, "--t-end", "3"],
    "uncertainty": ["uncertainty", *_CK, "--t-end", "3"],
    "appendix_d": ["appendix_d", "--lambda", "0.2", "--omega", "1",
                   "--t-end", "3"],
    "verify_all": ["verify_all", "--budget", "full"],
}
# the interpreter and numpy alone, for scale, then the package's two roots
IMPORTS = {"python": "pass", "numpy": "import numpy",
           "quadham.cli": "import quadham.cli",
           "quadham.gridsim": "import quadham.gridsim"}
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def _env(root):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH"))
        if p)
    return env


def _time(args, root):
    """Seconds from spawn to exit of one ``python ARGS`` run; refuses a
    failing run, whose time would measure the wrong thing."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=root, env=_env(root),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}: "
                           f"{proc.stderr.decode()[-500:]}")
    return elapsed


def _median(args, root):
    _time(args, root)
    samples = [_time(args, root) for _ in range(REPEATS)]
    return {"median_s": statistics.median(samples), "samples_s": samples}


def _tier1(root):
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=_env(root),
                          capture_output=True, text=True)
    wall = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "returncode": proc.returncode,
            "summary": lines[-1] if lines else ""}


def _revision(root):
    proc = subprocess.run(["git", "describe", "--always", "--dirty",
                           "--abbrev=40"], cwd=root, capture_output=True,
                          text=True)
    return proc.stdout.strip() or None


def _source_sha256(root):
    """sha256 over the sorted paths and bytes of ``src/**/*.py``: names the
    measured code also when the checkout has uncommitted changes."""
    src = pathlib.Path(root, "src")
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _cpu():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True,
                    help="suffix of the record's file name")
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="checkout to measure (default: this one)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)

    import numpy
    import scipy
    record = {
        "revision": _revision(root),
        "source_sha256": _source_sha256(root),
        "cpu": _cpu(), "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "repeats": REPEATS,
        "imports": {name: _median(["-c", code], root)
                    for name, code in IMPORTS.items()},
        "commands": {name: dict(_median(["-m", "quadham.cli", *cli], root),
                                argv=cli)
                     for name, cli in COMMANDS.items()},
        "tier1": _tier1(root),
    }
    day = datetime.date.today().strftime("%Y%m%d")
    path = os.path.join(HERE, f"BENCH_{day}_{args.tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
