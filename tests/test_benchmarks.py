import json
import os
import pathlib
import runpy
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_layer_child_times_every_row():
    # one child of benchmarks/run.py's layer timings on this checkout's
    # source: every row gets a positive time beside what it measured, and
    # each of the three solves carries the flow solver's counts
    bench = runpy.run_path(str(ROOT / "benchmarks" / "run.py"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", bench["LAYERS"]], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert all(row["s"] > 0 and len(row) > 1 for row in run.values())
    solves = {row for row, fields in run.items() if "nfev" in fields}
    assert solves == {"classical_flow", "classical_flow_hf", "moment_flow"}
    for row in solves:
        assert run[row]["nfev"] > 0 and run[row]["n_steps"] > 0


def test_tier1_alternates_the_checkouts_and_records_each_run():
    # TIER1_RUNS runs per checkout, one checkout after the other, and each
    # record's wall_s is the median of its samples_s
    bench = runpy.run_path(str(ROOT / "benchmarks" / "run.py"))
    order, seconds = [], iter([5.0, 7.0, 3.0, 8.0, 4.0, 6.0])

    def once(root):
        order.append(root)
        return next(seconds), 1 if len(order) == 4 else 0, f"run {len(order)}"

    bench["_tier1"].__globals__["_tier1_once"] = once
    new, old = bench["_tier1"](["new", "old"])
    assert bench["TIER1_RUNS"] == 3
    assert order == ["new", "old"] * 3
    assert new == {"wall_s": 4.0, "samples_s": [5.0, 3.0, 4.0],
                   "returncode": 0, "summary": "run 5"}
    assert old == {"wall_s": 7.0, "samples_s": [7.0, 8.0, 6.0],
                   "returncode": 1, "summary": "run 6"}


def test_a_record_names_the_confounds_of_its_checkout(tmp_path):
    # benchmarks/run.py records the length of a checkout's path and
    # whether its package held bytecode, the two confounds of a pair
    confounds = runpy.run_path(str(ROOT / "benchmarks" / "run.py"))[
        "_confounds"]
    long = tmp_path / "a-longer-checkout"
    cache = long / "src" / "quadham" / "__pycache__"
    cache.mkdir(parents=True)
    assert confounds(long) == {"path_chars": len(str(long)),
                               "cached_bytecode": False}
    (cache / "cli.cpython-312.pyc").write_bytes(b"")
    assert confounds(long)["cached_bytecode"]
    assert confounds(tmp_path / "b") == {
        "path_chars": len(str(tmp_path)) + 2, "cached_bytecode": False}


def test_a_row_is_resolved_only_by_a_clear_win():
    # benchmarks/run.py's verdict: 9 of 10 alternated samples won, the
    # better best sample and medians apart by more than the other side's
    # spread between quartiles
    verdict = runpy.run_path(str(ROOT / "benchmarks" / "run.py"))["verdict"]
    other = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    faster = [x - 0.1 for x in other]
    assert verdict(faster, other) == "faster"
    assert verdict(other, faster) == "slower"
    assert verdict(other, other) is None
    # 8 of 10 pairs won is not enough, nor a gap inside the quartiles
    assert verdict(faster[:8] + other[8:], other) is None
    assert verdict([x - 0.005 for x in other], other) is None


def test_outputs_of_a_checkout_against_itself_do_not_move():
    # benchmarks/outputs.py draws seed 1's cli_session argvs from this
    # checkout's quadbench and runs them here twice: nothing may move
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "outputs.py"),
         "--against", str(ROOT), "--seeds", "1"], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("0 of ") and last.endswith(" outputs moved")
    assert int(last.split()[2]) > 10


def test_outputs_lists_each_moved_cell_with_its_ulps():
    # benchmarks/outputs.py names every CSV cell, JSON key and line of
    # text that moved, the other checkout's value first, and for two
    # floats their distance in ulps, so that a gate in ulps can be read off
    # its output
    outputs = runpy.run_path(str(ROOT / "benchmarks" / "outputs.py"))
    moved = outputs["moved_cells"]
    table = "t,margin,excess\r\n0.0,0.25,0.5\r\n1.0,{},0.5\r\n"
    assert moved(table.format("0.1"), table.format("0.10000000000000003"),
                 table=True) \
        == [("2:margin", "0.1", "0.10000000000000003", 2)]
    assert moved('{"drift": 1e-09, "info": {"t": [1.0, -0.0]}}',
                 '{"drift": 1e-09, "info": {"t": [1.0, 5e-324]}}') \
        == [("info.t.1", -0.0, 5e-324, 1)]
    assert moved("PASS a: x\n", "FAIL a: x\n") == [
        ("line 1", "PASS a: x", "FAIL a: x", None)]
    # verify_all's text by line: a moved first line keys no other line
    assert moved("PASS a: err 4.33e-15\nPASS b: drift 4.66e-15\n",
                 "PASS a: err 4.75e-15\nPASS b: drift 5.05e-15\n") == [
        ("line 1", "PASS a: err 4.33e-15", "PASS a: err 4.75e-15", None),
        ("line 2", "PASS b: drift 4.66e-15", "PASS b: drift 5.05e-15", None)]
    assert outputs["TABLES"].isdisjoint({"verify_all", "green", "invariant"})
    assert moved("t\r\n1.0\r\n", "t\r\n1.0\r\n", table=True) == []
    assert outputs["ulps"](-1.0, 1.0) == 2 * outputs["ulps"](0.0, 1.0)


def test_outputs_tallies_the_moved_keys_by_stream():
    # before its last line, benchmarks/outputs.py counts each moved key of
    # each stream over all argvs, a CSV cell by its column, most moved first
    tally = runpy.run_path(str(ROOT / "benchmarks" / "outputs.py"))["tally"]
    moves = [("stderr", "info.bracket.0")] * 3 + [
        ("stdout", "2:margin"), ("stdout", "14:margin"), ("exit", "code"),
        ("stdout", "line 2"), ("stderr", "info.bracket.1")]
    assert tally(moves) == [
        "stderr info.bracket.0 ×3", "stdout margin ×2", "exit code ×1",
        "stderr info.bracket.1 ×1", "stdout line 2 ×1"]
    assert tally([]) == []
