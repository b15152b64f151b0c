"""Self-tests of the benchmark itself: the correctness gate is live, inputs repeat.

Run from the root of a checkout (takes about half a minute):

    python3 perfbench/selftest.py

The gate tests hand each workload's check a deliberately wrong result
through the same Tally that counts a run's failures, and assert that it
lands in `failed` and so in fail_frac.  The determinism tests regenerate
inputs in-process and run the traced benchmark twice on one seed and once
on a held-out seed.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # first: pins BLAS threads before numpy loads

run.import_program()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from gridcoreset.model import Clustering  # noqa: E402
from tracing import Tracer  # noqa: E402

# Seeds the benchmark was tuned on are small integers; this one was not
# used while tuning, so later claims can be re-checked on it.
HELD_OUT_SEED = 90001
WORKDIR = run.OUT / "selftest"


class Canned:
    """Stands in for a workload whose operation returns a fixed result."""

    def __init__(self, work, result):
        self.work, self.result, self.name = work, result, work.name

    def call(self, item):
        return self.result

    def check(self, item, result):
        return self.work.check(item, result)


def _tally_of(work, item, results) -> run.Tally:
    tally = run.Tally()
    for result in results:
        tally.run(Canned(work, result), item)
    return tally


def _first_item(name):
    work = workloads.WORKLOADS[name]
    items, _ = work.setup(seed=1, count=1, workdir=WORKDIR)
    return work, items[0]


def _move_one_entry(C: Clustering) -> Clustering:
    """The same clustering with one fully assigned point moved to another cluster."""
    j = int(np.nonzero(C.vals == 1.0)[0][0])
    rows = C.rows.copy()
    rows[j] = (rows[j] + 1) % C.k
    return Clustering(k=C.k, n=C.n, rows=rows, cols=C.cols, vals=C.vals)


def test_gate_rejects_perturbed_duals_and_shifted_weights():
    work, item = _first_item("solve_fine")
    good = work.call(item)
    duals = list(good.duals)
    duals[0] += 0.05
    bad_duals = dataclasses.replace(good, duals=tuple(duals))
    bad_weights = dataclasses.replace(good, clustering=_move_one_entry(good.clustering))
    tally = _tally_of(work, item, [good, bad_duals, bad_weights])
    assert (tally.attempted, tally.failed) == (3, 2), tally.problems
    assert tally.fail_frac == 2 / 3
    assert "power cell" in tally.problems[0] and "weights" in tally.problems[1]


def test_gate_rejects_wrong_lift():
    work, item = _first_item("coreset_lift")
    good = work.call(item)
    off_cost = dataclasses.replace(good, extended_cost=good.extended_cost * (1 + 1e-6))
    off_weights = dataclasses.replace(good, extended=_move_one_entry(good.extended))
    tally = _tally_of(work, item, [good, off_cost, off_weights])
    assert (tally.attempted, tally.failed) == (3, 2), tally.problems
    assert "residual" in tally.problems[0] and "lifted weights" in tally.problems[1]


def test_gate_rejects_bad_verify_report():
    work, item = _first_item("verify_small")
    report = Path(item.payload[2])
    tally = run.Tally()
    good = work.call(item)
    full = report.read_text()
    tally.run(Canned(work, good), item)  # the check consumes the report
    report.write_text(full)
    tally.run(Canned(work, (3, "")), item)  # nonzero exit code
    report.write_text("".join(full.splitlines(keepends=True)[:-1]))  # a row short
    tally.run(Canned(work, (0, "")), item)
    assert (tally.attempted, tally.failed) == (3, 2), tally.problems
    assert "exit code 3" in tally.problems[0] and "rows" in tally.problems[1]


def test_inputs_repeat_per_seed():
    for work in workloads.WORKLOADS.values():
        count = work.pass_size + 3
        _, first = work.setup(seed=5, count=count, workdir=WORKDIR)
        _, again = work.setup(seed=5, count=count, workdir=WORKDIR)
        _, other = work.setup(seed=6, count=count, workdir=WORKDIR)
        assert first == again != other, work.name


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_names = list(Tracer().since((0, {}))) + ["trace.overhead_frac"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def _traced_run(seed: int) -> dict:
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", "solve_fine",
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                          check=False, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_pivots_repeat_and_held_out_seed_runs_clean():
    a, b = _traced_run(3), _traced_run(3)
    held_out = _traced_run(HELD_OUT_SEED)
    counts = [name for name, m in a["metrics"].items() if m["unit"] == "count"]
    assert a["metrics"]["solver.pivots"]["value"] > 0
    for name in counts:
        assert a["metrics"][name] == b["metrics"][name], name
    for result in (a, b, held_out):
        assert result["correct"] and result["failed"] == 0, result


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failures = 0
    try:
        for name, fn in tests:
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"{len(tests) - failures} of {len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
