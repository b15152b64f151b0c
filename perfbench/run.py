"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve_fine --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

`--trace 0` prints the end-to-end metrics of an untraced run; `--trace 1`
prints the per-layer metrics of a traced run.  `--workload all` runs every
workload, each in its own process, one after the other.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are for people.  A copy of the
result, with the environment it was measured in, and in traced runs every
span, are written under .perfbench-out/ in the checkout.
"""

import os

# Single-threaded BLAS: numpy's OpenBLAS would otherwise start one thread per
# core for the LAPACK calls of instance generation and norm validation.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("solve_fine", "coreset_lift", "verify_small")

# Set-up is repeated this many times per run; setup_s reports the median.
SETUP_REPEATS = 5
# Operations timed per run at least, so op_tail_s has 10 samples beyond it.
MIN_OPS = 20
# Items generated per run: more than a run at the default length performs,
# so that each timed operation gets a distinct instance.
POOL = {"solve_fine": 720, "coreset_lift": 270, "verify_small": 2400}

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {"solver.pivots": "count", "grid.coords_calls": "count",
               "model.cost_entries": "count", "diagrams.checks": "count",
               "cli.rows": "count", "solver.calls": "count",
               "solver.points": "count", "solver.fractional": "count",
               "solver.exact_share": "ratio", "trace.overhead_frac": "ratio"}


def import_program() -> float:
    """Import the package from this checkout's src/; returns the seconds it took."""
    if not (ROOT / "src" / "gridcoreset" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {ROOT / 'src'}; "
                         "run from the root of a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import workloads  # noqa: F401  (imports numpy and gridcoreset)
    return time.perf_counter() - start


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": openblas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "commit": git_commit(), "seed": seed}


class Tally:
    """Runs and checks operations; counts what was attempted and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, work, item, tracer=None) -> tuple[float, bool]:
        """One operation: (its latency in seconds, whether its check passed).

        Only the call into the program is timed (and traced); the check runs
        after it.  An exception from either counts as a failed operation.
        """
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op(self.attempted, f"op.{work.name}")
        start = time.perf_counter()
        try:
            result = work.call(item)
            error = None
        except Exception as exc:  # a raising operation is a counted failure
            error = f"raised {exc!r}"
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        if error is None:
            try:
                problems, counts = work.check(item, result)
            except Exception as exc:  # a malformed result is a counted failure
                problems, counts = [f"check raised {exc!r}"], {}
            if tracer is not None:
                for name, value in counts.items():
                    tracer.counts[name] += value
        else:
            problems = [error]
        if problems:
            self.failed += 1
            self.problems.append(f"{item.label}: {'; '.join(problems)}")
        return latency, not problems

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(work, items, tally: Tally, seconds: float) -> dict:
    """Untraced timed loop over distinct items until `seconds` have passed."""
    latencies, oks = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_OPS:
        latency, ok = tally.run(work, items[len(latencies) % len(items)])
        latencies.append(latency)
        oks.append(ok)
    passed = sum(oks)
    pct, tail_value = tail(latencies)
    return {
        "metrics": {
            "ops_per_s": passed / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "detail": {"ops": len(latencies), "tail_percentile": pct,
                   "wall_s": time.perf_counter() - start,
                   "timed_s": sum(latencies), "latencies_s": latencies},
    }


def measure_traced(work, items, tally: Tally, seconds: float, tracer) -> dict:
    """Alternate untraced and traced passes over one item per spec.

    Every pass runs the same items, so counts repeat exactly from pass to
    pass; times are the median over traced passes.  trace.overhead_frac is
    the median traced pass time over the median untraced one, minus 1; the
    order of the two passes flips each round so neither runs warmer.
    """
    batch = items[:work.pass_size]
    untraced, traced, passes = [], [], []

    def untraced_pass():
        untraced.append(sum(tally.run(work, it)[0] for it in batch))

    def traced_pass():
        mark = tracer.mark()
        traced.append(sum(tally.run(work, it, tracer)[0] for it in batch))
        passes.append(tracer.since(mark))

    tracer.install()
    try:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            first, second = ((untraced_pass, traced_pass) if len(passes) % 2 == 0
                             else (traced_pass, untraced_pass))
            first()
            second()
    finally:
        tracer.uninstall()
    metrics, unstable = {}, []
    for name in passes[0]:
        values = [p[name] for p in passes]
        if LAYER_UNITS.get(name) == "count":
            metrics[name] = values[0]
            if len(set(values)) != 1:
                unstable.append(name)
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return {"metrics": metrics,
            "detail": {"passes": len(passes), "ops_per_pass": len(batch),
                       "untraced_pass_s": statistics.median(untraced),
                       "traced_pass_s": statistics.median(traced),
                       "counts_differing_between_passes": unstable}}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_s = import_program()
    import workloads
    from tracing import Tracer

    work = workloads.WORKLOADS[name]
    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        setup_times, digests = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            items, digest = work.setup(seed, POOL[name], workdir)
            setup_times.append(time.perf_counter() - start)
            digests.append(digest)
        tally = Tally()
        for item in items[:work.pass_size]:  # untimed warm-up pass
            tally.run(work, item)
        tracer = Tracer() if trace else None
        if trace:
            result = measure_traced(work, items, tally, seconds, tracer)
        else:
            result = measure(work, items, tally, seconds)
            result["metrics"]["setup_s"] = import_s + statistics.median(setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    deterministic = len(set(digests)) == 1
    stable = not result["detail"].get("counts_differing_between_passes")
    result["detail"].update(
        workload=name, fail_frac=tally.fail_frac, import_s=import_s,
        setup_runs_s=setup_times, input_digest=digests[0],
        inputs_identical_across_setups=deterministic, problems=tally.problems[:20])
    result.update(correct=tally.failed == 0 and deterministic and stable,
                  attempted=tally.attempted, failed=tally.failed,
                  env=environment(seed))
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.csv")
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2, default=str) + "\n")
    return result


def unit_of(name: str) -> str:
    return END_TO_END_UNITS.get(name) or LAYER_UNITS.get(name, "s")


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    d = result["detail"]
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    print(f"# workload {d['workload']}: attempted {result['attempted']}, "
          f"failed {result['failed']}, fail_frac {d['fail_frac']!r}, "
          f"inputs identical across set-ups: {d['inputs_identical_across_setups']}")
    for line in d["problems"]:
        print(f"# FAILED {line}")
    if "tail_percentile" in d:
        print(f"# op_tail_s is p{d['tail_percentile']:.2f} of N={d['ops']} operations "
              f"({d['timed_s']:.3f} s timed in {d['wall_s']:.3f} s wall)")
    else:
        print(f"# per-layer metrics per traced pass of {d['ops_per_pass']} operations, "
              f"median of {d['passes']} passes")
    for name, value in result["metrics"].items():
        print(f"# {name} = {value!r} {unit_of(name)}")
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def run_all(args) -> int:
    """Every workload in its own process, in turn; prints each one's metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exit code {proc.returncode}")
            return 1
        for line in lines[:-1]:
            print(line)
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
