"""ionramsey benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ionramsey from ``src/``
there and exits with code 2 if that is missing. Every job is one in-process
``ionramsey.cli.main([...])`` call on a config generated from ``--seed``,
run back to back by one client (a closed loop), and checked by a physics
oracle. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a
shorter fixed job list untraced, then traced, and prints the per-layer
metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Scratch files go to
``.perfbench_work/`` in the checkout. See ``perfbench/README.md``.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, so --threads is the only concurrency.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402
from machine import SpeedSampler, describe  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_SPAWNS = 5

E2E_UNITS = {"job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
             "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    job: object
    start: float  # perf_counter at the cli.main call
    seconds: float
    problems: list[str]
    shots: int
    scale: float = 1.0  # nominal / sampled reference-kernel time during the job
    files: dict[str, bytes] = field(default_factory=dict)

    @property
    def normalised_s(self) -> float:
        return self.seconds * self.scale


class JobRunner:
    """Runs jobs in-process, each in its own output directory.

    A single-threaded job is pinned to the first allowed CPU and a threaded
    one may use them all: the two cores of the benchmark machine drift
    independently, so the speed sampler must measure the CPUs a job uses.
    """

    def __init__(self, work: Path):
        from ionramsey import cli

        self.cli = cli
        self.jobs_dir = work / "jobs"
        self.count = 0
        self.cpus = tuple(sorted(os.sched_getaffinity(0)))

    def place(self, job, threads: int | None = None) -> tuple[int, ...]:
        return self.cpus if (threads or job.threads) > 1 else self.cpus[:1]

    def run(self, job, threads: int | None = None, keep: bool = False) -> Outcome:
        os.sched_setaffinity(0, self.place(job, threads))
        job_dir = self.jobs_dir / f"{self.count:05d}"
        self.count += 1
        job_dir.mkdir(parents=True)
        config = job_dir / f"{job.command}.ini"
        config.write_text(job.config)
        out = job_dir / "out"
        argv = job.argv(config, out, threads)
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        os.sched_setaffinity(0, self.cpus)
        if code != 0:
            outcome = Outcome(job, start, seconds, [f"{job.kind}: exit {code}"], 0)
        else:
            try:
                problems, shots = check(job, out)
            except (OSError, KeyError, ValueError) as exc:
                problems, shots = [f"{job.kind}: unreadable output ({exc!r})"], 0
            outcome = Outcome(job, start, seconds, problems, shots)
        if keep:
            outcome.files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
        shutil.rmtree(job_dir)
        return outcome


def _same_outputs(a: Outcome, b: Outcome, what: str) -> list[str]:
    if a.files and a.files == b.files:
        return []
    return [f"{a.job.kind}: {what} outputs differ ({sorted(a.files)} vs {sorted(b.files)})"]


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 jobs beyond it."""
    ordered = sorted(values)
    rank = max(0, len(ordered) - 11)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------


def measure_setup(workload, seed: int, work: Path, src: Path) -> list[float]:
    """Fresh interpreter to first job start, normalised, once per spawn."""
    job = workload.plan(seed, 1)[0]
    config = work / "probe.ini"
    config.write_text(job.config)
    argv = [sys.executable, str(HERE / "probe.py"), *job.argv(config, work / "probe_out")]
    env = dict(os.environ, PYTHONPATH=str(src))
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})  # the probe inherits one CPU
    setups = []
    try:
        for spawn in range(SETUP_SPAWNS + 1):  # the first spawn warms the bytecode and page caches
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True, timeout=120, check=False)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
            started, before, after = map(float, proc.stdout.split()[-3:])
            if spawn:
                setups.append((started - t0) * probe.NOMINAL_S / ((before + after) / 2))
    finally:
        os.sched_setaffinity(0, allowed)
    return setups


def timed_run(workload, args, work: Path, src: Path) -> dict:
    setups = measure_setup(workload, args.seed, work, src)
    jobs = workload.plan(args.seed, workload.cycles_for(args.seconds))
    runner = JobRunner(work)
    outcomes = []
    start = time.perf_counter()
    with SpeedSampler(runner.cpus, workload.memory_bound) as sampler:
        for index, job in enumerate(jobs):
            sampler.cpus = runner.place(job)
            outcome = runner.run(job, keep=index == workload.determinism_slot)
            outcomes.append(outcome)
    for outcome in outcomes:
        outcome.scale = sampler.scale(outcome.start, outcome.start + outcome.seconds)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Determinism: the same job and seed again, and at --threads 1 if threaded.
    first = outcomes[workload.determinism_slot]
    checks = [_same_outputs(first, runner.run(first.job, keep=True), "rerun")]
    if first.job.threads > 1:
        checks.append(_same_outputs(first, runner.run(first.job, threads=1, keep=True), "--threads 1"))
    problems = [p for o in outcomes for p in o.problems] + [p for c in checks for p in c]
    attempted = len(outcomes) + len(checks)
    failed = sum(bool(o.problems) for o in outcomes) + sum(bool(c) for c in checks)

    latencies = [o.normalised_s for o in outcomes]
    tail, tail_pct = _tail(latencies)
    busy = sum(latencies)
    metrics = {
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail,
        "jobs_per_s": len(latencies) / busy,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = [o.seconds for o in outcomes]
    detail = {
        "jobs": len(outcomes),
        "job_tail_percentile": tail_pct,
        "failed_frac": failed / attempted,
        "shots_per_s": sum(o.shots for o in outcomes) / busy or None,  # None: no shots
        "raw_job_p50_s": statistics.median(raw),
        "raw_jobs_per_s": len(raw) / sum(raw),
        "loop_wall_s": wall,
        "machine.ref_kernel_s": sampler.median_kernel_s(),
        "cpus": list(runner.cpus),
        "setup_s_each": setups,
        "problems": problems,
    }
    return {"failed": failed, "attempted": attempted, "metrics": metrics, "detail": detail}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced_run(workload, args, work: Path, src: Path) -> dict:
    jobs = workload.plan(args.seed, workload.trace_cycles)
    runner = JobRunner(work)
    with SpeedSampler(runner.cpus, workload.memory_bound) as sampler:
        untraced = []
        for job in jobs:
            sampler.cpus = runner.place(job)
            untraced.append(runner.run(job, keep=True))
        tracer = Tracer()
        tracer.install()  # raises TraceError if any binding was missed
        try:
            traced = []
            for index, job in enumerate(jobs):
                tracer.job = index
                sampler.cpus = runner.place(job)
                traced.append(runner.run(job, keep=True))
        finally:
            tracer.uninstall()

    # Thread speedup: the threaded job traced at --threads 1 and at its own count.
    speedup, pair = 0.0, []
    threaded = [job for job in jobs if job.threads > 1]
    if threaded:
        side = Tracer()
        side.install()
        try:
            pair = [runner.run(threaded[-1], threads=n, keep=True) for n in (1, threaded[-1].threads)]
        finally:
            side.uninstall()
        speedup = pair[0].seconds / pair[1].seconds

    checks = [_same_outputs(u, t, "traced") for u, t in zip(untraced, traced)]
    if pair:
        checks.append(_same_outputs(pair[0], pair[1], "--threads 1"))
    outcomes = untraced + traced + pair
    problems = [p for o in outcomes for p in o.problems] + [p for c in checks for p in c]
    failed = sum(bool(o.problems) for o in outcomes) + sum(bool(c) for c in checks)

    metrics = tracer.layer_metrics()
    metrics["streams.thread_speedup"] = speedup
    metrics["trace.overhead_s"] = sum(o.seconds for o in traced) - sum(o.seconds for o in untraced)
    metrics["machine.ref_kernel_s"] = sampler.median_kernel_s()
    tracer.write(work / "spans.jsonl")
    detail = {
        "jobs": len(jobs),
        "untraced_s": sum(o.seconds for o in untraced),
        "traced_s": sum(o.seconds for o in traced),
        "spans": len(tracer.spans),
        "problems": problems,
    }
    return {"failed": failed, "attempted": len(outcomes), "metrics": metrics, "detail": detail}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if "bytes" in name:
        return "B"
    if name.endswith("speedup"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="ionramsey benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ionramsey" / "__init__.py").is_file():
        print(f"perfbench: no ionramsey sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ionramsey

    if Path(ionramsey.__file__).resolve().parent != (src / "ionramsey").resolve():
        print(f"perfbench: imported ionramsey from {ionramsey.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = traced_run if args.trace else timed_run
    result = run(workload, args, work, src)
    result["detail"]["machine"] = describe(THREAD_VARS)
    (work / "report.json").write_text(json.dumps(result, indent=2) + "\n")

    units = E2E_UNITS if not args.trace else {k: layer_unit(k) for k in result["metrics"]}
    print(f"workload {workload.name}: {workload.why}")
    for name, value in result["metrics"].items():
        print(f"  {name:44s} {value:>16.6g} {units[name]}")
    for name, value in result["detail"].items():
        if name not in ("problems", "setup_s_each") and value is not None:
            print(f"  {name:44s} {value}")
    for problem in result["detail"]["problems"]:
        print(f"  FAILED {problem}")
    print(f"  report: {work / 'report.json'}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
