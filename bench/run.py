"""Benchmark of the voterchain package: four workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is consensus, thermal_events, exact_grid, equilibrium, or `all` for
every workload in turn.  Each repetition is a fresh process (bench/job.py)
that sets up once and then calls the workload again and again for about
S/8 seconds, so a run of S seconds holds about eight set-ups and dozens of
timed calls; repetitions start until the next one would end after S
seconds, with at least three.  Every call of a run uses the same seed, so
their output files must be byte-identical, and the first call's outputs are
validated outside the timed region.

With --trace 0 the run reports the end-to-end metrics: the median set-up
time and peak memory of the repetitions, and the work rate of the fastest
call.  With --trace 1 it alternates untraced and traced repetitions, reports
the per-layer metrics (medians over the traced calls) and the tracing
overhead, and checks that the work counts repeat exactly under the seed and,
for the sampled workloads, change under another seed.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Every run
writes a results file under bench/_results/ with the raw repetitions, output
digests and machine description.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "voterchain"
RESULTS = HERE / "_results"
WORK = HERE / "_work"
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from validate import Tally, data_lines, read_runs, validate  # noqa: E402

REPS_PER_RUN = 8  # untraced repetitions, and so set-ups, a run aims for
MIN_REPS = 3
TRACED_MIN_PAIRS = 2
RUN_LIMIT_S = 150.0  # no repetition starts that would end past this point

# One BLAS thread per job: on a 2-core box a second OpenBLAS thread made
# exact_grid's calls no faster while it spun a second core, which adds noise
# on a shared host.
JOB_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# counts that must repeat exactly under one seed
STEADY_COUNTS = ("voter.step.calls", "voter.flips", "dynamics.kmc.events",
                 "dynamics.evolve_exact.calls", "cli.rows")

PER_LAYER = {  # name -> unit
    "voter.step.calls": "count",
    "voter.step.self_s": "s",
    "voter.step.us_per_call": "us",
    "voter.flips": "count",
    "voter.flip_ratio": "ratio",
    "voter.is_consensus.calls": "count",
    "voter.is_consensus.self_s": "s",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.bytes": "B",
    "dynamics.evolve_exact.calls": "count",
    "dynamics.evolve_exact.self_s": "s",
    "dynamics.evolve_exact.ms_per_call": "ms",
    "dynamics.evolve_exact.mass_drift": "prob",
    "dynamics.evolve_exact.min_prob": "prob",
    "dynamics.build_generator.self_s": "s",
    "dynamics.generator.nnz": "count",
    "dynamics.stationary_distributions.self_s": "s",
    "dynamics.stationary.residual": "prob/t",
    "dynamics.kmc_sample.calls": "count",
    "dynamics.kmc_sample.self_s": "s",
    "dynamics.kmc.events": "count",
    "dynamics.kmc.us_per_event": "us",
    "dynamics.kmc.us_per_trajectory": "us",
    "core.SpinTape.calls": "count",
    "core.SpinTape.self_s": "s",
    "rng.default_rng.calls": "count",
    "rng.default_rng.self_s": "s",
    "rng.spawn.self_s": "s",
    "thermo.gibbs_probabilities.self_s": "s",
    "trace_overhead_frac": "ratio",
}

# per-layer metric prefix -> span recorded by the tracer
SPANS = {
    "voter.step": "voter.TuringVoter.step",
    "voter.is_consensus": "voter.TuringVoter.is_consensus",
    "cli": "cli.main",
    "dynamics.evolve_exact": "dynamics.evolve_exact",
    "dynamics.build_generator": "dynamics.build_generator",
    "dynamics.stationary_distributions": "dynamics.stationary_distributions",
    "dynamics.kmc_sample": "dynamics.kmc_sample",
    "core.SpinTape": "core.SpinTape",
    "rng.default_rng": "rng.default_rng",
    "rng.spawn": "rng.spawn",
    "thermo.gibbs_probabilities": "thermo.gibbs_probabilities",
}


class Run:
    """Repetitions of one workload under one seed, and what was checked."""

    def __init__(self, workload: str, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.tally = Tally()
        self.reps: list[dict] = []
        self.traced: list[dict] = []
        self.digests: dict[str, str] | None = None
        self.validated_dir: Path | None = None
        self.started = 0

    def repeat(self, traced: bool, budget: float, deadline: float,
               seed: int | None = None) -> dict | None:
        """Run one repetition of about `budget` seconds after set-up; every
        call's outputs under the run's seed must match the first call's."""
        seed = self.seed if seed is None else seed
        rep_dir = self.work_dir / f"rep{self.started}"
        self.started += 1
        rep_dir.mkdir(parents=True)
        result = rep_dir / "result.json"
        cmd = [sys.executable, str(HERE / "job.py"), "--workload", self.workload,
               "--seed", str(seed), "--trace", str(int(traced)), "--seconds", f"{budget:.3f}",
               "--out-dir", str(rep_dir), "--result", str(result)]
        with open(rep_dir / "job.log", "w", encoding="utf-8") as log:
            launched = time.monotonic()
            try:
                status = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                        env=JOB_ENV, timeout=max(10.0, deadline - launched)).returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
        self.tally.check(status == 0 and result.exists(),
                         f"job exited with {status}: see {rep_dir / 'job.log'}")
        if status != 0 or not result.exists():
            return None
        raw = json.loads(result.read_text(encoding="utf-8"))
        calls = raw["calls"]
        rep = {
            "seed": seed,
            "setup_s": raw["ready"] - launched,
            "calls_s": [c["wall_s"] for c in calls],
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
            "package": raw["package"],
            "digests": calls[0]["digests"],
            "dir": rep_dir,
        }
        self.tally.check(Path(rep["package"]) == PACKAGE.resolve(),
                         f"job imported voterchain from {rep['package']}")
        if traced:
            rows, size = _output_rows(self.workload, rep_dir)
            rep["layer"] = [_layer_values(c["trace"], rows, size) for c in calls]
        shutil.rmtree(rep_dir / "again", ignore_errors=True)
        if seed == self.seed:
            if self.digests is None:
                self.digests, self.validated_dir = rep["digests"], rep_dir
            else:
                for path in wl.outputs(self.workload, rep_dir):
                    path.unlink()
            for i, c in enumerate(calls):
                for name, digest in c["digests"].items():
                    self.tally.check(digest == self.digests[name],
                                     f"{name} of call {i} in {rep_dir.name} differs from "
                                     f"the run's first call under seed {seed}")
        (self.traced if traced else self.reps).append(rep)
        return rep


def _tree_hash() -> str:
    """Digest of the package and benchmark sources: the code identity under
    which output digests are compared between runs."""
    digest = hashlib.sha256()
    for path in sorted(list(PACKAGE.rglob("*.py")) + list(HERE.glob("*.py"))):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_rev": _git_rev(),
        "tree_sha256": _tree_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _work(run: Run) -> int:
    """Units of work one repetition does: machine steps for the sampled CLI
    workloads, distribution rows for exact_grid, trajectories for equilibrium."""
    if run.workload == "exact_grid":
        return (wl.EXACT_T_STEPS + 1) * 2**wl.EXACT_N
    if run.workload == "equilibrium":
        return wl.EQ_SAMPLES
    return sum(row[3] for row in read_runs(run.validated_dir / "runs.csv"))


def _output_rows(workload: str, rep_dir: Path) -> tuple[int, int]:
    """Data rows and bytes of the files the CLI wrote."""
    if workload == "equilibrium":
        return 0, 0
    paths = wl.outputs(workload, rep_dir)
    return sum(len(data_lines(p)) for p in paths), sum(p.stat().st_size for p in paths)


def _layer_values(trace: dict, rows: int, size: int) -> dict[str, float]:
    """Per-layer metrics of one traced call, whose outputs have `rows` data
    rows and `size` bytes."""
    spans, counters = trace["spans"], trace["counters"]

    def span(prefix: str, key: str) -> float:
        return spans.get(SPANS[prefix], {}).get(key, 0)

    def per(total: float, count: float, scale: float) -> float:
        return scale * total / count if count else 0.0

    steps = span("voter.step", "calls")
    kmc_calls = span("dynamics.kmc_sample", "calls")
    events = counters.get("dynamics.kmc.events", 0)
    values = {
        "voter.flips": counters.get("voter.flips", 0),
        "voter.flip_ratio": per(counters.get("voter.flips", 0), steps, 1.0),
        "voter.step.us_per_call": per(span("voter.step", "self_s"), steps, 1e6),
        "cli.rows": rows,
        "cli.bytes": size,
        "dynamics.evolve_exact.ms_per_call": per(span("dynamics.evolve_exact", "total_s"),
                                                 span("dynamics.evolve_exact", "calls"), 1e3),
        "dynamics.evolve_exact.mass_drift": counters.get("dynamics.evolve_exact.mass_drift", 0.0),
        "dynamics.evolve_exact.min_prob": counters.get("dynamics.evolve_exact.min_prob", 0.0),
        "dynamics.generator.nnz": counters.get("dynamics.generator.nnz", 0),
        "dynamics.stationary.residual": counters.get("dynamics.stationary.residual", 0.0),
        "dynamics.kmc.events": events,
        "dynamics.kmc.us_per_event": per(span("dynamics.kmc_sample", "total_s"), events, 1e6),
        "dynamics.kmc.us_per_trajectory": per(span("dynamics.kmc_sample", "total_s"), kmc_calls, 1e6),
    }
    for name in PER_LAYER:
        prefix, _, key = name.rpartition(".")
        if name not in values and prefix in SPANS:
            values[name] = span(prefix, key)
    return values


def _check_counts(run: Run, other: dict | None) -> None:
    """Work counts repeat exactly under the run's seed and move under another."""
    counts = [{k: layer[k] for k in STEADY_COUNTS}
              for rep in run.traced if rep["seed"] == run.seed for layer in rep["layer"]]
    run.tally.check(len(counts) >= 2 and all(c == counts[0] for c in counts),
                    f"work counts differ between traced calls: {counts}")
    if other is not None:
        moved = {k: other["layer"][0][k] for k in STEADY_COUNTS}
        run.tally.check(moved != counts[0], f"work counts did not change with the seed: {moved}")


def _check_digest_history(run: Run, machine: dict) -> None:
    """Outputs under one code tree, environment and seed stay byte-identical
    from run to run; the first run records them."""
    store = RESULTS / "digests.json"
    history = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    key = ":".join([machine["tree_sha256"], machine["python"], machine["numpy"],
                    machine["scipy"], run.workload, str(run.seed)])
    if key in history:
        for name, digest in run.digests.items():
            run.tally.check(history[key].get(name) == digest,
                            f"{name} differs from an earlier run with the same code and seed")
    else:
        history[key] = run.digests
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(history, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, store)


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Run one workload for about `seconds` and return its report."""
    run = Run(workload, seed, work_dir)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    budget = seconds / REPS_PER_RUN / (2 if trace else 1)
    while True:
        began = time.monotonic()
        if trace:
            ok = (run.repeat(False, budget, deadline)
                  and run.repeat(True, budget, deadline))
            done = len(run.traced)
        else:
            ok = run.repeat(False, budget, deadline)
            done = len(run.reps)
        now = time.monotonic()
        last = now - began
        if not ok:
            break
        enough = done >= (TRACED_MIN_PAIRS if trace else MIN_REPS)
        if (enough and now + last > start + seconds) or now + last > deadline:
            break
    other = None
    if trace and run.traced and workload in wl.SAMPLED:
        other = run.repeat(True, 0.0, deadline + 20.0, seed=seed + 1)

    machine = _machine()
    if run.validated_dir is not None:
        validate(workload, run.validated_dir, seed, run.tally)
        _check_digest_history(run, machine)
        if other is not None:
            validate(workload, other["dir"], other["seed"], run.tally)
        if trace and run.traced:
            _check_counts(run, other)

    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine, "attempted": run.tally.attempted, "failed": run.tally.failed,
              "notes": run.tally.notes, "digests": run.digests, "metrics": {}}
    report["reps"] = [{k: v for k, v in rep.items() if k != "dir"} for rep in run.reps + run.traced]
    if not run.reps or (trace and not run.traced):
        return report

    untraced = [w for rep in run.reps for w in rep["calls_s"]]
    if trace:
        layers = [layer for rep in run.traced if rep["seed"] == seed for layer in rep["layer"]]
        traced = [w for rep in run.traced if rep["seed"] == seed for w in rep["calls_s"]]
        overhead = [min(traced) / min(untraced) - 1.0]
        for name, unit in PER_LAYER.items():
            series = overhead if name == "trace_overhead_frac" else [v[name] for v in layers]
            report["metrics"][name] = _stat(series, unit)
    else:
        work = _work(run)
        rates = [work / w for w in untraced]
        report["work"] = work
        # The rate of the fastest call: the host's other tenants slow calls by
        # an amount that varies over seconds to minutes, and the median of a
        # run follows them (bench/README.md, "Why the fastest call").
        report["metrics"] = {
            "setup_s": _stat([r["setup_s"] for r in run.reps], "s"),
            "work_per_s": _stat(rates, "1/s", value=max(rates)),
            "peak_rss_mb": _stat([r["peak_rss_mb"] for r in run.reps], "MB"),
        }
    return report


def _stat(series: list[float], unit: str, value: float | None = None) -> dict:
    """`value` (the median unless given) with the quartiles of `series`."""
    q1, q3 = _quartiles(series)
    value = statistics.median(series) if value is None else value
    return {"value": value, "unit": unit, "q1": q1, "q3": q3, "n": len(series)}


def _print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"repetitions {len(report['reps'])}")
    for name, m in report["metrics"].items():
        print(f"  {name:42s} {m['value']:<14.6g} {m['unit']:6s} "
              f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} n {m['n']}")
    share = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"  {'failed_frac':42s} {share:<14.6g} {'ratio':6s} "
          f"({report['failed']} of {report['attempted']} validated outputs)")
    for note in report["notes"]:
        print(f"  FAIL {note}")


def _save(report: dict) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = (RESULTS / report["workload"]
            / f"{stamp}-seed{report['seed']}-trace{report['trace']}-{os.getpid()}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
    return path


def _declared_metrics() -> tuple[dict, dict] | None:
    """End-to-end and per-layer metric units that BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    manifest = json.loads(path.read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in manifest[key]} for key in ("end_to_end", "per_layer"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="voterchain benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no voterchain package under {PACKAGE.parent}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    declared = _declared_metrics()
    if declared is not None and declared != (END_TO_END, PER_LAYER):
        print("error: BENCHMARK.json and bench/run.py name different metrics or units",
              file=sys.stderr)
        return 2

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    work_dir = WORK / f"run-{os.getpid()}"
    reports = []
    try:
        for name in names:
            report = measure(name, args.seed, args.seconds, bool(args.trace), work_dir / name)
            print(f"results: {_save(report).relative_to(ROOT)}")
            _print_report(report)
            reports.append(report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    expected = PER_LAYER if args.trace else END_TO_END
    if any(set(r["metrics"]) != set(expected) for r in reports):
        print("error: a workload produced no measurement; see the notes above", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    prefix = len(reports) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + name: {"value": m["value"], "unit": m["unit"]}
               for r in reports for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
