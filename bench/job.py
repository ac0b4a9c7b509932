"""One repetition of one workload: a fresh process that calls it repeatedly.

Usage: python3 bench/job.py --workload NAME --seed N --trace 0|1
           --seconds S --out-dir DIR --result FILE

Set-up ends when the package and numpy/scipy are imported (and, with
--trace 1, the tracer is installed), just before the first call into the
package.  The process then calls the workload with the same seed again and
again, at least once, until the next call would end after S seconds.  Each
call is timed from its first call into the package until its last output file
is written.  The first call writes into DIR, later ones into DIR/again, and
the sha256 of every output file is taken after each call, outside its time.

FILE receives the end of set-up on the monotonic clock, which the parent
process shares, each call's time and output digests (and, when traced, its
spans and counters), and the process's peak resident memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from voterchain import cli, core, dynamics, thermo  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_equilibrium(seed: int, out: Path) -> None:
    """Solve for the stationary law, check it against the Gibbs weights,
    then evolve start tapes drawn from it with the Gillespie sampler and
    histogram the final states."""
    n = wl.EQ_N
    params = core.ModelParams.from_physical(wl.EQ_COUPLING, wl.EQ_TEMPERATURE)
    gen = dynamics.build_generator(n, params)
    basis = dynamics.stationary_distributions(gen)
    pi = basis[0]
    gibbs = thermo.gibbs_probabilities(n, wl.EQ_COUPLING, wl.EQ_TEMPERATURE,
                                       boundary=core.Boundary.PERIODIC)
    law = np.clip(pi, 0.0, None)
    starts = np.random.default_rng([seed, 0]).choice(2**n, size=wl.EQ_SAMPLES, p=law / law.sum())
    children = np.random.SeedSequence([seed, 1]).spawn(wl.EQ_SAMPLES)
    counts = np.zeros(2**n, dtype=np.int64)
    for index, child in zip(starts, children):
        tape = core.decode_state(int(index), n, params.boundary)
        final = dynamics.kmc_sample(tape, params, wl.EQ_T_END, child).final_tape()
        counts[core.encode_state(final)] += 1
    lines = [
        "# voterchain benchmark: equilibrium",
        f"# n={n} coupling={wl.EQ_COUPLING} temperature={wl.EQ_TEMPERATURE} "
        f"t_end={wl.EQ_T_END} samples={wl.EQ_SAMPLES} seed={seed}",
        f"# basis: {len(basis)}",
        "state_index,stationary,gibbs,count",
    ]
    lines += [f"{i},{float(pi[i])!r},{float(gibbs[i])!r},{counts[i]}" for i in range(2**n)]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


def call(workload: str, seed: int, out_dir: Path) -> int:
    """Run the workload once, writing its outputs into `out_dir`."""
    if workload == "equilibrium":
        run_equilibrium(seed, wl.outputs(workload, out_dir)[0])
        return 0
    return cli.main(wl.cli_argv(workload, seed, out_dir))


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    tracer = Tracer.install() if args.trace else None
    ready = time.monotonic()
    calls = []
    out_dir = args.out_dir
    while True:
        start = time.perf_counter()
        status = call(args.workload, args.seed, out_dir)
        wall = time.perf_counter() - start
        if status != 0:
            return status
        record = {"wall_s": wall,
                  "digests": {p.name: sha256(p) for p in wl.outputs(args.workload, out_dir)}}
        if tracer is not None:
            record["trace"] = tracer.report()
            tracer.reset()
        calls.append(record)
        out_dir = args.out_dir / "again"
        out_dir.mkdir(exist_ok=True)
        if time.monotonic() + wall > ready + args.seconds:
            break
    result = {
        "ready": ready,
        "calls": calls,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package": str(Path(cli.__file__).resolve().parent),
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
