"""The four benchmark workloads: sizes, command lines and output files.

Each workload is one batch job with one worker, and each puts
most of its work into a different layer of the package:

- consensus: `simulate` at gamma = 1 from random tapes until every trajectory
  halts.  Voter stepping and the per-attempt halt check do almost all the
  work, and most attempts are null, so rejection-free stepping shows here.
  It never touches the exact layer.
- thermal_events: `simulate` at finite temperature with a fixed step budget
  and an event log.  Nothing halts, a third of the attempts flip, and every
  flip is formatted and written as an event row.  A change that speeds up
  consensus but costs the flip and event path shows here.
- exact_grid: `exact` at the site cap over a time grid.  `evolve_exact`
  restarts from t = 0 at every grid point and row formatting takes most of
  the rest.  It bypasses the voter layer, and its large output makes it the
  memory workload.
- equilibrium: a public-API run that solves for the stationary law, draws
  start tapes from it and runs the Gillespie sampler on each.  It is the only
  workload that exercises the stationary solve and `kmc_sample`.

The sizes are scaled so that one call takes about 0.3-0.5 s on a 2-core
x86 box, so a run holds dozens of calls; the README next to this file gives
the measured figures.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("consensus", "thermal_events", "exact_grid", "equilibrium")

# workloads whose outputs depend on a random stream
SAMPLED = frozenset({"consensus", "thermal_events", "equilibrium"})

CONSENSUS_N = 16
CONSENSUS_TRAJECTORIES = 100
CONSENSUS_MAX_STEPS = 200_000

THERMAL_N = 64
THERMAL_COUPLING = 0.5
THERMAL_TEMPERATURE = 1.0
THERMAL_TRAJECTORIES = 6
THERMAL_T_END = 100.0

EXACT_N = 14
EXACT_GAMMA = 0.5
EXACT_T_END = 3.0
EXACT_T_STEPS = 4
EXACT_DIGITS = 9

EQ_N = 10
EQ_COUPLING = 0.5
EQ_TEMPERATURE = 1.0
EQ_SAMPLES = 2_000
EQ_T_END = 1.0


def exact_start(seed: int) -> int:
    """Seeded start configuration for exact_grid with nonzero magnetization,
    so the relaxation law m0 exp(-(1 - gamma) t) can be checked relatively."""
    rng = random.Random(seed)
    while True:
        index = rng.randrange(2**EXACT_N)
        if 2 * bin(index).count("1") != EXACT_N:
            return index


def outputs(workload: str, out_dir: Path) -> list[Path]:
    """Every file the workload writes, in a fixed order."""
    names = {
        "consensus": ["runs.csv"],
        "thermal_events": ["runs.csv", "events.csv"],
        "exact_grid": ["dist.csv", "dist.summary.csv"],
        "equilibrium": ["equilibrium.csv"],
    }[workload]
    return [out_dir / name for name in names]


def cli_argv(workload: str, seed: int, out_dir: Path) -> list[str]:
    """Arguments for `voterchain.cli.main`; equilibrium has no CLI form."""
    out = [str(p) for p in outputs(workload, out_dir)]
    common = ["--seed", str(seed), "--out", out[0]]
    if workload == "consensus":
        return ["simulate", "--n", str(CONSENSUS_N), "--gamma", "1", "--init", "random",
                "--trajectories", str(CONSENSUS_TRAJECTORIES),
                "--max-steps", str(CONSENSUS_MAX_STEPS), "--workers", "1"] + common
    if workload == "thermal_events":
        return ["simulate", "--n", str(THERMAL_N), "--coupling", str(THERMAL_COUPLING),
                "--temperature", str(THERMAL_TEMPERATURE), "--init", "random",
                "--trajectories", str(THERMAL_TRAJECTORIES), "--t-end", str(THERMAL_T_END),
                "--workers", "1", "--events", out[1]] + common
    if workload == "exact_grid":
        return ["exact", "--n", str(EXACT_N), "--gamma", str(EXACT_GAMMA),
                "--init", f"index:{exact_start(seed)}", "--t-end", str(EXACT_T_END),
                "--t-steps", str(EXACT_T_STEPS), "--digits", str(EXACT_DIGITS)] + common
    raise ValueError(f"{workload} runs through the public API, not the CLI")
