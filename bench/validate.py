"""Output validators, one per workload, each with a negative control.

A validator parses a workload's output files into plain data and checks
every trajectory, grid row or named check as one validated unit; each unit
that fails counts as one failure.  The negative control corrupts a copy of
the parsed data in one place and requires the same validator to count at
least one failure on it.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np

import workloads as wl


class Tally:
    """Validated units attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def data_lines(path: Path) -> list[str]:
    """Rows of a CSV file without `#` comments and without the column header."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return lines[1:]


def read_runs(path: Path) -> list[tuple]:
    rows = []
    for line in data_lines(path):
        tid, halted, symbol, steps, m = line.split(",")
        rows.append((int(tid), halted == "true", int(symbol) if symbol else None,
                     int(steps), float(m)))
    return rows


# consensus: every trajectory halts on a uniform tape


def parse_consensus(out_dir: Path, seed: int) -> dict:
    return {"runs": read_runs(out_dir / "runs.csv")}


def check_consensus(data: dict, tally: Tally) -> None:
    runs = data["runs"]
    tally.check([r[0] for r in runs] == list(range(wl.CONSENSUS_TRAJECTORIES)),
                "runs.csv does not hold one row per trajectory in order")
    for tid, halted, symbol, steps, m in runs:
        tally.check(halted and symbol in (-1, 1) and m == symbol
                    and 0 <= steps <= wl.CONSENSUS_MAX_STEPS,
                    f"trajectory {tid}: halted={halted} symbol={symbol} m={m} steps={steps}")


def corrupt_consensus(data: dict) -> dict:
    runs = list(data["runs"])
    tid, halted, symbol, steps, m = runs[0]
    runs[0] = (tid, halted, symbol, steps, m - 2.0 / wl.CONSENSUS_N)
    return {"runs": runs}


# thermal_events: the event log replays onto the run summaries


def parse_thermal(out_dir: Path, seed: int) -> dict:
    blocks: list[list[tuple]] = []
    for line in (out_dir / "events.csv").read_text(encoding="utf-8").splitlines():
        if line.startswith("# trajectory "):
            blocks.append([])
        elif blocks and not line.startswith("#"):
            t, site, symbol, m = line.split(",")
            blocks[-1].append((float(t), int(site), int(symbol), float(m)))
    return {"runs": read_runs(out_dir / "runs.csv"), "events": blocks}


def _replays(events: list[tuple], final_m: float) -> bool:
    """Times are distinct steps within the budget, each magnetization is the
    running sum of the flips, a site alternates its symbol from flip to flip,
    and the last event matches the trajectory's final magnetization."""
    n = wl.THERMAL_N
    budget = math.ceil(wl.THERMAL_T_END * n)
    last_step, last_total, symbols = 0, None, {}
    for t, site, symbol, m in events:
        step, total = round(t * n), round(m * n)
        if (abs(t * n - step) > 1e-6 or not last_step < step <= budget
                or abs(m * n - total) > 1e-6 or (total - n) % 2 or abs(total) > n
                or not 0 <= site < n or symbol not in (-1, 1)
                or symbols.get(site, -symbol) != -symbol
                or (last_total is not None and total - last_total != 2 * symbol)):
            return False
        last_step, last_total, symbols[site] = step, total, symbol
    return not events or events[-1][3] == final_m


def check_thermal(data: dict, tally: Tally) -> None:
    runs, blocks = data["runs"], data["events"]
    budget = math.ceil(wl.THERMAL_T_END * wl.THERMAL_N)
    tally.check([r[0] for r in runs] == list(range(wl.THERMAL_TRAJECTORIES))
                and len(blocks) == len(runs),
                "runs.csv and events.csv do not hold one entry per trajectory")
    for (tid, halted, symbol, steps, m), events in zip(runs, blocks):
        ended = (symbol in (-1, 1) and m == symbol) if halted else steps == budget
        tally.check(ended and _replays(events, m), f"trajectory {tid} does not replay")


def corrupt_thermal(data: dict) -> dict:
    blocks = list(data["events"])
    t, site, symbol, m = blocks[0][0]
    blocks[0] = [(t, site, symbol, m + 2.0 / wl.THERMAL_N)] + blocks[0][1:]
    return {"runs": data["runs"], "events": blocks}


# exact_grid: probability is conserved and <m>(t) relaxes as the closed form


def parse_exact(out_dir: Path, seed: int) -> dict:
    def table(path: Path) -> np.ndarray:
        return np.loadtxt(io.StringIO("\n".join(data_lines(path))), delimiter=",", ndmin=2)

    return {"dist": table(out_dir / "dist.csv"), "summary": table(out_dir / "dist.summary.csv"),
            "start": wl.exact_start(seed)}


def check_exact(data: dict, tally: Tally) -> None:
    dim = 2**wl.EXACT_N
    times = np.linspace(0.0, wl.EXACT_T_END, wl.EXACT_T_STEPS + 1)
    dist, summary = data["dist"], data["summary"]
    tally.check(dist.shape == (times.size * dim, 3) and summary.shape == (times.size, 2),
                f"grid shapes {dist.shape} and {summary.shape}")
    if dist.shape != (times.size * dim, 3) or summary.shape != (times.size, 2):
        return
    # rounding each entry to `digits` significant digits moves the sum by at
    # most half a unit in the last place, summed over the entries
    mass_tol = 10.0 ** (1 - wl.EXACT_DIGITS)
    states = np.arange(dim)
    for k, t in enumerate(times):
        block = dist[k * dim:(k + 1) * dim]
        mass = block[:, 2].sum()
        tally.check(np.allclose(block[:, 0], t, rtol=1e-8, atol=0.0)
                    and np.array_equal(block[:, 1], states) and block[:, 2].min() >= 0.0
                    and abs(mass - 1.0) <= mass_tol,
                    f"t={t:g}: sum p - 1 = {mass - 1.0:.3g}")
    m0 = 2.0 * bin(data["start"]).count("1") / wl.EXACT_N - 1.0
    for t, m in summary:
        predicted = m0 * math.exp(-(1.0 - wl.EXACT_GAMMA) * t)
        tally.check(abs(m - predicted) <= 1e-8 * abs(predicted),
                    f"t={t:g}: <m>={float(m)!r}, relaxation law gives {predicted!r}")


def corrupt_exact(data: dict) -> dict:
    dist = data["dist"].copy()
    dist[0, 2] += 1e-6
    return dict(data, dist=dist)


# equilibrium: the solved law is Gibbs and the sampler keeps it stationary


def parse_equilibrium(out_dir: Path, seed: int) -> dict:
    path = out_dir / "equilibrium.csv"
    basis = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln.startswith("# basis: ")]
    table = np.array([ln.split(",") for ln in data_lines(path)], dtype=np.float64)
    return {"basis": int(basis[0].split(": ")[1]) if basis else 0,
            "stationary": table[:, 1], "gibbs": table[:, 2], "counts": table[:, 3]}


def check_equilibrium(data: dict, tally: Tally) -> None:
    from voterchain.core import ModelParams
    from voterchain.dynamics import detailed_balance_residual
    from voterchain.verify import multinomial_z

    pi, gibbs, counts = data["stationary"], data["gibbs"], data["counts"]
    tally.check(data["basis"] == 1 and pi.size == 2**wl.EQ_N
                and counts.sum() == wl.EQ_SAMPLES,
                f"basis {data['basis']}, {pi.size} states, {counts.sum()} samples")
    tv = 0.5 * float(np.abs(pi - gibbs).sum())
    tally.check(tv <= 1e-10, f"TV(stationary, gibbs) = {tv:.3g}")
    params = ModelParams.from_physical(wl.EQ_COUPLING, wl.EQ_TEMPERATURE)
    residual = detailed_balance_residual(wl.EQ_N, params)
    tally.check(residual <= 1e-12, f"detailed-balance residual {residual:.3g}")
    z = multinomial_z(counts, np.clip(pi, 0.0, None))
    tally.check(z <= 3.0, f"final-state histogram against the stationary law: z = {z:.3g}")


def corrupt_equilibrium(data: dict) -> dict:
    pi = data["stationary"].copy()
    pi[0] += 1e-9
    return dict(data, stationary=pi)


VALIDATORS = {
    "consensus": (parse_consensus, check_consensus, corrupt_consensus),
    "thermal_events": (parse_thermal, check_thermal, corrupt_thermal),
    "exact_grid": (parse_exact, check_exact, corrupt_exact),
    "equilibrium": (parse_equilibrium, check_equilibrium, corrupt_equilibrium),
}


def validate(workload: str, out_dir: Path, seed: int, tally: Tally) -> None:
    """Check one repetition's outputs, then run the negative control on them."""
    parse, check, corrupt = VALIDATORS[workload]
    try:
        data = parse(out_dir, seed)
    except (OSError, ValueError, IndexError) as exc:
        tally.check(False, f"unreadable output: {exc}")
        return
    check(data, tally)
    control = Tally()
    check(corrupt(data), control)
    tally.check(control.failed > 0, "negative control: a corrupted output passed validation")
