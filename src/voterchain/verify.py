"""Named verification checks shared by the command-line harness and the tests.

Each check measures one contract of the package against an independent route:
exhaustive enumeration, closed forms, finite differences, or seeded sampling
with explicit statistical bounds.  Statistical checks derive their streams
from fixed substreams of one master seed, so a report is reproducible end to
end.  A CheckResult records the measured residual next to its tolerance;
checks never clamp or round in the direction that would hide a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Boundary,
    ModelParams,
    SpinTape,
    encode_state,
    magnetization_vector,
    spin_table,
    state_energies,
)
from .dynamics import (
    build_generator,
    column_sum_residual,
    detailed_balance_residual,
    evolve_exact,
    flux_residual,
    kmc_sample,
    mean_magnetization_curve,
    point_mass,
    rates,
    stationary_distributions,
)
from .thermo import (
    LN2,
    SI_BOLTZMANN,
    entropy,
    erasure_energy,
    free_energy,
    gibbs_brute_force,
    gibbs_entropy,
    gibbs_probabilities,
    landauer_floor,
)
from .voter import Status, TuringVoter


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


def _result(name: str, residual: float, tolerance: float, detail: str = "",
            passed: bool | None = None) -> CheckResult:
    if passed is None:
        passed = residual <= tolerance
    return CheckResult(name=name, passed=bool(passed), residual=float(residual),
                       tolerance=float(tolerance), detail=detail)


def multinomial_z(counts: np.ndarray, probs: np.ndarray) -> float:
    """Pearson chi-square z-score of observed counts against cell probabilities.

    Cells with expected count below 5 are pooled (smallest first) before the
    statistic is formed; the score is (chi2 - df)/sqrt(2 df) with df = cells-1,
    so values within about 3 are consistent with pure sampling noise.
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    expected = np.asarray(probs, dtype=np.float64) * total
    order = np.argsort(expected)
    tail_cut = int(np.searchsorted(np.cumsum(expected[order]), 5.0)) + 1
    keep = order[tail_cut:]
    keep = keep[expected[keep] >= 5.0]
    small = np.setdiff1d(order, keep, assume_unique=False)
    cells_c = [counts[keep]]
    cells_e = [expected[keep]]
    if small.size > 0:
        cells_c.append([counts[small].sum()])
        cells_e.append([expected[small].sum()])
    c = np.concatenate(cells_c)
    e = np.concatenate(cells_e)
    mask = e > 0
    c, e = c[mask], e[mask]
    chi2 = float(((c - e) ** 2 / e).sum())
    df = max(c.size - 1, 1)
    return (chi2 - df) / math.sqrt(2.0 * df)


def poisson_z(samples: np.ndarray, lam: float) -> float:
    """Largest z-score of the sample mean and variance against Poisson(lam)."""
    samples = np.asarray(samples, dtype=np.float64)
    m = samples.size
    z_mean = abs(samples.mean() - lam) / math.sqrt(lam / m)
    z_var = abs(samples.var(ddof=1) - lam) / math.sqrt((lam + 2.0 * lam**2) / m)
    return max(z_mean, z_var)


def check_generator_columns() -> CheckResult:
    """Columns of the rate operator sum to zero and off-diagonals are >= 0."""
    worst = 0.0
    cases = []
    for gamma in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for n in (1, 2, 3, 5, 8, 10):
            cases.append((n, ModelParams.from_gamma(gamma)))
            cases.append((n, ModelParams.from_gamma(gamma, boundary=Boundary.OPEN)))
    for bj in (-1.3, 0.7):
        cases.append((6, ModelParams.from_physical(bj, 1.0, boundary=Boundary.OPEN)))
    for n, params in cases:
        gen = build_generator(n, params)
        worst = max(worst, column_sum_residual(gen))
        offdiag = gen.matrix.copy()
        offdiag.setdiag(0.0)
        worst = max(worst, -min(0.0, offdiag.min() if offdiag.nnz else 0.0))
    return _result("generator_columns", worst, 1e-12)


def check_probability_conservation() -> CheckResult:
    """exp(G t) preserves total mass and nonnegativity at short and long times."""
    worst = 0.0
    for n in (2, 4, 8):
        for gamma in (0.0, 0.5, 0.9, 1.0):
            gen = build_generator(n, ModelParams.from_gamma(gamma))
            starts = [point_mass(2**n - 1, n), np.full(2**n, 1.0 / 2**n)]
            for p0 in starts:
                for t in (0.1, 1.0, 10.0):
                    p = evolve_exact(p0, gen, t)
                    worst = max(worst, abs(float(p.sum()) - 1.0), -float(p.min()))
    return _result("probability_conservation", worst, 1e-12)


def check_detailed_balance() -> CheckResult:
    """Flip fluxes balance the Gibbs weights when gamma = tanh(2J/kT)."""
    worst = 0.0
    for n in range(2, 11):
        for bj in (-2.0, -0.5, 0.5, 1.0, 2.0):
            params = ModelParams.from_physical(bj, 1.0)
            worst = max(worst, detailed_balance_residual(n, params))
    return _result("detailed_balance", worst, 1e-12)


def check_detailed_balance_injected() -> CheckResult:
    """Negative control: a deliberately mismatched gamma must break the
    flux balance, proving the check can fail."""
    bj = 0.7
    gamma_wrong = math.tanh(2.0 * bj) + 0.05
    w = rates(spin_table(6), ModelParams.from_gamma(gamma_wrong))
    energies = state_energies(6, bj, 0.0, Boundary.PERIODIC)
    residual = flux_residual(w, energies, 1.0)
    return _result("detailed_balance_injected", residual, 1e-12,
                   detail="expected failure: gamma was shifted off tanh(2J/kT) by 0.05")


def check_gibbs_stationarity() -> CheckResult:
    """G annihilates the Gibbs distribution of the chain's Hamiltonian."""
    worst = 0.0
    for n in (2, 3, 5, 8):
        for bj in (-2.0, -0.5, 0.5, 1.0, 2.0):
            params = ModelParams.from_physical(bj, 1.0)
            gen = build_generator(n, params)
            p = gibbs_probabilities(n, bj, 1.0, boundary=Boundary.PERIODIC)
            worst = max(worst, float(np.abs(gen.matrix @ p).max()))
    return _result("gibbs_stationarity", worst, 1e-10)


def check_stationary_matches_gibbs() -> CheckResult:
    """The solved stationary distribution equals the Gibbs distribution
    (total variation) for mixing parameters."""
    worst = 0.0
    for n in (2, 4, 6, 8):
        for bj in (0.5, 1.0):
            params = ModelParams.from_physical(bj, 1.0)
            dists = stationary_distributions(build_generator(n, params))
            p = dists[0]
            q = gibbs_probabilities(n, bj, 1.0, boundary=Boundary.PERIODIC)
            worst = max(worst, 0.5 * float(np.abs(p - q).sum()))
    return _result("stationary_matches_gibbs", worst, 1e-10)


def check_landauer_bound(seed: int = 0) -> CheckResult:
    """S(N,J,T,k) >= N k ln 2 over a random grid of sizes and couplings."""
    rng = np.random.default_rng([seed, 1])
    worst = -np.inf
    for _ in range(200):
        n = int(rng.integers(1, 65))
        t = float(rng.uniform(0.5, 2.0))
        j = float(rng.uniform(-5.0, 5.0)) * t
        gap = entropy(n, j, t) - landauer_floor(n)
        worst = max(worst, -gap)
    worst += 0.0  # never report negative zero
    return _result("landauer_bound", worst, 1e-12,
                   detail="residual is the largest bound violation over 200 points")


def check_landauer_equality(seed: int = 0) -> CheckResult:
    """The bound is tight exactly for one cell or zero coupling."""
    rng = np.random.default_rng([seed, 2])
    bad = 0
    for _ in range(200):
        n = int(rng.integers(1, 65))
        t = float(rng.uniform(0.5, 2.0))
        j = float(rng.uniform(-5.0, 5.0)) * t
        if rng.random() < 0.15:
            j = 0.0
        tight = entropy(n, j, t) - landauer_floor(n) <= 1e-12
        if tight != (n == 1 or j == 0.0):
            bad += 1
    return _result("landauer_equality", float(bad), 0.0,
                   detail="points where tightness disagrees with (N=1 or J=0)")


def check_n1_equality(seed: int = 0) -> CheckResult:
    """A single cell sits exactly at the one-bit floor for any J, T."""
    rng = np.random.default_rng([seed, 3])
    worst = 0.0
    for _ in range(20):
        j = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(0.1, 10.0))
        worst = max(worst, abs(entropy(1, j, t) - LN2))
    return _result("n1_equality", worst, 1e-12)


def check_closedform_free_energy() -> CheckResult:
    """Closed-form F against full enumeration, open chain."""
    worst = 0.0
    for n in range(2, 13):
        for x in (0.3, 1.0, 2.5):
            closed = free_energy(n, x, 1.0)
            brute = gibbs_brute_force(n, x, 1.0).free_energy
            worst = max(worst, abs(closed - brute) / abs(brute))
    return _result("closedform_free_energy", worst, 1e-10)


def check_closedform_entropy() -> CheckResult:
    """Calorimetric S (gibbs_entropy) against enumerated Gibbs entropy, open
    chain, and the reported entropy() against the same enumeration shifted
    by its documented offset 2(N-1)(J/T)tanh(J/kT)."""
    worst = 0.0
    for n in range(2, 13):
        for x in (0.3, 1.0, 2.5):
            brute = gibbs_brute_force(n, x, 1.0).entropy
            worst = max(worst, abs(gibbs_entropy(n, x, 1.0) - brute) / abs(brute))
            offset = 2.0 * (n - 1) * x * math.tanh(x)
            worst = max(worst, abs(entropy(n, x, 1.0) - brute - offset) / offset)
    return _result("closedform_entropy", worst, 1e-10,
                   detail="gibbs_entropy equals enumerated -sum p ln p; entropy() "
                          "exceeds it by exactly 2(N-1)(J/T)tanh(J/kT)")


def check_entropy_derivative() -> CheckResult:
    """Calorimetric S (gibbs_entropy) against -dF/dT by central differences."""
    worst = 0.0
    for n in range(2, 13):
        for x in (0.3, 1.0, 2.5):
            t = 1.0
            dt = 1e-5 * t
            s_fd = -(free_energy(n, x, t + dt) - free_energy(n, x, t - dt)) / (2.0 * dt)
            worst = max(worst, abs(gibbs_entropy(n, x, t) - s_fd) / abs(s_fd))
    return _result("entropy_derivative", worst, 1e-6,
                   detail="calorimetric gibbs_entropy; entropy() sits above it by "
                          "the offset closedform_entropy pins")


def check_voter_absorbing() -> CheckResult:
    """At gamma = 1 every flip rate vanishes on uniform tapes."""
    worst = 0.0
    for boundary in (Boundary.PERIODIC, Boundary.OPEN):
        params = ModelParams.from_gamma(1.0, boundary=boundary)
        for n in range(2, 11):
            w = rates(spin_table(n), params)
            worst = max(worst, float(np.abs(w[[0, 2**n - 1], :]).max()))
    return _result("voter_absorbing", worst, 0.0)


def check_magnetization_conserved() -> CheckResult:
    """At gamma = 1 the generator conserves the expected degree-weighted
    magnetization: each symbol weighted by its site's neighbour count (2 on a
    ring, 1 at the ends of an open chain) over the total weight.  On a ring
    that is the plain magnetization; on an open chain the plain one drifts.
    """
    worst = 0.0
    for boundary in (Boundary.PERIODIC, Boundary.OPEN):
        params = ModelParams.from_gamma(1.0, boundary=boundary)
        for n in range(2, 9):
            gen = build_generator(n, params)
            degree = np.full(n, 2.0)
            if boundary is Boundary.OPEN:
                degree[[0, -1]] = 1.0
            m = spin_table(n) @ (degree / degree.sum())
            worst = max(worst, float(np.abs(gen.matrix.T @ m).max()))
    return _result("magnetization_conserved", worst, 1e-12)


def check_consensus_split(seed: int = 0, trajectories: int = 10_000) -> CheckResult:
    """From a mixed 2-cell tape at gamma = 1, each consensus symbol wins
    half the time (3 sigma binomial band)."""
    params = ModelParams.from_gamma(1.0)
    tape = SpinTape([+1, -1])
    children = np.random.SeedSequence([seed, 4]).spawn(trajectories)
    ups = 0
    for child in children:
        machine = TuringVoter(tape, params, child)
        outcome = machine.run_until_halt(max_steps=1000)
        if outcome.status is not Status.HALTED:
            return _result("consensus_split", math.inf, 0.015,
                           detail="a trajectory failed to reach consensus")
        if outcome.consensus_symbol == 1:
            ups += 1
    sigma = 0.5 / math.sqrt(trajectories)
    return _result("consensus_split", abs(ups / trajectories - 0.5), 3.0 * sigma)


def check_kmc_vs_exact(seed: int = 0, trajectories: int = 100_000) -> CheckResult:
    """Continuous-time samples at t=1 reproduce exp(G t) (pooled chi-square)."""
    n = 6
    params = ModelParams.from_physical(0.7, 1.0)
    tape = SpinTape.alternating(n)
    gen = build_generator(n, params)
    probs = evolve_exact(point_mass(encode_state(tape), n), gen, 1.0)
    counts = np.zeros(2**n, dtype=np.int64)
    children = np.random.SeedSequence([seed, 5]).spawn(trajectories)
    for child in children:
        final = kmc_sample(tape, params, 1.0, child).final_tape()
        counts[encode_state(final)] += 1
    z = multinomial_z(counts, np.clip(probs, 0.0, None))
    return _result("kmc_vs_exact", z, 3.0, detail=f"{trajectories} trajectories, n={n}")


def check_kmc_poisson(seed: int = 0, trajectories: int = 100_000) -> CheckResult:
    """At gamma = 0 a single cell flips as a Poisson process of rate 1/2."""
    params = ModelParams.from_gamma(0.0)
    tape = SpinTape.uniform(1)
    children = np.random.SeedSequence([seed, 6]).spawn(trajectories)
    counts = np.fromiter(
        (len(kmc_sample(tape, params, 10.0, child).events) for child in children),
        dtype=np.float64, count=trajectories)
    return _result("kmc_poisson", poisson_z(counts, 5.0), 3.0,
                   detail="mean and variance of event counts on [0, 10]")


def check_relaxation_law() -> CheckResult:
    """Exact <m>(t) decays as m0 exp(-(1-gamma) t) from translation-invariant
    starts on periodic chains."""
    times = np.array([0.1, 0.5, 1.0, 2.5])
    worst = 0.0
    for n in (2, 4, 6, 8):
        for gamma in (0.0, 0.3, 0.7, 1.0):
            gen = build_generator(n, ModelParams.from_gamma(gamma))
            starts = [point_mass(2**n - 1, n)]
            if n == 6:
                defects = np.zeros(2**n)
                for i in range(n):
                    defects[(2**n - 1) ^ (1 << i)] = 1.0 / n
                starts.append(defects)
            for p0 in starts:
                m0 = float(magnetization_vector(n) @ p0)
                curve = mean_magnetization_curve(p0, gen, times)
                predicted = m0 * np.exp(-(1.0 - gamma) * times)
                worst = max(worst, float(np.max(np.abs(curve - predicted)
                                                / np.abs(predicted))))
    return _result("relaxation_law", worst, 1e-8)


def check_erasure_petabit() -> CheckResult:
    """Minimal energy to erase 10^15 bits at 300 K lands near 2.87 microjoules."""
    value = erasure_energy(10**15, 300.0, SI_BOLTZMANN)
    lo, hi = 2.8e-6, 2.95e-6
    outside = max(0.0, lo - value, value - hi)
    return _result("erasure_petabit", outside, 0.0,
                   detail=f"value {value:.6e} J, window [{lo:.2e}, {hi:.2e}] J")


def check_seed_determinism() -> CheckResult:
    """Identical seeds give identical event sequences for both samplers."""
    params = ModelParams.from_gamma(0.5)
    tape = SpinTape.alternating(5)
    runs = []
    for _ in range(2):
        machine = TuringVoter(tape, params, 1234)
        runs.append(tuple(machine.step() for _ in range(300)))
    same_machine = runs[0] == runs[1]
    paths = [kmc_sample(tape, params, 5.0, 99) for _ in range(2)]
    same_kmc = paths[0].events == paths[1].events
    ok = same_machine and same_kmc
    return _result("seed_determinism", 0.0 if ok else 1.0, 0.0)


def run_verify(seed: int = 0, fast: bool = False,
               inject_gamma_error: bool = False) -> list[CheckResult]:
    """Run the full suite; `fast` shrinks the sampled checks, and
    `inject_gamma_error` appends the negative control (which must fail)."""
    scale = 5 if fast else 1
    results = [
        check_generator_columns(),
        check_probability_conservation(),
        check_detailed_balance(),
        check_gibbs_stationarity(),
        check_stationary_matches_gibbs(),
        check_landauer_bound(seed),
        check_landauer_equality(seed),
        check_n1_equality(seed),
        check_closedform_free_energy(),
        check_closedform_entropy(),
        check_entropy_derivative(),
        check_voter_absorbing(),
        check_magnetization_conserved(),
        check_consensus_split(seed, 10_000 // scale),
        check_kmc_vs_exact(seed, 100_000 // scale),
        check_kmc_poisson(seed, 100_000 // scale),
        check_relaxation_law(),
        check_erasure_petabit(),
        check_seed_determinism(),
    ]
    if inject_gamma_error:
        results.append(check_detailed_balance_injected())
    return results
