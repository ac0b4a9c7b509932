"""Continuous-time single-flip dynamics over the full configuration space.

The chain evolves by single-site flips at rate

    w_i = 1/2 [1 - (gamma/2) s_i (s_{i-1} + s_{i+1})]

(periodic sites and open-chain interior sites).  Open-chain endpoints have
one neighbor, and the two-neighbor rule applied literally there breaks
detailed balance; the endpoint rate is instead 1/2 [1 - s_i s_nbr tanh(J/kT)],
which balances the single bond.  The tanh factor is computed from gamma alone
as gamma / (1 + sqrt(1 - gamma^2)), so it needs no physical triple and equals
1 at gamma = 1 (uniform tapes stay absorbing on open chains).  A single
periodic cell is its own left and right neighbor, giving w = (1 - gamma)/2;
a single open cell has no neighbors and rate 1/2.

The probability vector over the 2^N configurations obeys dP/dt = G P with
the generator G holding the rate from sigma to sigma' at entry
(sigma', sigma); every column sums to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply, spsolve

from .core import Boundary, ModelParams, SpinTape, magnetization_vector, spin_table, state_energies

EXACT_SITE_CAP = 14

_ABSORBING_TOL = 1e-14


@dataclass(frozen=True)
class GeneratorMatrix:
    """Transition-rate operator over 2^n_sites configurations.

    Entry (sigma', sigma) of `matrix` is the flip rate from sigma to sigma';
    off-diagonals connect configurations differing at exactly one site.
    """

    n_sites: int
    matrix: sparse.csc_array

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


@dataclass(frozen=True)
class Trajectory:
    """One continuous-time sample path: flip events (time, site) on [0, t_end]."""

    initial: SpinTape
    events: tuple[tuple[float, int], ...]
    t_end: float

    def final_tape(self) -> SpinTape:
        s = self.initial.symbols.copy()
        for _, site in self.events:
            s[site] = -s[site]
        return SpinTape(s, self.initial.boundary)


def _require_zero_field(params: ModelParams) -> None:
    if params.h != 0.0:
        raise ValueError("dynamics require h = 0 (field supported statically only)")


def _endpoint_factor(params: ModelParams) -> float:
    # single-bond coupling weight at an open end: tanh(J/kT) expressed through
    # gamma = tanh(2J/kT) via the half-angle identity, so it exists without the
    # physical triple and reaches exactly 1 at gamma = 1
    g = params.gamma
    return g / (1.0 + math.sqrt(1.0 - g * g))


def site_rates(tape: SpinTape, params: ModelParams) -> np.ndarray:
    """Flip rate w_i at every site of one configuration."""
    _require_zero_field(params)
    s = tape.symbols.astype(np.float64)
    n = tape.n
    if tape.boundary is Boundary.PERIODIC:
        nbr = np.roll(s, 1) + np.roll(s, -1)
        return 0.5 * (1.0 - 0.5 * params.gamma * s * nbr)
    w = np.empty(n)
    if n == 1:
        w[0] = 0.5
        return w
    w[1:-1] = 0.5 * (1.0 - 0.5 * params.gamma * s[1:-1] * (s[:-2] + s[2:]))
    fac = _endpoint_factor(params)
    w[0] = 0.5 * (1.0 - fac * s[0] * s[1])
    w[-1] = 0.5 * (1.0 - fac * s[-1] * s[-2])
    return w


def glauber_rate(tape: SpinTape, site: int, params: ModelParams) -> float:
    """Flip rate of one site; see the module docstring for the endpoint rule."""
    if not 0 <= site < tape.n:
        raise ValueError(f"site {site} out of range for {tape.n} cells")
    return float(site_rates(tape, params)[site])


def rates_table(n: int, params: ModelParams) -> np.ndarray:
    """(2^n, n) array of flip rates for every configuration and site."""
    _require_zero_field(params)
    s = spin_table(n).astype(np.float64)
    if params.boundary is Boundary.PERIODIC:
        nbr = np.roll(s, 1, axis=1) + np.roll(s, -1, axis=1)
        return 0.5 * (1.0 - 0.5 * params.gamma * s * nbr)
    w = np.empty_like(s)
    if n == 1:
        w[:] = 0.5
        return w
    w[:, 1:-1] = 0.5 * (1.0 - 0.5 * params.gamma * s[:, 1:-1] * (s[:, :-2] + s[:, 2:]))
    fac = _endpoint_factor(params)
    w[:, 0] = 0.5 * (1.0 - fac * s[:, 0] * s[:, 1])
    w[:, -1] = 0.5 * (1.0 - fac * s[:, -1] * s[:, -2])
    return w


def build_generator(n: int, params: ModelParams) -> GeneratorMatrix:
    """Assemble the 2^n x 2^n transition-rate operator from single-site rates."""
    if n > EXACT_SITE_CAP:
        raise ValueError(f"exact operations capped at n={EXACT_SITE_CAP}, got {n}")
    w = rates_table(n, params)
    dim = 2**n
    idx = np.arange(dim, dtype=np.int64)
    rows = np.concatenate([idx ^ (1 << i) for i in range(n)])
    cols = np.tile(idx, n)
    data = w.T.reshape(-1)
    g = sparse.csc_array((data, (rows, cols)), shape=(dim, dim))
    g = g + sparse.dia_array((-w.sum(axis=1)[None, :], [0]), shape=(dim, dim)).tocsc()
    return GeneratorMatrix(n_sites=n, matrix=g)


def column_sum_residual(gen: GeneratorMatrix) -> float:
    """Max |column sum| of the generator; zero for a conservative operator."""
    return float(np.abs(np.asarray(gen.matrix.sum(axis=0)).ravel()).max())


def point_mass(index: int, n: int) -> np.ndarray:
    p = np.zeros(2**n)
    p[index] = 1.0
    return p


def uniform_distribution(n: int) -> np.ndarray:
    return np.full(2**n, 1.0 / 2**n)


def evolve_exact(p0: np.ndarray, gen: GeneratorMatrix, t: float) -> np.ndarray:
    """Propagate P(t) = exp(G t) P(0) by the scaled matrix-exponential action.

    Error is controlled near machine precision in max norm (well inside 1e-10);
    probability mass is conserved up to roundoff.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    p0 = np.asarray(p0, dtype=np.float64)
    if p0.shape != (gen.dim,):
        raise ValueError(f"expected probability vector of length {gen.dim}, got {p0.shape}")
    if t == 0:
        return p0.copy()
    return expm_multiply(gen.matrix * t, p0)


def _stepped(p0: np.ndarray, gen: GeneratorMatrix, times):
    """Yield P(t) at each of the ascending `times`, reaching each one from the
    previous one, so the propagated time totals the last time rather than the
    sum of all of them.  Only the current vector is kept."""
    p, last = p0, 0.0
    for t in times:
        p = evolve_exact(p, gen, t - last)
        last = t
        yield p


def stationary_distributions(gen: GeneratorMatrix) -> list[np.ndarray]:
    """Normalized basis of stationary distributions of the generator.

    Absorbing configurations (zero exit rate) each contribute a point mass;
    otherwise the chain has a unique stationary distribution, found by
    solving G p = 0 with one redundant row replaced by normalization.
    """
    diag = gen.matrix.diagonal()
    absorbing = np.flatnonzero(np.abs(diag) <= _ABSORBING_TOL)
    if absorbing.size > 0:
        return [point_mass(int(i), gen.n_sites) for i in absorbing]
    a = sparse.lil_array(gen.matrix.astype(np.float64))
    a[gen.dim - 1, :] = 1.0
    b = np.zeros(gen.dim)
    b[-1] = 1.0
    p = spsolve(a.tocsc(), b)
    residual = float(np.abs(gen.matrix @ p).max())
    if not np.isfinite(p).all() or residual > 1e-8:
        p = _nullspace_fallback(gen)
    return [p / p.sum()]


def _nullspace_fallback(gen: GeneratorMatrix) -> np.ndarray:
    if gen.n_sites > 12:
        raise ValueError("dense null-space fallback limited to n <= 12")
    _, _, vt = np.linalg.svd(gen.dense())
    v = vt[-1]
    if v.sum() < 0:
        v = -v
    return v


def flux_residual(w: np.ndarray, energies: np.ndarray, beta: float) -> float:
    """Worst relative single-flip flux imbalance of a rate table against
    the weights e^{-beta E}.

    For every configuration sigma and site i, compares
    w_i(sigma) e^{-beta E(sigma)} with w_i(sigma^i) e^{-beta E(sigma^i)}
    (sigma^i = sigma with site i flipped), normalized by the larger flux of
    the pair; energies are shifted per pair so the exponentials stay finite.
    """
    n = w.shape[1]
    idx = np.arange(w.shape[0], dtype=np.int64)
    worst = 0.0
    for i in range(n):
        flipped = idx ^ (1 << i)
        e_ref = np.minimum(energies, energies[flipped])
        flux_out = w[:, i] * np.exp(-beta * (energies - e_ref))
        flux_back = w[flipped, i] * np.exp(-beta * (energies[flipped] - e_ref))
        scale = np.maximum(np.maximum(flux_out, flux_back), 1e-300)
        worst = max(worst, float(np.max(np.abs(flux_out - flux_back) / scale)))
    return worst


def detailed_balance_residual(n: int, params: ModelParams) -> float:
    """Worst single-flip flux imbalance against the Gibbs weights of the
    chain's own Hamiltonian.  Requires the physical triple, which fixes beta.
    """
    _require_zero_field(params)
    if not params.has_temperature:
        raise ValueError("detailed balance needs the physical triple (no beta available)")
    if n > EXACT_SITE_CAP:
        raise ValueError(f"exact operations capped at n={EXACT_SITE_CAP}, got {n}")
    w = rates_table(n, params)
    energies = state_energies(n, params.coupling, 0.0, params.boundary)
    return flux_residual(w, energies, params.beta)


def mean_magnetization_curve(p0: np.ndarray, gen: GeneratorMatrix,
                             times: np.ndarray | list[float]) -> np.ndarray:
    """<m>(t) = sum_sigma magnetization(sigma) P_sigma(t) at each requested time.

    The times may come in any order and repeat; they are visited in ascending
    order and the results are returned in the order given.
    """
    m = magnetization_vector(gen.n_sites)
    times = np.asarray(times, dtype=np.float64)
    order = np.argsort(times, kind="stable")
    curve = np.empty(times.size)
    for k, p in zip(order, _stepped(p0, gen, times[order])):
        curve[k] = m @ p
    return curve


def uniformized_kernel(gen: GeneratorMatrix) -> sparse.csc_array:
    """One-step kernel K = I + G/N of the discrete chain that picks a site
    uniformly and flips with probability w_i; K^j averaged over a Poisson(Nt)
    step count reproduces exp(G t)."""
    dim = gen.dim
    return sparse.identity(dim, format="csc") + gen.matrix * (1.0 / gen.n_sites)


def rate_closure(params: ModelParams, n: int):
    """Scalar site-rate function bound to fixed parameters, for samplers that
    update one site at a time on a raw symbol array."""
    gamma_half = 0.5 * params.gamma
    periodic = params.boundary is Boundary.PERIODIC

    if periodic:
        def rate(s: np.ndarray, i: int) -> float:
            nbr = float(s[i - 1]) + float(s[(i + 1) % n])
            return 0.5 * (1.0 - gamma_half * float(s[i]) * nbr)
        return rate

    fac = _endpoint_factor(params)

    def rate(s: np.ndarray, i: int) -> float:
        if n == 1:
            return 0.5
        if i == 0:
            return 0.5 * (1.0 - fac * float(s[0]) * float(s[1]))
        if i == n - 1:
            return 0.5 * (1.0 - fac * float(s[-1]) * float(s[-2]))
        return 0.5 * (1.0 - gamma_half * float(s[i]) * (float(s[i - 1]) + float(s[i + 1])))

    return rate


def kmc_sample(tape0: SpinTape, params: ModelParams, t_end: float,
               seed: int | np.random.SeedSequence | np.random.Generator) -> Trajectory:
    """Exact continuous-time sampling (Gillespie) of the flip process.

    Waiting times are exponential at the total rate sum_i w_i of the current
    configuration; the flipped site is drawn proportionally to w_i.
    Reproducible given the seed.
    """
    _require_zero_field(params)
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if tape0.boundary is not params.boundary:
        raise ValueError("tape and params boundary conditions disagree")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = tape0.n
    rate = rate_closure(params, n)
    s = tape0.symbols.astype(np.int8).copy()
    w = site_rates(SpinTape(s, tape0.boundary), params)
    events: list[tuple[float, int]] = []
    t = 0.0
    while True:
        total = float(w.sum())
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > t_end:
            break
        u = rng.random() * total
        site = int(np.searchsorted(np.cumsum(w), u, side="right"))
        if site >= n:
            site = n - 1
        s[site] = -s[site]
        events.append((t, site))
        if params.boundary is Boundary.PERIODIC:
            touched = {(site - 1) % n, site, (site + 1) % n}
        else:
            touched = {i for i in (site - 1, site, site + 1) if 0 <= i < n}
        for i in touched:
            w[i] = rate(s, i)
    return Trajectory(initial=tape0, events=tuple(events), t_end=float(t_end))
