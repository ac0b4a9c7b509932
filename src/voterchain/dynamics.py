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
a single open cell has no neighbors and rate 1/2.  `rates` is the one place
this rule is written; the generator, the detailed-balance residual and both
samplers read their rates from it.  The samplers keep each site's rate and
refresh only the flipped site and its two neighbours, by a per-site lookup on
the (left, self, right) symbols that is read off `rates` once per chain size
and parameters.

The probability vector over the 2^N configurations obeys dP/dt = G P with
the generator G holding the rate from sigma to sigma' at entry
(sigma', sigma); every column sums to zero.  Its stationary laws are the
results the machine can settle on: one law per closed class of the flip
graph, such as the two consensus tapes at gamma = 1 or the two alternating
tapes of an even ring at gamma = -1, and the single Gibbs law in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply, spsolve

from .core import Boundary, ModelParams, SpinTape, magnetization_vector, spin_table, state_energies

EXACT_SITE_CAP = 14


@dataclass(frozen=True)
class GeneratorMatrix:
    """Transition-rate operator over 2^n_sites configurations.

    Entry (sigma', sigma) of `matrix` is the flip rate from sigma to sigma';
    off-diagonals connect configurations differing at exactly one site.  Only
    nonzero rates are stored, so the stored pattern is the flip graph.
    """

    n_sites: int
    matrix: sparse.csc_array

    @property
    def dim(self) -> int:
        return 2**self.n_sites


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


def rates(spins, params: ModelParams) -> np.ndarray:
    """Flip rate w_i of every site, over the last axis of a +-1 array.

    One tape gives its n rates, spin_table(n) gives the (2^n, n) table, and
    any stack of tapes gives one row of rates per tape.  This is the only
    place the flip rule and its open-chain endpoint rule are written.
    """
    s = np.asarray(spins, dtype=np.float64)
    coef = np.full(s.shape[-1], 0.5 * params.gamma)
    if params.boundary is Boundary.PERIODIC:
        ends = s[..., -1:], s[..., :1]
    else:
        # a missing neighbour counts 0; an end's single bond is weighted by
        # tanh(J/kT), written through gamma = tanh(2J/kT) by the half-angle
        # identity so it needs no physical triple and reaches 1 at gamma = 1
        ends = (np.zeros_like(s[..., :1]),) * 2
        g = params.gamma
        coef[0] = coef[-1] = g / (1.0 + math.sqrt(1.0 - g * g))
    padded = np.concatenate([ends[0], s, ends[1]], axis=-1)
    return 0.5 * (1.0 - coef * s * (padded[..., :-2] + padded[..., 2:]))


def _neighbourhoods(spins) -> np.ndarray:
    """Code 4 l + 2 c + r of each site's (left, self, right) symbols, read
    cyclically over the last axis, with bit 1 for a +1 symbol."""
    b = (np.asarray(spins) > 0).astype(np.int64)
    padded = np.concatenate([b[..., -1:], b, b[..., :1]], axis=-1)
    return 4 * padded[..., :-2] + 2 * b + padded[..., 2:]


@lru_cache(maxsize=32)
def _rate_lookup(n: int, params: ModelParams) -> tuple[tuple[float, ...], ...]:
    """Per-site rate by neighbourhood code, read off `rates` on probe tapes.

    Cell j of probe k holds bit (j mod 3) of k, so over k = 0..7 every site
    off the wrap-around sees all eight neighbourhoods; eight more probes
    rolled by n // 2 move the two wrap-around sites inside.  Sites with equal
    rows share one tuple (the rate classes), so a table costs one reference
    per site.  Codes a chain of one or two cells cannot show stay 0.
    """
    bits = (np.arange(8)[:, None] >> (np.arange(n) % 3)) & 1
    probes = 2 * np.concatenate([bits, np.roll(bits, n // 2, axis=1)]) - 1
    table = np.zeros((n, 8))
    table[np.arange(n), _neighbourhoods(probes)] = rates(probes, params)
    classes, row_of = np.unique(table, axis=0, return_inverse=True)
    rows = [tuple(row) for row in classes.tolist()]
    return tuple(rows[k] for k in row_of.ravel().tolist())


def _live_rates(symbols: np.ndarray, params: ModelParams
                ) -> tuple[np.ndarray, list[int], tuple[tuple[float, ...], ...]]:
    """Rates of a tape about to be sampled, with the neighbourhood codes and
    the lookup table through which `_refresh` keeps them current."""
    return (rates(symbols, params), _neighbourhoods(symbols).tolist(),
            _rate_lookup(symbols.size, params))


def _refresh(site: int, codes: list[int], w: list[float] | np.ndarray,
             table: tuple[tuple[float, ...], ...]) -> None:
    """After `site` flips, update the neighbourhood codes and the rates `w`
    of the site and its two neighbours."""
    n = len(codes)
    left, right = (site - 1) % n, (site + 1) % n
    codes[left] ^= 1
    codes[site] ^= 2
    codes[right] ^= 4
    for i in (left, site, right):
        w[i] = table[i][codes[i]]


def build_generator(n: int, params: ModelParams) -> GeneratorMatrix:
    """Assemble the 2^n x 2^n transition-rate operator from single-site rates."""
    if n < 1:
        raise ValueError(f"a generator needs at least one cell, got n={n}")
    if n > EXACT_SITE_CAP:
        raise ValueError(f"exact operations capped at n={EXACT_SITE_CAP}, got {n}")
    w = rates(spin_table(n), params)
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
    probability mass is conserved up to roundoff.  When t times the largest
    exit rate is below the smallest normal float (t = 0 included), the step
    underflows, P(t) differs from P(0) by less than that, and a copy of P(0)
    is returned.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    p0 = np.asarray(p0, dtype=np.float64)
    if p0.shape != (gen.dim,):
        raise ValueError(f"expected probability vector of length {gen.dim}, got {p0.shape}")
    if t * np.abs(gen.matrix.diagonal()).max() < np.finfo(np.float64).tiny:
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
    """Basis of stationary distributions: one law per closed class.

    The classes are the strongly connected components of the flip graph (the
    same for the graph and its transpose, so the generator is labelled as
    stored); a class is closed when no transition leaves it.  Each closed
    class carries exactly one stationary law, found by solving its restricted
    generator with the last row replaced by normalization, and zero outside
    the class.  The laws are ordered by the smallest state in their class.
    A solve that leaves a residual of G p = 0 or of the normalization above
    1e-8, or a non-finite one, raises numpy.linalg.LinAlgError.
    """
    g = gen.matrix
    _, label = connected_components(g, connection="strong")
    # entry (to, frm) is a transition frm -> to; the classes it leaves are open
    to, frm = g.nonzero()
    leaky = np.unique(label[frm[label[to] != label[frm]]])
    _, first = np.unique(label, return_index=True)
    basis = []
    for start in np.setdiff1d(first, first[leaky]):
        members = np.flatnonzero(label == label[start])
        g_c = g[members][:, members]
        a = sparse.vstack([g_c[:-1], np.ones((1, members.size))], format="csc")
        b = np.zeros(members.size)
        b[-1] = 1.0
        p = spsolve(a, b)
        residual = float(np.abs(np.append(g_c @ p, p.sum() - 1.0)).max())
        if not residual <= 1e-8:
            raise np.linalg.LinAlgError(
                f"stationary solve on a class of {members.size} states left residual {residual}")
        law = np.zeros(gen.dim)
        law[members] = p / p.sum()
        basis.append(law)
    return basis


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
    if not params.has_temperature:
        raise ValueError("detailed balance needs the physical triple (no beta available)")
    if n > EXACT_SITE_CAP:
        raise ValueError(f"exact operations capped at n={EXACT_SITE_CAP}, got {n}")
    w = rates(spin_table(n), params)
    energies = state_energies(n, params.coupling, 0.0, params.boundary)
    return flux_residual(w, energies, params.beta)


def mean_magnetization_curve(p0: np.ndarray, gen: GeneratorMatrix,
                             times: np.ndarray | list[float]) -> np.ndarray:
    """<m>(t) = sum_sigma m(sigma) P_sigma(t), m the mean symbol, at each
    requested time.

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


def kmc_sample(tape0: SpinTape, params: ModelParams, t_end: float,
               seed: int | np.random.SeedSequence | np.random.Generator) -> Trajectory:
    """Exact continuous-time sampling (Gillespie) of the flip process.

    Waiting times are exponential at the total rate sum_i w_i of the current
    configuration; the flipped site is drawn proportionally to w_i.
    Reproducible given the seed.  The rates are refreshed after each flip
    as in the discrete machine.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if tape0.boundary is not params.boundary:
        raise ValueError("tape and params boundary conditions disagree")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = tape0.n
    w, codes, table = _live_rates(tape0.symbols, params)
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
        events.append((t, site))
        _refresh(site, codes, w, table)
    return Trajectory(initial=tape0, events=tuple(events), t_end=float(t_end))
