"""Continuous-time single-flip dynamics over the full configuration space.

The chain evolves by single-site flips at rate

    w_i = 1/2 [1 - (gamma/2) s_i (s_{i-1} + s_{i+1})]

(periodic sites and open-chain interior sites).  Open-chain endpoints have
one neighbor, and the two-neighbor rule applied literally there breaks
detailed balance; the endpoint rate is instead 1/2 [1 - s_i s_nbr tanh(J/kT)],
which balances the single bond.  The tanh factor is `ModelParams.end`: from
gamma alone it is gamma / (1 + sqrt(1 - gamma^2)), so it needs no physical
triple and equals 1 at gamma = 1 (uniform tapes stay absorbing on open
chains), and from the physical triple it is tanh(J/kT) itself.  A single
periodic cell is its own left and right neighbor, giving w = (1 - gamma)/2;
a single open cell has no neighbors and rate 1/2.  The rule is written once,
in `_rate_lookup`, as a table of each site's rate by its neighbourhood code
4 l + 2 c + r (bit 1 for a +1 symbol, read cyclically).  `rates` gathers
from that table for `build_generator`, whose operator every exact check reads;
both samplers keep each site's rate and, after a flip, look up again only the
flipped site and its two neighbours.

The probability vector over the 2^N configurations obeys dP/dt = G P with
the generator G holding the rate from sigma to sigma' at entry
(sigma', sigma); every column sums to zero.  `evolve_exact` propagates it
by uniformization: with Lambda the largest exit rate, K = I + G/Lambda is a
nonnegative column-stochastic kernel and exp(G t) P = sum_k
Pois(Lambda t; k) K^k P, a Poisson number of steps of a discrete chain.  At
Lambda = N, K is the machine's own one-step kernel: pick one of the N sites
uniformly and flip it with probability w_i.  The Poisson tails left out each
hold at most 2^-53 of the mass, and a window that would take more than 10^8
kernel products is refused before any is made.  A time grid is walked by
`_stepped` in groups of times that share one sequence of powers K^k P from
the last vector reached, so each grid time carries one truncation bound and
a short grid costs the window of its last time; every group is planned
before the first product, so a grid with one window past the cap is refused
before any vector.  `evolve_exact` is its one-time case.  An observable
such as the mean magnetization is read off each P(t) by its caller, as the
`exact` command and the relaxation check do.  The chain's stationary laws
are the results the machine can settle on: one law per closed class of the
flip graph, such as the two consensus tapes at gamma = 1 or the two
alternating tapes of an even ring at gamma = -1, and the single Gibbs law
in between.

scipy is imported inside the exact operations that use it, not when the
module loads, so the samplers run without it and the first exact call in
a process pays its import.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, product
from typing import TYPE_CHECKING

import numpy as np

from .core import Boundary, ModelParams, SpinTape, spin_table, state_energies

if TYPE_CHECKING:  # for the annotations only; the exact operations import it
    from scipy import sparse

EXACT_SITE_CAP = 14
# the most kernel products one uniformization window may take
_PRODUCT_CAP = 10**8


@dataclass(frozen=True)
class GeneratorMatrix:
    """Transition-rate operator: entry (b, a) of `matrix` is the rate from
    state a to state b.  A transition is a nonzero rate, so a stored zero is
    none.  `build_generator` makes one over the 2^n configurations of n
    cells and stores no zero.  The matrix is all it holds, and every exact
    operation reads its size from it, so an operator over other states,
    such as a chain lumped by its symmetries, runs through the same
    operations."""

    matrix: sparse.csc_array

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _uniformized(self) -> tuple[float, sparse.csr_array]:
        """The largest exit rate Lambda and the kernel K = I + G/Lambda,
        stored by rows for fast products.  Every entry of K is nonnegative,
        since no exit rate exceeds Lambda, and every column sums to 1.  An
        operator that no state leaves has Lambda = 0 and K = I.  K is formed
        by one conversion of G to rows, scaled in place by 1/Lambda, with 1
        added on the diagonal; a row with no stored diagonal, such as an
        absorbing state's, gets one, and a diagonal that reaches 0 stays
        stored, so products match those of the sum I + G/Lambda bit for
        bit."""
        rate = float(np.abs(self.matrix.diagonal()).max())
        kernel = self.matrix.tocsr(copy=True)
        if rate:
            kernel.data *= 1.0 / rate
        kernel.setdiag(kernel.diagonal() + 1.0)
        return rate, kernel


@dataclass(frozen=True)
class Trajectory:
    """One continuous-time sample path: the start tape and its flip events
    (time, site) in time order."""

    initial: SpinTape
    events: tuple[tuple[float, int], ...]

    def final_tape(self) -> SpinTape:
        s = list(self.initial.symbols)
        for _, site in self.events:
            s[site] = -s[site]
        return SpinTape(tuple(s), self.initial.boundary)


def rates(spins, params: ModelParams) -> np.ndarray:
    """Flip rate w_i of every site, over the last axis of a +-1 array: one
    tape gives its n rates, spin_table(n) the (2^n, n) table, and any stack
    one row per tape, each rate looked up by the site's neighbourhood code."""
    b = (np.asarray(spins) > 0).view(np.uint8)
    codes = np.roll(b, 1, axis=-1) << 2 | b << 1 | np.roll(b, -1, axis=-1)
    n = b.shape[-1]
    table = np.array(_rate_lookup(n, params.gamma, params.end))
    return table[np.arange(n), codes]


def _neighbourhood_codes(symbols: list[int]) -> list[int]:
    """Code 4 l + 2 c + r of each site's (left, self, right) symbols, read
    cyclically, with bit 1 for a +1 symbol."""
    b = [x > 0 for x in symbols]
    return [4 * l + 2 * c + r for l, c, r in zip(b[-1:] + b[:-1], b, b[1:] + b[:1])]


@lru_cache(maxsize=32)
def _rate_lookup(n: int, gamma: float, end: float | None) -> tuple[tuple[float, ...], ...]:
    """The flip rule: each site's rate 1/2 [1 - coef c (l + r)] by its code,
    coef = gamma/2.  An open chain, whose `end` is not None, counts an end's
    missing neighbour 0 and weighs its one bond by `end` = tanh(J/kT), as
    `ModelParams` forms it.  Sites with equal rules share one row."""
    def row(coef: float, left: bool, right: bool) -> tuple[float, ...]:
        # product runs over the (l, c, r) symbols in code order 4 l + 2 c + r
        return tuple(0.5 * (1.0 - coef * c * (l * left + r * right))
                     for l, c, r in product((-1, 1), repeat=3))

    inner = row(0.5 * gamma, True, True)
    if end is None:
        return (inner,) * n
    if n == 1:
        return (row(end, False, False),)
    return (row(end, False, True),) + (inner,) * (n - 2) + (row(end, True, False),)


def _live_rates(tape: SpinTape, params: ModelParams
                ) -> tuple[list[int], list[float], list[int], tuple[tuple[float, ...], ...]]:
    """The symbols of a tape about to be sampled, as a list, with its rates,
    the neighbourhood codes and the lookup table through which `_refresh`
    keeps them current; the start rates are read from the same table.  A
    tape whose boundary is not that of `params` is rejected."""
    if tape.boundary is not params.boundary:
        raise ValueError("tape and params boundary conditions disagree")
    symbols = list(tape.symbols)
    codes = _neighbourhood_codes(symbols)
    table = _rate_lookup(len(symbols), params.gamma, params.end)
    return symbols, [row[c] for row, c in zip(table, codes)], codes, table


def _refresh(site: int, codes: list[int], w: list[float],
             table: tuple[tuple[float, ...], ...]) -> None:
    """After `site` flips, update the neighbourhood codes and the rates `w`
    of the site and its two neighbours, each in turn, with no modulo or
    loop: the left neighbour is index `site - 1` (-1 is the last site), and
    the right one wraps to 0 only at the last site.  On one or two cells a
    neighbour is the site itself or the other neighbour; its rate is read
    after its last code update, so it is still current."""
    left = site - 1
    code = codes[left] ^ 1
    codes[left] = code
    w[left] = table[left][code]
    code = codes[site] ^ 2
    codes[site] = code
    w[site] = table[site][code]
    right = site + 1
    if right == len(codes):
        right = 0
    code = codes[right] ^ 4
    codes[right] = code
    w[right] = table[right][code]


def _check_exact_size(n: int) -> None:
    """Reject a chain the exact operations over all 2^n states cannot take."""
    if n < 1:
        raise ValueError(f"a generator needs at least one cell, got n={n}")
    if n > EXACT_SITE_CAP:
        raise ValueError(f"exact operations capped at n={EXACT_SITE_CAP}, got {n}")


def build_generator(n: int, params: ModelParams) -> GeneratorMatrix:
    """Assemble the 2^n x 2^n transition-rate operator from single-site
    rates.  Column a holds its n flips, to the n distinct states a ^ 2^i,
    and its diagonal, so the compressed columns are written directly and
    only each column's rows need sorting; the zero rates at gamma = +-1
    are dropped.  The row indices and column pointers are 32-bit: at the
    n = 14 cap there are at most 15 * 2^14 = 245,760 entries."""
    _check_exact_size(n)
    from scipy import sparse

    w = rates(spin_table(n), params)
    dim = 2**n
    flips = np.array([1 << i for i in range(n)] + [0], dtype=np.int32)
    rows = np.arange(dim, dtype=np.int32)[:, None] ^ flips
    data = np.column_stack([w, -w.sum(axis=1)])
    indptr = (n + 1) * np.arange(dim + 1, dtype=np.int32)
    g = sparse.csc_array((data.ravel(), rows.ravel(), indptr), shape=(dim, dim))
    g.sort_indices()
    g.eliminate_zeros()
    return GeneratorMatrix(g)


def column_sum_residual(gen: GeneratorMatrix) -> float:
    """Max |column sum| of the generator; zero for a conservative operator."""
    return float(np.abs(np.asarray(gen.matrix.sum(axis=0)).ravel()).max())


def point_mass(index: int, n: int) -> np.ndarray:
    p = np.zeros(2**n)
    p[index] = 1.0
    return p


def uniform_distribution(n: int) -> np.ndarray:
    return np.full(2**n, 1.0 / 2**n)


def _poisson_window(mean: float) -> tuple[int, np.ndarray]:
    """First index and weights of the Poisson(mean) law over the window
    that uniformization keeps.

    The weights come from the ratio recurrence outward from the mode,
    w[k+1] = w[k] mean/(k+1) and w[k-1] = w[k] k/mean, starting at 1, so
    none overflows and none loses digits to a log-gamma.  Each side stops at
    the first index past which its tail, bounded by a geometric series, is
    at most 2^-53 of the weight kept; the kept weights are then normalised.
    """
    eps = 2.0**-53
    mode = int(mean)
    upper, total, w, k = [1.0], 1.0, 1.0, mode
    while True:
        k += 1
        w *= mean / k
        # the terms from k on shrink at least by mean / (k + 1) each
        if w <= eps * total * (1.0 - mean / (k + 1)):
            break
        upper.append(w)
        total += w
    lower, w, k = [], 1.0, mode
    while k > 0:
        w *= k / mean
        k -= 1
        # the terms from k down shrink at least by k / mean each
        if w <= eps * total * (1.0 - k / mean):
            break
        lower.append(w)
        total += w
    return mode - len(lower), np.array(lower[::-1] + upper) / total


def _window(rate: float, dt: float) -> tuple[int, np.ndarray]:
    """The Poisson window of a step of `dt` time units at uniformization
    rate `rate`.  A negative, infinite or NaN step is rejected, and so is a
    window that would end past `_PRODUCT_CAP`; since a window runs past its
    mode, a mean past the cap is rejected before any weight is formed."""
    if not 0 <= dt < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got {dt}")
    mean = rate * dt
    if mean <= _PRODUCT_CAP:
        first, weights = _poisson_window(mean)
        products = first + weights.size - 1
    else:  # past the cap, or NaN from a rate that is not finite
        products = mean
    if not products <= _PRODUCT_CAP:
        raise ValueError(f"a step of {dt:g} time units needs at least {products:.4g} kernel "
                         f"products, over the cap of {_PRODUCT_CAP:.0e}")
    return first, weights


def evolve_exact(p0: np.ndarray, gen: GeneratorMatrix, t: float) -> np.ndarray:
    """Propagate P(t) = exp(G t) P(0) by uniformization.

    P(t) = sum_k Pois(Lambda t; k) K^k P(0), with Lambda the largest exit
    rate and K = I + G/Lambda the one-step kernel of the discrete chain (the
    machine's own kernel when Lambda = N).  The sum runs over the Poisson
    window `_poisson_window` keeps, about Lambda t + O(sqrt(Lambda t))
    sparse products; a time whose window would need more than
    `_PRODUCT_CAP` (10^8) is rejected before any product is made.
    Each dropped tail holds at most 2^-53 of the Poisson mass and every
    K^k P(0) is a probability vector, so truncation moves no entry by more
    than 2^-52 in max norm; roundoff in the products adds about 1e-14 at
    Lambda t = 6000.  Every term is nonnegative, so P(t) is too, and its
    mass is 1 up to roundoff.  At t = 0, when Lambda t underflows, or when
    no state can leave (K = I), the window is the one weight 1 and P(t) is
    a copy of P(0), bit for bit.  A negative, infinite or NaN t is
    rejected.  It is the one-time walk of `_stepped`.
    """
    (p,) = _stepped(p0, gen, [t])
    return p


def _stepped(p0: np.ndarray, gen: GeneratorMatrix, times) -> Iterator[np.ndarray]:
    """P(t) at each of the ascending `times`, by one uniformization walk per
    group of times, as an iterator.

    A group starts from the last vector reached, P(t_a), which is P(0) at
    t_a = 0.  It takes each following time whose Poisson window for
    Lambda (t_j - t_a) still starts at k = 0, and stops adding times once
    it would hold more times than its walk makes products; a time whose
    window starts later is a group alone.  The walk forms K^k P(t_a) once,
    up to the largest window end in the group, and adds each time's
    weighted terms in the order `evolve_exact` sums them, so each P(t_j) is
    `evolve_exact(P(t_a), gen, t_j - t_a)` bit for bit and carries one
    2^-52 truncation bound.  The last vector of a group anchors the next.
    A grid whose windows all start at k = 0 from t = 0 and that holds no
    more times than products is one group, read off one walk of about
    Lambda t_end + O(sqrt(Lambda t_end)) products.  The groups depend only
    on the times and Lambda, so all of them are planned, and every window
    checked against the cap on one window's products, before this returns:
    a time that breaks the cap or steps back is rejected here, before the
    first product and the first vector.  The plan keeps each group's
    times, and a group's windows are formed again when its walk starts, so
    a long grid holds one group's weights at a time.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    if p0.shape != (gen.dim,):
        raise ValueError(f"expected probability vector of length {gen.dim}, got {p0.shape}")
    rate, kernel = gen._uniformized
    times = [float(t) for t in times]
    groups, t_a, i = [], 0.0, 0
    while i < len(times):
        first, weights = _window(rate, times[i] - t_a)
        size, products = 1, first + weights.size - 1
        while first == 0 and i + size < len(times):
            try:
                start, weights = _window(rate, times[i + size] - t_a)
            except ValueError:  # checked again as the head of the next group
                break
            end = max(products, start + weights.size - 1)
            if start > 0 or size >= end:
                break
            size, products = size + 1, end
        groups.append(times[i:i + size])
        i += size
        t_a = times[i - 1]
    return _walks(p0, kernel, rate, groups)


def _walks(p: np.ndarray, kernel: sparse.csr_array, rate: float,
           groups: list[list[float]]) -> Iterator[np.ndarray]:
    """Yield the vectors of each planned group of times in turn, each
    group's walk starting from the last vector of the one before."""
    t_a = 0.0
    for group in groups:
        vectors = _walk(p, kernel, [_window(rate, t - t_a) for t in group])
        yield from vectors
        p, t_a = vectors[-1], group[-1]


def _walk(p: np.ndarray, kernel: sparse.csr_array,
          group: list[tuple[int, np.ndarray]]) -> list[np.ndarray]:
    """sum_k w_j(k) K^k p for each window (first_j, w_j) of `group`, in the
    group's order, from one sequence of products.  Every window of a group
    of several starts at k = 0.  A window's sum stops taking terms at its
    last weight."""
    for _ in range(group[0][0]):
        p = kernel @ p
    sums = [weights[0] * p for _, weights in group]
    for k in range(1, max(weights.size for _, weights in group)):
        p = kernel @ p
        for out, (_, weights) in zip(sums, group):
            if k < weights.size:
                out += weights[k] * p
    return sums


def stationary_distributions(gen: GeneratorMatrix) -> list[np.ndarray]:
    """Basis of stationary distributions: one law per closed class.

    The classes are the strongly connected components of the flip graph,
    whose edges are the nonzero rates (the same for the graph and its
    transpose, so the generator is labelled as stored, once its stored
    zeros are dropped); a class is closed when no transition leaves it.
    Each closed class carries exactly one stationary law, zero outside the
    class.  Only reversible classes are solved, and every generator
    `build_generator` makes is reversible, at gamma = +-1 included: within a
    class the law follows Kolmogorov's spanning-tree construction (Kelly,
    Reversibility and Stochastic Networks, 1979, section 1.5), p(child) =
    p(parent) * G[child, parent] / G[parent, child] along a spanning tree,
    summed in logs so rates near 0 at gamma near +-1 lose no precision.  A
    rate holds its rounding as an absolute error, so a ratio is as precise
    as the slower rate of its pair, the elementwise minimum of the class's
    block of G and its transpose.  The tree is therefore a maximum
    spanning tree of the slower rates, walked breadth-first from the
    class's smallest state: its path between any two states is a widest
    one, whose slowest pair is as fast as on any path between them (Hu,
    Oper. Res. 9, 898, 1961).  An open chain near |gamma| = 1 thus leaves
    its consensus tapes through its end cells, not through interior pairs
    at rates of 1e-16, whose ratios carry percent errors.  It needs no
    linear solve.  The laws are ordered by the smallest state in their
    class.  A class with a rate that is not finite, a class that no tree
    of pairs with rates positive both ways spans, or a law that leaves a
    residual of G p = 0 or of the normalization above 1e-8 (as a
    non-reversible class does), raises numpy.linalg.LinAlgError.
    """
    from scipy.sparse.csgraph import (breadth_first_order, connected_components,
                                      minimum_spanning_tree)

    g = gen.matrix.copy()
    g.eliminate_zeros()
    _, label = connected_components(g, connection="strong")
    # entry (to, frm) is a transition frm -> to; the classes it leaves are open
    to, frm = g.nonzero()
    leaky = np.unique(label[frm[label[to] != label[frm]]])
    _, first = np.unique(label, return_index=True)
    basis = []
    for start in np.setdiff1d(first, first[leaky]):
        members = np.flatnonzero(label == label[start])
        g_c = g[members][:, members]
        if not np.isfinite(g_c.data).all():
            raise np.linalg.LinAlgError(f"a rate in a class of {members.size} states is not finite")
        log_p = np.zeros(members.size)
        if members.size > 1:  # a lone state's law is 1; its tree has no edges
            # each pair's slower rate, stored by rows as the tree search reads
            # them; a one-way pair's 0 is not stored, and the maximum, a
            # canonical array, drops the zeroed diagonal and any rate below 0
            slow = g_c.T.minimum(g_c)
            slow.setdiag(0.0)
            slow = slow.maximum(0.0)
            # a weight falling with the slower rate: the minimum spanning
            # tree of the weights is a maximum one of the rates
            slow.data = 1.0 + np.log(slow.data.max(initial=1.0)) - np.log(slow.data)
            tree = minimum_spanning_tree(slow, overwrite=True)
            order, pred = breadth_first_order(tree, 0, directed=False, return_predecessors=True)
            if order.size < members.size:
                raise np.linalg.LinAlgError(
                    f"no tree of pairs with a positive finite rate both ways spans "
                    f"a class of {members.size} states, so it is not reversible")
            child = order[1:]
            up = pred[child]
            into, back = g_c[child, up], g_c[up, child]
            for c, u, step in zip(child.tolist(), up.tolist(),
                                  (np.log(into) - np.log(back)).tolist()):
                log_p[c] = log_p[u] + step
        p = np.exp(log_p - log_p.max())
        p /= p.sum()
        residual = float(np.abs(np.append(g_c @ p, p.sum() - 1.0)).max())
        if not residual <= 1e-8:
            raise np.linalg.LinAlgError(
                f"stationary law of a class of {members.size} states left residual {residual}")
        law = np.zeros(gen.dim)
        law[members] = p
        basis.append(law)
    return basis


def flux_residual(gen: GeneratorMatrix, energies: np.ndarray) -> float:
    """Worst relative flux imbalance of a generator against the weights e^{-E}.

    For every stored off-diagonal rate G[b, a], compares the flux
    G[b, a] e^{-E_a} with the reverse flux G[a, b] e^{-E_b}, the reverse rate
    being 0 when it is not stored, normalized by the larger flux of the pair;
    energies are shifted per pair by min(E_a, E_b) so the exponentials stay
    finite.  An operator without off-diagonal entries gives 0.
    """
    g = gen.matrix.tocoo()
    off = g.row != g.col
    b, a = g.row[off], g.col[off]
    e_ref = np.minimum(energies[a], energies[b])
    flux_out = g.data[off] * np.exp(-(energies[a] - e_ref))
    flux_back = gen.matrix[a, b] * np.exp(-(energies[b] - e_ref))
    scale = np.maximum(np.maximum(flux_out, flux_back), 1e-300)
    return float(np.max(np.abs(flux_out - flux_back) / scale, initial=0.0))


def detailed_balance_residual(n: int, params: ModelParams) -> float:
    """Worst single-flip flux imbalance of the chain's generator against the
    Gibbs weights e^{-E/kT} at the coupling its gamma encodes, J/(kT) =
    artanh(gamma)/2.  At gamma = +-1 that coupling is infinite and no finite
    weights balance the rates, so such params are rejected.
    """
    if not abs(params.gamma) < 1.0:
        raise ValueError(f"gamma = {params.gamma} encodes no finite J/(kT)")
    return flux_residual(build_generator(n, params),
                         state_energies(n, 0.5 * math.atanh(params.gamma), params.boundary))


def kmc_sample(tape0: SpinTape, params: ModelParams, t_end: float,
               seed: int | np.random.SeedSequence | np.random.Generator) -> Trajectory:
    """Exact continuous-time sampling (Gillespie) of the flip process.

    Waiting times are exponential at the total rate sum_i w_i of the current
    configuration; the flipped site is drawn proportionally to w_i.  The
    rates are refreshed after each flip as in the discrete machine.
    `t_end` must be finite and nonnegative.

    Random stream: each event draws, from the one generator, first
    `exponential(1 / total)` for the waiting time and then, unless that time
    passes `t_end`, `random() * total` as the site draw u.  Here total is
    the running sum of the rates from site 0 to site n - 1, left to right
    in double precision, and the site is the first one whose running sum
    exceeds u, or site n - 1 if none does.  Sampling stops without a draw
    once total is 0.  A run is therefore a function of the seed alone.
    """
    if not 0 <= t_end < math.inf:
        raise ValueError(f"t_end must be nonnegative and finite, got {t_end}")
    _, w, codes, table = _live_rates(tape0, params)
    rng = np.random.default_rng(seed)
    exponential, uniform = rng.exponential, rng.random
    last = tape0.n - 1
    events: list[tuple[float, int]] = []
    t = 0.0
    while True:
        running = list(accumulate(w))
        total = running[-1]
        if total <= 0.0:
            break
        t += exponential(1.0 / total)
        if t > t_end:
            break
        site = min(bisect_right(running, uniform() * total), last)
        events.append((t, site))
        _refresh(site, codes, w, table)
    return Trajectory(initial=tape0, events=tuple(events))
