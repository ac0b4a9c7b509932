"""Reference implementations that the tests compare the package against.

Each one computes a quantity by a route the package does not take: the flip
rates of many tapes by the float formula on padded neighbours, the
single-flip flux balance of a rate table site by site, the energy of one
tape by its bonds, the neighbourhood codes of many tapes at once, the
one-step kernel of the discrete machine, the uniformization kernel as a
sum of sparse operators, the action of exp(G t) by a truncated Taylor
series, the transfer-matrix partition functions in log space, an
event-log row composed field by field, an `exact` time block filled into
one text template by `%`, a tape's symbols validated through numpy alone,
and the machine's run with a halt check after every attempt.
"""

import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from voterchain.core import Boundary, ModelParams, SpinTape, spin_table
from voterchain.dynamics import GeneratorMatrix, rates
from voterchain.voter import Outcome, TuringVoter

LN2 = math.log(2.0)


def flip_rates(spins, params: ModelParams) -> np.ndarray:
    """Flip rate w_i = 1/2 [1 - coef_i s_i (s_{i-1} + s_{i+1})] of every
    site, over the last axis of a +-1 array, with coef_i = gamma/2.

    On an open chain a missing neighbour counts 0 and each end weighs its
    one bond by tanh(J/kT) = gamma / (1 + sqrt(1 - gamma^2)); a ring pads
    each end with the symbol at the other.
    """
    s = np.asarray(spins, dtype=np.float64)
    coef = np.full(s.shape[-1], 0.5 * params.gamma)
    if params.boundary is Boundary.PERIODIC:
        ends = s[..., -1:], s[..., :1]
    else:
        ends = (np.zeros_like(s[..., :1]),) * 2
        g = params.gamma
        coef[0] = coef[-1] = g / (1.0 + math.sqrt(1.0 - g * g))
    padded = np.concatenate([ends[0], s, ends[1]], axis=-1)
    return 0.5 * (1.0 - coef * s * (padded[..., :-2] + padded[..., 2:]))


def flux_residual_by_sites(w: np.ndarray, energies: np.ndarray) -> float:
    """Worst relative single-flip flux imbalance of a (2^n, n) rate table
    against the weights e^{-E}.

    For every configuration sigma and site i, compares w_i(sigma) e^{-E(sigma)}
    with w_i(sigma^i) e^{-E(sigma^i)} (sigma^i = sigma with site i flipped),
    normalized by the larger flux of the pair; energies are shifted per pair
    so the exponentials stay finite.
    """
    idx = np.arange(w.shape[0], dtype=np.int64)
    worst = 0.0
    for i in range(w.shape[1]):
        flipped = idx ^ (1 << i)
        e_ref = np.minimum(energies, energies[flipped])
        flux_out = w[:, i] * np.exp(-(energies - e_ref))
        flux_back = w[flipped, i] * np.exp(-(energies[flipped] - e_ref))
        scale = np.maximum(np.maximum(flux_out, flux_back), 1e-300)
        worst = max(worst, float(np.max(np.abs(flux_out - flux_back) / scale)))
    return worst


def coo_generator(n: int, params: ModelParams) -> GeneratorMatrix:
    """The 2^n x 2^n generator assembled from (row, column, rate) triplets:
    block i holds every state's flip of site i, the last block the
    diagonals, and scipy sorts the triplets into compressed columns; the
    zero rates at gamma = +-1 are dropped."""
    w = rates(spin_table(n), params)
    dim = 2**n
    idx = np.arange(dim, dtype=np.int32)
    rows = np.concatenate([idx ^ (1 << i) for i in range(n)] + [idx])
    cols = np.tile(idx, n + 1)
    data = np.concatenate([w.T.reshape(-1), -w.sum(axis=1)])
    g = sparse.csc_array((data, (rows, cols)), shape=(dim, dim))
    g.eliminate_zeros()
    return GeneratorMatrix(g)


def hamiltonian(tape: SpinTape, coupling: float) -> float:
    """Zero-field chain energy -J * sum_bonds s_i s_{i+1}.

    Open boundary sums the N-1 interior bonds; periodic adds the wrap-around
    bond (for N = 1 that bond is the cell with itself, a constant -J).
    """
    s = np.asarray(tape.symbols, dtype=np.float64)
    bonds = float(np.dot(s[:-1], s[1:]))
    if tape.boundary is Boundary.PERIODIC:
        bonds += float(s[-1] * s[0])
    return -coupling * bonds


def neighbourhoods(spins) -> np.ndarray:
    """Code 4 l + 2 c + r of each site's (left, self, right) symbols, read
    cyclically over the last axis of a +-1 array, with bit 1 for a +1
    symbol."""
    b = (np.asarray(spins) > 0).astype(np.int64)
    padded = np.concatenate([b[..., -1:], b, b[..., :1]], axis=-1)
    return 4 * padded[..., :-2] + 2 * b + padded[..., 2:]


def uniformized_kernel(gen: GeneratorMatrix, n: int) -> sparse.csc_array:
    """One-step kernel K = I + G/n of the discrete chain on n cells that picks
    a site uniformly and flips with probability w_i; K^j averaged over a
    Poisson(n t) step count reproduces exp(G t)."""
    return sparse.identity(gen.dim, format="csc") + gen.matrix * (1.0 / n)


def summed_kernel(gen: GeneratorMatrix) -> tuple[float, sparse.csr_array]:
    """The largest exit rate Lambda and K = I + G/Lambda formed as the sum
    of G scaled by 1/Lambda and a diagonal identity, converted to rows
    (K = I when Lambda = 0); the sum drops every zero it meets."""
    rate = float(np.abs(gen.matrix.diagonal()).max())
    eye = sparse.dia_array((np.ones((1, gen.dim)), [0]), shape=(gen.dim, gen.dim))
    return rate, ((gen.matrix * (1.0 / rate) if rate else gen.matrix) + eye).tocsr()


def expm_action(gen: GeneratorMatrix, t: float, p0: np.ndarray) -> np.ndarray:
    """exp(G t) p0 by SciPy's scaled truncated Taylor series (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 488 (2011)), which shares no step with
    the package's uniformization.  It warns on a subnormal t."""
    return expm_multiply(gen.matrix * t, p0)


def _log_cosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - LN2


def log_partition_open(n: int, x: float) -> float:
    """ln Z of the transfer-matrix closed form Z = 2^N cosh^{N-1}(x) for the
    open chain, x = J/(kT)."""
    return n * LN2 + (n - 1) * _log_cosh(x)


def log_partition_periodic(n: int, x: float) -> float:
    """ln Z of the transfer-matrix closed form Z = (2 cosh x)^N + (2 sinh x)^N
    for the ring, x = J/(kT), as N ln(2 cosh x) + ln(1 + tanh(x)^N).

    The second term's argument lies in (0, 2] for either sign of x and
    parity of N, so no power of cosh or sinh is ever formed.
    """
    ring = n * (LN2 + _log_cosh(x))
    if x == 0.0:
        return ring
    # N ln tanh|x| as -2N atanh(e^{-2|x|}), accurate where tanh|x| rounds to 1
    log_power = -2.0 * n * math.atanh(math.exp(-2.0 * abs(x)))
    if x < 0 and n % 2 == 1:
        return ring + math.log(-math.expm1(log_power))
    return ring + math.log1p(math.exp(log_power))


def event_row(step: int, n: int, site: int, symbol: int, msum: int, digits: int) -> str:
    """One `simulate` event-log row, time step / n, the site, its new symbol
    and the magnetization msum / n, each number formatted on its own with
    the format spec `.{digits}g` and the fields joined in an f-string."""
    return f"{format(step / n, f'.{digits}g')},{site},{symbol},{format(msum / n, f'.{digits}g')}"


def exact_block(time: str, p, digits: int) -> str:
    """One `exact` time block, the rows `time,index,probability` of every
    state joined by newlines, from one template for all states: the time
    put in by replacing its placeholder, then every probability filled in
    by one `%` with `%.{digits}g`."""
    block = "@," + f",%.{digits}g\n@,".join(map(str, range(len(p)))) + f",%.{digits}g"
    return block.replace("@", time) % tuple(np.asarray(p, dtype=np.float64).tolist())


def tape_symbols(symbols) -> tuple[int, ...]:
    """The symbols a `SpinTape` holds for `symbols`, validated through one
    `np.asarray` of any input: a flat array of at least one cell whose
    values are all -1 or +1 (checked before the conversion to int, which
    would truncate 1.5), converted to a tuple of Python ints."""
    arr = np.asarray(symbols)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("tape needs at least one cell")
    values = arr.tolist()
    if not {-1, 1}.issuperset(values):
        raise ValueError("tape symbols must be -1 or +1")
    return tuple(map(int, values))


def run_checking_every_attempt(machine: TuringVoter, max_steps: int) -> Outcome:
    """`machine.run_until_halt(max_steps)` with the halt check made before
    the first attempt and after every attempt, null ones included, each
    flip recorded as (step count, site, symbol after)."""
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    flips = []
    halted = machine.is_consensus()
    for _ in range(max_steps):
        if halted:
            break
        site, flipped, symbol = machine.step()
        if flipped:
            flips.append((machine.step_count, site, symbol))
        halted = machine.is_consensus()
    tape = machine.tape
    return Outcome(consensus_symbol=tape.symbols[0] if halted else None,
                   steps=machine.step_count, final_tape=tape,
                   flips=np.array(flips, dtype=np.int64).reshape(-1, 3))
