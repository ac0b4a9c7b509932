"""Reference implementations that the tests compare the package against.

Each one computes a quantity by a route the package does not take: the energy
of one tape by its bonds, the one-step kernel of the discrete machine, and the
transfer-matrix partition functions in log space.
"""

import math

import numpy as np
from scipy import sparse

from voterchain.core import Boundary, SpinTape
from voterchain.dynamics import GeneratorMatrix

LN2 = math.log(2.0)


def hamiltonian(tape: SpinTape, coupling: float, h: float = 0.0) -> float:
    """Chain energy -J * sum_bonds s_i s_{i+1} - h * sum_i s_i.

    Open boundary sums the N-1 interior bonds; periodic adds the wrap-around
    bond (for N = 1 that bond is the cell with itself, a constant -J).
    """
    s = tape.symbols.astype(np.float64)
    bonds = float(np.dot(s[:-1], s[1:]))
    if tape.boundary is Boundary.PERIODIC:
        bonds += float(s[-1] * s[0])
    return -coupling * bonds - h * float(s.sum())


def uniformized_kernel(gen: GeneratorMatrix) -> sparse.csc_array:
    """One-step kernel K = I + G/N of the discrete chain that picks a site
    uniformly and flips with probability w_i; K^j averaged over a Poisson(Nt)
    step count reproduces exp(G t)."""
    return sparse.identity(gen.dim, format="csc") + gen.matrix * (1.0 / gen.n_sites)


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
