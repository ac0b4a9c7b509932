"""Spin-tape configurations, state indexing, energies, and shared observables.

A tape of N cells with symbols in {-1, +1} is simultaneously the working
tape of the stochastic machine and a spin configuration of a 1D chain; its
symbols are a tuple of Python ints.  The machine's bias is Glauber's
gamma = tanh(2J/kT), and `ModelParams` keeps of the physics only
beta_j = J/(kT), the one number the Gibbs weights need.  Configurations are
enumerated by an integer index where bit i holds (symbol[i] + 1) / 2, site 0
in the least-significant bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np


class Boundary(Enum):
    PERIODIC = "periodic"
    OPEN = "open"


@dataclass(frozen=True)
class SpinTape:
    """N symbols in {-1, +1}, held as a tuple of Python ints, with a
    boundary condition.  Any flat sequence or array of +-1 values is
    accepted; tapes compare and hash by value.
    """

    symbols: tuple[int, ...]
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        arr = np.asarray(self.symbols)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("tape needs at least one cell")
        # checked before the conversion to int, which would truncate 1.5
        symbols = arr.tolist()
        if not {-1, 1}.issuperset(symbols):
            raise ValueError("tape symbols must be -1 or +1")
        object.__setattr__(self, "symbols", tuple(map(int, symbols)))

    @property
    def n(self) -> int:
        return len(self.symbols)

    @classmethod
    def uniform(cls, n: int, symbol: int = 1, boundary: Boundary = Boundary.PERIODIC) -> SpinTape:
        return cls((symbol,) * n, boundary)

    @classmethod
    def alternating(cls, n: int, boundary: Boundary = Boundary.PERIODIC) -> SpinTape:
        return cls([(-1) ** i for i in range(n)], boundary)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator, boundary: Boundary = Boundary.PERIODIC) -> SpinTape:
        return cls(rng.choice(np.array([-1, 1], dtype=np.int8), size=n), boundary)


@dataclass(frozen=True)
class ModelParams:
    """Dynamics parameters: a bias gamma in [-1, 1], optionally tied to the
    dimensionless coupling beta_j = J/(kT) via Glauber's gamma = tanh(2 beta_j).
    The chain has no external field, in its dynamics and in its energies alike.
    """

    gamma: float
    boundary: Boundary = Boundary.PERIODIC
    beta_j: float | None = None

    def __post_init__(self):
        if not abs(self.gamma) <= 1.0:
            raise ValueError(f"|gamma| must be <= 1, got {self.gamma}")
        if self.beta_j is not None:
            expected = math.tanh(2.0 * self.beta_j)
            if not abs(self.gamma - expected) <= 1e-14:
                raise ValueError(
                    f"gamma={self.gamma} inconsistent with tanh(2 beta_j)={expected}"
                )

    @classmethod
    def from_gamma(cls, gamma: float, boundary: Boundary = Boundary.PERIODIC) -> ModelParams:
        return cls(gamma=float(gamma), boundary=boundary)

    @classmethod
    def from_physical(cls, coupling: float, temperature: float, boltzmann: float = 1.0,
                      boundary: Boundary = Boundary.PERIODIC) -> ModelParams:
        beta_j = _beta_j(coupling, temperature, boltzmann)
        return cls(gamma=math.tanh(2.0 * beta_j), boundary=boundary, beta_j=beta_j)


def _beta_j(coupling: float, temperature: float, boltzmann: float) -> float:
    """x = J/(kT), rejecting by name a T or k that is not positive (NaN
    included), a product kT that underflows to 0 or is not finite, and a NaN
    coupling.  T and k are checked first, so a coupling formed from them
    fails by their name."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not boltzmann > 0:
        raise ValueError(f"boltzmann constant must be positive, got {boltzmann}")
    kt = boltzmann * temperature
    if kt == 0:
        raise ValueError(f"boltzmann * temperature underflows to 0 at {boltzmann} * {temperature}")
    if kt == math.inf:
        raise ValueError(f"boltzmann * temperature is not finite at {boltzmann} * {temperature}")
    if math.isnan(coupling):
        raise ValueError(f"coupling must be a number, got {coupling}")
    return coupling / kt


def encode_state(tape: SpinTape) -> int:
    """Pack a tape into its configuration index (site 0 = least-significant bit)."""
    return sum(1 << i for i, x in enumerate(tape.symbols) if x > 0)


def decode_state(index: int, n: int, boundary: Boundary = Boundary.PERIODIC) -> SpinTape:
    """Inverse of encode_state for an n-cell tape."""
    if not 0 <= index < 2**n:
        raise ValueError(f"index {index} out of range for {n} cells")
    return SpinTape([((index >> i) & 1) * 2 - 1 for i in range(n)], boundary)


@lru_cache(maxsize=32)
def spin_table(n: int) -> np.ndarray:
    """All 2^n configurations as a read-only (2^n, n) array of -1/+1 rows,
    row order matching the configuration index."""
    idx = np.arange(2**n, dtype=np.int64)
    table = (((idx[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1).astype(np.int8)
    table.setflags(write=False)
    return table


def state_energies(n: int, coupling: float, boundary: Boundary) -> np.ndarray:
    """Zero-field chain energy -J * sum_bonds s_i s_{i+1} of all 2^n
    configurations, index order.

    Open boundary sums the N-1 interior bonds; periodic adds the wrap-around
    bond (for N = 1 that bond is the cell with itself, a constant -J).  The
    boundary has no default, so a ring is never silently compared with an
    open chain.
    """
    s = spin_table(n).astype(np.float64)
    bonds = (s[:, :-1] * s[:, 1:]).sum(axis=1)
    if boundary is Boundary.PERIODIC:
        bonds = bonds + s[:, -1] * s[:, 0]
    return -coupling * bonds


def magnetization_vector(n: int) -> np.ndarray:
    """Mean symbol (1/N) sum_i s_i of all 2^n configurations, index order."""
    return spin_table(n).mean(axis=1, dtype=np.float64)
