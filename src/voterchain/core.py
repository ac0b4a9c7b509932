"""Spin-tape configurations, state indexing, energies, and shared observables.

A tape of N cells with symbols in {-1, +1} is simultaneously the working
tape of the stochastic machine and a spin configuration of a 1D chain.
Configurations are enumerated by an integer index where bit i holds
(symbol[i] + 1) / 2, site 0 in the least-significant bit.
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


@dataclass(frozen=True, eq=False)
class SpinTape:
    """Immutable sequence of N symbols in {-1, +1} with a boundary condition.

    Tapes compare and hash by value: their boundary and their symbols.
    """

    symbols: np.ndarray
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        arr = np.asarray(self.symbols)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("tape needs at least one cell")
        # checked before the cast to int8, which would truncate 1.5 and wrap 255
        if not {-1, 1}.issuperset(arr.tolist()):
            raise ValueError("tape symbols must be -1 or +1")
        arr = arr.astype(np.int8)
        arr.setflags(write=False)
        object.__setattr__(self, "symbols", arr)

    def _key(self) -> tuple[Boundary, bytes]:
        return self.boundary, self.symbols.tobytes()

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, SpinTape) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def n(self) -> int:
        return self.symbols.size

    @classmethod
    def uniform(cls, n: int, symbol: int = 1, boundary: Boundary = Boundary.PERIODIC) -> SpinTape:
        return cls(np.full(n, symbol, dtype=np.int8), boundary)

    @classmethod
    def alternating(cls, n: int, boundary: Boundary = Boundary.PERIODIC) -> SpinTape:
        s = np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int8)
        return cls(s, boundary)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator, boundary: Boundary = Boundary.PERIODIC) -> SpinTape:
        return cls(rng.choice(np.array([-1, 1], dtype=np.int8), size=n), boundary)


@dataclass(frozen=True)
class ModelParams:
    """Dynamics parameters: a bias gamma in [-1, 1], optionally tied to a
    physical (coupling, temperature, boltzmann) triple via
    gamma = tanh(2 * coupling / (boltzmann * temperature)).  The chain has no
    external field, in its dynamics and in its energies alike.
    """

    gamma: float
    boundary: Boundary = Boundary.PERIODIC
    coupling: float | None = None
    temperature: float | None = None
    boltzmann: float | None = None

    def __post_init__(self):
        if not abs(self.gamma) <= 1.0:
            raise ValueError(f"|gamma| must be <= 1, got {self.gamma}")
        triple = (self.coupling, self.temperature, self.boltzmann)
        n_set = sum(v is not None for v in triple)
        if n_set not in (0, 3):
            raise ValueError("coupling, temperature, boltzmann must be set together")
        if n_set == 3:
            if self.temperature <= 0 or self.boltzmann <= 0:
                raise ValueError("temperature and boltzmann must be positive")
            expected = math.tanh(2.0 * self.coupling / (self.boltzmann * self.temperature))
            if abs(self.gamma - expected) > 1e-14:
                raise ValueError(
                    f"gamma={self.gamma} inconsistent with tanh(2J/kT)={expected}"
                )

    @classmethod
    def from_gamma(cls, gamma: float, boundary: Boundary = Boundary.PERIODIC) -> ModelParams:
        return cls(gamma=float(gamma), boundary=boundary)

    @classmethod
    def from_physical(cls, coupling: float, temperature: float, boltzmann: float = 1.0,
                      boundary: Boundary = Boundary.PERIODIC) -> ModelParams:
        if temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if boltzmann <= 0.0:
            raise ValueError("boltzmann must be positive")
        gamma = math.tanh(2.0 * coupling / (boltzmann * temperature))
        return cls(gamma=gamma, boundary=boundary, coupling=float(coupling),
                   temperature=float(temperature), boltzmann=float(boltzmann))

    @property
    def has_temperature(self) -> bool:
        return self.temperature is not None

    @property
    def beta(self) -> float:
        if not self.has_temperature:
            raise ValueError("no temperature set, beta unavailable")
        return 1.0 / (self.boltzmann * self.temperature)


def encode_state(tape: SpinTape) -> int:
    """Pack a tape into its configuration index (site 0 = least-significant bit)."""
    return int.from_bytes(np.packbits(tape.symbols > 0, bitorder="little").tobytes(), "little")


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
