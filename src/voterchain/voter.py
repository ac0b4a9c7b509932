"""Discrete-step tape machine driven by the neighbor-majority flip rule.

Each step selects one cell uniformly at random and negates its symbol with
probability w_i, the flip rate of `dynamics.rates`: 1/2 [1 - (gamma/2)
x_i (x_{i-1} + x_{i+1})], with the single-bond rule at open-chain ends.  At
gamma = 1 this is the classic copy-a-neighbor update; uniform tapes are then
absorbing and reaching one is the machine's halt (consensus = acceptance).
One step advances machine time by 1/N, so a run of about N t steps matches
the continuous-time evolution of the dynamics module over [0, t].  The
machine keeps every cell's rate and, after a flip, refreshes the flipped
cell and its two neighbours, as the Gillespie sampler does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, SpinTape
from .dynamics import _live_rates, _refresh


class Status(enum.Enum):
    RUNNING = "running"
    HALTED = "halted"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class StepEvent:
    """One update attempt: the chosen cell, whether it flipped, and its symbol after."""

    site: int
    flipped: bool
    new_symbol: int


@dataclass(frozen=True)
class Outcome:
    """How a run ended, with one (step, site, new_symbol) record per flip;
    `step` is the step count just after the flip."""

    status: Status
    consensus_symbol: int | None
    steps: int
    final_tape: SpinTape
    flips: tuple[tuple[int, int, int], ...] = ()

    @property
    def halted(self) -> bool:
        return self.status is Status.HALTED


class TuringVoter:
    """Seeded machine state: tape, parameters, step counter, and halt status.

    Per step the random stream is consumed in a fixed order (cell draw, then
    one uniform variate, drawn whether or not the flip succeeds), so event
    sequences are reproducible functions of the seed alone.
    """

    def __init__(self, tape: SpinTape, params: ModelParams,
                 seed: int | np.random.SeedSequence | np.random.Generator) -> None:
        if tape.boundary is not params.boundary:
            raise ValueError("tape and params boundary conditions disagree")
        self.params = params
        self._s = tape.symbols.astype(np.int8)
        w, self._codes, self._table = _live_rates(self._s, params)
        self._w = w.tolist()
        self._rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self.step_count = 0
        self.status = Status.RUNNING
        self.consensus_symbol: int | None = None

    @property
    def n(self) -> int:
        return self._s.size

    @property
    def tape(self) -> SpinTape:
        return SpinTape(self._s, self.params.boundary)

    @property
    def time(self) -> float:
        """Machine time elapsed: 1/N per step."""
        return self.step_count / self.n

    def is_consensus(self) -> bool:
        return bool(np.all(self._s == self._s[0]))

    def step(self) -> StepEvent:
        """Attempt one update on a running machine."""
        if self.status is not Status.RUNNING:
            raise RuntimeError(f"cannot step a machine with status {self.status.value}")
        site = int(self._rng.integers(self.n))
        u = float(self._rng.random())
        flipped = u < self._w[site]
        if flipped:
            self._s[site] = -self._s[site]
            _refresh(site, self._codes, self._w, self._table)
        self.step_count += 1
        return StepEvent(site=site, flipped=flipped, new_symbol=int(self._s[site]))

    def run_until_halt(self, max_steps: int) -> Outcome:
        """Step until the tape is uniform (halt) or the budget runs out.

        Consensus is checked before the first step, so an already-uniform
        tape halts at the current step count.  Every flip of the run is
        recorded in the outcome's `flips`.
        """
        if max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        if self.status is not Status.RUNNING:
            raise RuntimeError(f"cannot run a machine with status {self.status.value}")
        flips = []
        spent = 0
        while True:
            if self.is_consensus():
                self.status = Status.HALTED
                self.consensus_symbol = int(self._s[0])
                return self._outcome(flips)
            if spent >= max_steps:
                self.status = Status.EXHAUSTED
                return self._outcome(flips)
            event = self.step()
            spent += 1
            if event.flipped:
                flips.append((self.step_count, event.site, event.new_symbol))

    def _outcome(self, flips: list[tuple[int, int, int]]) -> Outcome:
        return Outcome(status=self.status, consensus_symbol=self.consensus_symbol,
                       steps=self.step_count, final_tape=self.tape, flips=tuple(flips))

