"""Discrete-step tape machine driven by the neighbor-majority flip rule.

Each step selects one cell uniformly at random and negates its symbol with
probability w_i, the flip rate of `dynamics.rates`: 1/2 [1 - (gamma/2)
x_i (x_{i-1} + x_{i+1})], with the single-bond rule at open-chain ends.  At
gamma = 1 this is the classic copy-a-neighbor update; uniform tapes are then
absorbing and reaching one is the machine's halt (consensus = acceptance).
One step advances machine time by 1/N, so a run of about N t steps matches
the continuous-time evolution of the dynamics module over [0, t].  The
machine keeps every cell's rate and, after a flip, refreshes the flipped
cell and its two neighbours, as the Gillespie sampler does.  It also keeps
the number of +1 cells, which a flip moves by its new symbol, so the halt
check is one test: the tape is uniform when that count is 0 or N.

One attempt is one `step` call, and one halt check is one `is_consensus`
call: a run checks once before its first attempt and then only after an
attempt that flipped, since a null attempt leaves the tape as it was, so a
call of `run_until_halt` makes flips + 1 checks.  Per-attempt counters wrap
these two methods, so every attempt and every check goes through them.  An
attempt's `StepEvent` is one of the 4N possible (cell, flipped, symbol
after) values, built once per N and shared by every machine, so an attempt
builds no object of its own.  The run reads only the event's `flipped`, and
its cell and symbol after a flip; it records flips only when asked
(`record_flips`), as an event log needs them and a halting run does not.

Random stream: the cells and uniforms of the attempts are drawn ahead, in
refills of min(16 * 2^k, 1024) attempts for refill k = 0, 1, 2, ...  Each
refill is one `integers(N, size=b)` call followed by one `random(b)` call on
the machine's generator, and attempt j uses the j-th cell and the j-th
uniform.  The block sizes depend only on the attempt count, so runs are
reproducible functions of the seed alone.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import ModelParams, SpinTape
from .dynamics import _live_rates, _refresh

_FIRST_REFILL = 16
_MAX_REFILL = 1024


class StepEvent(NamedTuple):
    """One update attempt: the chosen cell, whether it flipped, and its symbol after."""

    site: int
    flipped: bool
    new_symbol: int


@lru_cache(maxsize=32)
def _step_events(n: int) -> tuple[tuple[tuple[StepEvent, ...], ...], ...]:
    """The 4n events of an n-cell machine, as `events[flipped][site][symbol]`.
    Each site's row is (None, event with +1, event with -1), so the symbol
    after the attempt, +1 or -1, indexes it directly."""
    return tuple(tuple((None, StepEvent(site, flipped, 1), StepEvent(site, flipped, -1))
                       for site in range(n))
                 for flipped in (False, True))


@dataclass(frozen=True, eq=False)
class Outcome:
    """How a run ended: the consensus symbol if the tape is uniform (halted),
    else None, with one (step, site, new_symbol) row per flip in the
    read-only int64 array `flips` of shape (k, 3); `step` is the step count
    just after the flip.  A run that records no flips has k = 0."""

    consensus_symbol: int | None
    steps: int
    final_tape: SpinTape
    flips: np.ndarray

    @property
    def halted(self) -> bool:
        return self.consensus_symbol is not None


class TuringVoter:
    """Seeded machine state: tape, parameters, step counter, and the rates and
    count of +1 cells it samples with; the tape is halted when that count is
    0 or N.

    Attempts consume the random stream in the refills the module docstring
    describes, drawn whether or not a flip succeeds.  A generator passed in
    is therefore consumed ahead of the steps: after j attempts it has
    delivered the whole refill that holds attempt j.
    """

    def __init__(self, tape: SpinTape, params: ModelParams,
                 seed: int | np.random.SeedSequence | np.random.Generator) -> None:
        self.params = params
        self._s, self._w, self._codes, self._table = _live_rates(tape, params)
        self._ups = self._s.count(1)
        self._n = len(self._s)
        self._stayed, self._flipped = _step_events(self._n)
        self._rng = np.random.default_rng(seed)
        self._draws = iter(())  # the first block is drawn by the first attempt
        self._refill_size = _FIRST_REFILL
        self.step_count = 0

    @property
    def tape(self) -> SpinTape:
        return SpinTape(tuple(self._s), self.params.boundary)

    def is_consensus(self) -> bool:
        # a count in [0, N] is a multiple of N only at 0 and N
        return self._ups % self._n == 0

    def _refill(self) -> tuple[int, float]:
        """Draw the next block of cells and uniforms; return its first pair."""
        b = self._refill_size
        self._refill_size = min(2 * b, _MAX_REFILL)
        cells = self._rng.integers(self._n, size=b).tolist()
        self._draws = zip(cells, self._rng.random(b).tolist())
        return next(self._draws)

    def step(self) -> StepEvent:
        """Attempt one update and return its event, a shared immutable value.

        Each attempt is exactly one call of this method; a run follows a
        flip, and only a flip, with one call of `is_consensus`."""
        try:
            site, u = next(self._draws)
        except StopIteration:
            site, u = self._refill()
        self.step_count += 1
        s = self._s
        if u < self._w[site]:
            _refresh(site, self._codes, self._w, self._table)
            s[site] = symbol = -s[site]
            self._ups += symbol
            return self._flipped[site][symbol]
        return self._stayed[site][s[site]]

    def run_until_halt(self, max_steps: int, *, record_flips: bool = True) -> Outcome:
        """Step until the tape is uniform (halt) or the budget runs out.

        Consensus is checked before the first step, so an already-uniform
        tape halts at the current step count, and again after each flip.
        An attempt reads only its event's `flipped`; with `record_flips`
        every flip of this call is recorded in the outcome's `flips`, and
        without it `flips` is empty.  A further call continues the run.
        """
        if max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        flips = array("q")
        record, step, is_consensus = flips.extend, self.step, self.is_consensus
        halted = is_consensus()
        for _ in range(0 if halted else max_steps):
            if (event := step()).flipped:
                if record_flips:
                    record((self.step_count, event.site, event.new_symbol))
                if is_consensus():
                    halted = True
                    break
        table = np.frombuffer(flips, dtype=np.int64).reshape(-1, 3)
        table.flags.writeable = False
        return Outcome(consensus_symbol=self._s[0] if halted else None,
                       steps=self.step_count, final_tape=self.tape, flips=table)
