"""Each `verify` row can fail: a table of mutants, each a one-line change to
the package applied by monkeypatch, with the rows that must catch it.

A mutant runs `run_verify` exactly as `verify --fast` does, seeds and
trial counts included, with every row it does not name replaced by a
passing stub, so each case pays only for the rows it checks.  That the
named rows pass unmutated is read from the session's one `verify --fast`
run.
"""

import math

import pytest

from voterchain import dynamics, verify, voter
from voterchain.verify import CheckResult, run_verify


def _half_gamma_ends(monkeypatch):
    # the open chain's end cells weigh their bond by gamma/2 in place of
    # tanh(J/kT), except at |gamma| = 1, where the end factor stays 1
    lookup = dynamics._rate_lookup
    monkeypatch.setattr(dynamics, "_rate_lookup", lambda n, gamma, end: lookup(
        n, gamma, end if end is None or abs(gamma) == 1.0 else gamma / 2))


def _machine_flips_five_percent_more(monkeypatch):
    # the machine flips with probability min(1, 1.05 w)
    live_rates = voter._live_rates

    def scaled(tape, params):
        symbols, _, codes, table = live_rates(tape, params)
        table = tuple(tuple(min(1.0, 1.05 * w) for w in row) for row in table)
        return symbols, [row[c] for row, c in zip(table, codes)], codes, table

    monkeypatch.setattr(voter, "_live_rates", scaled)


def _last_site_keeps_a_stale_right_neighbour(monkeypatch):
    # a flip of the last site refreshes its left neighbour and itself, never
    # site 0, its right neighbour across the wrap; both samplers share it
    def refresh(site, codes, w, table):
        neighbourhood = [(site - 1, 1), (site, 2)]
        if site + 1 < len(codes):
            neighbourhood.append((site + 1, 4))
        for i, bit in neighbourhood:
            codes[i] ^= bit
            w[i] = table[i][codes[i]]

    monkeypatch.setattr(dynamics, "_refresh", refresh)
    monkeypatch.setattr(voter, "_refresh", refresh)


def _gillespie_clock_five_percent_fast(monkeypatch):
    # the sampler's running rate sums, and so its total rate, read 5% high:
    # the waiting times shrink by 1/1.05 and the site draw is unchanged
    accumulate = dynamics.accumulate
    monkeypatch.setattr(dynamics, "accumulate", lambda w: (1.05 * x for x in accumulate(w)))


def _machine_never_picks_the_last_cell(monkeypatch):
    # each refill draws its cells from the first N - 1
    def refill(self):
        b = self._refill_size
        self._refill_size = min(2 * b, voter._MAX_REFILL)
        cells = self._rng.integers(self._n - 1, size=b).tolist()
        self._draws = zip(cells, self._rng.random(b).tolist())
        return next(self._draws)

    monkeypatch.setattr(voter.TuringVoter, "_refill", refill)


def _ring_gamma_a_thousandth_high(monkeypatch):
    # a ring's flip rule reads gamma 1.001 times too large for |gamma| < 1
    lookup = dynamics._rate_lookup
    monkeypatch.setattr(dynamics, "_rate_lookup", lambda n, gamma, end: lookup(
        n, gamma * 1.001 if end is None and abs(gamma) < 1.0 else gamma, end))


def _poisson_weights_short_of_their_mass(monkeypatch):
    # uniformization's Poisson weights sum to 1 - 1e-6
    window = dynamics._poisson_window

    def short(mean):
        first, weights = window(mean)
        return first, weights * (1.0 - 1e-6)

    monkeypatch.setattr(dynamics, "_poisson_window", short)


def _uniformized_time_one_percent_long(monkeypatch):
    # every exact step propagates 1.01 times its time
    window = dynamics._window
    monkeypatch.setattr(dynamics, "_window", lambda rate, dt: window(rate, 1.01 * dt))


MUTANTS = {
    "open_end_coupling_half_gamma": (_half_gamma_ends, ["detailed_balance", "gibbs_stationarity",
                                                        "stationary_matches_gibbs"]),
    "machine_flip_probability_1.05w": (_machine_flips_five_percent_more,
                                       ["machine_kernel_power"]),
    "refresh_skips_the_wrap": (_last_site_keeps_a_stale_right_neighbour,
                               ["kmc_vs_exact", "machine_kernel_power"]),
    "gillespie_clock_1.05": (_gillespie_clock_five_percent_fast, ["kmc_poisson"]),
    "machine_never_picks_the_last_cell": (_machine_never_picks_the_last_cell,
                                          ["consensus_split"]),
    "ring_gamma_1.001": (_ring_gamma_a_thousandth_high,
                         ["detailed_balance", "gibbs_stationarity", "relaxation_law",
                          "stationary_matches_gibbs"]),
    "poisson_weights_short_1e-6": (_poisson_weights_short_of_their_mass,
                                   ["probability_conservation", "relaxation_law"]),
    "uniformized_time_1.01": (_uniformized_time_one_percent_long, ["relaxation_law"]),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_the_rows_named_for_it(monkeypatch, verify_results, mutant):
    apply, rows = MUTANTS[mutant]
    passed = {r.name: r.passed for r in verify_results}
    assert all(passed[row] for row in rows)
    for name in dir(verify):
        row = name.removeprefix("check_")
        if name.startswith("check_") and row not in rows:
            monkeypatch.setattr(verify, name, lambda *args, row=row: CheckResult(row, True, 0.0, 1.0))
    apply(monkeypatch)
    results = {r.name: r for r in run_verify(seed=0, fast=True)}
    failed = sorted(name for name, r in results.items() if not r.passed)
    assert failed == sorted(rows)


def test_consensus_split_reports_its_own_band_when_a_run_does_not_halt(monkeypatch):
    # the band of a run that never halts was the 10,000-run one, 0.015,
    # whatever the count
    run_until_halt = voter.TuringVoter.run_until_halt
    monkeypatch.setattr(voter.TuringVoter, "run_until_halt",
                        lambda self, max_steps, **kw: run_until_halt(self, 0, **kw))
    r = verify.check_consensus_split(0, 2_000)
    assert not r.passed and r.residual == math.inf
    assert r.tolerance == pytest.approx(1.5 / math.sqrt(2_000))
