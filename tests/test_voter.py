import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import run_checking_every_attempt, uniformized_kernel

from voterchain.core import Boundary, ModelParams, SpinTape, encode_state
from voterchain.dynamics import build_generator, evolve_exact, point_mass, rates
from voterchain.verify import check_machine_kernel_power, multinomial_z
from voterchain.voter import StepEvent, TuringVoter


def _flip(symbols, site, gamma, boundary=Boundary.PERIODIC):
    # the machine flips the scanned cell with probability w[site]
    params = ModelParams.from_gamma(gamma, boundary=boundary)
    return rates(SpinTape(symbols, boundary).symbols, params)[site]


def test_flip_probability_examples():
    assert _flip([1, 1, 1], 1, 1.0) == 0.0
    assert _flip([-1, 1, -1], 1, 1.0) == 1.0
    assert _flip([1, -1, 1, -1], 2, 0.0) == 0.5
    # zero neighbor sum: the bias cancels
    assert _flip([1, 1, -1], 0, 0.5) == 0.5
    # single periodic cell wraps onto itself
    assert _flip([1], 0, 0.4) == pytest.approx(0.3)


def test_flip_probability_validation():
    # |gamma| > 1 is no probability; the params reject it before any rate
    for gamma in (1.5, -1.5):
        with pytest.raises(ValueError):
            ModelParams.from_gamma(gamma)
    with pytest.raises(IndexError):
        _flip([1, -1, 1], 3, 0.5)
    # an open interior cell keeps the two-neighbor rule, and an open end
    # weighs its one bond by tanh(J/kT) = gamma / (1 + sqrt(1 - gamma^2))
    assert _flip([1, -1, 1], 1, 0.5, Boundary.OPEN) == pytest.approx(0.75)
    end = 0.5 / (1.0 + math.sqrt(0.75))
    assert _flip([1, -1, 1], 2, 0.5, Boundary.OPEN) == pytest.approx(0.5 * (1 + end))


def test_machine_rejects_mismatched_boundary_and_field():
    with pytest.raises(ValueError):
        TuringVoter(SpinTape([1, -1], Boundary.OPEN), ModelParams.from_gamma(0.5), 0)


def test_step_counts_and_time():
    machine = TuringVoter(SpinTape.alternating(4), ModelParams.from_gamma(0.0), 7)
    assert machine.step_count == 0
    events = [machine.step() for _ in range(8)]
    assert machine.step_count == 8
    assert all(0 <= e.site < 4 for e in events)
    assert all(e.new_symbol in (-1, 1) for e in events)


def test_absorbing_tape_never_flips():
    machine = TuringVoter(SpinTape.uniform(5), ModelParams.from_gamma(1.0), 3)
    assert all(not machine.step().flipped for _ in range(100))
    assert machine.tape.symbols == (1,) * 5


def test_identical_seeds_identical_runs():
    params = ModelParams.from_gamma(0.5)
    tape = SpinTape.alternating(6)
    a = TuringVoter(tape, params, 99)
    b = TuringVoter(tape, params, 99)
    assert [a.step() for _ in range(200)] == [b.step() for _ in range(200)]
    assert a.tape.symbols == b.tape.symbols


def test_run_until_halt_already_uniform():
    machine = TuringVoter(SpinTape.uniform(3), ModelParams.from_gamma(0.2), 0)
    outcome = machine.run_until_halt(100)
    assert outcome.halted
    assert outcome.consensus_symbol == 1
    assert outcome.steps == 0
    assert machine.is_consensus()


def test_run_until_halt_budget_zero():
    machine = TuringVoter(SpinTape.alternating(4), ModelParams.from_gamma(0.0), 0)
    outcome = machine.run_until_halt(0)
    assert not outcome.halted
    assert outcome.consensus_symbol is None
    assert outcome.final_tape.symbols == (1, -1, 1, -1)


def test_run_until_halt_validation_and_terminal_state():
    machine = TuringVoter(SpinTape.uniform(2), ModelParams.from_gamma(0.5), 0)
    with pytest.raises(ValueError):
        machine.run_until_halt(-1)
    # a second call continues the run: split budgets give the one-call outcome
    params = ModelParams.from_gamma(0.5)
    tape = SpinTape.alternating(6)
    split = TuringVoter(tape, params, 17)
    first = split.run_until_halt(10)
    second = split.run_until_halt(390)
    whole = TuringVoter(tape, params, 17).run_until_halt(400)
    assert not first.halted and first.steps == 10
    assert second.halted and second.steps == whole.steps == 14
    assert second.consensus_symbol == whole.consensus_symbol
    assert second.final_tape == whole.final_tape
    assert np.concatenate([first.flips, second.flips]).tolist() == whole.flips.tolist()
    # outcomes compare by identity; they hold arrays, and `==` does not raise
    assert first != second and first == first


def test_run_until_halt_records_every_flip():
    for boundary, budget in ((Boundary.PERIODIC, 400), (Boundary.OPEN, 25)):
        params = ModelParams.from_gamma(0.5, boundary=boundary)
        tape = SpinTape.alternating(6, boundary)
        outcome = TuringVoter(tape, params, 17).run_until_halt(budget)
        replay = TuringVoter(tape, params, 17)
        expected = []
        for _ in range(outcome.steps):
            event = replay.step()
            if event.flipped:
                expected.append((replay.step_count, event.site, event.new_symbol))
        flips = outcome.flips
        assert expected and flips.tolist() == [list(row) for row in expected]
        assert flips.dtype == np.int64 and flips.shape == (len(expected), 3)
        assert flips.nbytes == 24 * len(expected) and not flips.flags.writeable
        s = list(tape.symbols)
        for _, site, symbol in flips.tolist():
            s[site] = symbol
        assert tuple(s) == outcome.final_tape.symbols
    uniform = SpinTape.uniform(3, 1, Boundary.OPEN)
    assert TuringVoter(uniform, params, 0).run_until_halt(10).flips.shape == (0, 3)


def test_consensus_split_two_cells():
    params = ModelParams.from_gamma(1.0)
    tape = SpinTape([1, -1])
    ups = 0
    trials = 2000
    for child in np.random.SeedSequence(41).spawn(trials):
        outcome = TuringVoter(tape, params, child).run_until_halt(50)
        assert outcome.halted
        # a mixed 2-ring flips whichever cell is selected, so exactly one step
        assert outcome.steps == 1
        ups += outcome.consensus_symbol == 1
    sigma = 0.5 / math.sqrt(trials)
    assert abs(ups / trials - 0.5) <= 3 * sigma


def test_distribution_after_poisson_step_count_matches_exact():
    # a Poisson(N t) number of uniform single-site updates realizes exp(G t)
    n, gamma, t, trials = 4, 0.5, 0.75, 30_000
    params = ModelParams.from_gamma(gamma)
    tape = SpinTape.alternating(n)
    target = evolve_exact(point_mass(encode_state(tape), n), build_generator(n, params), t)
    counts = np.zeros(2**n, dtype=np.int64)
    for child in np.random.SeedSequence(61).spawn(trials):
        rng = np.random.default_rng(child)
        machine = TuringVoter(tape, params, rng)
        for _ in range(int(rng.poisson(n * t))):
            machine.step()
        counts[encode_state(machine.tape)] += 1
    assert multinomial_z(counts, np.clip(target, 0.0, None)) < 3.0


def test_machine_kernel_power_row_at_its_full_count():
    # with a fixed step budget the law is the k-th kernel power, not exp(G t);
    # plain `verify` runs the row at this count, `verify --fast` at a fifth
    r = check_machine_kernel_power(0, 50_000)
    assert r.passed, r


def test_poisson_weighted_kernel_powers_reproduce_exact_evolution():
    # exp(G t) = sum_k Pois(N t)(k) K^k, confirming the time convention
    n, gamma, t = 4, 0.5, 0.75
    gen = build_generator(n, ModelParams.from_gamma(gamma))
    kernel = uniformized_kernel(gen, n).toarray()
    p0 = point_mass(encode_state(SpinTape.alternating(n)), n)
    lam = n * t
    mix = np.zeros_like(p0)
    term = p0.copy()
    weight = math.exp(-lam)
    for k in range(200):
        mix += weight * term
        term = kernel @ term
        weight *= lam / (k + 1)
    exact = evolve_exact(p0, gen, t)
    assert np.abs(mix - exact).max() <= 1e-12


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), gamma=st.floats(-1.0, 1.0),
       boundary=st.sampled_from(list(Boundary)), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(0, 120), data=st.data())
def test_halt_check_tracks_uniform_tape(n, gamma, boundary, seed, steps, data):
    # the kept count of +1 cells is 0 or n exactly when every symbol is equal
    symbols = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    machine = TuringVoter(SpinTape(symbols, boundary),
                          ModelParams.from_gamma(gamma, boundary=boundary), seed)
    for _ in range(steps + 1):
        s = machine.tape.symbols
        assert machine.is_consensus() == (len(set(s)) == 1)
        machine.step()


def _count_halt_checks(machine: TuringVoter) -> list[int]:
    """Route the machine's `is_consensus` through a counter, read as [calls]."""
    calls, check = [0], machine.is_consensus

    def counted():
        calls[0] += 1
        return check()

    machine.is_consensus = counted
    return calls


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 12), gamma=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
       boundary=st.sampled_from(list(Boundary)), seed=st.integers(0, 2**32 - 1),
       start=st.sampled_from([1, -1, "random"]), max_steps=st.integers(0, 2_000))
def test_halt_checked_after_flips_only_matches_checking_every_attempt(
        n, gamma, boundary, seed, start, max_steps):
    # a null attempt leaves the tape as it was, so checking for a halt only
    # after a flip gives the outcome, the continuation and the draws of a
    # check after every attempt, with flips + 1 checks per call; a run that
    # records no flips is the same run with an empty read-only flips table
    params = ModelParams.from_gamma(gamma, boundary=boundary)
    if start == "random":
        tape = SpinTape.random(n, np.random.default_rng(seed), boundary)
    else:
        tape = SpinTape.uniform(n, start, boundary)
    streams = [np.random.default_rng(seed) for _ in range(3)]
    machine, bare, reference = (TuringVoter(tape, params, rng) for rng in streams)
    checks = _count_halt_checks(machine)
    for _ in range(2):  # the second call continues the run
        calls = checks[0]
        got = machine.run_until_halt(max_steps)
        unrecorded = bare.run_until_halt(max_steps, record_flips=False)
        want = run_checking_every_attempt(reference, max_steps)
        for run in (got, unrecorded):
            assert (run.halted, run.consensus_symbol, run.steps, run.final_tape) == \
                (want.halted, want.consensus_symbol, want.steps, want.final_tape)
        assert got.flips.tolist() == want.flips.tolist()
        assert got.flips.shape == want.flips.shape and not got.flips.flags.writeable
        assert unrecorded.flips.shape == (0, 3) and not unrecorded.flips.flags.writeable
        assert checks[0] - calls == len(got.flips) + 1
    assert machine.step() == bare.step() == reference.step()
    assert streams[0].bit_generator.state == streams[1].bit_generator.state == \
        streams[2].bit_generator.state
    assert streams[0].random() == streams[1].random() == streams[2].random()


@pytest.mark.parametrize("boundary", list(Boundary))
def test_steps_to_halt_follow_absorbed_kernel_mass(boundary):
    # P(halted within k steps) is the mass K^k p0 puts on the two consensus
    # tapes; the empirical steps to halt are binned at 5% quantiles of that law
    n, trials, horizon = 6, 4_000, 400
    params = ModelParams.from_gamma(1.0, boundary=boundary)
    tape = SpinTape.alternating(n, boundary)
    kernel = uniformized_kernel(build_generator(n, params), n).toarray()
    p = point_mass(encode_state(tape), n)
    cdf = np.empty(horizon + 1)
    for k in range(horizon + 1):
        cdf[k] = p[0] + p[-1]
        p = kernel @ p
    edges = np.unique(np.searchsorted(cdf, np.linspace(0.05, 0.95, 19)))
    probs = np.diff(np.concatenate([[0.0], cdf[edges], [1.0]]))
    steps = []
    for child in np.random.SeedSequence(64).spawn(trials):
        outcome = TuringVoter(tape, params, child).run_until_halt(100_000)
        assert outcome.halted
        steps.append(outcome.steps)
    counts = np.bincount(np.searchsorted(edges, steps), minlength=probs.size)
    assert multinomial_z(counts, probs) < 3.0


def _replay(tape: SpinTape, params: ModelParams, replay: np.random.Generator,
            attempts: int) -> tuple[list[StepEvent], list[list[int]]]:
    """The events and the tape after each of `attempts` attempts, rebuilt from
    the documented refills: refill k draws min(16 * 2^k, 1024) cells, then as
    many uniforms, and each attempt takes the next cell and uniform and flips
    when u < w[site]."""
    n = tape.n
    cells, uniforms, size = [], [], 16
    while len(cells) < attempts:
        cells += replay.integers(n, size=size).tolist()
        uniforms += replay.random(size).tolist()
        size = min(2 * size, 1024)
    s = list(tape.symbols)
    events, tapes = [], [s[:]]
    for site, u in zip(cells[:attempts], uniforms):
        flipped = bool(u < rates(s, params)[site])
        if flipped:
            s[site] = -s[site]
        events.append(StepEvent(site, flipped, int(s[site])))
        tapes.append(s[:])
    return events, tapes


@pytest.mark.parametrize("boundary", list(Boundary))
def test_attempts_replay_the_documented_refills(boundary):
    n, attempts = 7, 3_000
    params = ModelParams.from_gamma(0.4, boundary=boundary)
    tape = SpinTape.alternating(n, boundary)
    stream = np.random.default_rng(5)
    machine = TuringVoter(tape, params, stream)
    events = [machine.step() for _ in range(attempts)]
    replay = np.random.default_rng(5)
    assert events == _replay(tape, params, replay, attempts)[0]
    # the generator passed in is drawn ahead by whole refills
    assert stream.bit_generator.state == replay.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 9), gamma=st.floats(-1.0, 1.0),
       boundary=st.sampled_from(list(Boundary)), seed=st.integers(0, 2**32 - 1),
       attempts=st.integers(0, 150), data=st.data())
def test_shared_events_equal_fresh_ones(n, gamma, boundary, seed, attempts, data):
    # every attempt returns one of the 4n shared events, equal to the event
    # built afresh from the replayed refills, and a run records the same flips
    symbols = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    tape = SpinTape(symbols, boundary)
    params = ModelParams.from_gamma(gamma, boundary=boundary)
    machine = TuringVoter(tape, params, seed)
    events = [machine.step() for _ in range(attempts)]
    expected, tapes = _replay(tape, params, np.random.default_rng(seed), attempts)
    assert events == expected
    assert [type(e.flipped) for e in events] == [bool] * attempts
    assert [type(e.new_symbol) for e in events] == [int] * attempts
    # the events are shared values: at most 4n objects, the same in every machine
    assert len({id(e) for e in events}) <= 4 * n
    if events:
        assert TuringVoter(tape, params, seed).step() is events[0]
    outcome = TuringVoter(tape, params, seed).run_until_halt(attempts)
    halt = next((k for k, s in enumerate(tapes) if len(set(s)) == 1), attempts)
    assert outcome.steps == halt
    assert outcome.flips.tolist() == [[k + 1, e.site, e.new_symbol]
                                      for k, e in enumerate(expected[:halt]) if e.flipped]


def test_multinomial_z_pools_tied_cells_by_state_index():
    # cells 2 and 3 are equally likely; whichever is 1 ulp larger in the law,
    # the tail pool takes cell 2, so z is the statistic with cell 2 pooled
    counts = np.array([0, 3, 3000, 3100, 3895, 2])
    law = np.array([1e-4, 2e-4, 0.3, 0.3, 0.0, 1e-4])
    law[4] = 1.0 - law.sum()
    expected = law * counts.sum()
    c = np.array([counts[[0, 1, 5, 2]].sum(), counts[3], counts[4]], dtype=float)
    e = np.array([expected[[0, 1, 5, 2]].sum(), expected[3], expected[4]])
    pooled_at_2 = (((c - e) ** 2 / e).sum() - 2) / math.sqrt(4)
    for tied in (2, 3):
        probs = law.copy()
        probs[tied] = np.nextafter(probs[tied], 1.0)
        assert multinomial_z(counts, probs) == pytest.approx(pooled_at_2, rel=1e-12)


def test_multinomial_z_keeps_every_cell_of_a_uniform_law():
    # a tie is broken, not pooled whole: eight equal cells stay eight cells
    counts = np.array([120, 130, 125, 110, 140, 125, 118, 132])
    e = counts.sum() / counts.size
    chi2 = float(((counts - e) ** 2 / e).sum())
    assert multinomial_z(counts, np.full(8, 1 / 8)) == pytest.approx(
        (chi2 - 7) / math.sqrt(14), rel=1e-12)
