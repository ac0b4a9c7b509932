import math

import numpy as np
import pytest
from oracles import uniformized_kernel

from voterchain.core import Boundary, ModelParams, SpinTape, encode_state
from voterchain.dynamics import build_generator, evolve_exact, point_mass, rates
from voterchain.verify import multinomial_z
from voterchain.voter import Status, TuringVoter


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
    assert machine.step_count == 0 and machine.time == 0.0
    events = [machine.step() for _ in range(8)]
    assert machine.step_count == 8
    assert machine.time == pytest.approx(2.0)
    assert all(0 <= e.site < 4 for e in events)
    assert all(e.new_symbol in (-1, 1) for e in events)


def test_absorbing_tape_never_flips():
    machine = TuringVoter(SpinTape.uniform(5), ModelParams.from_gamma(1.0), 3)
    assert all(not machine.step().flipped for _ in range(100))
    assert np.all(machine.tape.symbols == 1)


def test_identical_seeds_identical_runs():
    params = ModelParams.from_gamma(0.5)
    tape = SpinTape.alternating(6)
    a = TuringVoter(tape, params, 99)
    b = TuringVoter(tape, params, 99)
    assert [a.step() for _ in range(200)] == [b.step() for _ in range(200)]
    assert a.tape.symbols.tolist() == b.tape.symbols.tolist()


def test_run_until_halt_already_uniform():
    machine = TuringVoter(SpinTape.uniform(3), ModelParams.from_gamma(0.2), 0)
    outcome = machine.run_until_halt(100)
    assert outcome.status is Status.HALTED
    assert outcome.halted
    assert outcome.consensus_symbol == 1
    assert outcome.steps == 0
    assert machine.status is Status.HALTED


def test_run_until_halt_budget_zero():
    machine = TuringVoter(SpinTape.alternating(4), ModelParams.from_gamma(0.0), 0)
    outcome = machine.run_until_halt(0)
    assert outcome.status is Status.EXHAUSTED
    assert not outcome.halted
    assert outcome.consensus_symbol is None
    assert outcome.final_tape.symbols.tolist() == [1, -1, 1, -1]


def test_run_until_halt_validation_and_terminal_state():
    machine = TuringVoter(SpinTape.uniform(2), ModelParams.from_gamma(0.5), 0)
    with pytest.raises(ValueError):
        machine.run_until_halt(-1)
    machine.run_until_halt(10)
    with pytest.raises(RuntimeError):
        machine.step()
    with pytest.raises(RuntimeError):
        machine.run_until_halt(10)


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
        assert expected and outcome.flips == tuple(expected)
        s = tape.symbols.copy()
        for _, site, symbol in outcome.flips:
            s[site] = symbol
        assert s.tolist() == outcome.final_tape.symbols.tolist()
    uniform = SpinTape.uniform(3, 1, Boundary.OPEN)
    assert TuringVoter(uniform, params, 0).run_until_halt(10).flips == ()


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


def _empirical_counts(n: int, gamma: float, steps_for, trials: int, seed: int) -> np.ndarray:
    params = ModelParams.from_gamma(gamma)
    tape = SpinTape.alternating(n)
    counts = np.zeros(2**n, dtype=np.int64)
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        machine = TuringVoter(tape, params, rng)
        for _ in range(steps_for(rng)):
            machine.step()
        counts[encode_state(machine.tape)] += 1
    return counts


def test_distribution_after_poisson_step_count_matches_exact():
    # a Poisson(N t) number of uniform single-site updates realizes exp(G t)
    n, gamma, t, trials = 4, 0.5, 0.75, 30_000
    gen = build_generator(n, ModelParams.from_gamma(gamma))
    target = evolve_exact(point_mass(encode_state(SpinTape.alternating(n)), n), gen, t)
    counts = _empirical_counts(n, gamma, lambda rng: int(rng.poisson(n * t)), trials, 61)
    assert multinomial_z(counts, np.clip(target, 0.0, None)) < 3.0


def test_distribution_after_fixed_step_count_matches_kernel_power():
    # with a fixed step budget the law is the k-th kernel power, not exp(G t)
    n, gamma, t, trials = 4, 0.5, 0.75, 30_000
    k = math.ceil(n * t)
    kernel = uniformized_kernel(build_generator(n, ModelParams.from_gamma(gamma))).toarray()
    target = np.linalg.matrix_power(kernel, k) @ point_mass(
        encode_state(SpinTape.alternating(n)), n)
    counts = _empirical_counts(n, gamma, lambda rng: k, trials, 62)
    assert multinomial_z(counts, np.clip(target, 0.0, None)) < 3.0


def test_poisson_weighted_kernel_powers_reproduce_exact_evolution():
    # exp(G t) = sum_k Pois(N t)(k) K^k, confirming the time convention
    n, gamma, t = 4, 0.5, 0.75
    gen = build_generator(n, ModelParams.from_gamma(gamma))
    kernel = uniformized_kernel(gen).toarray()
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
