import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import uniformized_kernel
from scipy.linalg import expm

from voterchain.core import (
    Boundary,
    ModelParams,
    SpinTape,
    decode_state,
    encode_state,
    magnetization_vector,
    spin_table,
)
from voterchain import dynamics
from voterchain.dynamics import (
    EXACT_SITE_CAP,
    _neighbourhoods,
    _rate_lookup,
    _refresh,
    _stepped,
    build_generator,
    column_sum_residual,
    detailed_balance_residual,
    evolve_exact,
    flux_residual,
    kmc_sample,
    mean_magnetization_curve,
    point_mass,
    rates,
    stationary_distributions,
    uniform_distribution,
)
from voterchain.thermo import gibbs_probabilities
from voterchain.verify import poisson_z


def test_rates_unbiased_coin():
    params = ModelParams.from_gamma(0.0)
    for n in (1, 3, 6):
        assert np.all(rates(spin_table(n), params) == 0.5)


def test_rates_voter_limit():
    params = ModelParams.from_gamma(1.0)
    tape = SpinTape([1, 1, 1])
    assert rates(tape.symbols, params).tolist() == [0.0, 0.0, 0.0]
    # a fully outvoted cell flips with certainty
    assert rates(SpinTape([-1, 1, -1]).symbols, params)[1] == 1.0


def test_rates_single_cell():
    # periodic: the cell is its own pair of neighbors
    assert rates([1], ModelParams.from_gamma(0.6))[0] == pytest.approx(0.2)
    open_params = ModelParams.from_gamma(0.6, boundary=Boundary.OPEN)
    assert rates(SpinTape([1], Boundary.OPEN).symbols, open_params).tolist() == [0.5]


def test_rates_open_endpoints_use_single_bond_factor():
    params = ModelParams.from_physical(0.7, 1.0, boundary=Boundary.OPEN)
    tape = SpinTape([1, 1, -1], Boundary.OPEN)
    w = rates(tape.symbols, params)
    fac = math.tanh(0.7)
    assert w[0] == pytest.approx(0.5 * (1 - fac), abs=1e-15)
    assert w[2] == pytest.approx(0.5 * (1 + fac), abs=1e-15)
    # interior cell keeps the two-neighbor rule
    assert w[1] == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), gamma=st.floats(-1.0, 1.0),
       boundary=st.sampled_from(list(Boundary)))
def test_table_rows_match_tape_rates(n, gamma, boundary):
    # the batch over all states, each single tape and the samplers' lookup
    # give the same rates, bit for bit
    params = ModelParams.from_gamma(gamma, boundary=boundary)
    table = rates(spin_table(n), params)
    assert table.shape == (2**n, n)
    lookup = _rate_lookup(n, params)
    codes = _neighbourhoods(spin_table(n))
    for idx in range(2**n):
        tape = decode_state(idx, n, boundary)
        assert np.array_equal(rates(tape.symbols, params), table[idx])
        assert [lookup[i][codes[idx, i]] for i in range(n)] == table[idx].tolist()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), gamma=st.floats(-1.0, 1.0),
       boundary=st.sampled_from(list(Boundary)))
def test_rates_lie_in_unit_interval(n, gamma, boundary):
    table = rates(spin_table(n), ModelParams.from_gamma(gamma, boundary=boundary))
    assert np.all((table >= 0.0) & (table <= 1.0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), gamma=st.floats(-1.0, 1.0),
       boundary=st.sampled_from(list(Boundary)), data=st.data())
def test_refresh_after_flips_matches_rates(n, gamma, boundary, data):
    params = ModelParams.from_gamma(gamma, boundary=boundary)
    s = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)),
                 dtype=np.int8)
    w = rates(s, params).tolist()
    codes = _neighbourhoods(s).tolist()
    table = _rate_lookup(n, params)
    for site in data.draw(st.lists(st.integers(0, n - 1), max_size=40)):
        s[site] = -s[site]
        _refresh(site, codes, w, table)
        assert w == rates(s, params).tolist()
        assert codes == _neighbourhoods(s).tolist()


# Beyond |beta J| of about 2.4, rounding gamma = tanh(2 beta J) next to +-1
# alone moves 1 - |gamma|, and so the small rates, by more than 1e-12.
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), beta_j=st.floats(-2.0, 2.0), temperature=st.floats(0.25, 4.0),
       boltzmann=st.floats(0.5, 2.0), boundary=st.sampled_from(list(Boundary)))
def test_flux_balances_at_physical_gamma(n, beta_j, temperature, boltzmann, boundary):
    params = ModelParams.from_physical(beta_j * boltzmann * temperature, temperature,
                                       boltzmann, boundary=boundary)
    assert detailed_balance_residual(n, params) <= 1e-12


def test_site_cap():
    with pytest.raises(ValueError):
        build_generator(EXACT_SITE_CAP + 1, ModelParams.from_gamma(0.0))
    with pytest.raises(ValueError, match="at least one cell"):
        build_generator(0, ModelParams.from_gamma(0.0))


def test_generator_structure():
    gen = build_generator(4, ModelParams.from_gamma(0.5))
    assert column_sum_residual(gen) <= 1e-12
    coo = gen.matrix.tocoo()
    for r, c, v in zip(coo.row, coo.col, coo.data):
        if r == c:
            assert v <= 0.0
        else:
            # off-diagonal entries only between single-flip neighbors
            diff = int(r) ^ int(c)
            assert diff & (diff - 1) == 0
            assert v >= 0.0


def test_generator_matches_rate_definition():
    params = ModelParams.from_gamma(0.3)
    gen = build_generator(3, ModelParams.from_gamma(0.3))
    dense = gen.matrix.toarray()
    for idx in range(8):
        tape = decode_state(idx, 3)
        for site in range(3):
            assert dense[idx ^ (1 << site), idx] == pytest.approx(
                rates(tape.symbols, params)[site], abs=1e-15)


def test_evolve_exact_t0_and_validation():
    gen = build_generator(3, ModelParams.from_gamma(0.2))
    p0 = point_mass(5, 3)
    assert np.array_equal(evolve_exact(p0, gen, 0.0), p0)
    with pytest.raises(ValueError):
        evolve_exact(p0, gen, -1.0)
    with pytest.raises(ValueError):
        evolve_exact(np.ones(4), gen, 1.0)


def test_evolve_exact_underflowing_step_returns_start():
    # t times the largest exit rate is subnormal: P(t) is P(0) far below
    # roundoff, and the matrix-exponential action is not attempted
    gen = build_generator(3, ModelParams.from_gamma(0.5))
    p0 = point_mass(1, 3)
    for t in (5e-324, 1e-323):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = evolve_exact(p0, gen, t)
        assert p.tobytes() == p0.tobytes() and p is not p0


def test_evolve_exact_matches_dense_expm():
    for gamma in (0.0, 0.6, 1.0):
        gen = build_generator(3, ModelParams.from_gamma(gamma))
        p0 = point_mass(5, 3)
        for t in (0.3, 2.0):
            expected = expm(gen.matrix.toarray() * t) @ p0
            assert np.abs(evolve_exact(p0, gen, t) - expected).max() <= 1e-12


def test_evolve_exact_conserves_probability():
    worst = 0.0
    for n in (2, 5, 8):
        gen = build_generator(n, ModelParams.from_gamma(0.8))
        p0 = uniform_distribution(n)
        for t in (0.1, 1.0, 10.0):
            p = evolve_exact(p0, gen, t)
            worst = max(worst, abs(float(p.sum()) - 1.0), -float(p.min()))
    assert worst <= 1e-12


def test_stationary_unbiased_is_uniform():
    gen = build_generator(4, ModelParams.from_gamma(0.0))
    dists = stationary_distributions(gen)
    assert len(dists) == 1
    assert np.abs(dists[0] - 1.0 / 16).max() <= 1e-12


def test_stationary_matches_gibbs():
    for n in (2, 5):
        for bj in (0.5, -1.0):
            params = ModelParams.from_physical(bj, 1.0)
            gen = build_generator(n, params)
            dists = stationary_distributions(gen)
            assert len(dists) == 1
            gibbs = gibbs_probabilities(n, bj, 1.0, boundary=Boundary.PERIODIC)
            assert np.abs(dists[0] - gibbs).max() <= 1e-10
            assert np.abs(gen.matrix @ gibbs).max() <= 1e-10


def test_stationary_voter_absorbing_basis():
    gen = build_generator(4, ModelParams.from_gamma(1.0))
    dists = stationary_distributions(gen)
    supports = sorted(int(np.argmax(p)) for p in dists)
    assert supports == [0, 15]
    for p in dists:
        assert np.abs(gen.matrix @ p).max() <= 1e-12


def test_stationary_antialigned_absorbers():
    # gamma = -1 on an even ring: both alternating patterns are absorbing
    gen = build_generator(4, ModelParams.from_gamma(-1.0))
    supports = sorted(int(np.argmax(p)) for p in stationary_distributions(gen))
    assert supports == [encode_state(SpinTape.alternating(4)), 0b1010]


def test_stationary_odd_antialigned_ring_has_one_class():
    # gamma = -1 on an odd ring: the one aligned bond wanders, so the closed
    # class is the 2n tapes with exactly one aligned bond, the rest transient
    for n in (3, 5, 7):
        gen = build_generator(n, ModelParams.from_gamma(-1.0))
        (law,) = stationary_distributions(gen)
        s = spin_table(n)
        one_bond = np.flatnonzero((s == np.roll(s, -1, axis=1)).sum(axis=1) == 1)
        assert one_bond.size == 2 * n
        assert np.array_equal(np.flatnonzero(law), one_bond)
        assert np.abs(law[one_bond] - 1.0 / (2 * n)).max() <= 1e-12


def _closed_class_count(gen):
    """Closed classes of the flip graph, counted by boolean reachability."""
    reach = (gen.matrix.toarray().T != 0) | np.eye(gen.dim, dtype=bool)
    while True:
        longer = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(longer, reach):
            break
        reach = longer
    same = reach & reach.T
    return len({tuple(np.flatnonzero(same[i])) for i in range(gen.dim)
                if not (reach[i] & ~same[i]).any()})


ALMOST_ONE = float(np.nextafter(1.0, 0.0))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), gamma=st.floats(-1.0, 1.0),
       boundary=st.sampled_from(list(Boundary)))
@example(n=3, gamma=ALMOST_ONE, boundary=Boundary.PERIODIC)
@example(n=6, gamma=ALMOST_ONE, boundary=Boundary.PERIODIC)
@example(n=4, gamma=ALMOST_ONE, boundary=Boundary.OPEN)
@example(n=3, gamma=1.0 - 1e-15, boundary=Boundary.PERIODIC)
@example(n=4, gamma=1.0 - 1e-15, boundary=Boundary.PERIODIC)
@example(n=4, gamma=-1.0 + 1e-15, boundary=Boundary.PERIODIC)
@example(n=6, gamma=-1.0 + 1e-15, boundary=Boundary.PERIODIC)
def test_stationary_basis_spans_closed_classes(n, gamma, boundary):
    # near gamma = +-1 the chain is irreducible, however small the exit
    # rates of the consensus or alternating tapes, so it has one law
    gen = build_generator(n, ModelParams.from_gamma(gamma, boundary=boundary))
    basis = stationary_distributions(gen)
    assert len(basis) == _closed_class_count(gen)
    for p in basis:
        assert p.min() >= -1e-15
        assert abs(float(p.sum()) - 1.0) <= 1e-12
        assert np.abs(gen.matrix @ p).max() <= 1e-12
    supports = np.array([p != 0 for p in basis])
    assert supports.sum(axis=0).max() <= 1
    firsts = [int(np.flatnonzero(s)[0]) for s in supports]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("garbage", [np.nan, 0.0, 7.0])
def test_stationary_solve_failure_raises(monkeypatch, garbage):
    # a solve that misses G p = 0 or the normalization is an error, not a law
    gen = build_generator(4, ModelParams.from_gamma(0.5))
    monkeypatch.setattr(dynamics, "spsolve", lambda a, b: np.full(b.size, garbage))
    with pytest.raises(np.linalg.LinAlgError):
        stationary_distributions(gen)


def test_detailed_balance_residual_small():
    worst = 0.0
    for n in range(2, 9):
        for bj in (-2.0, -0.5, 0.5, 1.0, 2.0):
            for boundary in (Boundary.PERIODIC, Boundary.OPEN):
                params = ModelParams.from_physical(bj, 1.0, boundary=boundary)
                worst = max(worst, detailed_balance_residual(n, params))
    assert worst <= 1e-12


def test_detailed_balance_needs_triple():
    with pytest.raises(ValueError):
        detailed_balance_residual(3, ModelParams.from_gamma(0.5))


def test_flux_residual_detects_mismatch():
    from voterchain.core import state_energies
    wrong = ModelParams.from_gamma(math.tanh(2.0) * 0.9)
    w = rates(spin_table(4), wrong)
    energies = state_energies(4, 1.0, 0.0, Boundary.PERIODIC)
    assert flux_residual(w, energies, 1.0) > 1e-2


def test_mean_magnetization_curve():
    times = [0.0, 0.4, 1.7]
    gen = build_generator(4, ModelParams.from_gamma(0.0))
    m = mean_magnetization_curve(point_mass(15, 4), gen, times)
    assert np.abs(m - np.exp(-np.asarray(times))).max() <= 1e-12
    # symmetric start stays at zero
    sym = mean_magnetization_curve(uniform_distribution(4), gen, times)
    assert np.abs(sym).max() <= 1e-13
    voter = build_generator(4, ModelParams.from_gamma(1.0))
    conserved = mean_magnetization_curve(point_mass(1, 4), voter, times)
    assert np.abs(conserved - conserved[0]).max() <= 1e-12


def test_mean_magnetization_curve_any_time_order():
    gen = build_generator(5, ModelParams.from_gamma(0.4))
    p0 = point_mass(22, 5)
    times = [2.0, 0.0, 0.7, 2.0, 0.3, 0.7]
    curve = mean_magnetization_curve(p0, gen, times)
    ordered = mean_magnetization_curve(p0, gen, sorted(times))
    assert np.array_equal(curve[np.argsort(times, kind="stable")], ordered)
    assert curve[1] == pytest.approx(0.2, abs=1e-15)
    assert curve[0] == curve[3] and curve[2] == curve[5]
    assert mean_magnetization_curve(p0, gen, []).shape == (0,)
    with pytest.raises(ValueError):
        mean_magnetization_curve(p0, gen, [1.0, -0.5, 2.0])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), gamma=st.floats(-1.0, 1.0),
       boundary=st.sampled_from(list(Boundary)), uniform=st.booleans(),
       times=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=6), data=st.data())
def test_stepping_matches_restarts(n, gamma, boundary, uniform, times, data):
    gen = build_generator(n, ModelParams.from_gamma(gamma, boundary=boundary))
    if uniform:
        p0 = uniform_distribution(n)
    else:
        p0 = point_mass(data.draw(st.integers(0, 2**n - 1)), n)
    restarts = [evolve_exact(p0, gen, t) for t in times]
    m = magnetization_vector(n)
    curve = mean_magnetization_curve(p0, gen, times)
    assert np.abs(curve - np.array([m @ p for p in restarts])).max() <= 1e-12
    order = np.argsort(times, kind="stable")
    for k, p in zip(order, _stepped(p0, gen, np.asarray(times)[order])):
        assert np.abs(p - restarts[k]).max() <= 1e-12
        assert abs(float(p.sum()) - 1.0) <= 1e-12


def test_relaxation_rate_tracks_gamma():
    times = np.array([0.2, 0.9, 3.0])
    for gamma in (0.25, 0.75):
        gen = build_generator(6, ModelParams.from_gamma(gamma))
        curve = mean_magnetization_curve(point_mass(63, 6), gen, times)
        predicted = np.exp(-(1 - gamma) * times)
        assert np.abs(curve / predicted - 1.0).max() <= 1e-10


def test_uniformized_kernel_is_stochastic():
    for gamma in (0.0, 0.7, 1.0):
        gen = build_generator(3, ModelParams.from_gamma(gamma))
        k = uniformized_kernel(gen).toarray()
        assert np.abs(k.sum(axis=0) - 1.0).max() <= 1e-12
        assert k.min() >= 0.0


def test_kmc_trivial_cases():
    voter = ModelParams.from_gamma(1.0)
    assert kmc_sample(SpinTape.uniform(4), voter, 50.0, 1).events == ()
    any_params = ModelParams.from_gamma(0.4)
    assert kmc_sample(SpinTape.alternating(4), any_params, 0.0, 1).events == ()


def test_kmc_determinism_and_replay():
    params = ModelParams.from_gamma(0.3)
    tape = SpinTape.alternating(6)
    a = kmc_sample(tape, params, 4.0, 123)
    b = kmc_sample(tape, params, 4.0, 123)
    assert a.events == b.events
    times = [t for t, _ in a.events]
    assert times == sorted(times)
    assert all(0.0 < t <= 4.0 for t in times)
    final = tape.symbols.copy()
    for _, site in a.events:
        final[site] = -final[site]
    assert a.final_tape().symbols.tolist() == final.tolist()


def test_kmc_boundary_mismatch():
    with pytest.raises(ValueError):
        kmc_sample(SpinTape([1, -1], Boundary.OPEN), ModelParams.from_gamma(0.3), 1.0, 0)


def test_kmc_event_counts_are_poisson():
    # single unbiased cell: flips arrive at rate 1/2
    params = ModelParams.from_gamma(0.0)
    tape = SpinTape.uniform(1)
    children = np.random.SeedSequence(2024).spawn(4000)
    counts = np.array([len(kmc_sample(tape, params, 10.0, c).events) for c in children],
                      dtype=np.float64)
    assert poisson_z(counts, 5.0) < 3.0
