import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (coo_generator, expm_action, flip_rates, flux_residual_by_sites,
                     neighbourhoods, summed_kernel, uniformized_kernel)
from scipy import sparse
from scipy.linalg import expm

from voterchain import dynamics, verify
from voterchain.core import (
    Boundary,
    ModelParams,
    SpinTape,
    decode_state,
    encode_state,
    magnetization_vector,
    spin_table,
    state_energies,
)
from voterchain.dynamics import (
    EXACT_SITE_CAP,
    GeneratorMatrix,
    _live_rates,
    _rate_lookup,
    _refresh,
    _stepped,
    build_generator,
    column_sum_residual,
    detailed_balance_residual,
    evolve_exact,
    flux_residual,
    kmc_sample,
    point_mass,
    rates,
    stationary_distributions,
    uniform_distribution,
)
from voterchain.thermo import gibbs_probabilities
from voterchain.verify import check_detailed_balance, poisson_z


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
@example(n=1, gamma=1.0, boundary=Boundary.PERIODIC)
@example(n=1, gamma=-1.0, boundary=Boundary.OPEN)
@example(n=2, gamma=-1.0, boundary=Boundary.PERIODIC)
@example(n=2, gamma=1.0, boundary=Boundary.OPEN)
@example(n=1, gamma=-1.0, boundary=Boundary.PERIODIC)
@example(n=1, gamma=1.0, boundary=Boundary.OPEN)
@example(n=2, gamma=1.0, boundary=Boundary.PERIODIC)
@example(n=2, gamma=-1.0, boundary=Boundary.OPEN)
def test_table_rows_match_tape_rates(n, gamma, boundary):
    # the batch over all states, each single tape, the samplers' lookup and
    # the reference float formula give the same rates, bit for bit
    params = ModelParams.from_gamma(gamma, boundary=boundary)
    table = rates(spin_table(n), params)
    assert table.shape == (2**n, n)
    assert table.tobytes() == flip_rates(spin_table(n), params).tobytes()
    lookup = _rate_lookup(n, gamma, params.end)
    codes = neighbourhoods(spin_table(n))
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
    symbols, w, codes, table = _live_rates(SpinTape(s, boundary), params)
    assert symbols == s.tolist()
    assert codes == neighbourhoods(s).tolist()
    # the start rates come from the lookup table, bit for bit those of `rates`
    assert np.array(w).tobytes() == rates(s, params).tobytes()
    for site in data.draw(st.lists(st.integers(0, n - 1), max_size=40)):
        s[site] = -s[site]
        _refresh(site, codes, w, table)
        assert w == rates(s, params).tolist()
        assert codes == neighbourhoods(s).tolist()


# Beyond |beta J| of about 2.4, rounding gamma = tanh(2 beta J) next to +-1
# alone moves 1 - |gamma|, and so the small rates, by more than 1e-12.
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), beta_j=st.floats(-2.0, 2.0), temperature=st.floats(0.25, 4.0),
       boltzmann=st.floats(0.5, 2.0), boundary=st.sampled_from(list(Boundary)))
def test_flux_balances_at_physical_gamma(n, beta_j, temperature, boltzmann, boundary):
    coupling = beta_j * boltzmann * temperature
    params = ModelParams.from_physical(coupling, temperature, boltzmann, boundary=boundary)
    # the Gibbs energies at J/(kT) as from_physical forms it
    energies = state_energies(n, coupling / (boltzmann * temperature), boundary)
    assert flux_residual(build_generator(n, params), energies) <= 1e-12


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


def _assert_same_assembly(n, params):
    built, reference = build_generator(n, params).matrix, coo_generator(n, params).matrix
    for name in ("indptr", "indices", "data"):
        got, want = getattr(built, name), getattr(reference, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert built.has_canonical_format
    assert np.all(built.data != 0)


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("gamma", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_generator_columns_match_triplet_assembly(gamma, boundary):
    # each column written directly holds exactly what scipy sorts the
    # (row, column, rate) triplets into, with the same stored zeros dropped
    for n in range(1, 9):
        _assert_same_assembly(n, ModelParams.from_gamma(gamma, boundary=boundary))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), gamma=st.floats(-1.0, 1.0),
       boundary=st.sampled_from(list(Boundary)))
def test_generator_columns_match_triplet_assembly_at_any_gamma(n, gamma, boundary):
    _assert_same_assembly(n, ModelParams.from_gamma(gamma, boundary=boundary))


def test_evolve_exact_t0_and_validation():
    gen = build_generator(3, ModelParams.from_gamma(0.2))
    p0 = point_mass(5, 3)
    assert np.array_equal(evolve_exact(p0, gen, 0.0), p0)
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            evolve_exact(p0, gen, t)
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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), gamma=st.floats(-1.0, 1.0),
       boundary=st.sampled_from(list(Boundary)),
       t=st.floats(0.0, 50.0, allow_subnormal=False), seed=st.integers(0, 2**32 - 1))
@example(n=10, gamma=1.0, boundary=Boundary.PERIODIC, t=600.0, seed=0)
def test_evolve_exact_matches_expm_action(n, gamma, boundary, t, seed):
    # uniformization against the Taylor-series oracle from a random law, out
    # to Lambda t = 6000; the oracle's own warning rules out subnormal t,
    # which the underflow test covers.  P(t) is a sum of nonnegative terms.
    gen = build_generator(n, ModelParams.from_gamma(gamma, boundary=boundary))
    p0 = np.random.default_rng(seed).random(gen.dim)
    p0 /= p0.sum()
    p = evolve_exact(p0, gen, t)
    assert np.abs(p - expm_action(gen, t, p0)).max() <= 1e-12
    assert abs(float(p.sum()) - 1.0) <= 1e-12
    assert p.min() >= 0.0


def test_stationary_unbiased_is_uniform():
    gen = build_generator(4, ModelParams.from_gamma(0.0))
    dists = stationary_distributions(gen)
    assert len(dists) == 1
    assert np.abs(dists[0] - 1.0 / 16).max() <= 1e-12


def test_stationary_matches_gibbs():
    # the spanning-tree products reach the n = 14 cap in milliseconds, and
    # rings at |beta J| = 8.8 (|gamma| within ~1e-15 of 1, consensus or
    # alternating exit rates ~1e-15) still give the Gibbs law; open chains
    # there and at |beta J| = 10, where gamma rounds to +-1, are left through
    # their end cells at rates ~e^{-2|beta J|} taken from tanh(J/kT); the
    # tree is a maximum spanning tree of each pair's slower rate, so it runs
    # through those, not through interior pairs at rates of 1e-16
    cases = [(boundary, n, bj) for boundary in Boundary
             for n, bj in ((2, 0.5), (2, -1.0), (5, 0.5), (5, -1.0), (12, 0.5), (14, 0.5))]
    cases += [(Boundary.PERIODIC, n, bj) for n in (4, 8, 12) for bj in (8.8, -8.8)]
    cases += [(Boundary.OPEN, n, bj) for n in (2, 3, 4, 5, 8, 11)
              for bj in (7.0, 8.8, -8.8, 10.0, -10.0)]
    for boundary, n, bj in cases:
        params = ModelParams.from_physical(bj, 1.0, boundary=boundary)
        gen = build_generator(n, params)
        dists = stationary_distributions(gen)
        assert len(dists) == 1
        gibbs = gibbs_probabilities(n, bj, 1.0, boundary=boundary)
        assert np.abs(dists[0] - gibbs).max() <= 1e-10
        assert 0.5 * np.abs(dists[0] - gibbs).sum() <= 1e-10
        assert np.abs(gen.matrix @ gibbs).max() <= 1e-10


def test_stationary_voter_absorbing_basis():
    for n in (4, 12):
        gen = build_generator(n, ModelParams.from_gamma(1.0))
        dists = stationary_distributions(gen)
        # the two consensus tapes, each a point mass
        assert [np.flatnonzero(p).tolist() for p in dists] == [[0], [2**n - 1]]
        assert [p.max() for p in dists] == [1.0, 1.0]
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
    # the rule is invariant under s -> -s, which maps state i to 2^n - 1 - i,
    # so the basis as a whole is too, however small the exit rates near +-1
    total = np.sum(basis, axis=0)
    assert np.abs(total - total[::-1]).max() <= 1e-12


def _with_stored_zeros(gen, n):
    """The same operator stored over the full flip pattern, every diagonal
    and single-flip entry kept, so each zero rate is a stored zero."""
    dense = gen.matrix.toarray()
    idx = np.arange(2**n)
    rows = np.concatenate([idx ^ (1 << i) for i in range(n)] + [idx])
    cols = np.tile(idx, n + 1)
    return GeneratorMatrix(sparse.csc_array((dense[rows, cols], (rows, cols)),
                                            shape=dense.shape))


@pytest.mark.parametrize("boundary", list(Boundary))
def test_stored_zero_rates_are_no_transitions(boundary):
    # at gamma = 1 the consensus tapes' zero exit rates, once stored, used to
    # join them to the rest in one class that then failed as "not reversible"
    n = 4
    gen = build_generator(n, ModelParams.from_gamma(1.0, boundary=boundary))
    stored = _with_stored_zeros(gen, n)
    assert np.count_nonzero(stored.matrix.data == 0) > 0
    expected = stationary_distributions(gen)
    assert [np.flatnonzero(p).tolist() for p in expected] == [[0], [2**n - 1]]
    laws = stationary_distributions(stored)
    assert len(laws) == len(expected)
    for law, want in zip(laws, expected):
        assert law.tobytes() == want.tobytes()
    p0 = uniform_distribution(n)
    assert evolve_exact(p0, stored, 2.0).tobytes() == evolve_exact(p0, gen, 2.0).tobytes()


@pytest.mark.parametrize("matrix", [sparse.csc_array((3, 3)),
                                    sparse.csc_array((np.zeros(3), (range(3), range(3))))])
def test_operator_no_state_leaves_keeps_its_start(matrix):
    # Lambda = 0: the kernel is I, and P(t) is P(0) bit for bit at every t
    gen = GeneratorMatrix(matrix)
    p0 = np.array([0.2, 0.3, 0.5])
    times = [0.0, 5e-324, 1.0, 600.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in times:
            assert evolve_exact(p0, gen, t).tobytes() == p0.tobytes()
        stepped = list(_stepped(p0, gen, times))
    assert [p.tobytes() for p in stepped] == [p0.tobytes()] * len(times)


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("gamma", [-1.0, 1.0])
def test_generator_stores_no_zero_rate(gamma, boundary):
    for n in range(1, 7):
        gen = build_generator(n, ModelParams.from_gamma(gamma, boundary=boundary))
        assert np.all(gen.matrix.data != 0)


def _flip_four_cycle(forward, back):
    """Generator on the two-cell flip cycle 0 -> 1 -> 3 -> 2 -> 0, with rate
    `forward` along the cycle and `back` against it."""
    g = np.zeros((4, 4))
    cycle = [0, 1, 3, 2]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        g[b, a], g[a, b] = forward, back
    g -= np.diag(g.sum(axis=0))
    return GeneratorMatrix(sparse.csc_array(g))


@pytest.mark.parametrize("back", [0.0, 7.0, np.nan])
def test_stationary_solve_failure_raises(back):
    # one class, but not reversible: rates one way only (0.0), both ways with
    # a product of ratios around the cycle of (2/7)^4, not 1, so the tree law
    # misses G p = 0 (7.0), or a NaN rate; each raises before any warning
    gen = _flip_four_cycle(2.0, back)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            stationary_distributions(gen)


def _reversible_operator(phi, pairs):
    """Generator whose two-way `pairs` (a, b, c) have rates c e^{(phi_b -
    phi_a)/2} from a to b and c e^{(phi_a - phi_b)/2} back, so e^{phi}
    balances every pair."""
    g = np.zeros((phi.size, phi.size))
    for a, b, c in pairs:
        g[b, a] = c * math.exp(0.5 * (phi[b] - phi[a]))
        g[a, b] = c * math.exp(0.5 * (phi[a] - phi[b]))
    return g


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       transient=st.integers(0, 3), data=st.data())
def test_stationary_laws_of_hand_built_reversible_operators(sizes, transient, data):
    # one to three closed classes, each a random connected symmetric support
    # on which a planted potential phi balances every pair at rates down to
    # 1e-15, and transient states that leave into them one way; the states
    # are shuffled so the classes interleave
    dim = sum(sizes) + transient
    state = data.draw(st.permutations(range(dim)))
    phi = np.array(data.draw(st.lists(st.floats(-8.0, 8.0), min_size=dim, max_size=dim)))
    scale = st.floats(-15.0, 0.0).map(lambda e: 10.0**e)
    classes, pairs, taken = [], [], 0
    for size in sizes:
        members = state[taken:taken + size]
        taken += size
        links = {(data.draw(st.integers(0, i - 1)), i) for i in range(1, size)}
        extra = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        links |= {(i, j) for i, j in data.draw(st.lists(extra, max_size=4)) if i < j}
        pairs += [(members[i], members[j], data.draw(scale)) for i, j in sorted(links)]
        classes.append(sorted(members))
    g = _reversible_operator(phi, pairs)
    for t in state[taken:]:
        for target in set(data.draw(st.lists(st.sampled_from(state[:taken]), min_size=1, max_size=2))):
            g[target, t] = data.draw(scale)
    g -= np.diag(g.sum(axis=0))
    laws = stationary_distributions(GeneratorMatrix(sparse.csc_array(g)))
    classes.sort()
    assert len(laws) == len(classes)
    for law, members in zip(laws, classes):
        want = np.exp(phi[members] - phi[members].max())
        want /= want.sum()
        assert np.abs(law[members] / want - 1.0).max() <= 1e-12
        assert not np.delete(law, members).any()


def test_stationary_tree_takes_the_widest_path():
    # a triangle whose pairs 0-1 and 1-2 run at rates near 1 and balance
    # e^{phi}, while the pair 0-2 runs at rates near 1e-17 whose ratio is 10%
    # off, as rounding leaves the slowest rates of a chain near |gamma| = 1;
    # e^{phi} leaves a flux error of ~1e-19 there, so it is the law.  A tree
    # through 0-2, such as a breadth-first one over every two-way pair, puts
    # state 2 8% off, and its residual of 0.04 raises
    phi = np.array([0.0, 0.7, -0.4])
    g = _reversible_operator(phi, [(0, 1, 0.9), (1, 2, 1.3), (0, 2, 1e-17)])
    g[2, 0] *= 1.1
    g -= np.diag(g.sum(axis=0))
    (law,) = stationary_distributions(GeneratorMatrix(sparse.csc_array(g)))
    want = np.exp(phi) / np.exp(phi).sum()
    assert np.abs(law / want - 1.0).max() <= 1e-12
    assert 0.0 < g[2, 0] * want[0] - g[0, 2] * want[2] <= 1e-18


def test_detailed_balance_residual_small():
    worst = 0.0
    for n in range(2, 9):
        for bj in (-2.0, -0.5, 0.5, 1.0, 2.0):
            for boundary in (Boundary.PERIODIC, Boundary.OPEN):
                params = ModelParams.from_physical(bj, 1.0, boundary=boundary)
                # from_physical(bj, 1.0) forms J/(kT) = bj / 1.0 = bj exactly
                energies = state_energies(n, bj, boundary)
                worst = max(worst, flux_residual(build_generator(n, params), energies))
    assert worst <= 1e-12


@pytest.mark.parametrize("boundary", list(Boundary))
def test_detailed_balance_residual_reads_the_coupling_gamma_encodes(boundary):
    # the weights are those at J/(kT) = artanh(gamma)/2, so params built
    # from gamma alone balance too; gamma = +-1 encodes no finite coupling
    for gamma in (-0.99, -0.3, 0.0, 0.5, 0.999):
        params = ModelParams.from_gamma(gamma, boundary=boundary)
        assert detailed_balance_residual(5, params) <= 1e-12
    for gamma in (-1.0, 1.0):
        with pytest.raises(ValueError, match="no finite"):
            detailed_balance_residual(5, ModelParams.from_gamma(gamma, boundary=boundary))


def test_detailed_balance_check_fails_off_the_gibbs_energies(monkeypatch):
    # the verify row forms its own energies, so a coupling 0.1% off fails it
    energies = verify.state_energies
    monkeypatch.setattr(verify, "state_energies",
                        lambda n, coupling, boundary: energies(n, 1.001 * coupling, boundary))
    assert not check_detailed_balance().passed


def test_flux_residual_detects_mismatch():
    wrong = ModelParams.from_gamma(math.tanh(2.0) * 0.9)
    energies = state_energies(4, 1.0, Boundary.PERIODIC)
    assert flux_residual(build_generator(4, wrong), energies) > 1e-2


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), beta_j=st.floats(-3.0, 3.0),
       shift=st.sampled_from([0.0, 0.0, 1e-9, -0.05, 0.05, 0.3]),
       boundary=st.sampled_from(list(Boundary)))
@example(n=4, beta_j=3.0, shift=0.05, boundary=Boundary.PERIODIC)
@example(n=5, beta_j=-3.0, shift=0.05, boundary=Boundary.OPEN)
def test_flux_residual_matches_site_by_site_oracle(n, beta_j, shift, boundary):
    # the generator's stored rates against the per-site loop over the rate
    # table, at Glauber's gamma and at gammas shifted off it (clipped to
    # [-1, 1], where some rates vanish one way only)
    gamma = float(np.clip(math.tanh(2.0 * beta_j) + shift, -1.0, 1.0))
    params = ModelParams.from_gamma(gamma, boundary=boundary)
    energies = state_energies(n, beta_j, boundary)
    expected = flux_residual_by_sites(flip_rates(spin_table(n), params), energies)
    assert flux_residual(build_generator(n, params), energies) == expected


def test_flux_residual_without_off_diagonal_is_zero():
    # a single open cell flips at rate 1/2 each way; a zero operator has no
    # off-diagonal entry at all
    gen = build_generator(1, ModelParams.from_gamma(0.3, boundary=Boundary.OPEN))
    assert flux_residual(gen, np.array([0.0, 0.0])) == 0.0
    empty = GeneratorMatrix(sparse.csc_array((2, 2)))
    assert flux_residual(empty, np.array([0.0, 5.0])) == 0.0


def _rotation_lumped(gen, n):
    """Generator over the rotation orbits of an n-cell ring and the
    orbit-membership matrix (orbits by states): the rate from orbit o to
    orbit o' is the total rate from one member of o into o'."""
    orbit_of = {}
    for idx in range(2**n):
        rotations = [((idx << k) | (idx >> (n - k))) & (2**n - 1) for k in range(n)]
        orbit_of[idx] = min(rotations)
    reps = sorted(set(orbit_of.values()))
    label = np.array([reps.index(orbit_of[i]) for i in range(2**n)])
    member = np.zeros((len(reps), 2**n))
    member[label, np.arange(2**n)] = 1.0
    dense = gen.matrix.toarray()
    lumped = member @ dense[:, reps]
    return GeneratorMatrix(sparse.csc_array(lumped)), member


@pytest.mark.parametrize("gamma, beta_j", [(math.tanh(1.4), 0.7), (1.0, None)])
def test_exact_operations_run_on_a_lumped_ring(gamma, beta_j):
    # n = 2 ring: orbits {00}, {01, 10}, {11}, so the operator is 3 x 3
    params = ModelParams(gamma=gamma)
    gen = build_generator(2, params)
    lumped, member = _rotation_lumped(gen, 2)
    assert lumped.dim == 3
    assert column_sum_residual(lumped) <= 1e-15
    p0 = np.array([0.1, 0.3, 0.3, 0.3])  # uniform on each orbit
    times = (0.0, 0.4, 3.0)
    for t in times:
        full = evolve_exact(p0, gen, t)
        assert np.abs(evolve_exact(member @ p0, lumped, t) - member @ full).max() <= 1e-15
    # the time-grid walk runs on the lumped operator too
    for orbit_law, full in zip(_stepped(member @ p0, lumped, times), _stepped(p0, gen, times)):
        assert np.abs(orbit_law - member @ full).max() <= 1e-15
    laws = stationary_distributions(lumped)
    expected = [member @ law for law in stationary_distributions(gen)]
    assert len(laws) == len(expected)
    for law, want in zip(laws, expected):
        assert np.abs(law - want).max() <= 1e-15
    if beta_j is not None:
        # orbit o carries |o| states of energy E_o, so its weight is e^{-(E_o - ln|o|)}
        energies = state_energies(2, beta_j, Boundary.PERIODIC)
        orbit_energies = member @ energies / member.sum(axis=1) - np.log(member.sum(axis=1))
        assert flux_residual(lumped, orbit_energies) <= 1e-15
        assert flux_residual(gen, energies) <= 1e-15


def _mean_magnetization(p0, gen, n, times):
    """<m>(t) at the ascending `times`, read off the stepped exact evolution."""
    m = magnetization_vector(n)
    return np.array([m @ p for p in _stepped(p0, gen, times)])


def test_mean_magnetization_curve():
    times = [0.0, 0.4, 1.7]
    gen = build_generator(4, ModelParams.from_gamma(0.0))
    m = _mean_magnetization(point_mass(15, 4), gen, 4, times)
    assert np.abs(m - np.exp(-np.asarray(times))).max() <= 1e-12
    # symmetric start stays at zero
    sym = _mean_magnetization(uniform_distribution(4), gen, 4, times)
    assert np.abs(sym).max() <= 1e-13
    voter = build_generator(4, ModelParams.from_gamma(1.0))
    conserved = _mean_magnetization(point_mass(1, 4), voter, 4, times)
    assert np.abs(conserved - conserved[0]).max() <= 1e-12


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
    order = np.argsort(times, kind="stable")
    for k, p in zip(order, _stepped(p0, gen, np.asarray(times)[order])):
        assert np.abs(p - restarts[k]).max() <= 1e-12
        assert abs(float(p.sum()) - 1.0) <= 1e-12


class _CountingKernel:
    """Wraps a kernel and counts the products taken with it."""

    def __init__(self, kernel):
        self.kernel, self.products = kernel, 0

    def __matmul__(self, p):
        self.products += 1
        return self.kernel @ p


def _count_products(gen):
    rate, kernel = gen._uniformized
    counter = _CountingKernel(kernel)
    gen.__dict__["_uniformized"] = (rate, counter)
    return counter


def test_grid_walk_takes_one_window_of_products():
    # the benchmark's exact grid: every window from t = 0 starts at k = 0, so
    # the walk takes the 88 products of the last time's window, not one
    # window of 41 per interval
    gen = build_generator(14, ModelParams.from_gamma(0.5))
    p0 = point_mass(5461, 14)
    times = np.linspace(0.0, 3.0, 5)
    counter = _count_products(gen)
    stepped = list(_stepped(p0, gen, times))
    assert counter.products == 88
    for t, p in zip(times, stepped):
        assert np.array_equal(p, evolve_exact(p0, gen, t))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), gamma=st.floats(-1.0, 1.0),
       boundary=st.sampled_from(list(Boundary)), start_at_zero=st.booleans(),
       scaled=st.lists(st.floats(0.1, 30.0), max_size=8), data=st.data())
def test_grid_walk_equals_restarts_bit_for_bit(n, gamma, boundary, start_at_zero, scaled, data):
    # ascending times with Lambda t in [0.1, 30], after an optional t = 0:
    # every window starts at k = 0 and ends past the ninth product, so the
    # grid is one group and each vector is a restart from p0 to the bit
    gen = build_generator(n, ModelParams.from_gamma(gamma, boundary=boundary))
    rate = gen._uniformized[0]
    times = [0.0] * start_at_zero + sorted(u / rate if rate else u for u in scaled)
    p0 = point_mass(data.draw(st.integers(0, 2**n - 1)), n)
    stepped = list(_stepped(p0, gen, times))
    assert len(stepped) == len(times)
    for t, p in zip(times, stepped):
        assert np.array_equal(p, evolve_exact(p0, gen, t))


@pytest.mark.parametrize("t_end, steps", [(1e-6, 200), (0.5, 400), (40.0, 10), (300.0, 3)])
def test_grid_walk_groups_hold_no_more_times_than_products(monkeypatch, t_end, steps):
    # a group of several times has every window start at k = 0 and holds no
    # more times than its walk makes products, whatever the grid's spacing
    walk, groups = dynamics._walk, []

    def recording(p, kernel, group):
        groups.append([(first, weights.size) for first, weights in group])
        return walk(p, kernel, group)

    monkeypatch.setattr(dynamics, "_walk", recording)
    gen = build_generator(5, ModelParams.from_gamma(0.5))
    p0 = point_mass(3, 5)
    times = np.linspace(0.0, t_end, steps + 1)
    stepped = list(_stepped(p0, gen, times))
    assert sum(len(group) for group in groups) == len(stepped) == times.size
    for group in groups:
        if len(group) > 1:
            assert all(first == 0 for first, _ in group)
            assert len(group) <= max(size - 1 for _, size in group)
    for t, p in zip(times, stepped):
        assert np.abs(p - evolve_exact(p0, gen, t)).max() <= 1e-12


def test_exact_rejects_a_window_past_the_product_cap():
    # the window at Lambda t = 1e8 ends past the cap of 10^8 products, and
    # the one at Lambda t = 1.75e300 is refused before its weights are
    # formed (their recurrence would never end there); Lambda = 1.75
    gen = build_generator(3, ModelParams.from_gamma(0.5))
    assert gen._uniformized[0] == 1.75
    counter = _count_products(gen)
    p0 = point_mass(5, 3)
    for t, count in ((1e8 / 1.75, "1.001e+08"), (1e300, "1.75e+300")):
        with pytest.raises(ValueError, match=f"needs at least {re.escape(count)} kernel products"):
            evolve_exact(p0, gen, t)
    # the walk plans every group first, so it refuses the grid before it
    # yields a vector or makes a product
    with pytest.raises(ValueError, match="over the cap of 1e\\+08"):
        _stepped(p0, gen, [0.0, 1.0, 1e300])
    assert counter.products == 0


def test_grid_plan_holds_no_window_weights():
    # the plan keeps each group's times, not its Poisson weights: 30 times
    # Lambda t = 1e4 apart, each a window of ~1,700 weights, would hold
    # about 0.4 MB of them before the first product
    gen = build_generator(1, ModelParams.from_gamma(0.0))
    assert gen._uniformized[0] == 0.5
    times = np.linspace(0.0, 30 * 2e4, 31)
    tracemalloc.start()
    try:
        stepped = _stepped(point_mass(0, 1), gen, times)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 40_000
    assert np.array_equal(next(stepped), point_mass(0, 1))


def test_relaxation_rate_tracks_gamma():
    times = np.array([0.2, 0.9, 3.0])
    for gamma in (0.25, 0.75):
        gen = build_generator(6, ModelParams.from_gamma(gamma))
        curve = _mean_magnetization(point_mass(63, 6), gen, 6, times)
        predicted = np.exp(-(1 - gamma) * times)
        assert np.abs(curve / predicted - 1.0).max() <= 1e-10


def test_uniformized_kernel_is_stochastic():
    for gamma in (0.0, 0.7, 1.0):
        gen = build_generator(3, ModelParams.from_gamma(gamma))
        k = uniformized_kernel(gen, 3).toarray()
        assert np.abs(k.sum(axis=0) - 1.0).max() <= 1e-12
        assert k.min() >= 0.0


def _built(n, gamma, boundary):
    return lambda: build_generator(n, ModelParams.from_gamma(gamma, boundary=boundary))


_KERNEL_INPUTS = {
    f"n={n}-{boundary.value}-gamma={gamma}": _built(n, gamma, boundary)
    for n in (1, 2, 3, 5, 8) for boundary in Boundary
    for gamma in (-1.0, -0.6, 0.0, 0.5, 0.99, 1.0)
} | {
    "empty-2x2": lambda: GeneratorMatrix(sparse.csc_array((2, 2))),
    "stored-zero-diagonal-3x3": lambda: GeneratorMatrix(
        sparse.csc_array((np.zeros(3), (range(3), range(3))))),
    "lumped-ring": lambda: _rotation_lumped(
        build_generator(2, ModelParams(gamma=math.tanh(1.4))), 2)[0],
}


@pytest.mark.parametrize("make", _KERNEL_INPUTS.values(), ids=_KERNEL_INPUTS.keys())
def test_uniformized_kernel_matches_summed_construction(make):
    # K formed in place from one conversion of G against the sum of G/Lambda
    # and I: the same Lambda, the same entries once the stored zeros the
    # sum drops are dropped, and 30 products equal to the bit
    gen = make()
    rate, kernel = gen._uniformized
    want_rate, want = summed_kernel(gen)
    assert rate == want_rate
    got = kernel.copy()
    got.eliminate_zeros()
    want.eliminate_zeros()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    p = q = np.random.default_rng(gen.dim).dirichlet(np.ones(gen.dim))
    for _ in range(30):
        p, q = kernel @ p, want @ q
        assert p.tobytes() == q.tobytes()


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
    final = list(tape.symbols)
    for _, site in a.events:
        final[site] = -final[site]
    assert a.final_tape().symbols == tuple(final)


def test_kmc_boundary_mismatch():
    with pytest.raises(ValueError):
        kmc_sample(SpinTape([1, -1], Boundary.OPEN), ModelParams.from_gamma(0.3), 1.0, 0)


def test_kmc_rejects_end_times_outside_zero_to_infinity():
    # a NaN end time would never be passed, and an infinite one never reached
    params = ModelParams.from_gamma(0.5)
    for t_end in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            kmc_sample(SpinTape.alternating(4), params, t_end, 0)


def test_kmc_event_counts_are_poisson():
    # single unbiased cell: flips arrive at rate 1/2
    params = ModelParams.from_gamma(0.0)
    tape = SpinTape.uniform(1)
    children = np.random.SeedSequence(2024).spawn(4000)
    counts = np.array([len(kmc_sample(tape, params, 10.0, c).events) for c in children],
                      dtype=np.float64)
    assert poisson_z(counts, 5.0) < 3.0


def _replayed_events(tape, params, t_end, seed):
    """Events of the Gillespie stream that `kmc_sample` documents, re-derived
    with plain loops from `rates` on the current tape."""
    rng = np.random.default_rng(seed)
    s = list(tape.symbols)
    events, t = [], 0.0
    while True:
        w = rates(s, params).tolist()
        total = 0.0
        for rate in w:
            total += rate
        if total <= 0.0:
            return events
        t += rng.exponential(1.0 / total)
        if t > t_end:
            return events
        u = rng.random() * total
        site, running = len(w) - 1, 0.0
        for i, rate in enumerate(w):
            running += rate
            if running > u:
                site = i
                break
        events.append((t, site))
        s[site] = -s[site]


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("n", [6, 10])
def test_kmc_stream_replays_documented_draws(n, boundary):
    # from n = 8 on, numpy's pairwise sum of the rates can differ from the
    # left-to-right sum in the last bit, and with it the event times
    for params, t_end in ((ModelParams.from_physical(0.5, 1.0, boundary=boundary), 4.0),
                          (ModelParams.from_gamma(1.0, boundary=boundary), 30.0)):
        for seed in range(6):
            tape = SpinTape.random(n, np.random.default_rng([n, seed]), boundary)
            expected = _replayed_events(tape, params, t_end, seed)
            assert list(kmc_sample(tape, params, t_end, seed).events) == expected


class _ZeroUniform(np.random.Generator):
    """A generator whose uniforms are all 0.0, the lowest site draw."""

    def random(self, *args, **kwargs):
        return 0.0


def test_kmc_site_draw_skips_zero_rates():
    # a site draw of 0 equals the running sum over the leading zero-rate
    # sites; the flipped site is the first whose running sum exceeds it
    tape = SpinTape([1, 1, 1, -1, -1, 1])
    events = kmc_sample(tape, ModelParams.from_gamma(1.0), 50.0, _ZeroUniform(np.random.PCG64(0))).events
    assert [site for _, site in events[:3]] == [2, 1, 0]
