import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import hamiltonian, tape_symbols

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

TANH1 = 0.7615941559557649
TANH2 = 0.9640275800758169


# one +-1 tape in every form the constructor accepts
TAPE_FORMS = ([1, -1, 1, -1], (1, -1, 1, -1), np.array([1, -1, 1, -1], dtype=np.int8),
              np.array([1, -1, 1, -1], dtype=np.int64), np.array([1.0, -1.0, 1.0, -1.0]))


def test_tape_validation():
    for empty in ([], (), np.array([], dtype=np.int8)):
        with pytest.raises(ValueError, match="at least one cell"):
            SpinTape(empty)
    # nested or 2-D input is not a tape
    for nested in ([[1, -1]], np.array([[1, -1], [-1, 1]]), [(1,), (-1,)]):
        with pytest.raises(ValueError, match="at least one cell"):
            SpinTape(nested)
    with pytest.raises(ValueError):
        SpinTape([1, 0, -1])
    with pytest.raises(ValueError):
        SpinTape([1, 2])
    # each symbol must be exactly +-1 before the conversion to int, which
    # would truncate 1.5 and -1.9 to +-1; an int8 cast would wrap 255 and 257
    for symbols in ([1.5, -1], np.array([255, 1]), np.array([257, -1]),
                    np.array([1.0, -1.9]), (1, -1.9), np.array([1, 0], dtype=np.int8)):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            SpinTape(symbols)
    for form in TAPE_FORMS:
        tape = SpinTape(form)
        assert tape.symbols == (1, -1, 1, -1)
        assert all(type(s) is int for s in tape.symbols)
    tape = SpinTape([1, -1, 1], Boundary.OPEN)
    assert tape.n == 3
    assert tape.boundary is Boundary.OPEN


# inputs of every container and dtype, accepted or not, each checked
# against the validation through numpy alone
TAPE_INPUTS = [
    (1,), (-1,), (1, -1, -1, 1), (), (1, 0), (0,), (1, 2), (1.5, -1), (1.0, -1.0), (1, -1.0),
    (True, True), (True, False), (True, -1), (np.int8(1), -1), (np.float64(-1.0), 1),
    ("1", "-1"), ("ab",), (None, 1), ((1,), (-1,)), ((1, -1),), ([1], [-1]), ([1, -1], 1),
    (np.array([1, -1]),), (np.array(1), -1), (1 + 0j, -1),
    [1, -1, 1], [], [1.5], [0, 1], [[1, -1]], [True], ["1"], "1-1", "", 1, 1.5, 0,
    np.array([1, -1, 1], dtype=np.int8), np.array([1, 0], dtype=np.int8),
    np.array([255, 1]), np.array([257, -1]), np.array([1.0, -1.0]), np.array([1.0, -1.9]),
    np.array([True, True]), np.array([True, False]), np.array(1), np.array(1.5),
    np.array([[1, -1], [-1, 1]]), np.array([[1, -1]]), np.array([], dtype=np.int8),
    np.array([], dtype=float).reshape(0, 2), np.array(["1", "-1"]),
]


def _constructed(make):
    try:
        return "ok", make()
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("symbols", TAPE_INPUTS, ids=repr)
def test_tape_accepts_and_rejects_as_the_numpy_validation(symbols):
    # a tuple of Python ints skips numpy; every input gives the symbols, or
    # the exception type and message, of one np.asarray validation
    got = _constructed(lambda: SpinTape(symbols).symbols)
    assert got == _constructed(lambda: tape_symbols(symbols))
    if got[0] == "ok":
        assert all(type(s) is int for s in got[1])


@given(st.lists(st.sampled_from([1, -1, 0, 2, 1.0, -1.0, 1.5, True, False, np.int8(1),
                                 np.float64(-1.0), "1", None]), max_size=6),
       st.sampled_from([tuple, list]))
def test_tape_sequences_validate_as_through_numpy(values, container):
    symbols = container(values)
    got = _constructed(lambda: SpinTape(symbols).symbols)
    assert got == _constructed(lambda: tape_symbols(symbols))


def test_random_tape_draws_as_a_choice_of_plus_minus_one():
    # the same symbols, and the same next draw, as the former
    # rng.choice(np.array([-1, 1], np.int8), size=n)
    for seed in range(200):
        for n in (1, 2, 5, 16, 64):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            tape = SpinTape.random(n, rng)
            assert tape.symbols == tuple(reference.choice(np.array([-1, 1], np.int8), size=n).tolist())
            assert rng.random() == reference.random()


def test_tape_symbols_are_read_only():
    tape = SpinTape([1, -1])
    with pytest.raises(TypeError):
        tape.symbols[0] = -1


def test_tape_equality_and_hash_by_value():
    tape = SpinTape.alternating(4)
    same = SpinTape([1, -1, 1, -1])
    assert tape == same and hash(tape) == hash(same)
    assert len({tape, same}) == 1
    assert tape != SpinTape([1, -1, 1, 1])
    assert tape != SpinTape.alternating(4, Boundary.OPEN)
    assert tape != SpinTape.alternating(5)
    assert tape != list(tape.symbols) and tape != tape.symbols
    # every accepted form gives the same tape, hash and Python int symbols
    tapes = [SpinTape(form) for form in TAPE_FORMS]
    assert all(t == tape and hash(t) == hash(tape) for t in tapes)
    assert len(set(tapes)) == 1
    assert all(type(s) is int for t in tapes for s in t.symbols)


def test_tape_constructors():
    assert SpinTape.uniform(4).symbols == (1, 1, 1, 1)
    assert SpinTape.uniform(4, -1).symbols == (-1, -1, -1, -1)
    assert SpinTape.alternating(5).symbols == (1, -1, 1, -1, 1)
    rng = np.random.default_rng(0)
    tape = SpinTape.random(6, rng, Boundary.OPEN)
    assert set(tape.symbols) <= {-1, 1}
    assert all(type(s) is int for s in tape.symbols)


def test_encode_examples():
    assert encode_state(SpinTape([-1, -1, -1])) == 0
    assert encode_state(SpinTape([1, 1, 1])) == 7
    # site 0 is the least-significant bit
    assert encode_state(SpinTape([1, -1, 1])) == 5


def test_decode_examples():
    assert decode_state(0, 2).symbols == (-1, -1)
    assert decode_state(3, 2).symbols == (1, 1)
    assert decode_state(4, 3).symbols == (-1, -1, 1)
    with pytest.raises(ValueError):
        decode_state(8, 3)
    with pytest.raises(ValueError):
        decode_state(-1, 3)


@given(case=st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))),
       boundary=st.sampled_from(list(Boundary)))
@example(case=(64, 2**64 - 1), boundary=Boundary.PERIODIC)
@example(case=(64, 2**63), boundary=Boundary.OPEN)
def test_encode_decode_roundtrip(case, boundary):
    # indices with bit 63 set overflow any int64 arithmetic on the bits
    n, idx = case
    tape = decode_state(idx, n, boundary)
    assert tape.n == n and tape.boundary is boundary
    assert encode_state(tape) == idx
    reference = sum(((s + 1) // 2) << i for i, s in enumerate(tape.symbols))
    assert encode_state(tape) == reference


def test_spin_table_matches_decode():
    table = spin_table(4)
    assert table.shape == (16, 4)
    for idx in range(16):
        assert tuple(table[idx].tolist()) == decode_state(idx, 4).symbols


def test_hamiltonian_open_chain():
    # three bonds: -J(1*1 + 1*(-1) + (-1)*1) = J
    tape = SpinTape([1, 1, -1, 1], Boundary.OPEN)
    assert hamiltonian(tape, 2.0) == pytest.approx(2.0)


def test_hamiltonian_periodic_adds_wrap_bond():
    tape = SpinTape([1, 1, -1, 1])
    open_value = hamiltonian(SpinTape([1, 1, -1, 1], Boundary.OPEN), 2.0)
    assert hamiltonian(tape, 2.0) == pytest.approx(open_value - 2.0 * 1 * 1)


def test_hamiltonian_single_cell():
    assert hamiltonian(SpinTape([1], Boundary.OPEN), 3.0) == 0.0
    # a single periodic cell bonds to itself: -J s^2 = -J
    assert hamiltonian(SpinTape([1]), 3.0) == pytest.approx(-3.0)
    assert hamiltonian(SpinTape([-1]), 3.0) == pytest.approx(-3.0)


def test_state_energies_match_hamiltonian():
    for boundary in (Boundary.OPEN, Boundary.PERIODIC):
        energies = state_energies(5, 1.3, boundary)
        for idx in (0, 7, 19, 31):
            tape = decode_state(idx, 5, boundary)
            assert energies[idx] == pytest.approx(hamiltonian(tape, 1.3), abs=1e-14)


def test_magnetization():
    for symbols, expected in (([1, 1, 1], 1.0), ([1, -1], 0.0), ([1, -1, -1, -1], -0.5)):
        tape = SpinTape(symbols)
        assert magnetization_vector(tape.n)[encode_state(tape)] == expected
    m = magnetization_vector(3)
    assert m[0] == -1.0 and m[7] == 1.0
    assert m[5] == pytest.approx(1.0 / 3.0)


def test_params_gamma_range():
    assert ModelParams.from_gamma(1.0).gamma == 1.0
    assert ModelParams.from_gamma(-1.0).gamma == -1.0
    with pytest.raises(ValueError):
        ModelParams.from_gamma(1.0001)


def test_params_from_physical():
    p = ModelParams.from_physical(1.0, 2.0)
    assert p.gamma == pytest.approx(TANH1, abs=1e-15)
    # the flip rule's inputs are all it keeps
    assert p == ModelParams(gamma=math.tanh(1.0))
    q = ModelParams.from_physical(1.0, 1.0)
    assert q.gamma == pytest.approx(TANH2, abs=1e-15)


def test_open_chain_end_factor():
    # a ring has no end cells; an open chain's end factor is tanh(J/kT),
    # from gamma when gamma is what was given and from J/(kT) otherwise
    assert ModelParams.from_gamma(0.5).end is None
    assert ModelParams.from_physical(1.0, 2.0).end is None
    g = 0.5
    assert ModelParams.from_gamma(g, boundary=Boundary.OPEN).end == g / (1 + math.sqrt(1 - g * g))
    assert ModelParams.from_gamma(-1.0, boundary=Boundary.OPEN).end == -1.0
    for x in (0.3, -2.0, 8.8, 10.0, math.inf):
        params = ModelParams.from_physical(x, 1.0, boundary=Boundary.OPEN)
        assert params.end == math.tanh(x)
    # at J/kT = 10 gamma rounds to 1, but the end cells still flip at ~2e-9
    assert ModelParams.from_physical(10.0, 1.0, boundary=Boundary.OPEN).gamma == 1.0
    assert 0 < 1 - ModelParams.from_physical(10.0, 1.0, boundary=Boundary.OPEN).end < 1e-8
    with pytest.raises(TypeError):
        ModelParams(gamma=0.5, boundary=Boundary.OPEN, end=0.1)


def test_params_positivity():
    with pytest.raises(ValueError):
        ModelParams.from_physical(1.0, -1.0)
    with pytest.raises(ValueError):
        ModelParams.from_physical(1.0, 1.0, boltzmann=0.0)


def test_gamma_saturates_at_strong_coupling():
    # tanh(2 * 400) rounds to exactly 1, the copy-the-majority regime
    p = ModelParams.from_physical(400.0, 1.0)
    assert p.gamma == 1.0
