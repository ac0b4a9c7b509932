import math

import numpy as np
import pytest
from oracles import hamiltonian

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


def test_tape_validation():
    with pytest.raises(ValueError):
        SpinTape([])
    with pytest.raises(ValueError):
        SpinTape([1, 0, -1])
    with pytest.raises(ValueError):
        SpinTape([1, 2])
    tape = SpinTape([1, -1, 1], Boundary.OPEN)
    assert tape.n == 3
    assert tape.boundary is Boundary.OPEN


def test_tape_symbols_are_read_only():
    tape = SpinTape([1, -1])
    with pytest.raises(ValueError):
        tape.symbols[0] = -1


def test_tape_constructors():
    assert np.all(SpinTape.uniform(4).symbols == 1)
    assert SpinTape.uniform(4, -1).symbols.tolist() == [-1, -1, -1, -1]
    assert SpinTape.alternating(5).symbols.tolist() == [1, -1, 1, -1, 1]
    rng = np.random.default_rng(0)
    tape = SpinTape.random(6, rng, Boundary.OPEN)
    assert set(tape.symbols.tolist()) <= {-1, 1}


def test_encode_examples():
    assert encode_state(SpinTape([-1, -1, -1])) == 0
    assert encode_state(SpinTape([1, 1, 1])) == 7
    # site 0 is the least-significant bit
    assert encode_state(SpinTape([1, -1, 1])) == 5


def test_decode_examples():
    assert decode_state(0, 2).symbols.tolist() == [-1, -1]
    assert decode_state(3, 2).symbols.tolist() == [1, 1]
    assert decode_state(4, 3).symbols.tolist() == [-1, -1, 1]
    with pytest.raises(ValueError):
        decode_state(8, 3)
    with pytest.raises(ValueError):
        decode_state(-1, 3)


def test_encode_decode_roundtrip():
    for n in range(1, 9):
        for idx in range(2**n):
            assert encode_state(decode_state(idx, n)) == idx


def test_spin_table_matches_decode():
    table = spin_table(4)
    assert table.shape == (16, 4)
    for idx in range(16):
        assert table[idx].tolist() == decode_state(idx, 4).symbols.tolist()


def test_hamiltonian_open_chain():
    # three bonds: -J(1*1 + 1*(-1) + (-1)*1) = J
    tape = SpinTape([1, 1, -1, 1], Boundary.OPEN)
    assert hamiltonian(tape, 2.0) == pytest.approx(2.0)
    assert hamiltonian(tape, 2.0, h=0.5) == pytest.approx(2.0 - 0.5 * 2)


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
        energies = state_energies(5, 1.3, 0.2, boundary)
        for idx in (0, 7, 19, 31):
            tape = decode_state(idx, 5, boundary)
            assert energies[idx] == pytest.approx(hamiltonian(tape, 1.3, 0.2), abs=1e-14)


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
    assert p.beta == pytest.approx(0.5)
    assert p.has_temperature
    q = ModelParams.from_physical(1.0, 1.0)
    assert q.gamma == pytest.approx(TANH2, abs=1e-15)


def test_params_triple_is_all_or_none():
    with pytest.raises(ValueError):
        ModelParams(gamma=0.5, coupling=1.0)
    with pytest.raises(ValueError):
        ModelParams(gamma=0.5, temperature=1.0, boltzmann=1.0)


def test_params_gamma_must_match_triple():
    with pytest.raises(ValueError):
        ModelParams(gamma=0.5, coupling=1.0, temperature=1.0, boltzmann=1.0)


def test_params_positivity():
    with pytest.raises(ValueError):
        ModelParams.from_physical(1.0, -1.0)
    with pytest.raises(ValueError):
        ModelParams.from_physical(1.0, 1.0, boltzmann=0.0)


def test_params_beta_needs_triple():
    with pytest.raises(ValueError):
        _ = ModelParams.from_gamma(0.5).beta
    assert not ModelParams.from_gamma(0.5).has_temperature


def test_gamma_saturates_at_strong_coupling():
    # tanh(2 * 400) rounds to exactly 1, the copy-the-majority regime
    p = ModelParams.from_physical(400.0, 1.0)
    assert p.gamma == 1.0
