import math

import mpmath
import numpy as np
import pytest
from oracles import log_partition_open, log_partition_periodic

from voterchain.core import Boundary, ModelParams
from voterchain.thermo import (
    LN2,
    entropy,
    erasure_energy,
    free_energy,
    gibbs_brute_force,
    gibbs_entropy,
    gibbs_probabilities,
    landauer_floor,
    landauer_gap,
    thermo_report,
)

# frozen against an arbitrary-precision evaluation (mpmath, 50 digits)
TANH1 = 0.7615941559557649
TANH2 = 0.9640275800758169
F_2_X1 = -1.8200751916029179
S_8_X1 = 13.912802349551107
S_GIBBS_8_X1 = 3.2504841661703986
GAP_2_X1 = 1.1953749864387921
Z_OPEN_2_X1 = 6.172322539260975
Z_PER_4_X1 = 121.23293134406595
PETABIT_J = 2.8709788850787237e-06


def test_gamma_from_temperature():
    def gamma(coupling, temperature, boltzmann=1.0):
        return ModelParams.from_physical(coupling, temperature, boltzmann=boltzmann).gamma
    assert gamma(0.0, 1.0) == 0.0
    assert gamma(1.0, 2.0) == pytest.approx(TANH1, abs=1e-15)
    assert gamma(1.0, 1.0) == pytest.approx(TANH2, abs=1e-15)
    assert gamma(500.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        gamma(1.0, 0.0)
    with pytest.raises(ValueError):
        gamma(1.0, 1.0, boltzmann=-1.0)


def test_gamma_odd_and_increasing_in_coupling():
    def gamma(coupling):
        return ModelParams.from_physical(coupling, 1.0).gamma
    xs = np.linspace(-4.0, 4.0, 41)
    values = [gamma(x) for x in xs]
    for x, v in zip(xs, values):
        assert v == pytest.approx(-gamma(-x), abs=1e-15)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_free_energy_values():
    assert free_energy(1, 5.0, 1.0) == pytest.approx(-LN2, rel=1e-15)
    assert free_energy(2, 1.0, 1.0) == pytest.approx(F_2_X1, rel=1e-15)
    assert free_energy(6, 0.0, 2.0) == pytest.approx(-6 * 2.0 * LN2, rel=1e-15)
    with pytest.raises(ValueError):
        free_energy(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        free_energy(2, 1.0, -1.0)


def test_free_energy_scales_with_boltzmann():
    k = 1.380649e-23
    assert free_energy(3, 2.0 * k, 2.0, k) == pytest.approx(k * free_energy(3, 2.0, 2.0), rel=1e-12)


def test_entropy_values():
    assert entropy(1, 3.7, 0.9) == pytest.approx(LN2, abs=1e-15)
    assert entropy(5, 0.0, 1.0) == pytest.approx(5 * LN2, rel=1e-15)
    assert entropy(8, 1.0, 1.0) == pytest.approx(S_8_X1, rel=1e-12)


def test_entropy_never_below_floor():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        x = float(rng.uniform(-5.0, 5.0))
        assert entropy(n, x, 1.0) - landauer_floor(n) >= -1e-12


def test_landauer_gap_values():
    assert landauer_gap(1, 2.0, 1.0) == 0.0
    assert landauer_gap(5, 0.0, 1.0) == 0.0
    assert landauer_gap(2, 1.0, 1.0) == pytest.approx(GAP_2_X1, rel=1e-12)
    # even under antiferromagnetic coupling the gap stays nonnegative
    assert landauer_gap(4, -2.5, 1.0) > 0.0


def test_landauer_floor():
    assert landauer_floor(1) == pytest.approx(LN2, rel=1e-15)
    assert landauer_floor(10, 2.0) == pytest.approx(20 * LN2, rel=1e-15)


def test_erasure_energy():
    assert erasure_energy(1, 1.0) == pytest.approx(LN2, rel=1e-15)
    assert erasure_energy(0, 5.0) == 0.0
    value = erasure_energy(10**15, 300.0, 1.380649e-23)
    assert value == pytest.approx(PETABIT_J, rel=1e-12)
    assert 2.8e-6 <= value <= 2.95e-6
    # energy floor is the entropy floor times temperature
    assert erasure_energy(7, 3.0, 2.0) == pytest.approx(3.0 * landauer_floor(7, 2.0), rel=1e-15)


def test_partition_functions():
    assert log_partition_open(2, 1.0) == pytest.approx(math.log(Z_OPEN_2_X1), rel=1e-14)
    assert log_partition_periodic(4, 1.0) == pytest.approx(math.log(Z_PER_4_X1), rel=1e-14)


@pytest.mark.parametrize("n", [1000, 1001, 10**6, 10**6 + 1])
def test_log_partition_functions_at_large_n(n):
    # Z itself overflows a float from about N = 630 at x = 1; ln Z does not
    mpmath.mp.dps = 50
    for x in (-2.5, -1.0, -0.3, 0.0, 0.3, 1.0, 2.5):
        xm = mpmath.mpf(x)
        ring = mpmath.log((2 * mpmath.cosh(xm)) ** n + (2 * mpmath.sinh(xm)) ** n)
        chain = n * mpmath.log(2) + (n - 1) * mpmath.log(mpmath.cosh(xm))
        assert log_partition_periodic(n, x) == pytest.approx(float(ring), rel=1e-14)
        assert log_partition_open(n, x) == pytest.approx(float(chain), rel=1e-14)


def test_brute_force_partition_function_open():
    summary = gibbs_brute_force(2, 1.0, 1.0)
    assert summary.partition_function == pytest.approx(4 * math.cosh(1.0), rel=1e-13)
    for n in (1, 3, 6):
        z = gibbs_brute_force(n, 0.8, 1.0).partition_function
        assert math.log(z) == pytest.approx(log_partition_open(n, 0.8), abs=1e-12)


def test_brute_force_partition_function_periodic():
    summary = gibbs_brute_force(4, 1.0, 1.0, boundary=Boundary.PERIODIC)
    assert summary.partition_function == pytest.approx(Z_PER_4_X1, rel=1e-13)
    for n, x in ((5, -0.6), (6, -0.6), (7, 1.3), (3, -2.0)):
        z = gibbs_brute_force(n, x, 1.0, boundary=Boundary.PERIODIC).partition_function
        assert math.log(z) == pytest.approx(log_partition_periodic(n, x), abs=1e-12)


def test_brute_force_single_cell():
    summary = gibbs_brute_force(1, 2.0, 1.0, boundary=Boundary.OPEN)
    assert summary.partition_function == pytest.approx(2.0, rel=1e-14)
    assert summary.entropy == pytest.approx(LN2, rel=1e-14)


def test_brute_force_internal_consistency():
    for n in (2, 5, 9):
        for x in (0.3, 1.0, 2.5):
            s = gibbs_brute_force(n, x, 1.0)
            assert s.free_energy == pytest.approx(
                s.internal_energy - 1.0 * s.entropy, rel=1e-10)


def test_brute_force_with_field():
    # h breaks the up/down symmetry, lowering F
    with_field = gibbs_brute_force(4, 1.0, 1.0, h=0.5)
    without = gibbs_brute_force(4, 1.0, 1.0)
    assert with_field.free_energy < without.free_energy
    assert with_field.free_energy == pytest.approx(
        with_field.internal_energy - with_field.entropy, rel=1e-10)


def test_brute_force_cap():
    with pytest.raises(ValueError):
        gibbs_brute_force(17, 1.0, 1.0)


def test_closed_form_free_energy_matches_enumeration():
    for n in range(1, 13):
        for x in (0.3, 1.0, 2.5):
            brute = gibbs_brute_force(n, x, 1.0).free_energy
            assert free_energy(n, x, 1.0) == pytest.approx(brute, rel=1e-12)


def test_gibbs_entropy_matches_enumeration():
    for n in (2, 5, 8):
        for x in (0.5, 1.0):
            brute = gibbs_brute_force(n, x, 1.0).entropy
            assert gibbs_entropy(n, x, 1.0) == pytest.approx(brute, rel=1e-12)
    assert gibbs_entropy(8, 1.0, 1.0) == pytest.approx(S_GIBBS_8_X1, rel=1e-12)


def test_entropy_exceeds_gibbs_entropy_by_documented_offset():
    # the reported closed form sits above the enumerated -sum p ln p by
    # exactly 2 (N-1) (J/T) tanh(J/kT); this pins the sign convention
    for n in (2, 4, 8):
        for x in (0.4, 1.0, 2.0):
            offset = 2.0 * (n - 1) * x * math.tanh(x)
            assert entropy(n, x, 1.0) - gibbs_entropy(n, x, 1.0) == pytest.approx(
                offset, rel=1e-11)
    assert entropy(8, 1.0, 1.0) - gibbs_entropy(8, 1.0, 1.0) == pytest.approx(
        S_8_X1 - S_GIBBS_8_X1, rel=1e-12)


def test_gibbs_probabilities():
    p = gibbs_probabilities(4, 1.0, 1.0, boundary=Boundary.PERIODIC)
    assert p.sum() == pytest.approx(1.0, abs=1e-14)
    assert p.min() > 0.0
    # aligned configurations carry the largest weight under J > 0
    assert p[0] == p.max() and p[15] == pytest.approx(p.max(), rel=1e-14)


def test_thermo_report():
    rep = thermo_report(8, 1.0, 1.0)
    assert rep.entropy == pytest.approx(S_8_X1, rel=1e-12)
    assert rep.internal_energy == pytest.approx(7 * math.tanh(1.0), rel=1e-12)
    assert rep.free_energy == pytest.approx(
        rep.internal_energy - rep.temperature * rep.entropy, rel=1e-9)
    assert rep.gap >= -1e-12
    assert rep.landauer_floor == pytest.approx(8 * LN2, rel=1e-15)
    rep1 = thermo_report(1, 4.0, 2.0)
    assert rep1.gap == 0.0
    assert rep1.entropy == pytest.approx(LN2, rel=1e-15)
