import math

import mpmath
import numpy as np
import pytest
from oracles import log_partition_open, log_partition_periodic

from voterchain.core import Boundary, ModelParams, state_energies
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
    with pytest.raises(ValueError, match="cell count must be nonnegative"):
        landauer_floor(-1)


def test_erasure_energy():
    assert erasure_energy(1, 1.0) == pytest.approx(LN2, rel=1e-15)
    assert erasure_energy(0, 5.0) == 0.0
    value = erasure_energy(10**15, 300.0, 1.380649e-23)
    assert value == pytest.approx(PETABIT_J, rel=1e-12)
    assert 2.8e-6 <= value <= 2.95e-6
    # energy floor is the entropy floor times temperature
    assert erasure_energy(7, 3.0, 2.0) == pytest.approx(3.0 * landauer_floor(7, 2.0), rel=1e-15)
    with pytest.raises(ValueError, match="bit count must be nonnegative"):
        erasure_energy(-1, 300.0)


# every public function that takes T or k, with that argument passed through
_POINT_CALLS = {
    "free_energy": lambda t, k: free_energy(3, 1.0, t, k),
    "entropy": lambda t, k: entropy(3, 1.0, t, k),
    "gibbs_entropy": lambda t, k: gibbs_entropy(3, 1.0, t, k),
    "landauer_gap": lambda t, k: landauer_gap(3, 1.0, t, k),
    "gibbs_brute_force": lambda t, k: gibbs_brute_force(3, 1.0, t, k),
    "erasure_energy": lambda t, k: erasure_energy(3, t, k),
    "landauer_floor": lambda t, k: landauer_floor(3, k),
    "from_physical": lambda t, k: ModelParams.from_physical(1.0, t, k),
}


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("name, arg", [
    (name, arg) for name in _POINT_CALLS for arg in ("temperature", "boltzmann")
    if (name, arg) != ("landauer_floor", "temperature")])
def test_temperature_and_boltzmann_must_be_positive(name, arg, bad):
    # NaN fails every `<= 0` test, so it must be caught by `not x > 0`
    t, k = (bad, 1.0) if arg == "temperature" else (1.0, bad)
    with pytest.raises(ValueError, match="must be positive"):
        _POINT_CALLS[name](t, k)


_COUPLING_CALLS = {
    "free_energy": free_energy,
    "entropy": entropy,
    "gibbs_entropy": gibbs_entropy,
    "landauer_gap": landauer_gap,
    "gibbs_brute_force": gibbs_brute_force,
    "thermo_report": thermo_report,
    "from_physical": lambda n, j, t, k: ModelParams.from_physical(j, t, k),
}


@pytest.mark.parametrize("name", list(_COUPLING_CALLS))
def test_nan_coupling_and_vanishing_kt_rejected_by_name(name):
    call = _COUPLING_CALLS[name]
    with pytest.raises(ValueError, match="coupling must be a number"):
        call(3, math.nan, 1.0, 1.0)
    # both positive, but their product underflows to 0
    with pytest.raises(ValueError, match=r"boltzmann \* temperature underflows to 0"):
        call(3, 1.0, 1e-200, 1e-200)
    # a product that stays above 0 is accepted, however small
    call(3, 1.0, 1e-200, 1e-100)


@pytest.mark.parametrize("temperature, boltzmann", [(1e308, 10.0), (math.inf, 1.0),
                                                     (1.0, math.inf)])
@pytest.mark.parametrize("name", list(_COUPLING_CALLS))
def test_non_finite_kt_rejected_by_name(name, temperature, boltzmann):
    # k T overflowed to inf, and F came out as inf - inf = nan; T and k are
    # checked before the coupling, which a sweep forms from them
    call = _COUPLING_CALLS[name]
    for coupling in (1.0, math.nan):
        with pytest.raises(ValueError, match=r"boltzmann \* temperature is not finite"):
            call(3, coupling, temperature, boltzmann)


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
    assert summary.log_partition_function == pytest.approx(math.log(4 * math.cosh(1.0)),
                                                           rel=1e-13)
    for n in (1, 3, 6):
        log_z = gibbs_brute_force(n, 0.8, 1.0).log_partition_function
        assert log_z == pytest.approx(log_partition_open(n, 0.8), abs=1e-12)


def test_brute_force_partition_function_periodic():
    summary = gibbs_brute_force(4, 1.0, 1.0, boundary=Boundary.PERIODIC)
    assert summary.log_partition_function == pytest.approx(math.log(Z_PER_4_X1), rel=1e-13)
    for n, x in ((5, -0.6), (6, -0.6), (7, 1.3), (3, -2.0)):
        log_z = gibbs_brute_force(n, x, 1.0, boundary=Boundary.PERIODIC).log_partition_function
        assert log_z == pytest.approx(log_partition_periodic(n, x), abs=1e-12)


@pytest.mark.parametrize("n,coupling", [(16, 50.0), (12, 70.0), (4, 300.0)])
def test_brute_force_where_the_partition_function_overflows(n, coupling):
    # Z = e^{ln Z} is past the largest float here, while ln Z, F, U and S are not
    s = gibbs_brute_force(n, coupling, 1.0)
    assert s.log_partition_function > math.log(np.finfo(np.float64).max)
    assert s.log_partition_function == pytest.approx(log_partition_open(n, coupling),
                                                     rel=1e-14)
    assert s.free_energy == pytest.approx(s.internal_energy - 1.0 * s.entropy, rel=1e-12)


def test_brute_force_single_cell():
    summary = gibbs_brute_force(1, 2.0, 1.0, boundary=Boundary.OPEN)
    assert summary.log_partition_function == pytest.approx(LN2, rel=1e-14)
    assert summary.entropy == pytest.approx(LN2, rel=1e-14)


def test_brute_force_internal_consistency():
    for n in (2, 5, 9):
        for x in (0.3, 1.0, 2.5):
            s = gibbs_brute_force(n, x, 1.0)
            assert s.free_energy == pytest.approx(
                s.internal_energy - 1.0 * s.entropy, rel=1e-10)


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


def _gibbs_entropy_reference(n, x):
    """N ln 2 + (N-1)(ln cosh x - x tanh x) in mpmath, with enough digits that
    the two terms of size |x| leave the O(1) difference intact."""
    if math.isinf(x):
        return n * LN2 - (n - 1) * LN2
    with mpmath.workdps(int(math.log10(max(abs(x), 1.0))) + 40):
        xm = mpmath.mpf(x)
        bond = mpmath.log(mpmath.cosh(xm)) - xm * mpmath.tanh(xm)
        return float(n * mpmath.log(2) + (n - 1) * bond)


@pytest.mark.parametrize("x", [1e-3, 0.3, 1.0, 2.5, 10.0, 30.0, 400.0, 1e3, 1e10, 1e14,
                               1e15, 1e16, 1e100, 1e300, -1e300, math.inf])
@pytest.mark.parametrize("n", [2, 3, 9])
def test_gibbs_entropy_keeps_its_low_temperature_limit(n, x):
    # ln cosh x - x tanh x was the difference of two terms of size |x|; at
    # N = 3 it read 0.70 at x = 1e14, 3 ln 2 from x = 1e16 and nan at x = inf
    assert gibbs_entropy(n, x, 1.0) == pytest.approx(_gibbs_entropy_reference(n, x),
                                                     rel=1e-13)


@pytest.mark.parametrize("temperature", [1e-3, 1e-10, 1e-14, 1e-15, 1e-16, 1e-300, 5e-324])
def test_closed_forms_at_vanishing_temperature(temperature):
    # x = J/(kT) overflows to inf at T = 5e-324; two ground states remain
    assert gibbs_entropy(3, 1.0, temperature) == pytest.approx(LN2, rel=1e-13)
    with mpmath.workdps(50):
        t = mpmath.mpf(temperature)
        f = -t * (3 * mpmath.log(2) + 2 * mpmath.log(mpmath.cosh(1 / t)))
    assert free_energy(3, 1.0, temperature) == pytest.approx(float(f), rel=1e-15)
    assert free_energy(3, -1.0, temperature) == free_energy(3, 1.0, temperature)


def test_thermo_row_at_vanishing_temperature(tmp_path):
    # F reaches its limit -(N-1)|J| where it was -inf; the reported S and the
    # gap keep their own limit, inf, that criteria 01 and 02 hold them to
    from voterchain.cli import main
    out = tmp_path / "t.csv"
    assert main(["thermo", "--n", "3", "--coupling", "1", "--temperature", "5e-324",
                 "--out", str(out)]) == 0
    row = out.read_text().splitlines()[-1]
    assert row == "3,1,4.94065646e-324,1,1,-2,2,inf,2.07944154,inf"
    rep = thermo_report(3, 1.0, 5e-324)
    assert (rep.free_energy, rep.entropy, rep.gap) == (-2.0, math.inf, math.inf)


def test_energies_and_gibbs_law_need_a_boundary():
    # ModelParams defaults to a ring, so a default here could silently
    # compare a ring's law with an open chain's
    with pytest.raises(TypeError):
        gibbs_probabilities(4, 1.0, 1.0)
    with pytest.raises(TypeError):
        state_energies(4, 1.0)


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
        rep.internal_energy - 1.0 * rep.entropy, rel=1e-9)
    assert rep.gap >= -1e-12
    assert rep.landauer_floor == pytest.approx(8 * LN2, rel=1e-15)
    rep1 = thermo_report(1, 4.0, 2.0)
    assert rep1.gap == 0.0
    assert rep1.entropy == pytest.approx(LN2, rel=1e-15)
