"""Acceptance gate: the eleven quantitative contracts this artifact must meet.

Each test prints one PASS/FAIL line for its criterion and then asserts, so a
plain pytest run doubles as the acceptance report.  The chain carries two
entropies: the reported closed form thermo.entropy, which criteria 01 and 02
hold to the N k ln 2 floor, and the calorimetric thermo.gibbs_entropy, which
criteria 03 and 04 hold to the enumerated -sum p ln p and to -dF/dT.
Criterion 03 also pins the offset 2(N-1)(J/T)tanh(J/kT) between the two.
The checks themselves live in voterchain.verify so the command-line `verify`
report and this gate can never drift apart.
"""

import time

from voterchain.cli import main
from voterchain.verify import (
    check_closedform_entropy,
    check_closedform_free_energy,
    check_consensus_split,
    check_detailed_balance,
    check_entropy_derivative,
    check_erasure_petabit,
    check_generator_columns,
    check_kmc_poisson,
    check_kmc_vs_exact,
    check_landauer_bound,
    check_landauer_equality,
    check_magnetization_conserved,
    check_n1_equality,
    check_probability_conservation,
    check_relaxation_law,
    check_stationary_matches_gibbs,
    check_voter_absorbing,
)

SEED = 0


def _gate(criterion: str, passed: bool, detail: str) -> None:
    line = f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}"
    print(line)
    assert passed, line


def _fmt(r) -> str:
    return f"{r.name} residual {r.residual:.3e} (tol {r.tolerance:.3g})"


def test_criterion_01_entropy_floor():
    start = time.perf_counter()
    bound = check_landauer_bound(SEED)
    equality = check_landauer_equality(SEED)
    elapsed = time.perf_counter() - start
    ok = bound.passed and equality.passed and elapsed < 1.0
    _gate("criterion-01 entropy floor over random grid", ok,
          f"{_fmt(bound)}; {_fmt(equality)}; {elapsed:.2f}s (budget 1s)")


def test_criterion_02_single_cell_equality():
    r = check_n1_equality(SEED)
    _gate("criterion-02 single cell sits exactly on the floor", r.passed, _fmt(r))


def test_criterion_03_closed_forms_vs_enumeration():
    start = time.perf_counter()
    f_part = check_closedform_free_energy()
    s_part = check_closedform_entropy()
    elapsed = time.perf_counter() - start
    ok = f_part.passed and s_part.passed and elapsed < 30.0
    _gate("criterion-03 closed-form F and S match 2^N enumeration", ok,
          f"{_fmt(f_part)}; {_fmt(s_part)}; {elapsed:.1f}s (budget 30s); "
          f"calorimetric S matches, reported S exceeds it by 2(N-1)(J/T)tanh(J/kT)")


def test_criterion_04_entropy_is_minus_dF_dT():
    start = time.perf_counter()
    r = check_entropy_derivative()
    elapsed = time.perf_counter() - start
    ok = r.passed and elapsed < 5.0
    _gate("criterion-04 S equals -dF/dT by central differences", ok,
          f"{_fmt(r)}; {elapsed:.1f}s (budget 5s)")


def test_criterion_05_flux_balance_and_gibbs_stationarity():
    start = time.perf_counter()
    db = check_detailed_balance()
    tv = check_stationary_matches_gibbs()
    elapsed = time.perf_counter() - start
    ok = db.passed and tv.passed and elapsed < 60.0
    _gate("criterion-05 rate/weight balance and stationary Gibbs state", ok,
          f"{_fmt(db)}; {_fmt(tv)}; {elapsed:.1f}s (budget 60s)")


def test_criterion_06_master_equation_sanity():
    cols = check_generator_columns()
    cons = check_probability_conservation()
    ok = cols.passed and cons.passed
    _gate("criterion-06 conservative generator and exact evolution", ok,
          f"{_fmt(cols)}; {_fmt(cons)}")


def test_criterion_07_voter_limit():
    start = time.perf_counter()
    absorbing = check_voter_absorbing()
    conserved = check_magnetization_conserved()
    split = check_consensus_split(SEED, trajectories=10_000)
    elapsed = time.perf_counter() - start
    ok = absorbing.passed and conserved.passed and split.passed and elapsed < 30.0
    _gate("criterion-07 absorbing consensus and conserved magnetization", ok,
          f"{_fmt(absorbing)}; {_fmt(conserved)}; {_fmt(split)}; "
          f"{elapsed:.1f}s (budget 30s)")


def test_criterion_08_trajectory_sampler():
    start = time.perf_counter()
    dist = check_kmc_vs_exact(SEED, trajectories=100_000)
    pois = check_kmc_poisson(SEED, trajectories=100_000)
    elapsed = time.perf_counter() - start
    ok = dist.passed and pois.passed and elapsed < 120.0
    _gate("criterion-08 continuous-time sampler against exact law", ok,
          f"{_fmt(dist)}; {_fmt(pois)}; {elapsed:.1f}s (budget 120s)")


def test_criterion_09_relaxation_law():
    r = check_relaxation_law()
    _gate("criterion-09 magnetization decays at rate 1-gamma", r.passed, _fmt(r))


def test_criterion_10_petabit_erasure():
    r = check_erasure_petabit()
    _gate("criterion-10 petabit erasure energy window", r.passed,
          f"{_fmt(r)}; {r.detail}")


def test_criterion_11_reproducible_output(tmp_path):
    args = ["simulate", "--n", "6", "--gamma", "0.7", "--init", "random",
            "--trajectories", "120", "--max-steps", "400", "--seed", "321"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, workers in zip(paths, ("1", "1", "4")):
        code = main(args + ["--out", str(path), "--workers", workers])
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2]
    _gate("criterion-11 byte-identical rerun and serial-vs-parallel output", ok,
          f"three runs, {len(blobs[0])} bytes each" if ok else "outputs differ")
