import math

import numpy as np
import pytest

from voterchain import cli
from voterchain.cli import main
from voterchain.core import Boundary, ModelParams, magnetization_vector
from voterchain.dynamics import build_generator, evolve_exact, point_mass, uniform_distribution
from voterchain.thermo import thermo_report


def _data_lines(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_thermo_row(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["thermo", "--n", "8", "--coupling", "1", "--temperature", "1",
                 "--out", str(out)]) == 0
    lines = _data_lines(out)
    assert lines[0] == "N,J,T,k,gamma,F,U,S,landauer_floor,gap"
    fields = lines[1].split(",")
    assert fields[0] == "8"
    rep = thermo_report(8, 1.0, 1.0)
    assert float(fields[5]) == pytest.approx(rep.free_energy, rel=1e-8)
    assert float(fields[7]) == pytest.approx(rep.entropy, rel=1e-8)
    assert float(fields[9]) == pytest.approx(rep.gap, rel=1e-8)


def test_header_records_version_config_seed(tmp_path):
    out = tmp_path / "t.csv"
    main(["thermo", "--n", "2", "--coupling", "0.5", "--temperature", "2",
          "--seed", "77", "--out", str(out)])
    header = [line for line in out.read_text().splitlines() if line.startswith("#")]
    assert header[0].startswith("# voterchain ")
    assert header[1] == "# command: thermo"
    assert "coupling=0.5" in header[2] and "n=2" in header[2]
    assert header[3] == "# seed: 77"


def test_thermo_rejects_gamma_only(capsys):
    assert main(["thermo", "--n", "4", "--gamma", "0.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_model_flags_are_exclusive(capsys):
    assert main(["simulate", "--n", "4", "--gamma", "0.5", "--coupling", "1",
                 "--temperature", "1"]) == 2
    assert main(["simulate", "--n", "4"]) == 2
    assert main(["simulate", "--n", "4", "--gamma", "1", "--trajectories", "-1"]) == 2
    assert "error: --trajectories must be nonnegative" in capsys.readouterr().err


def test_si_units_require_boltzmann():
    assert main(["thermo", "--n", "2", "--coupling", "1e-21", "--temperature", "300",
                 "--units", "si"]) == 2


def test_simulate_uniform_start_halts_immediately(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--n", "5", "--gamma", "1", "--init", "all-up",
                 "--trajectories", "3", "--out", str(out)]) == 0
    lines = _data_lines(out)
    assert lines[0] == "trajectory_id,halted,consensus_symbol,steps,final_magnetization"
    assert lines[1] == "0,true,1,0,1"
    assert lines[2] == "1,true,1,0,1"


def test_simulate_budget_zero_never_halts(tmp_path):
    out = tmp_path / "s.csv"
    main(["simulate", "--n", "4", "--gamma", "0.5", "--init", "alternating",
          "--max-steps", "0", "--trajectories", "2", "--out", str(out)])
    for row in _data_lines(out)[1:]:
        fields = row.split(",")
        assert fields[1] == "false"
        assert fields[2] == ""
        assert fields[3] == "0"


def test_simulate_serial_parallel_and_rerun_identical(tmp_path):
    args = ["simulate", "--n", "5", "--gamma", "0.6", "--init", "random",
            "--trajectories", "80", "--max-steps", "300", "--seed", "77"]
    paths = [tmp_path / f"s{i}.csv" for i in range(3)]
    events = [tmp_path / f"e{i}.csv" for i in range(3)]
    workers = ["1", "1", "4"]
    for path, ev, w in zip(paths, events, workers):
        assert main(args + ["--out", str(path), "--events", str(ev),
                            "--workers", w]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    ev_blobs = [p.read_bytes() for p in events]
    assert ev_blobs[0] == ev_blobs[1] == ev_blobs[2]


def test_simulate_event_log_schema(tmp_path):
    out = tmp_path / "s.csv"
    ev = tmp_path / "e.csv"
    main(["simulate", "--n", "4", "--gamma", "0", "--init", "alternating",
          "--max-steps", "40", "--trajectories", "2", "--seed", "5",
          "--out", str(out), "--events", str(ev)])
    lines = ev.read_text().splitlines()
    assert "time,site,new_symbol,magnetization" in lines
    assert any(line == "# trajectory 1" for line in lines)
    data = [line for line in lines if line and not line.startswith("#")
            and not line.startswith("time")]
    for row in data:
        t, site, sym, m = row.split(",")
        assert 0 <= int(site) < 4
        assert int(sym) in (-1, 1)
        assert -1.0 <= float(m) <= 1.0
        assert float(t) > 0.0


def test_exact_outputs_distribution_and_summary(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["exact", "--n", "2", "--gamma", "0", "--init", "index:3",
                 "--t-end", "8", "--t-steps", "2", "--out", str(out)]) == 0
    dist = _data_lines(out)
    assert dist[0] == "time,state_index,probability"
    # t = 0 rows reproduce the point mass on state 3
    t0 = {row.split(",")[1]: float(row.split(",")[2]) for row in dist[1:5]}
    assert t0 == {"0": 0.0, "1": 0.0, "2": 0.0, "3": 1.0}
    summary = _data_lines(tmp_path / "x.summary.csv")
    assert summary[0] == "time,mean_magnetization"
    final_m = float(summary[-1].split(",")[1])
    assert abs(final_m) <= 1e-3


def test_exact_long_time_reaches_coin_flip_equilibrium(tmp_path):
    out = tmp_path / "x.csv"
    main(["exact", "--n", "1", "--gamma", "0", "--t-end", "40", "--t-steps", "1",
          "--out", str(out)])
    rows = _data_lines(out)[1:]
    last = {row.split(",")[1]: float(row.split(",")[2]) for row in rows[-2:]}
    assert last["0"] == pytest.approx(0.5, abs=1e-8)
    assert last["1"] == pytest.approx(0.5, abs=1e-8)


def _exact_setup(n, gamma, boundary, init):
    gen = build_generator(n, ModelParams.from_gamma(gamma, boundary=Boundary(boundary)))
    if init == "uniform":
        return gen, uniform_distribution(n)
    return gen, point_mass(int(init.split(":")[1]), n)


@pytest.mark.parametrize("digits", [9, 17])
@pytest.mark.parametrize("boundary", ["periodic", "open"])
@pytest.mark.parametrize("gamma", [-1.0, 0.5, 1.0])
@pytest.mark.parametrize("init", ["uniform", "index:11"])
def test_exact_single_step_bytes_match_direct_evolution(tmp_path, digits, boundary, gamma, init):
    # with one interval the stepped grid reaches t_end in one step from p0,
    # so the file must equal one evolve_exact call formatted row by row
    n, t_end = 5, 1.3
    out = tmp_path / "x.csv"
    assert main(["exact", "--n", str(n), "--gamma", str(gamma), "--boundary", boundary,
                 "--init", init, "--t-end", str(t_end), "--t-steps", "1",
                 "--digits", str(digits), "--out", str(out)]) == 0
    gen, p0 = _exact_setup(n, gamma, boundary, init)
    m = magnetization_vector(n)
    d = digits
    dist, summary = ["time,state_index,probability"], ["time,mean_magnetization"]
    for t, p in ((0.0, p0), (t_end, evolve_exact(p0, gen, t_end))):
        dist += [f"{t:.{d}g},{i},{v:.{d}g}" for i, v in enumerate(np.clip(p, 0.0, None))]
        summary.append(f"{t:.{d}g},{float(m @ p):.{d}g}")
    assert _data_lines(out) == dist
    assert _data_lines(tmp_path / "x.summary.csv") == summary


def test_exact_stepped_grid_matches_restarts(tmp_path):
    n, gamma, t_end, steps = 6, 0.5, 4.0, 13
    out = tmp_path / "x.csv"
    assert main(["exact", "--n", str(n), "--gamma", str(gamma), "--init", "index:37",
                 "--t-end", str(t_end), "--t-steps", str(steps), "--digits", "17",
                 "--out", str(out)]) == 0
    table = np.array([row.split(",") for row in _data_lines(out)[1:]], dtype=np.float64)
    gen, p0 = _exact_setup(n, gamma, "periodic", "index:37")
    times = np.linspace(0.0, t_end, steps + 1)
    blocks = table.reshape(times.size, 2**n, 3)
    for t, block in zip(times, blocks):
        assert np.all(block[:, 0] == t)
        assert np.array_equal(block[:, 1], np.arange(2**n))
        assert np.abs(block[:, 2] - evolve_exact(p0, gen, t)).max() <= 1e-12


def test_exact_zero_end_time_repeats_start(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["exact", "--n", "3", "--gamma", "0.5", "--init", "index:5",
                 "--t-end", "0", "--t-steps", "4", "--out", str(out)]) == 0
    rows = _data_lines(out)[1:]
    expected = [f"0,{i},{1 if i == 5 else 0}" for i in range(8)]
    assert rows == expected * 5


def test_exact_rejects_negative_end_time(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["exact", "--n", "3", "--gamma", "0.5", "--t-end", "-1",
                 "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "x.summary.csv").exists()


def test_exact_clips_negative_roundoff_in_distribution_only(tmp_path, monkeypatch):
    # a roundoff-negative entry prints as 0 in the distribution, while the
    # summary keeps the unclipped mean magnetization m @ p
    p = np.array([-1e-18, 0.5, 0.5, 1e-18])
    monkeypatch.setattr(cli, "_stepped", lambda p0, gen, times: (p for _ in times))
    out = tmp_path / "dist.csv"
    assert main(["exact", "--n", "2", "--gamma", "0.5", "--t-steps", "1",
                 "--out", str(out)]) == 0
    assert _data_lines(out)[1:] == ["0,0,0", "0,1,0.5", "0,2,0.5", "0,3,1e-18",
                                    "1,0,0", "1,1,0.5", "1,2,0.5", "1,3,1e-18"]
    assert _data_lines(tmp_path / "dist.summary.csv")[1:] == ["0,2e-18", "1,2e-18"]


def test_exact_rejects_oversized_chain(capsys):
    assert main(["exact", "--n", "15", "--gamma", "0.5"]) == 2
    assert main(["exact", "--n", "0", "--gamma", "0.5"]) == 2
    assert "error: a generator needs at least one cell" in capsys.readouterr().err


def test_verify_report_and_exit_status(tmp_path):
    out = tmp_path / "v.csv"
    # every check passes, the two entropy checks included, so the exit code is 0
    assert main(["verify", "--fast", "--out", str(out)]) == 0
    lines = _data_lines(out)
    assert lines[0] == "name,status,residual,tolerance"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert {"detailed_balance", "landauer_bound", "closedform_free_energy",
            "closedform_entropy", "entropy_derivative"} <= rows.keys()
    for fields in rows.values():
        assert len(fields) == 4
        assert fields[1] == "pass"
        float(fields[2]), float(fields[3])


def test_verify_negative_control(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["verify", "--fast", "--inject-gamma-error", "--out", str(out)]) == 1
    rows = {line.split(",")[0]: line.split(",") for line in _data_lines(out)[1:]}
    injected = rows["detailed_balance_injected"]
    assert injected[1] == "fail"
    assert float(injected[2]) > float(injected[3])
    # the control is the only failing row, so it alone sets the exit code
    assert [name for name, fields in rows.items() if fields[1] == "fail"] == [
        "detailed_balance_injected"]


def test_sweep_grid(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["sweep", "--sweep-n", "1:4", "--sweep-betaj", "0:1:2",
                 "--out", str(out)]) == 0
    lines = _data_lines(out)
    assert lines[0] == "N,J,T,k,gamma,F,U,S,landauer_floor,gap"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8
    assert [r[0] for r in rows] == ["1", "1", "2", "2", "3", "3", "4", "4"]
    for r in rows:
        n, j, gap = int(r[0]), float(r[1]), float(r[9])
        if n == 1 or j == 0.0:
            assert gap == 0.0
        else:
            assert gap > 0.0


def test_single_point_sweep_matches_thermo(tmp_path):
    sweep_out = tmp_path / "g.csv"
    thermo_out = tmp_path / "t.csv"
    main(["sweep", "--sweep-n", "6:6", "--sweep-betaj", "0.8:0.8:1", "--out", str(sweep_out)])
    main(["thermo", "--n", "6", "--coupling", "0.8", "--temperature", "1",
          "--out", str(thermo_out)])
    assert _data_lines(sweep_out)[1] == _data_lines(thermo_out)[1]


def test_sweep_petabit_preset(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["sweep", "--petabit", "--out", str(out)]) == 0
    row = _data_lines(out)[1].split(",")
    n, temperature, floor = float(row[0]), float(row[2]), float(row[8])
    assert n == 1e15 and temperature == 300.0
    erasure = temperature * floor
    assert 2.8e-6 <= erasure <= 2.95e-6
    assert float(row[5]) == pytest.approx(-erasure, rel=1e-8)


def test_sweep_rejects_bad_ranges():
    assert main(["sweep", "--sweep-n", "4:1", "--sweep-betaj", "0:1:2"]) == 2
    assert main(["sweep", "--sweep-n", "1:2", "--sweep-betaj", "0:1:0"]) == 2
    assert main(["sweep"]) == 2
    assert main(["sweep", "--petabit", "--sweep-n", "1:2"]) == 2


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\ngamma = 0.5\nmax_steps = 20\ninit = alternating\n"
                   "trajectories = 5\n# comment line\n")
    out = tmp_path / "s.csv"
    assert main(["simulate", "--config", str(cfg), "--trajectories", "2",
                 "--out", str(out)]) == 0
    lines = _data_lines(out)
    assert len(lines) == 1 + 2  # header row plus the overridden count
    header = out.read_text().splitlines()[2]
    assert "gamma=0.5" in header and "n=3" in header and "trajectories=2" in header


def test_config_file_errors(tmp_path):
    assert main(["simulate", "--n", "2", "--gamma", "0", "--config",
                 str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a token\n")
    assert main(["simulate", "--n", "2", "--gamma", "0", "--config", str(bad)]) == 2


def test_unknown_init_rejected():
    assert main(["simulate", "--n", "3", "--gamma", "0", "--init", "sideways"]) == 2


def test_stdout_output(capsys):
    assert main(["thermo", "--n", "1", "--coupling", "2", "--temperature", "1",
                 "--out", "-"]) == 0
    captured = capsys.readouterr().out
    assert "N,J,T,k,gamma,F,U,S,landauer_floor,gap" in captured
    row = [line for line in captured.splitlines() if line.startswith("1,")][0]
    assert float(row.split(",")[7]) == pytest.approx(math.log(2), rel=1e-8)
