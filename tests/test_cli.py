import argparse
import math
import re
import shlex
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from voterchain import cli
from voterchain.cli import main
from voterchain.core import Boundary, ModelParams, magnetization_vector
from voterchain.dynamics import build_generator, evolve_exact, point_mass, uniform_distribution
from voterchain.thermo import thermo_report
from voterchain.verify import run_verify
from voterchain.voter import TuringVoter


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
    out = tmp_path / "s.csv"
    assert main(["simulate", "--n", "2", "--coupling", "0.5", "--temperature", "2",
                 "--seed", "77", "--out", str(out)]) == 0
    header = [line for line in out.read_text().splitlines() if line.startswith("#")]
    assert header[0].startswith("# voterchain ")
    assert header[1] == "# command: simulate"
    assert "coupling=0.5" in header[2] and "n=2" in header[2]
    assert "boundary=periodic" in header[2]
    assert header[3] == "# seed: 77"


def test_closed_form_headers_record_no_boundary_and_seed_zero(tmp_path):
    # thermo and sweep draw nothing and print the open chain's closed forms,
    # so they take no --seed and record neither a boundary nor a given seed
    out = tmp_path / "t.csv"
    assert main(["thermo", "--n", "2", "--coupling", "0.5", "--temperature", "2",
                 "--out", str(out)]) == 0
    header = [line for line in out.read_text().splitlines() if line.startswith("#")]
    assert header[1] == "# command: thermo"
    assert "boundary=" not in header[2]
    assert header[3] == "# seed: 0"
    for argv in (["thermo", "--n", "2", "--coupling", "0.5", "--temperature", "2"],
                 ["sweep", "--sweep-n", "1:2", "--sweep-betaj", "0:1:2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "77"])
        assert exc.value.code == 2


def test_thermo_rejects_gamma_only(capsys):
    # the closed forms need the physical triple, so thermo has no --gamma
    with pytest.raises(SystemExit) as exc:
        main(["thermo", "--n", "4", "--gamma", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --gamma" in capsys.readouterr().err


def test_model_flags_are_exclusive(capsys):
    assert main(["simulate", "--n", "4", "--gamma", "0.5", "--coupling", "1",
                 "--temperature", "1"]) == 2
    capsys.readouterr()
    # k enters only through the physical triple, so a --gamma run cannot take it
    for command in ("simulate", "exact"):
        assert main([command, "--n", "4", "--gamma", "0.5", "--boltzmann", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: give either --gamma or --coupling/--temperature/--boltzmann, not both\n")
    assert main(["simulate", "--n", "4"]) == 2
    assert main(["simulate", "--n", "4", "--gamma", "1", "--trajectories", "-1"]) == 2
    assert "error: --trajectories must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--trajectories", "0"]])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_simulate_rejects_fewer_than_one_cell(tmp_path, capsys, n, extra):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--n", n, "--gamma", "0", "--out", str(out)] + extra) == 2
    assert capsys.readouterr().err == "error: --n must be at least 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["thermo", "simulate", "exact"])
def test_nan_temperature_rejected(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    assert main([command, "--n", "3", "--coupling", "1", "--temperature", "nan",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: temperature must be positive")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["thermo", "simulate", "exact"])
@pytest.mark.parametrize("flags, message", [
    (["--coupling", "1", "--temperature", "1e-200", "--boltzmann", "1e-200"],
     "error: boltzmann * temperature underflows to 0"),
    (["--coupling", "nan", "--temperature", "1"], "error: coupling must be a number"),
    (["--coupling", "1", "--temperature", "1e308", "--boltzmann", "10"],
     "error: boltzmann * temperature is not finite"),
    (["--coupling", "1", "--temperature", "inf"], "error: boltzmann * temperature is not finite"),
    (["--coupling", "1", "--temperature", "1", "--boltzmann", "inf"],
     "error: boltzmann * temperature is not finite"),
])
def test_physical_triple_rejected_by_name(tmp_path, capsys, command, flags, message):
    # a k T that underflows to 0 once ended in a ZeroDivisionError traceback,
    # and a NaN coupling was reported as a bad gamma
    out = tmp_path / "x.csv"
    assert main([command, "--n", "3", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("betaj", ["0:1:2", "1:1:1"])
@pytest.mark.parametrize("flags", [["--temperature", "1e308", "--boltzmann", "10"],
                                   ["--temperature", "inf"], ["--boltzmann", "inf"]])
def test_sweep_rejects_non_finite_kt_by_name(tmp_path, capsys, betaj, flags):
    # the grid's coupling x k T was NaN or inf here, and the run failed on
    # the coupling or on gamma, neither of which sweep takes
    out = tmp_path / "x.csv"
    assert main(["sweep", "--sweep-n", "2:2", "--sweep-betaj", betaj, *flags,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: boltzmann * temperature is not finite")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["thermo", "--n", "3", "--coupling", "1"], "need both --coupling and --temperature"),
    (["simulate", "--n", "3", "--gamma", "0.5", "--max-steps", "-1"],
     "--max-steps must be nonnegative"),
    # fewer than one worker once ran serially and exited 0
    (["simulate", "--n", "3", "--gamma", "0.5", "--workers", "0"], "--workers must be at least 1"),
    (["simulate", "--n", "3", "--gamma", "0.5", "--workers", "-3"], "--workers must be at least 1"),
    (["exact", "--n", "3", "--gamma", "0.5", "--init", "random"],
     "a random initial tape needs a sampling stream"),
    (["exact", "--n", "3", "--gamma", "0.5", "--t-steps", "0"], "--t-steps must be at least 1"),
    (["sweep", "--sweep-n", "3", "--sweep-betaj", "0:1:2"], "--sweep-n expects a:b, got '3'"),
    (["sweep", "--sweep-n", "1:2", "--sweep-betaj", "0:1"],
     "--sweep-betaj expects a:b:steps, got '0:1'"),
])
def test_bad_arguments_rejected_by_name(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def _never(*args):
    raise AssertionError("called before the command's own checks ran")


@pytest.mark.parametrize("init, message", [
    ("sideways", "error: unknown --init 'sideways'"),
    ("index:8", "error: --init 'index:8': index 8 out of range for 3 cells"),
    ("index:-1", "error: --init 'index:-1': index -1 out of range for 3 cells"),
    ("index:two", "error: --init 'index:two'"),
])
def test_exact_rejects_bad_start_before_building(tmp_path, capsys, monkeypatch, init, message):
    monkeypatch.setattr(cli, "build_generator", _never)
    out = tmp_path / "x.csv"
    assert main(["exact", "--n", "3", "--gamma", "0.5", "--init", init, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("init", ["uniform", "index:3", "sideways"])
def test_exact_caps_the_size_before_reading_the_start(tmp_path, capsys, monkeypatch, init):
    # each of these builds something of size n or 2^n
    for name in ("build_generator", "decode_state", "uniform_distribution", "point_mass"):
        monkeypatch.setattr(cli, name, _never)
    out = tmp_path / "x.csv"
    assert main(["exact", "--n", "40", "--gamma", "0.5", "--init", init, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: exact operations capped at n=14, got 40\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejects_negative_end_time(capsys):
    assert main(["simulate", "--n", "3", "--gamma", "0.5", "--t-end", "-1"]) == 2
    assert capsys.readouterr().err == "error: --t-end must be nonnegative\n"
    for t_end in ("inf", "nan"):
        assert main(["simulate", "--n", "3", "--gamma", "0.5", "--t-end", t_end]) == 2
        assert capsys.readouterr().err == "error: --t-end must be finite\n"


@pytest.mark.parametrize("via_config", [False, True])
def test_sweep_takes_a_negative_range_after_its_flag(tmp_path, via_config):
    # argparse once took -3:3:5 for an option and exited 2 before the range
    # was parsed; only --sweep-betaj=-3:3:5 worked
    joined, spaced = tmp_path / "joined.csv", tmp_path / "spaced.csv"
    assert main(["sweep", "--sweep-n", "1:2", "--sweep-betaj=-3:3:5", "--out", str(joined)]) == 0
    if via_config:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sweep_n = 1:2\nsweep_betaj = -3:3:5\n")
        argv = ["sweep", "--config", str(cfg)]
    else:
        argv = ["sweep", "--sweep-n", "1:2", "--sweep-betaj", "-3:3:5"]
    assert main(argv + ["--out", str(spaced)]) == 0
    assert _data_lines(spaced) == _data_lines(joined)
    assert [row.split(",")[1] for row in _data_lines(spaced)[1:6]] == [
        "-3", "-1.5", "0", "1.5", "3"]


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "3", "--gamma", "0.5"],
    ["exact", "--n", "3", "--gamma", "0.5"],
    ["verify", "--fast"],
])
def test_negative_seed_rejected_by_name(tmp_path, capsys, monkeypatch, argv, via_config):
    # numpy rejected it with `expected non-negative integer`, naming no flag
    monkeypatch.setattr(cli, "run_verify", _never)
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        extra = ["--config", str(cfg)]
    else:
        extra = ["--seed", "-1"]
    out = tmp_path / "x.csv"
    assert main(argv + extra + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --seed must be nonnegative\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["thermo", "--n", "2", "--coupling", "1", "--temperature", "1"],
    ["simulate", "--n", "3", "--gamma", "0.5"],
    ["exact", "--n", "3", "--gamma", "0.5"],
    ["verify", "--fast"],
    ["sweep", "--sweep-n", "1:2", "--sweep-betaj", "0:1:2"],
])
def test_negative_digits_rejected(argv, capsys):
    assert main(argv + ["--digits", "-1"]) == 2
    assert capsys.readouterr().err == "error: --digits must be nonnegative\n"


_COMMON = ["--config", "--digits", "--out"]
_MODEL = ["--boltzmann", "--boundary", "--coupling", "--gamma", "--n", "--temperature"]


def test_every_subcommand_lists_its_options():
    # each accepted flag changes what its command computes or where it writes
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
    options = {name: sorted(opt for action in sub._actions for opt in action.option_strings
                            if opt not in ("-h", "--help"))
               for name, sub in subcommands.items()}
    assert options == {
        "thermo": sorted(_COMMON + ["--boltzmann", "--coupling", "--n", "--temperature"]),
        "simulate": sorted(_COMMON + _MODEL + ["--events", "--init", "--max-steps", "--seed",
                                               "--t-end", "--trajectories", "--workers"]),
        "exact": sorted(_COMMON + _MODEL + ["--init", "--seed", "--t-end", "--t-steps"]),
        "verify": sorted(_COMMON + ["--fast", "--inject-gamma-error", "--seed"]),
        "sweep": sorted(_COMMON + ["--boltzmann", "--sweep-betaj", "--sweep-n",
                                   "--temperature"]),
    }
    assert sum(map(len, options.values())) == 49


def _readme_command_lines():
    """Every `voterchain ...` line of the README's command-line block, with
    its continuation lines joined and its trailing comment dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("voterchain ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 7
    parser = cli.build_parser()
    for line in lines:
        tokens = shlex.split(line, comments=True)
        assert tokens[0] == "voterchain"
        # as main does, so a value such as -2.0:2.0:9 stays with its flag
        parser.parse_args(cli._attach_negative_values(tokens[1:]))


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # every example but the verify runs (covered by the verify tests) exits 0
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _readme_command_lines() if not line.startswith("voterchain verify")]
    assert len(lines) >= 5
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
        capsys.readouterr()


def test_simulate_runs_every_attempt_through_the_machine_methods(tmp_path, monkeypatch):
    # a per-layer tracer counts attempts and halt checks by wrapping these two
    # methods on the class, so each attempt and each check must go through them
    calls = Counter()
    step, is_consensus = TuringVoter.step, TuringVoter.is_consensus

    def counted_step(self):
        event = step(self)
        calls["step"] += 1
        calls["flips"] += event.flipped
        return event

    def counted_is_consensus(self):
        calls["is_consensus"] += 1
        return is_consensus(self)

    monkeypatch.setattr(TuringVoter, "step", counted_step)
    monkeypatch.setattr(TuringVoter, "is_consensus", counted_is_consensus)
    runs, events = tmp_path / "runs.csv", tmp_path / "events.csv"
    for model in (["--n", "8", "--gamma", "1", "--max-steps", "100000"],
                  ["--n", "12", "--coupling", "0.5", "--temperature", "1", "--t-end", "20",
                   "--events", str(events)]):
        calls.clear()
        assert main(["simulate", *model, "--init", "random", "--trajectories", "6",
                     "--seed", "3", "--out", str(runs)]) == 0
        steps = [int(row.split(",")[3]) for row in _data_lines(runs)[1:]]
        assert calls["step"] == sum(steps) > 0
        assert calls["is_consensus"] == sum(steps) + len(steps)
    rows = [line for line in _data_lines(events) if line != "time,site,new_symbol,magnetization"]
    assert calls["flips"] == len(rows) > 0


def test_boltzmann_defaults_to_one(tmp_path):
    # k is --boltzmann when given and 1 otherwise, and the header records only
    # what was given
    out, explicit = tmp_path / "t.csv", tmp_path / "k.csv"
    base = ["thermo", "--n", "2", "--coupling", "0.5", "--temperature", "2"]
    assert main(base + ["--out", str(out)]) == 0
    assert main(base + ["--boltzmann", "1", "--out", str(explicit)]) == 0
    assert _data_lines(out) == _data_lines(explicit)
    assert "boltzmann=" not in out.read_text().splitlines()[2]
    assert "boltzmann=1.0" in explicit.read_text().splitlines()[2]


def test_simulate_uniform_start_halts_immediately(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--n", "5", "--gamma", "1", "--init", "all-up",
                 "--trajectories", "3", "--out", str(out)]) == 0
    lines = _data_lines(out)
    assert lines[0] == "trajectory_id,halted,consensus_symbol,steps,final_magnetization"
    assert lines[1] == "0,true,1,0,1"
    assert lines[2] == "1,true,1,0,1"


def test_all_down_start(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--n", "4", "--gamma", "1", "--init", "all-down",
                 "--trajectories", "2", "--out", str(out)]) == 0
    assert _data_lines(out)[1:] == ["0,true,-1,0,-1", "1,true,-1,0,-1"]
    out = tmp_path / "x.csv"
    assert main(["exact", "--n", "2", "--gamma", "1", "--init", "all-down",
                 "--t-end", "1", "--t-steps", "1", "--out", str(out)]) == 0
    assert _data_lines(out)[1:] == ["0,0,1", "0,1,0", "0,2,0", "0,3,0",
                                    "1,0,1", "1,1,0", "1,2,0", "1,3,0"]
    assert _data_lines(tmp_path / "x.summary.csv")[1:] == ["0,-1", "1,-1"]


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


def test_exact_summary_path(tmp_path, monkeypatch, capsys):
    # a path without .csv gets .summary appended; "-" sends both to stdout
    argv = ["exact", "--n", "1", "--gamma", "0", "--t-end", "1", "--t-steps", "1"]
    assert main(argv + ["--out", str(tmp_path / "x.dat")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.dat", "x.dat.summary"]
    assert _data_lines(tmp_path / "x.dat.summary")[0] == "time,mean_magnetization"
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(argv + ["--out", "-"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    # the lone periodic cell flips at rate 1/2, so m(t) = e^{-t}
    assert lines == ["time,state_index,probability", "0,0,0", "0,1,1",
                     "1,0,0.316060279", "1,1,0.683939721",
                     "time,mean_magnetization", "0,1", "1,0.367879441"]
    assert list(cwd.iterdir()) == []


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
        dist += [f"{t:.{d}g},{i},{v:.{d}g}" for i, v in enumerate(p)]
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
    for t_end, message in (("-1", "nonnegative"), ("inf", "finite"), ("nan", "finite")):
        assert main(["exact", "--n", "3", "--gamma", "0.5", "--t-end", t_end,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --t-end must be {message}\n"
        assert not out.exists() and not (tmp_path / "x.summary.csv").exists()


def test_exact_writes_each_propagated_vector_as_given(tmp_path, monkeypatch):
    # the distribution prints the entries of P(t) unchanged, since P(t) is
    # nonnegative by construction, and the summary is m @ P(t) of the same vector
    p = np.array([0.0, 0.5, 0.5, 1e-18])
    monkeypatch.setattr(cli, "_stepped", lambda p0, gen, times: (p for _ in times))
    out = tmp_path / "dist.csv"
    assert main(["exact", "--n", "2", "--gamma", "0.5", "--t-steps", "1",
                 "--out", str(out)]) == 0
    assert _data_lines(out)[1:] == ["0,0,0", "0,1,0.5", "0,2,0.5", "0,3,1e-18",
                                    "1,0,0", "1,1,0.5", "1,2,0.5", "1,3,1e-18"]
    assert _data_lines(tmp_path / "dist.summary.csv")[1:] == ["0,1e-18", "1,1e-18"]


@pytest.mark.parametrize("command", ["simulate", "exact"])
@pytest.mark.parametrize("t_end", ["-1", "-1e3", "-inf"])
def test_negative_end_time_reaches_the_cli_check(tmp_path, capsys, command, t_end):
    # argparse on its own reads -1e3 and -inf as options, not as values
    out = tmp_path / "x.csv"
    assert main([command, "--n", "3", "--gamma", "0.5", "--t-end", t_end,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --t-end must be nonnegative\n"
    assert list(tmp_path.iterdir()) == []


def test_exact_rejects_oversized_chain(capsys):
    assert main(["exact", "--n", "15", "--gamma", "0.5"]) == 2
    assert main(["exact", "--n", "0", "--gamma", "0.5"]) == 2
    assert "error: a generator needs at least one cell" in capsys.readouterr().err


@pytest.fixture(scope="module")
def verify_results():
    """One `verify --fast` run with the negative control appended; the run
    without it is the same list less its last row."""
    return run_verify(seed=0, fast=True, inject_gamma_error=True)


def _stub_run_verify(monkeypatch, results, inject):
    """Feed the shared results to `main`, checking what it asks for."""
    def stub(seed, fast, inject_gamma_error):
        assert (seed, fast, inject_gamma_error) == (0, True, inject)
        assert results[-1].name == "detailed_balance_injected"
        return results if inject else results[:-1]
    monkeypatch.setattr(cli, "run_verify", stub)


def test_verify_report_and_exit_status(tmp_path, monkeypatch, verify_results):
    _stub_run_verify(monkeypatch, verify_results, inject=False)
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


def test_verify_negative_control(tmp_path, monkeypatch, verify_results):
    _stub_run_verify(monkeypatch, verify_results, inject=True)
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
    # erasing 10^15 bits at 300 K in SI units is one thermo row
    out = tmp_path / "p.csv"
    assert main(["thermo", "--n", "1000000000000000", "--coupling", "0",
                 "--temperature", "300", "--boltzmann", "1.380649e-23",
                 "--out", str(out)]) == 0
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
    assert main(["sweep", "--sweep-n", "1:2"]) == 2


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


@pytest.mark.parametrize("value, tokens", [("true", ["--fast"]), ("false", [])])
def test_config_file_switches(tmp_path, value, tokens):
    # a true value becomes the bare flag and a false one is left out, so
    # `verify` is parsed here without being run
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"fast = {value}\n")
    for config in (["--config", str(cfg)], [f"--config={cfg}"]):
        argv = cli._apply_config_file(["verify", *config])
        assert argv == ["verify", *tokens, *config]
        assert cli.build_parser().parse_args(argv).fast is bool(tokens)


def test_config_file_errors(tmp_path):
    assert main(["simulate", "--n", "2", "--gamma", "0", "--config",
                 str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a token\n")
    assert main(["simulate", "--n", "2", "--gamma", "0", "--config", str(bad)]) == 2


def test_unknown_init_rejected():
    assert main(["simulate", "--n", "3", "--gamma", "0", "--init", "sideways"]) == 2


@pytest.mark.parametrize("extra", [["--trajectories", "0"], ["--trajectories", "3"],
                                   ["--trajectories", "3", "--workers", "2"]])
@pytest.mark.parametrize("init, message", [
    ("sideways", "error: unknown --init 'sideways'\n"),
    ("index:8", "error: --init 'index:8': index 8 out of range for 3 cells\n"),
])
def test_simulate_rejects_bad_start_before_sampling(tmp_path, capsys, monkeypatch,
                                                    extra, init, message):
    # the start is read once, before any stream is spawned or worker started;
    # with no trajectories it was never read and the run exited 0
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _never)
    monkeypatch.setattr(cli, "TuringVoter", _never)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--n", "3", "--gamma", "0.5", "--init", init,
                 "--out", str(out), *extra]) == 2
    assert capsys.readouterr().err == message
    assert list(tmp_path.iterdir()) == []


def test_stdout_output(capsys):
    assert main(["thermo", "--n", "1", "--coupling", "2", "--temperature", "1",
                 "--out", "-"]) == 0
    captured = capsys.readouterr().out
    assert "N,J,T,k,gamma,F,U,S,landauer_floor,gap" in captured
    row = [line for line in captured.splitlines() if line.startswith("1,")][0]
    assert float(row.split(",")[7]) == pytest.approx(math.log(2), rel=1e-8)
