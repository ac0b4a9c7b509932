"""Command-line harness: thermodynamic tables, tape-machine simulation,
exact distribution evolution, the verification suite, and parameter sweeps.

`thermo` and `sweep` print the open-chain closed forms, so they take the
physical triple and no boundary.  `simulate` and `exact` take either
--gamma or the triple --coupling/--temperature/--boltzmann, with a boundary.
The Boltzmann constant k is --boltzmann when given and 1 otherwise.

Output is CSV with `#` comment lines recording the artifact version, the
resolved configuration, and the seed; identical configurations give
byte-identical files whether trajectories run serially or across workers.
Numbers are written with 9 significant digits unless --digits says otherwise.
A plain key=value file passed as --config supplies defaults; explicit flags
override it.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .core import Boundary, ModelParams, SpinTape, decode_state, encode_state, magnetization_vector
from .dynamics import (_check_exact_size, _stepped, build_generator, point_mass,
                       uniform_distribution)
from .thermo import thermo_report
from .verify import run_verify
from .voter import Outcome, TuringVoter

_HEADER_SKIP = {"func", "command", "config", "out", "events", "seed", "workers"}


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _config_line(args: argparse.Namespace) -> str:
    parts = []
    for key in sorted(vars(args)):
        if key in _HEADER_SKIP:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        parts.append(f"{key.replace('_', '-')}={value}")
    return " ".join(parts)


def _header(args: argparse.Namespace) -> list[str]:
    return [
        f"# voterchain {__version__}",
        f"# command: {args.command}",
        f"# config: {_config_line(args)}",
        f"# seed: {getattr(args, 'seed', 0)}",
    ]


def _write_text(path: str, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _resolve_params(args: argparse.Namespace) -> ModelParams:
    boundary = Boundary(args.boundary)
    triple = any(v is not None for v in (args.coupling, args.temperature, args.boltzmann))
    if args.gamma is not None and triple:
        raise ValueError("give either --gamma or --coupling/--temperature/--boltzmann, not both")
    if args.gamma is not None:
        return ModelParams.from_gamma(args.gamma, boundary=boundary)
    if args.coupling is None or args.temperature is None:
        raise ValueError("need --gamma, or both --coupling and --temperature")
    k = 1.0 if args.boltzmann is None else args.boltzmann
    return ModelParams.from_physical(args.coupling, args.temperature, k, boundary=boundary)


def _initial_tape(spec: str, n: int, boundary: Boundary) -> SpinTape:
    if spec == "all-up":
        return SpinTape.uniform(n, +1, boundary)
    if spec == "all-down":
        return SpinTape.uniform(n, -1, boundary)
    if spec == "alternating":
        return SpinTape.alternating(n, boundary)
    if spec == "random":
        raise ValueError("a random initial tape needs a sampling stream")
    if spec.startswith("index:"):
        try:
            return decode_state(int(spec.split(":", 1)[1]), n, boundary)
        except ValueError as exc:
            raise ValueError(f"--init {spec!r}: {exc}") from exc
    raise ValueError(f"unknown --init {spec!r}")


def _thermo_row(n: int, coupling: float, temperature: float, k: float, digits: int) -> str:
    rep = thermo_report(n, coupling, temperature, k)
    gamma = ModelParams.from_physical(coupling, temperature, k).gamma
    fields = [str(n)] + [
        _fmt(v, digits)
        for v in (coupling, temperature, k, gamma, rep.free_energy, rep.internal_energy,
                  rep.entropy, rep.landauer_floor, rep.gap)
    ]
    return ",".join(fields)


THERMO_COLUMNS = "N,J,T,k,gamma,F,U,S,landauer_floor,gap"


def cmd_thermo(args: argparse.Namespace) -> int:
    if args.coupling is None or args.temperature is None:
        raise ValueError("need both --coupling and --temperature")
    k = 1.0 if args.boltzmann is None else args.boltzmann
    lines = _header(args) + [THERMO_COLUMNS,
                             _thermo_row(args.n, args.coupling, args.temperature, k, args.digits)]
    _write_text(args.out, lines)
    return 0


def _run_trajectory(payload) -> tuple[int, Outcome]:
    """One seeded run: the start tape's symbol sum and the outcome, whose
    flip records are kept only for an event log."""
    start, n, params, max_steps, child, want_events = payload
    rng = np.random.default_rng(child)
    tape = SpinTape.random(n, rng, params.boundary) if start == "random" else start
    outcome = TuringVoter(tape, params, rng).run_until_halt(max_steps)
    if not want_events:
        # a fresh array, not a slice, so the record's buffer is freed here
        outcome = dataclasses.replace(outcome, flips=np.empty((0, 3), dtype=np.int64))
    return sum(tape.symbols), outcome


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    n = args.n
    if args.max_steps is not None:
        max_steps = args.max_steps
    elif args.t_end is not None:
        max_steps = math.ceil(args.t_end * n)
    else:
        max_steps = 10_000
    if max_steps < 0:
        raise ValueError("--max-steps must be nonnegative")
    if args.trajectories < 0:
        raise ValueError("--trajectories must be nonnegative")
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    if n < 1:
        raise ValueError("--n must be at least 1")
    # read once, before any stream or worker exists
    start = "random" if args.init == "random" else _initial_tape(args.init, n, params.boundary)
    want_events = args.events is not None
    children = np.random.SeedSequence(args.seed).spawn(args.trajectories)
    payloads = [(start, n, params, max_steps, child, want_events) for child in children]
    if args.workers > 1 and payloads:
        chunk = max(1, len(payloads) // (args.workers * 8))
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_run_trajectory, payloads, chunksize=chunk))
    else:
        results = [_run_trajectory(p) for p in payloads]
    d = args.digits
    lines = _header(args) + ["trajectory_id,halted,consensus_symbol,steps,final_magnetization"]
    for i, (_, out) in enumerate(results):
        sym = "" if out.consensus_symbol is None else str(out.consensus_symbol)
        final_m = sum(out.final_tape.symbols) / n
        lines.append(f"{i},{'true' if out.halted else 'false'},{sym},{out.steps},{_fmt(final_m, d)}")
    _write_text(args.out, lines)
    if want_events:
        # event time is step / N; the magnetization is carried from the start tape
        ev_lines = _header(args) + ["time,site,new_symbol,magnetization"]
        for i, (msum, out) in enumerate(results):
            ev_lines.append(f"# trajectory {i}")
            # one list per column: three objects instead of one per flip
            for step, site, sym in zip(*out.flips.T.tolist()):
                msum += 2 * sym
                ev_lines.append(f"{_fmt(step / n, d)},{site},{sym},{_fmt(msum / n, d)}")
        _write_text(args.events, ev_lines)
    return 0


def _summary_path(out: str) -> str:
    if out == "-":
        return "-"
    if out.endswith(".csv"):
        return out[:-4] + ".summary.csv"
    return out + ".summary"


def cmd_exact(args: argparse.Namespace) -> int:
    if args.t_steps < 1:
        raise ValueError("--t-steps must be at least 1")
    params = _resolve_params(args)
    n = args.n
    # the size and the start are checked before anything of size 2^n is built
    _check_exact_size(n)
    if args.init == "uniform":
        p0 = uniform_distribution(n)
    else:
        p0 = point_mass(encode_state(_initial_tape(args.init, n, params.boundary)), n)
    gen = build_generator(n, params)
    times = np.linspace(0.0, args.t_end, args.t_steps + 1)
    m = magnetization_vector(n)
    d = args.digits
    # one template per time block, filled with (time, probability) per state
    block = "\n".join(f"%s,{idx},%.{d}g" for idx in range(2**n))
    dist_lines = _header(args) + ["time,state_index,probability"]
    summary_lines = _header(args) + ["time,mean_magnetization"]
    for t, p in zip(times, _stepped(p0, gen, times)):
        fields = [_fmt(t, d), 0.0] * 2**n
        fields[1::2] = p.tolist()
        dist_lines.append(block % tuple(fields))
        summary_lines.append(f"{_fmt(t, d)},{_fmt(float(m @ p), d)}")
    _write_text(args.out, dist_lines)
    summary_out = _summary_path(args.out)
    _write_text(summary_out, summary_lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verify(seed=args.seed, fast=args.fast,
                         inject_gamma_error=args.inject_gamma_error)
    d = args.digits
    lines = _header(args) + ["name,status,residual,tolerance"]
    for r in results:
        lines.append(f"{r.name},{r.status},{_fmt(r.residual, d)},{_fmt(r.tolerance, d)}")
    for r in results:
        if r.detail:
            lines.append(f"# note {r.name}: {r.detail}")
    _write_text(args.out, lines)
    return 0 if all(r.passed for r in results) else 1


def _parse_n_range(text: str) -> range:
    try:
        a, b = (int(part) for part in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"--sweep-n expects a:b, got {text!r}") from exc
    if b < a or a < 1:
        raise ValueError(f"empty or invalid size range {text!r}")
    return range(a, b + 1)


def _parse_betaj_range(text: str) -> np.ndarray:
    try:
        a, b, steps = text.split(":")
        lo, hi, count = float(a), float(b), int(steps)
    except ValueError as exc:
        raise ValueError(f"--sweep-betaj expects a:b:steps, got {text!r}") from exc
    if count < 1:
        raise ValueError("--sweep-betaj needs at least one point")
    return np.linspace(lo, hi, count)


def cmd_sweep(args: argparse.Namespace) -> int:
    if not args.sweep_n or not args.sweep_betaj:
        raise ValueError("sweep needs --sweep-n and --sweep-betaj")
    lines = _header(args) + [THERMO_COLUMNS]
    temperature = 1.0 if args.temperature is None else args.temperature
    k = 1.0 if args.boltzmann is None else args.boltzmann
    for n in _parse_n_range(args.sweep_n):
        for x in _parse_betaj_range(args.sweep_betaj):
            lines.append(_thermo_row(n, float(x) * k * temperature, temperature, k, args.digits))
    _write_text(args.out, lines)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value file supplying flag defaults")
    sub.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    sub.add_argument("--digits", type=int, default=9, help="significant digits in output")


def _add_seed(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="master seed, recorded in headers")


def _add_physical(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="number of cells")
    sub.add_argument("--coupling", type=float, help="bond energy J")
    sub.add_argument("--temperature", type=float, help="temperature T")
    sub.add_argument("--boltzmann", type=float, help="Boltzmann constant k (default 1)")


def _add_model(sub: argparse.ArgumentParser) -> None:
    _add_physical(sub)
    sub.add_argument("--gamma", type=float, help="flip-rate bias in [-1, 1]")
    sub.add_argument("--boundary", choices=("periodic", "open"), default="periodic")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voterchain",
                                     description="Voter-style tape machine and spin-chain toolkit")
    parser.add_argument("--version", action="version", version=f"voterchain {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("thermo", help="one closed-form thermodynamics row (open chain)")
    _add_physical(p)
    _add_common(p)
    p.set_defaults(func=cmd_thermo)

    p = commands.add_parser("simulate", help="sample seeded machine trajectories")
    _add_model(p)
    _add_common(p)
    _add_seed(p)
    p.add_argument("--trajectories", type=int, default=1)
    p.add_argument("--t-end", type=float, help="machine-time budget (ceil(t*N) steps)")
    p.add_argument("--max-steps", type=int, help="explicit step budget (overrides --t-end)")
    p.add_argument("--init", default="all-up",
                   help="all-up | all-down | alternating | random | index:<int>")
    p.add_argument("--events", help="also write a per-flip event log to this path")
    p.add_argument("--workers", type=int, default=1,
                   help="process count; output bytes do not depend on it")
    p.set_defaults(func=cmd_simulate)

    p = commands.add_parser("exact", help="evolve the full distribution exactly")
    _add_model(p)
    _add_common(p)
    _add_seed(p)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--t-steps", type=int, default=10,
                   help="number of intervals on [0, t-end]")
    p.add_argument("--init", default="all-up",
                   help="all-up | all-down | alternating | uniform | index:<int>")
    p.set_defaults(func=cmd_exact)

    p = commands.add_parser("verify", help="run the verification suite")
    _add_common(p)
    _add_seed(p)
    p.add_argument("--fast", action="store_true", help="shrink sampled checks")
    p.add_argument("--inject-gamma-error", action="store_true",
                   help="append a negative control that must fail")
    p.set_defaults(func=cmd_verify)

    p = commands.add_parser("sweep", help="open-chain thermodynamics over a parameter grid")
    _add_common(p)
    p.add_argument("--sweep-n", help="cell-count range a:b (inclusive)")
    p.add_argument("--sweep-betaj", help="J/(kT) range a:b:steps")
    p.add_argument("--temperature", type=float, help="temperature for the grid (default 1)")
    p.add_argument("--boltzmann", type=float, help="Boltzmann constant k (default 1)")
    p.set_defaults(func=cmd_sweep)
    return parser


def _config_tokens(path: str) -> list[str]:
    tokens: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "yes", "on"):
                tokens.append(flag)
            elif value.lower() in ("false", "no", "off"):
                continue
            else:
                tokens.extend([flag, value])
    return tokens


def _apply_config_file(argv: list[str]) -> list[str]:
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None or not argv:
        return argv
    return [argv[0]] + _config_tokens(path) + argv[1:]


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join a negative value to the flag before it (`--t-end -1e3` becomes
    `--t-end=-1e3`): a token that is a negative number such as `-inf`, or
    starts with `-` and a digit or a point, such as the range `-3:3:61`.
    argparse takes these for options and fails with its own `expected one
    argument` before the value is checked."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1] and token.startswith("-")
                and (token[1:2] in tuple("0123456789.") or _is_number(token))):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_attach_negative_values(_apply_config_file(argv)))
        if args.digits < 0:
            raise ValueError("--digits must be nonnegative")
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed must be nonnegative")
        t_end = getattr(args, "t_end", None)
        if t_end is not None:
            if t_end < 0:
                raise ValueError("--t-end must be nonnegative")
            if not math.isfinite(t_end):
                raise ValueError("--t-end must be finite")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
