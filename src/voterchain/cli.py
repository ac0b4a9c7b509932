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
import math
import sys
from collections.abc import Callable, Iterable
from contextlib import nullcontext
from functools import cache
from operator import add

import numpy as np

from . import __version__
from .core import Boundary, ModelParams, SpinTape, decode_state, encode_state, magnetization_vector
from .dynamics import (_check_exact_size, _stepped, build_generator, point_mass,
                       uniform_distribution)
from .thermo import thermo_report
from .verify import run_verify
from .voter import Outcome, TuringVoter

_HEADER_SKIP = {"func", "command", "config", "out", "events", "seed", "workers"}

# the least value of each integer flag, checked by `main` before any command runs
_INT_FLOOR = {"digits": 0, "seed": 0, "n": 1, "trajectories": 0, "max_steps": 0,
              "workers": 1, "t_steps": 1}


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


# the most digits at which `_Rows` writes a value itself: at 12 its slack
# leaves about 0.2% of values to `%` as near-ties, and each further digit
# leaves ten times as many, until from 15 the slack passes half a unit
_CERTIFIED_DIGITS = 12


@cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Correctly rounded float(10^k) for k = 0..308; each group of three
    digits as four bytes, the second thousand with its trailing zeros
    dropped; and the exponent text `e-XX` of 10^-x at index x >= 5."""
    pow10 = np.array([float(10**k) for k in range(309)])
    pow10.setflags(write=False)  # shared by every caller, as the others are
    triples = [f"{i:03d}" for i in range(1000)]
    groups = _packed(triples + [t.rstrip("0") for t in triples], "<u4")
    tails = _packed([""] * 5 + [f"e-{x:02d}" for x in range(5, 309)], "<u8")
    return pow10, groups, tails


def _packed(texts: list[str], dtype: str) -> np.ndarray:
    """Each ASCII text NUL-padded to the width of `dtype` as one read-only
    element, so a gather of them writes their bytes."""
    width = np.dtype(dtype).itemsize
    return np.frombuffer(b"".join(t.encode().ljust(width, b"\0") for t in texts), dtype)


class _Rows:
    """`lead[i] + "%.{digits}g" % values[i]` for every i, joined by
    newlines, where `lead` is a uint8 matrix whose NUL bytes are dropped.

    Each row is laid out at a fixed width, NUL-padded, and one
    `translate` drops the pads.  A value whose `%g` text numpy can certify
    has its digits written here; every other value leaves the literal
    `%.{digits}g` in its row, and one `%` over the block fills those slots
    in order, so `%` (Gay's correctly rounded dtoa) decides every value
    that is not certified: zeros, 1.0, values at or past 1 or below
    10^(p - 309), negatives, non-finite values, near-ties, and every value
    when `digits` exceeds `_CERTIFIED_DIGITS`.

    A value 0 < x < 1 with p = max(digits, 1) significant digits is
    certified when y = x * float(10^k), with k = p - 1 - floor(log10 x) and
    10^k correctly rounded, lies farther than y 2^-50 from each edge of
    [10^(p-1), 10^p) and from each rounding boundary of rint(y).  The two
    roundings in y leave it within y (2u + u^2) / (1 - 2u - u^2) < y 2^-51
    of the exact x 10^k (u = 2^-53), and the checks themselves round by at
    most y u, so the exact mantissa then has k's exponent and rounds to
    rint(y) whatever the tie rule.  A mantissa that rounds to 10^p carries
    into the next decade.  The text is `0.` and up to three zeros before
    the digits when the rounded exponent is -1 to -4, and `d.ddde-XX`
    below, with trailing zeros dropped, as `%g` lays it out.
    """

    def __init__(self, digits: int) -> None:
        self._precision = max(digits, 1) if digits <= _CERTIFIED_DIGITS else None
        # the text before the first digit, by the negated exponent x of the
        # rounded value; x = 0 marks a `%` slot, the only head when no value
        # can be certified
        heads = [f"%.{digits}g"]
        if self._precision is None:
            head = f"S{len(heads[0])}"
        else:
            heads += ["0.", "0.0", "0.00", "0.000"] + [""] * 304
            head = "<u8"
        self._heads = _packed(heads, head)
        self._fields = [("head", head)]
        if self._precision is not None:
            self._groups = -(-(self._precision - 1) // 3)
            self._fields += [("first", "u1"), ("point", "u1"),
                             ("rest", "<u4", (self._groups,)), ("tail", "<u8")]

    def __call__(self, lead: np.ndarray, values: np.ndarray) -> str:
        rows = np.empty(values.size, [("newline", "u1"), ("lead", "u1", (lead.shape[1],)),
                                      *self._fields])
        rows["newline"] = 10
        rows["newline"][:1] = 0
        rows["lead"] = lead
        if self._precision is None:
            exponents = np.zeros(values.size, np.intp)
        else:
            exponents = self._write_digits(rows, values)
        rows["head"] = self._heads[exponents]
        text = rows.tobytes().translate(None, b"\0")
        return (text % tuple(values[exponents == 0].tolist())).decode("ascii")

    def _write_digits(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Write the digits and exponent of every certified value into its
        row and return the negated exponents of the rounded values, 0 for
        a value left to `%`."""
        pow10, groups, tails = _digit_tables()
        p = self._precision
        low, high = pow10[p - 1], pow10[p]
        with np.errstate(all="ignore"):
            shift = p - 1 - np.floor(np.log10(x))
            sure = (shift >= p) & (shift <= 308)
            shift = np.where(sure, shift, p).astype(np.intp)
            y = x * pow10[shift]
            mantissa = np.rint(y)
            slack = y * 2.0**-50
            sure &= ((y - slack >= low) & (y + slack < high)
                     & (np.abs(y - mantissa) + slack < 0.5))
        carry = mantissa == high
        # 0 where the value rounds to 1, whose text `%` writes
        exponents = np.where(sure, shift - (p - 1) - carry, 0)
        mantissa = np.where(exponents > 0, np.where(carry, low, mantissa), 0.0)
        # the first digit, then the others as groups of three, padded with
        # zeros to whole groups; every digit comes exactly from a double
        first = np.floor(mantissa / low)
        rest = (mantissa - first * low) * pow10[3 * self._groups - (p - 1)]
        rows["first"] = np.where(exponents > 0, first + 48, 0)
        rows["point"] = np.where((exponents >= 5) & (rest > 0), 46, 0)
        above = 0.0
        for j in range(self._groups):
            scale = pow10[3 * (self._groups - 1 - j)]
            upto = np.floor(rest / scale)
            # a group followed only by zeros drops its own trailing zeros
            rows["rest"][:, j] = groups[(upto - 1000 * above
                                         + 1000 * (upto * scale == rest)).astype(np.intp)]
            above = upto
        rows["tail"] = tails[exponents]
        return exponents


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


def _write_text(path: str, lines: Iterable[str]) -> None:
    """Write each line and its newline to `path`, or to stdout for "-", one
    line at a time, so no copy of the whole output is held beside the lines;
    lines given by an iterator are written as they are made."""
    with nullcontext(sys.stdout) if path == "-" else open(
            path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


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


class _Texts(dict):
    """Texts by key, each made by `make` the first time its key is read."""

    def __init__(self, make: Callable[[int], str]) -> None:
        super().__init__()
        self._make = make

    def __missing__(self, key: int) -> str:
        self[key] = text = self._make(key)
        return text


def _run_trajectory(payload) -> tuple[int, Outcome]:
    """One seeded run: the start tape's symbol sum and the outcome, whose
    flips are recorded only for an event log."""
    start, n, params, max_steps, child, want_events = payload
    rng = np.random.default_rng(child)
    tape = SpinTape.random(n, rng, params.boundary) if start == "random" else start
    outcome = TuringVoter(tape, params, rng).run_until_halt(max_steps, record_flips=want_events)
    return sum(tape.symbols), outcome


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    n = args.n
    if args.max_steps is not None:
        max_steps = args.max_steps
    elif args.t_end is not None:
        budget = args.t_end * n
        if not math.isfinite(budget):
            raise ValueError(f"--t-end too large: the step budget t_end * n = {args.t_end:g} * {n} "
                             "overflows")
        max_steps = math.ceil(budget)
    else:
        max_steps = 10_000
    # read once, before any stream or worker exists
    start = "random" if args.init == "random" else _initial_tape(args.init, n, params.boundary)
    want_events = args.events is not None
    children = np.random.SeedSequence(args.seed).spawn(args.trajectories)
    payloads = [(start, n, params, max_steps, child, want_events) for child in children]
    if args.workers > 1 and payloads:
        from concurrent.futures import ProcessPoolExecutor

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
        # a row formats only its time, with the `%g` of `_fmt`; its
        # `,site,symbol,` text, keyed by 2 site + (symbol > 0), and its
        # magnetization text, keyed by the symbol sum, are made the first
        # time each is needed, at most 2N and N + 1 of them
        number = f"%.{d}g"
        cells = _Texts(lambda key: f",{key >> 1},{1 if key & 1 else -1},")
        mags = _Texts(lambda msum: number % (msum / n))
        for i, (msum, out) in enumerate(results):
            ev_lines.append(f"# trajectory {i}")
            if not len(out.flips):
                continue
            steps, sites, syms = out.flips.T
            # whole columns at once: int64 step / N is the float that the
            # Python ints give, since both are exact in a double
            times = map(number.__mod__, (steps / n).tolist())
            texts = map(cells.__getitem__, (2 * sites + (syms > 0)).tolist())
            msums = map(mags.__getitem__, (msum + 2 * np.cumsum(syms)).tolist())
            # a trajectory's rows are written as one text
            ev_lines.append("\n".join(map(add, map(add, times, texts), msums)))
        _write_text(args.events, ev_lines)
    return 0


def _summary_path(out: str) -> str:
    if out == "-":
        return "-"
    if out.endswith(".csv"):
        return out[:-4] + ".summary.csv"
    return out + ".summary"


def cmd_exact(args: argparse.Namespace) -> int:
    """Write P(t) on the grid and its mean magnetization.  Every time's
    window is checked against the product cap before the first vector, so
    a refused --t-end writes no file and nothing on stdout; otherwise each
    time's block of 2^n rows is written as soon as it is formatted.  A
    block is one numpy pass of `_Rows` over P(t), whose text equals
    `%.{digits}g` of every probability byte for byte; one `%` over the
    block writes the probabilities the pass cannot certify, which at
    --digits above 12 are all of them."""
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
    try:
        vectors = _stepped(p0, gen, times)
    except ValueError as exc:  # a window past the product cap; nothing is written
        raise ValueError(f"--t-end {args.t_end:g} too large: {exc}") from exc
    del gen  # the walk holds only the kernel
    m = magnetization_vector(n)
    d = args.digits
    # each row leads with `time,index,`: the `,index,` bytes are made once,
    # NUL-padded to one width, and the time's bytes go before them per block
    index = np.arange(2**n)
    places = 10 ** np.arange(len(str(index[-1])) - 1, -1, -1)
    indices = np.full((index.size, places.size + 2), ord(","), np.uint8)
    indices[:, 1:-1] = np.where((index[:, None] >= places) | (places == 1),
                                48 + index[:, None] // places % 10, 0)
    rows = _Rows(d)
    summary_lines = _header(args) + ["time,mean_magnetization"]

    def dist_lines():
        yield from _header(args)
        yield "time,state_index,probability"
        for t, p in zip(times, vectors):
            time = _fmt(t, d)
            summary_lines.append(f"{time},{_fmt(float(m @ p), d)}")
            stamp = np.frombuffer(time.encode(), np.uint8)
            yield rows(np.hstack([np.broadcast_to(stamp, (index.size, stamp.size)), indices]), p)

    _write_text(args.out, dist_lines())
    _write_text(_summary_path(args.out), summary_lines)
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
    if not math.isfinite(hi - lo):  # NaN or infinite ends, or a span past float range
        raise ValueError(f"--sweep-betaj needs a finite range, got {text!r}")
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
    `--t-end=-1e3`): a token that starts with `-` and a digit or a point, or
    whose first `:` field is a negative number, such as `-inf` or the ranges
    `-3:3:61` and `-inf:0:2`.  argparse takes these for options and fails
    with its own `expected one argument` before the value is checked."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1] and token.startswith("-")
                and (token[1:2] in tuple("0123456789.") or _is_number(token.split(":")[0]))):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_attach_negative_values(_apply_config_file(argv)))
        for dest, least in _INT_FLOOR.items():
            value = getattr(args, dest, None)
            if value is not None and value < least:
                bound = "nonnegative" if least == 0 else f"at least {least}"
                raise ValueError(f"--{dest.replace('_', '-')} must be {bound}")
        t_end = getattr(args, "t_end", None)
        if t_end is not None:
            if t_end < 0:
                raise ValueError("--t-end must be nonnegative")
            if not math.isfinite(t_end):
                raise ValueError("--t-end must be finite")
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# `python -m voterchain.cli` runs the CLI as `python -m voterchain` does;
# guarded, so a worker process that re-imports the main module runs nothing
if __name__ == "__main__":
    sys.exit(main())
