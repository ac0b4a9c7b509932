"""Per-layer span tracer installed from outside the package.

`Tracer.install` replaces the public functions and methods of the layers
`core`, `dynamics`, `voter` and `thermo`, the entry point `cli.main`, and
numpy's `default_rng` and `SeedSequence.spawn` with wrappers that time each
call.  It patches every namespace the CLI and the workload code look the
names up in, so nested calls are traced too and no file of the package
changes.  A span's self time is its duration minus the durations of the
wrapped calls made inside it; `cli.main`'s self time is therefore parsing,
the halt loop in `_run_trajectory`, and CSV formatting and writing.

A few wrappers also read the returned value (flips, sampled events, the
generator's size and the exact layer's numerical slack).  That reading is
left out of every span's self time.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("core", "dynamics", "voter", "thermo")


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack = [0.0]  # per open span: time spent in wrapped children

    def wrap(self, name, fn, hook=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                children = stack.pop()
                stat[0] += 1
                stat[1] += end - start
                stat[2] += end - start - children
            if hook is not None:
                hook(self, result, args)
            stack[-1] += clock() - start
            return result

        return traced

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def extreme(self, name: str, value: float, pick=max) -> None:
        self.counters[name] = value if name not in self.counters else pick(self.counters[name], value)

    def report(self) -> dict:
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in self.spans.items() if c},
            "counters": dict(self.counters),
        }

    def reset(self) -> None:
        """Zero every span and counter, keeping the installed wrappers."""
        for stat in self.spans.values():
            stat[:] = [0, 0.0, 0.0]
        self.counters.clear()

    @classmethod
    def install(cls) -> Tracer:
        """Trace the already imported `voterchain` modules and numpy's seeding."""
        tracer = cls()
        namespaces = [sys.modules[f"voterchain.{m}"] for m in LAYERS + ("cli",)]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"voterchain.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    tracer._wrap_class(layer, obj)
                elif callable(obj):
                    replaced[id(obj)] = tracer.wrap(f"{layer}.{name}", obj, HOOKS.get(f"{layer}.{name}"))
        cli = sys.modules["voterchain.cli"]
        replaced[id(cli.main)] = tracer.wrap("cli.main", cli.main)
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                if id(obj) in replaced:
                    setattr(namespace, name, replaced[id(obj)])

        np.random.default_rng = tracer.wrap("rng.default_rng", np.random.default_rng)

        class SeedSequence(np.random.SeedSequence):
            spawn = tracer.wrap("rng.spawn", np.random.SeedSequence.spawn)

        np.random.SeedSequence = SeedSequence
        return tracer

    def _wrap_class(self, layer: str, klass: type) -> None:
        if issubclass(klass, enum.Enum):
            return
        for name, attr in list(vars(klass).items()):
            span = f"{layer}.{klass.__name__}.{name}"
            hook = HOOKS.get(span)
            if name == "__init__":
                # constructors count only where they run package code
                if not dataclasses.is_dataclass(klass) or "__post_init__" in vars(klass):
                    setattr(klass, name, self.wrap(f"{layer}.{klass.__name__}", attr))
            elif name.startswith("_"):
                continue
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(klass, name, type(attr)(self.wrap(span, attr.__func__, hook)))
            elif inspect.isfunction(attr):
                setattr(klass, name, self.wrap(span, attr, hook))


def _count_flip(tracer: Tracer, event, args) -> None:
    if event.flipped:
        tracer.add("voter.flips", 1)


def _exact_slack(tracer: Tracer, p, args) -> None:
    tracer.extreme("dynamics.evolve_exact.mass_drift", abs(float(p.sum()) - 1.0))
    tracer.extreme("dynamics.evolve_exact.min_prob", float(p.min()), min)


def _stationary_residual(tracer: Tracer, basis, args) -> None:
    gen = args[0]
    for p in basis:
        tracer.extreme("dynamics.stationary.residual", float(np.abs(gen.matrix @ p).max()))


def _generator_size(tracer: Tracer, gen, args) -> None:
    tracer.extreme("dynamics.generator.nnz", gen.matrix.nnz)


def _kmc_events(tracer: Tracer, trajectory, args) -> None:
    tracer.add("dynamics.kmc.events", len(trajectory.events))


HOOKS = {
    "voter.TuringVoter.step": _count_flip,
    "dynamics.evolve_exact": _exact_slack,
    "dynamics.stationary_distributions": _stationary_residual,
    "dynamics.build_generator": _generator_size,
    "dynamics.kmc_sample": _kmc_events,
}
