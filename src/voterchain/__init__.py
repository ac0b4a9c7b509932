"""Voter-style tape machine on a spin chain.

One flip rule drives everything: a cell copies the bias of its neighbors at
rate 1/2 [1 - (gamma/2) x_i (x_{i-1} + x_{i+1})], written once as the
per-site rate table that `dynamics.rates` reads.  The package provides the
discrete seeded machine (`voter`), the exact continuous-time evolution and
trajectory sampling over all 2^N configurations (`dynamics`), closed-form
and enumerated chain thermodynamics with the bit-erasure floor (`thermo`),
and a suite of named cross-checks between the routes (`verify`), all behind
a CSV command-line harness (`cli`).
"""

__version__ = "0.1.0"

from .core import (
    Boundary,
    ModelParams,
    SpinTape,
    decode_state,
    encode_state,
)
from .dynamics import (
    GeneratorMatrix,
    Trajectory,
    build_generator,
    evolve_exact,
    kmc_sample,
    rates,
    stationary_distributions,
)
from .thermo import (
    ThermoReport,
    entropy,
    erasure_energy,
    free_energy,
    gibbs_brute_force,
    landauer_floor,
    landauer_gap,
    thermo_report,
)
from .verify import CheckResult, run_verify
from .voter import Outcome, StepEvent, TuringVoter

__all__ = [
    "Boundary",
    "CheckResult",
    "GeneratorMatrix",
    "ModelParams",
    "Outcome",
    "SpinTape",
    "StepEvent",
    "ThermoReport",
    "Trajectory",
    "TuringVoter",
    "__version__",
    "build_generator",
    "decode_state",
    "encode_state",
    "entropy",
    "erasure_energy",
    "evolve_exact",
    "free_energy",
    "gibbs_brute_force",
    "kmc_sample",
    "landauer_floor",
    "landauer_gap",
    "rates",
    "run_verify",
    "stationary_distributions",
    "thermo_report",
]
