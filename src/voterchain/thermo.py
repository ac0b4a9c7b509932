"""Closed-form and brute-force thermodynamics of the two-symbol chain.

Open-chain closed forms (coupling J, temperature T, Boltzmann constant k,
x = J/(kT), zero field):

    Z = 2^N cosh^{N-1}(x)
    F = -N k T [ln 2 + ((N-1)/N) ln cosh(x)]
    S = N k ln 2 + (N-1) k ln cosh(x) + (N-1) (J/T) tanh(x)

S as defined here never drops below the per-cell information floor
N k ln 2; the gap (N-1)[k ln cosh(x) + (J/T) tanh(x)] is a sum of two
nonnegative terms, zero exactly when N = 1 or J = 0.  Note this sign
convention makes S differ from the calorimetric -dF/dT (and from the
Shannon entropy of the Gibbs distribution) by 2 (N-1) (J/T) tanh(x);
gibbs_entropy() provides the calorimetric form.  No single function can
meet both: the Shannon entropy of any law on 2^N states is at most
N k ln 2.  The verify checks hold entropy() to the floor
(landauer_bound, landauer_equality, n1_equality) and gibbs_entropy() to
enumeration and -dF/dT (closedform_entropy, entropy_derivative);
closedform_entropy also pins the offset between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Boundary, _beta_j, _kt, state_energies

LN2 = math.log(2.0)

SI_BOLTZMANN = 1.380649e-23  # J/K, exact since the 2019 SI

BRUTE_FORCE_SITE_CAP = 16


def _log_cosh(x: float) -> float:
    # overflow-safe ln cosh
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - LN2


def _x(n: int, coupling: float, temperature: float, boltzmann: float) -> float:
    """x = J/(kT) at a point of the closed forms, which need one cell at least."""
    if not n >= 1:
        raise ValueError(f"need at least one cell, got n={n}")
    return _beta_j(coupling, temperature, boltzmann)


def free_energy(n: int, coupling: float, temperature: float, boltzmann: float = 1.0) -> float:
    """Open-chain equilibrium free energy -kT [N ln2 + (N-1) ln cosh(J/kT)],
    with kT |x| written as |J|, so F reaches its limit -(N-1)|J| as T -> 0.
    One cell has no bond, so its F is -kT ln2 even where the bond term
    overflows."""
    x = _x(n, coupling, temperature, boltzmann)
    kt = boltzmann * temperature
    if n == 1:
        return -kt * LN2
    bond = abs(coupling) + kt * math.log1p(math.exp(-2.0 * abs(x))) - kt * LN2
    return -(n * kt * LN2 + (n - 1) * bond)


def entropy(n: int, coupling: float, temperature: float, boltzmann: float = 1.0) -> float:
    """Closed-form chain entropy N k ln2 + (N-1) k ln cosh(x) + (N-1)(J/T) tanh(x).

    Always >= n k ln2 (see module docstring for the sign convention).
    """
    return n * boltzmann * LN2 + landauer_gap(n, coupling, temperature, boltzmann)


def gibbs_entropy(n: int, coupling: float, temperature: float, boltzmann: float = 1.0) -> float:
    """Calorimetric entropy -dF/dT of the open chain.

    Equals the Shannon entropy -k sum p ln p of the Gibbs distribution
    (gibbs_brute_force confirms); differs from entropy() in the sign of
    the exchange term.  Each bond's k [ln cosh x - x tanh x] is written as
    k [ln(1 + u) - ln2 + 2|x| u/(1 + u)], u = e^{-2|x|}, which does not cancel
    terms of size |x| and is exactly -k ln2 at |x| = inf."""
    x = _x(n, coupling, temperature, boltzmann)
    u = math.exp(-2.0 * abs(x))
    bond = math.log1p(u) - LN2 + (2.0 * abs(x) * u / (1.0 + u) if u else 0.0)
    return n * boltzmann * LN2 + (n - 1) * boltzmann * bond


def landauer_floor(n: int, boltzmann: float = 1.0) -> float:
    """Information floor n k ln2 for n two-symbol cells."""
    if not n >= 0:
        raise ValueError("cell count must be nonnegative")
    _kt(1.0, boltzmann)  # k positive and finite
    return n * boltzmann * LN2


def landauer_gap(n: int, coupling: float, temperature: float, boltzmann: float = 1.0) -> float:
    """entropy() minus the floor n k ln2.

    Computed directly as (N-1)[k ln cosh(x) + (J/T) tanh(x)], a sum of two
    nonnegative terms, so the result is >= 0 in exact and floating-point
    arithmetic alike; zero exactly when n = 1 or J = 0.  One cell has no
    bond, so its gap is 0 even where the bond term overflows.
    """
    x = _x(n, coupling, temperature, boltzmann)
    if n == 1:
        return 0.0
    exchange = (coupling / temperature) * math.tanh(x)
    return (n - 1) * (boltzmann * _log_cosh(x) + exchange)


def erasure_energy(n_bits: float, temperature: float, boltzmann: float = 1.0) -> float:
    """Minimum energy n k T ln2 to erase n_bits two-symbol cells at temperature T."""
    if not n_bits >= 0:
        raise ValueError("bit count must be nonnegative")
    _kt(temperature, boltzmann)
    return n_bits * boltzmann * temperature * LN2


@dataclass(frozen=True)
class GibbsSummary:
    """Enumerated equilibrium quantities: ln Z, F = -kT ln Z, U = <H>, S = -k sum p ln p.

    ln Z rather than Z, which overflows a float where F, U and S do not.
    """

    log_partition_function: float
    free_energy: float
    internal_energy: float
    entropy: float


def _gibbs_weights(n: int, coupling: float, temperature: float, boltzmann: float,
                   boundary: Boundary) -> tuple[float, np.ndarray, float, np.ndarray, np.ndarray]:
    """kT, the 2^n energies, their minimum, the excitations (E - E_min)/kT
    (inf where kT cannot resolve them) and the weights e^{-(E - E_min)/kT}, largest 1."""
    _x(n, coupling, temperature, boltzmann)  # rejects the point before any enumeration
    if n > BRUTE_FORCE_SITE_CAP:
        raise ValueError(f"enumeration capped at n={BRUTE_FORCE_SITE_CAP}, got {n}")
    kt = boltzmann * temperature
    energies = state_energies(n, coupling, boundary)
    e_min = float(energies.min())
    with np.errstate(over="ignore"):
        excess = (energies - e_min) / kt
    return kt, energies, e_min, excess, np.exp(-excess)


def gibbs_brute_force(n: int, coupling: float, temperature: float, boltzmann: float = 1.0,
                      boundary: Boundary = Boundary.OPEN) -> GibbsSummary:
    """Exact enumeration over all 2^n configurations (n <= 16).

    Satisfies F = U - T S up to roundoff by construction.
    """
    kt, energies, e_min, excess, weights = _gibbs_weights(n, coupling, temperature, boltzmann,
                                                          boundary)
    z_shifted = weights.sum()
    p = weights / z_shifted
    # -k sum p ln p over the cells with p > 0, with ln p = -excess - ln z_shifted
    s = boltzmann * float(p @ np.where(p > 0, excess, 0.0)) + boltzmann * math.log(z_shifted)
    return GibbsSummary(
        log_partition_function=math.log(z_shifted) - e_min / kt,
        free_energy=e_min - kt * math.log(z_shifted),
        internal_energy=float(p @ energies),
        entropy=s,
    )


def gibbs_probabilities(n: int, coupling: float, temperature: float, boltzmann: float = 1.0,
                        *, boundary: Boundary) -> np.ndarray:
    """Gibbs distribution e^{-beta H}/Z over all 2^n configurations, index
    order.  The boundary is a required keyword: `ModelParams` defaults to a
    ring, so no default here could match every caller's chain."""
    weights = _gibbs_weights(n, coupling, temperature, boltzmann, boundary)[-1]
    return weights / weights.sum()


@dataclass(frozen=True)
class ThermoReport:
    """Closed-form bundle for one (n, J, T, k) point.

    internal_energy is defined through F = U - T S, i.e.
    U = (N-1) J tanh(J/kT) under the entropy sign convention above.
    """

    free_energy: float
    internal_energy: float
    entropy: float
    landauer_floor: float
    gap: float


def thermo_report(n: int, coupling: float, temperature: float, boltzmann: float = 1.0) -> ThermoReport:
    """Evaluate the closed forms at one parameter point."""
    f = free_energy(n, coupling, temperature, boltzmann)
    s = entropy(n, coupling, temperature, boltzmann)
    # one cell has no bond, so U = 0 even at an infinite J
    x = _x(n, coupling, temperature, boltzmann)
    u = 0.0 if n == 1 else (n - 1) * coupling * math.tanh(x)
    return ThermoReport(
        free_energy=f,
        internal_energy=u,
        entropy=s,
        landauer_floor=landauer_floor(n, boltzmann),
        gap=landauer_gap(n, coupling, temperature, boltzmann),
    )
