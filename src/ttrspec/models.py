"""Model catalog: concrete recurrences and closed-form reference levels.

Each constructor returns an immutable Recurrence whose energy_shift
records the model's x <-> E/omega convention, so downstream code never
hard-codes it.  The parameter records hold only the dimensionless
coupling kappa = lambda/omega and level splitting delta = mu/omega
(plus the gen-rabi bias theta): omega is the unit of energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CoefficientPoleError
from .recurrence import AsymptoticProfile, Recurrence, pencil_recurrence

PARITY_PLUS = "plus"
PARITY_MINUS = "minus"

#: models for which recurrence coefficients are available (F-based scans)
RECURRENCE_MODELS = ("dho", "rabi", "rabi-parity")
#: models exposed through the diagonalization oracle only
ORACLE_ONLY_MODELS = ("jc", "gen-rabi", "rabi-modified")


def _check_coupling(kappa: float, delta: float = 0.0) -> None:
    if not (math.isfinite(kappa) and math.isfinite(delta)):
        raise ValueError("kappa and delta must be finite")
    if kappa == 0:
        raise ValueError("kappa must be nonzero")


@dataclass(frozen=True)
class DhoParams:
    """Displaced harmonic oscillator: coupling kappa."""

    kappa: float

    def __post_init__(self):
        _check_coupling(self.kappa)


@dataclass(frozen=True)
class RabiParams:
    """Rabi model: ``rabi``, ``rabi-parity`` and ``rabi-modified``."""

    kappa: float
    delta: float = 0.0

    def __post_init__(self):
        _check_coupling(self.kappa, self.delta)


@dataclass(frozen=True)
class GenRabiParams:
    """Deformed Rabi model (single-mode spin-boson form), oracle only."""

    kappa: float
    delta: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        _check_coupling(self.kappa, self.delta)


@dataclass(frozen=True)
class JcParams:
    """Rotating-wave model: coupling kappa (0 allowed), splitting delta."""

    kappa: float
    delta: float


def dho_recurrence(p: DhoParams) -> Recurrence:
    """c_{n+1} + (n - x)/((n+1) kappa) c_n + 1/(n+1) c_{n-1} = 0, x = E/omega."""
    # (n - x) + 0.0 is n - x and kappa (n+1) is (n+1) kappa, bit for bit
    return pencil_recurrence(p.kappa, (0.0, 0.0), "dho")


def dho_exact_levels(p: DhoParams, l_max: int) -> list[float]:
    """Exact levels E_l/omega = l - kappa**2 for l = 0..l_max."""
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    k2 = p.kappa * p.kappa
    return [l - k2 for l in range(l_max + 1)]


def rabi_displaced_recurrence(p: RabiParams) -> Recurrence:
    """Rabi recurrence in the displaced-oscillator frame.

    c_{n+1} - f_n(x)/(n+1) c_n + 1/(n+1) c_{n-1} = 0 with
    f_n(x) = 2 kappa + (n - x - delta**2/(n - x)) / (2 kappa); the
    energy variable is shifted, x = E/omega + kappa**2.  For delta != 0
    the coefficients are singular at every nonnegative integer x.  The
    coefficients are not a linear pencil in x, so the levels are counted
    through the two parity sectors at every delta; at delta = 0 the
    sectors coincide, and each zero of the recurrence is a degenerate
    pair of levels.
    """
    kappa, delta = p.kappa, p.delta
    d2 = delta * delta
    two_kappa = 2.0 * kappa

    if delta == 0.0:
        def a(n: int, x: float) -> float:
            return -(two_kappa + (n - x) / two_kappa) / (n + 1)
    else:
        def a(n: int, x: float) -> float:
            gap = n - x
            if gap == 0.0:
                raise CoefficientPoleError(
                    f"coefficient pole at level {n}: x = {n}")
            return -(two_kappa + (gap - d2 / gap) / two_kappa) / (n + 1)

    def b(n: int, x: float) -> float:
        return 1.0 / (n + 1)

    def poles(x_lo: float, x_hi: float) -> list[float]:
        # half-open [x_lo, x_hi); delta = 0 kills the singular factor
        if delta == 0.0:
            return []
        n0 = max(0, math.ceil(x_lo))
        n1 = math.ceil(x_hi) - 1
        return [float(n) for n in range(n0, n1 + 1)]

    sectors = tuple(parity_rabi_recurrence(p, parity)
                    for parity in (PARITY_PLUS, PARITY_MINUS))
    profile = AsymptoticProfile(delta=0.0, upsilon=-1.0,
                                a_coef=-1.0 / (2.0 * kappa), b_coef=1.0)
    return Recurrence(a=a, b=b, profile=profile, explicit_poles=poles,
                      energy_shift=kappa * kappa, label="rabi", sectors=sectors)


def parity_rabi_recurrence(p: RabiParams, parity: str) -> Recurrence:
    """Parity-resolved Rabi recurrence of sector ``parity``, x = E/omega.

    c_{n+1} + [n - x +/- (-1)**n delta]/(kappa (n+1)) c_n
            + 1/(n+1) c_{n-1} = 0,

    the two signs giving the even and odd sectors of the reflection
    symmetry; at delta = 0 both reduce to the displaced-oscillator
    recurrence.
    """
    if parity not in (PARITY_PLUS, PARITY_MINUS):
        raise ValueError("parity must be 'plus' or 'minus'")
    s = 1.0 if parity == PARITY_PLUS else -1.0
    # (+-delta, -+delta) at even and odd n; exact for s = +-1
    return pencil_recurrence(p.kappa, (s * p.delta, -s * p.delta),
                             f"rabi-parity-{parity}")


def jc_exact_levels(p: JcParams, n_max: int) -> list[float]:
    """Dressed-state levels E/omega, sorted ascending.

    The uncoupled level -delta plus, for n = 0..n_max, the pair
    n + 1/2 +/- sqrt((delta - 1/2)**2 + kappa**2 (n+1)).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    levels = [-p.delta]
    for n in range(n_max + 1):
        mid = n + 0.5
        split = math.sqrt((p.delta - 0.5) ** 2 + p.kappa * p.kappa * (n + 1))
        levels.append(mid + split)
        levels.append(mid - split)
    return sorted(levels)


def bessel_fixture(x: float) -> Recurrence:
    """Bessel-function recurrence with a_n = -2n/x, b_n = 1.

    The minimal solution is proportional to J_n(x); the fixture
    demonstrates how upward iteration drifts onto the dominant branch.
    The coefficient functions ignore the scan variable (a_0 = 0, so the
    characteristic value equals r_0 = J_1(x)/J_0(x)).
    """
    if x == 0:
        raise ValueError("x must be nonzero")

    def a(n: int, _xe: float) -> float:
        return -2.0 * n / x

    def b(n: int, _xe: float) -> float:
        return 1.0

    profile = AsymptoticProfile(delta=1.0, upsilon=0.0,
                                a_coef=-2.0 / x, b_coef=1.0)
    return Recurrence(a=a, b=b, profile=profile, label="bessel")


def recurrences_for(model: str, params, parity: str = "both"):
    """Recurrence branches (rec, parity_label) for an F-based model tag.

    ``parity`` selects the sectors of ``rabi-parity`` and must be
    'plus', 'minus' or 'both' for every model.
    """
    if parity not in (PARITY_PLUS, PARITY_MINUS, "both"):
        raise ValueError("parity must be 'plus', 'minus' or 'both'")
    if model == "dho":
        return [(dho_recurrence(params), None)]
    if model == "rabi":
        return [(rabi_displaced_recurrence(params), None)]
    if model == "rabi-parity":
        return [(parity_rabi_recurrence(params, sector), label)
                for sector, label in ((PARITY_PLUS, 1), (PARITY_MINUS, -1))
                if parity in (sector, "both")]
    raise ValueError(
        f"model '{model}' does not define recurrence coefficients; "
        "only the diagonalization oracle applies")
