"""Three-term recurrences and their asymptotic classification.

A recurrence

    c_{n+1} + a(n, x) c_n + b(n, x) c_{n-1} = 0        (n >= 0, c_{-1} = 0)

with power-law coefficient growth a_n ~ a_coef * n**delta,
b_n ~ b_coef * n**upsilon possesses a dominant and a minimal solution.
The minimal one decays fastest (its successive ratios vanish like
-(b_coef/a_coef) * n**(delta - upsilon) in reciprocal) and is the only
one that generates normalizable states; it can be reached reliably only
by backward continued-fraction evaluation, never by upward iteration.

This module holds the recurrence container, the admissibility check on
the asymptotic profile, the exact count of levels below x from the
forward pivots, and the tail-ratio seed used to start backward
evaluation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

from .errors import NumericsError


def _no_poles(x_lo: float, x_hi: float) -> list[float]:
    return []


@dataclass(frozen=True)
class AsymptoticProfile:
    """Power-law growth exponents and leading coefficients.

    a(n, x) ~ a_coef * n**delta and b(n, x) ~ b_coef * n**upsilon as
    n -> infinity; tau = delta - upsilon controls the decay rate of the
    minimal solution.
    """

    delta: float
    upsilon: float
    a_coef: float
    b_coef: float

    @property
    def tau(self) -> float:
        return self.delta - self.upsilon


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the growth-ordering and normalizability checks."""

    two_delta_gt_upsilon: bool
    tau_ok: bool
    k: float
    bargmann_ok: bool
    notes: str


@dataclass(frozen=True)
class Recurrence:
    """Immutable three-term recurrence with its asymptotic profile.

    ``a`` and ``b`` map (n, x) to the coefficients at level n for energy
    parameter x; both must be pure functions of a float x.  ``b`` is only
    ever queried for n >= 1 and must be nonzero away from declared poles.
    ``explicit_poles`` lists the abscissas inside a window where some
    coefficient is singular (empty for most models).  ``energy_shift``
    records the map between the recurrence variable and physical energy:
    E/omega = x - energy_shift.

    ``levels_below`` assumes a pencil of the shipped orientation: a_n
    linear in x, with sign(profile.a_coef)*a_n decreasing in x, so that
    the count rises with x.  A recurrence that is not such a pencil
    declares ``sectors`` that are; coefficients that ignore x, or grow
    with it, give a count that is flat or falls, and ``scan`` rejects
    a falling count.

    ``a`` and ``b`` that are the methods of one ``Pencil`` (see
    ``pencil_recurrence``) are written out inline by the one loop of
    ``char_series`` and of the count; any others, from ``replace`` too, are called.
    """

    a: Callable[[int, float], float]
    b: Callable[[int, float], float]
    profile: AsymptoticProfile
    explicit_poles: Callable[[float, float], list[float]] = _no_poles
    energy_shift: float = 0.0
    label: str = ""
    #: recurrences whose levels, taken together, are this one's levels
    #: (for a model whose coefficients are not a linear pencil in x); a
    #: level of several sectors at once is counted once per sector
    sectors: tuple["Recurrence", ...] = ()
    #: the ``Pencil`` whose methods ``a`` and ``b`` are, if any; set from them
    pencil: Pencil | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        owner = getattr(self.a, "__self__", None)
        if not (isinstance(owner, Pencil) and getattr(self.b, "__self__", None) is owner):
            owner = None
        object.__setattr__(self, "pencil", owner)

    def levels_below(self, x: float) -> int:
        """Number of regular levels below x, counted exactly.

        The negative forward pivots of the recurrence, or, when
        ``sectors`` is set, the sum of the sectors' counts at the same
        energy.
        """
        if self.sectors:
            energy = self.energy_of(x)
            return sum(s.levels_below(s.x_of(energy)) for s in self.sectors)
        return _sturm_count(self, x)

    def energy_of(self, x: float) -> float:
        """Physical energy E/omega for recurrence variable x."""
        return x - self.energy_shift

    def x_of(self, energy: float) -> float:
        """Recurrence variable x for physical energy E/omega."""
        return energy + self.energy_shift


@dataclass(frozen=True, slots=True)
class Pencil:
    """a_n = (n - x + s_{n mod 2})/(kappa (n+1)), b_n = 1/(n+1), with
    ``shifts`` = (s_even, s_odd)."""

    kappa: float
    shifts: tuple[float, float]

    def a(self, n: int, x: float) -> float:
        return (n - x + self.shifts[n & 1]) / (self.kappa * (n + 1))

    def b(self, n: int, x: float) -> float:
        return 1.0 / (n + 1)


def pencil_recurrence(kappa: float, shifts: tuple[float, float],
                      label: str) -> Recurrence:
    """The recurrence with the coefficients of ``Pencil(kappa, shifts)``."""
    pencil = Pencil(kappa, shifts)
    profile = AsymptoticProfile(delta=0.0, upsilon=-1.0,
                                a_coef=1.0 / kappa, b_coef=1.0)
    return Recurrence(a=pencil.a, b=pencil.b, profile=profile, label=label)


def classify(profile: AsymptoticProfile) -> AdmissibilityReport:
    """Check whether a profile admits a normalizable minimal solution.

    The report is advisory: recurrences outside the admissible class can
    still be scanned (tau > 0 suffices to define the characteristic
    series away from its poles), so callers should warn, not fail.

    Raises ValueError if a_coef vanishes, since the growth ordering is
    then undefined.
    """
    if profile.a_coef == 0:
        raise ValueError("asymptotically degenerate leading coefficient")
    tau = profile.tau
    two_delta_gt_upsilon = 2.0 * profile.delta > profile.upsilon
    tau_ok = tau >= 0.5
    k = -profile.b_coef / profile.a_coef
    bargmann_ok = tau > 0.5 or (tau == 0.5 and abs(k) < 1.0)

    notes: list[str] = []
    if not two_delta_gt_upsilon:
        notes.append("2*delta <= upsilon: coefficient ratio b_n/a_n does not vanish")
    if not tau_ok:
        notes.append("tau < 1/2: minimal solution decays too slowly")
    if tau == 0.5:
        notes.append("tau == 1/2 boundary: sufficient bound |k| < 1 applied")
        if abs(k) >= 1.0:
            notes.append(f"|k| = {abs(k):g} >= 1")
    return AdmissibilityReport(
        two_delta_gt_upsilon=two_delta_gt_upsilon,
        tau_ok=tau_ok,
        k=k,
        bargmann_ok=bargmann_ok,
        notes="; ".join(notes) if notes else "ok",
    )


#: levels the count may walk before it must have settled (like the
#: ``_CF_MAX_DEPTH`` cap of ``ratio_cf``): a safety limit, not a tolerance
_MAX_LEVELS = 1 << 20


def _sturm_count(rec: Recurrence, x: float) -> int:
    """Number of levels below x: the negative forward pivots of the recurrence.

    The pivots p_0 = a_0, p_n = a_n - b_n/p_{n-1} are those of the LDL^T
    factorization of the truncated recurrence matrix.  When a_n is linear
    in x that matrix is a symmetric-definite pencil (row n scaled by a
    positive weight), so by Sylvester's law of inertia the pivots whose
    sign is opposite to that of ``profile.a_coef`` count its eigenvalues
    below x (the Sturm bisection of Barth, Martin & Wilkinson, Numer.
    Math. 9, 1967).  With sg = sign(a_coef), the count stops once
    sg*p_n >= sg*a_n/2 > 0, sg*a_{n+1} > 0 and the coupling ratio
    |b_{n+1}/(a_n a_{n+1})| is at most 1/4 and below its value at the
    previous level: while the ratio stays at most 1/4 every later pivot
    keeps at least half of its coefficient, so the sign cannot change
    again.  A zero pivot is taken as a positive one of rounding size.
    A ``pencil`` is evaluated inline, as in ``char_series``.

    Raises NumericsError on a non-finite pivot (for instance at a
    non-finite x) and when the count has not settled by ``_MAX_LEVELS``.
    """
    a, b, pencil = rec.a, rec.b, rec.pencil
    sg = 1.0 if rec.profile.a_coef > 0 else -1.0
    count = 0
    ratio_prev = 0.0  # no level before 0, so the count cannot stop there
    if pencil is not None:
        kappa, (s_even, s_odd) = pencil.kappa, pencil.shifts
        a_n = (0.0 - x + s_even) / kappa  # kappa * (0 + 1) is kappa
        lf, s_next, s_after = 1.0, s_odd, s_even  # the level of a_next, its shift
    else:
        a_n = a(0, x)
    p = a_n
    for n in range(_MAX_LEVELS):
        if p - p != 0.0:  # inf or nan, with no call
            raise NumericsError(f"non-finite pivot at level {n} (x = {x})")
        if p == 0.0:
            p = sg * sys.float_info.epsilon
        elif sg * p < 0.0:
            count += 1
        if pencil is not None:
            lf1 = lf + 1.0
            a_next = (lf - x + s_next) / (kappa * lf1)
            b_next = 1.0 / lf1
            s_next, s_after, lf = s_after, s_next, lf1
        else:
            a_next = a(n + 1, x)
            b_next = b(n + 1, x)
        prod = a_n * a_next
        ratio = b_next / prod if prod != 0.0 else math.inf
        if ratio < 0.0:
            ratio = -ratio
        if (ratio <= 0.25 and ratio < ratio_prev and sg * a_next > 0.0
                and sg * p >= 0.5 * sg * a_n > 0.0):
            return count
        ratio_prev = ratio
        p = a_next - b_next / p
        a_n = a_next
    raise NumericsError(f"level count did not settle by level {_MAX_LEVELS} (x = {x})")


def tail_ratio_estimate(rec: Recurrence, n: int, x: float) -> float:
    """Leading estimate -b(n+1, x)/a(n+1, x) of the minimal ratio m_{n+1}/m_n.

    Used to seed backward continued-fraction evaluation at depth n with a
    nonzero tail, which converges in fewer levels than a zero tail.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = rec.a(n + 1, x)
    if a == 0.0:
        raise NumericsError("tail seed undefined; increase n")
    return -rec.b(n + 1, x) / a


def upward_recursion(rec: Recurrence, x: float, c0: float, c1: float,
                     n_max: int) -> list[float]:
    """Iterate c_{n+1} = -(a_n c_n + b_n c_{n-1}) upward from (c0, c1).

    Returns [c_0, ..., c_{n_max}].  Stable only while the iterate stays on
    the dominant branch; rounding reintroduces the dominant solution when
    one tries to follow the minimal one this way.
    """
    out = [c0, c1]
    for n in range(1, n_max):
        out.append(-(rec.a(n, x) * out[n] + rec.b(n, x) * out[n - 1]))
    return out[: n_max + 1]
