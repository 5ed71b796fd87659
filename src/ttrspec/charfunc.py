"""Characteristic function of a three-term recurrence.

For n >= 1 the recurrence fixes the minimal-solution ratio
r_0 = m_1/m_0 unambiguously (backward continued fraction); the n = 0 row
demands c_1/c_0 = -a_0.  Both hold simultaneously only at eigenvalues,
so the zeros of

    char(x) = a_0(x) + r_0(x)

are the regular spectrum.  Two independent evaluation routes are
provided:

* ``char_series``: the continued fraction rewritten as an infinite
  series of products (Euler transform),

      char(x) = a_0 + sum_{k>=1} rho_1 rho_2 ... rho_k,
      rho_1 = -b_1/a_1,   u_1 = 1,
      u_l = 1 / (1 - u_{l-1} b_l / (a_l a_{l-1})),   rho_l = u_l - 1,

  whose k-th partial sum equals the k-th convergent of the fraction;

* ``ratio_cf``: one backward pass of the continued fraction for r_0,
  seeded with the asymptotic tail ratio at a depth the coefficients give.

``minimal_solution`` reconstructs m_0..m_N at an accepted root from the
same backward ratios.

``char_series`` writes out a recurrence's ``pencil`` while ``ratio_cf`` calls
its ``a`` and ``b``, so ``validate``'s series-vs-CF check also compares the two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NonConvergenceError
from .recurrence import Recurrence, tail_ratio_estimate

_TINY = 1e-300

#: truncation rule of ``char_series``: see its docstring
_REL_TOL = 1e-14
_ABS_TOL = 1e-300
_CONSECUTIVE_SMALL = 3
_MAX_TERMS = 20000
#: a u_l denominator smaller than this is a pole of the series
_POLE_GUARD = 1e-12
#: levels the depth walk of a backward pass may take: a safety limit
_CF_MAX_DEPTH = 1 << 20


class SeriesStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_TERMS = "MaxTermsReached"
    POLE = "PoleDetected"


class CharEval(NamedTuple):
    """One evaluation of the characteristic series.

    ``last_term`` is the magnitude of the final product rho_1...rho_k,
    and ``terms_used`` is k, or 0 for a value taken from the backward
    fraction (see ``char_series``).  status POLE means a u_l denominator
    fell inside the pole guard, the numerical signature of m_0 = 0 where
    the fraction (and the series) genuinely diverges; scanners treat
    such points as branch boundaries.
    """

    value: float
    terms_used: int
    status: SeriesStatus
    last_term: float


def char_series(rec: Recurrence, x: float) -> CharEval:
    """Evaluate char(x) = a_0 + sum of telescoped continued-fraction terms.

    The series has converged once 3 successive product terms fall below
    1e-14*|partial sum| + 1e-300, because the products can dip
    accidentally and a single small term is not proof of convergence.
    It stops with MaxTermsReached after 20000 terms, and with
    PoleDetected where a u_l denominator falls below 1e-12.

    The one loop evaluates a ``pencil``'s coefficients inline, with the
    bits of its methods, and calls any other ``a`` and ``b``.

    The transform divides by every a_l (l >= 1), so it is undefined at
    an exact zero of one, although char(x) is not: the zero enters the
    fraction only as a_l + r_l.  There, and where a_l a_{l-1} underflows
    to 0, the value is a_0 + ``ratio_cf``, Converged with ``terms_used``
    0 and ``last_term`` 0.

    Parameters
    ----------
    rec : Recurrence
        Coefficient functions and metadata.
    x : float
        Energy parameter.

    Raises
    ------
    CoefficientPoleError
        From the coefficient functions, at an explicit pole they declare.
    NonConvergenceError
        If the backward fraction finds no depth by ``_CF_MAX_DEPTH``.
    """
    a, b, pencil = rec.a, rec.b, rec.pencil
    rel_tol, abs_tol, guard = _REL_TOL, _ABS_TOL, _POLE_GUARD
    if pencil is not None:
        kappa, (s_even, s_odd) = pencil.kappa, pencil.shifts
        a0 = (0.0 - x + s_even) / kappa  # kappa * (0 + 1) is kappa
        a_prev = (1.0 - x + s_odd) / (kappa * 2.0)
        b_1 = 0.5  # 1 / (1 + 1)
        lf, s_l, s_next = 2.0, s_even, s_odd  # the level l as a float, its shift
    else:
        a0 = a(0, x)
        a_prev = a(1, x)
        b_1 = b(1, x)
    try:
        term = -b_1 / a_prev
        total = a0 + term
        u_prev = 1.0

        small_run = 1 if abs(term) <= rel_tol * abs(total) + abs_tol else 0
        for l in range(2, _MAX_TERMS + 1):
            if pencil is not None:
                lf1 = lf + 1.0
                a_l = (lf - x + s_l) / (kappa * lf1)
                b_l = 1.0 / lf1
                s_l, s_next, lf = s_next, s_l, lf1
            else:
                a_l = a(l, x)
                b_l = b(l, x)
            denom = 1.0 - u_prev * b_l / (a_l * a_prev)
            if -guard < denom < guard:
                return CharEval(total, l - 1, SeriesStatus.POLE, abs(term))
            u = 1.0 / denom
            term *= u - 1.0
            total += term
            if abs(term) <= rel_tol * abs(total) + abs_tol:
                small_run += 1
                if small_run >= _CONSECUTIVE_SMALL:
                    return CharEval(total, l, SeriesStatus.CONVERGED, abs(term))
            else:
                small_run = 0
            u_prev = u
            a_prev = a_l
    except ZeroDivisionError:  # a_1 or a_l a_{l-1} is 0, exactly or by underflow
        return CharEval(a0 + ratio_cf(rec, x), 0, SeriesStatus.CONVERGED, 0.0)
    return CharEval(total, _MAX_TERMS, SeriesStatus.MAX_TERMS, abs(term))


def cf_convergent(rec: Recurrence, x: float, k: int) -> float:
    """k-th convergent of the r_0 continued fraction (zero tail at level k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _cf_ratios(rec, x, k, 0, tail=0.0)[0]


def _cf_ratios(rec: Recurrence, x: float, depth: int, keep: int,
               tail: float | None = None) -> list[float]:
    """Backward pass from `depth`, returning minimal ratios r_0..r_keep.

    The pass is seeded with `tail`, by default the asymptotic tail ratio.
    """
    r = tail_ratio_estimate(rec, depth, x) if tail is None else tail
    out = [0.0] * (keep + 1)
    for n in range(depth - 1, -1, -1):
        denom = rec.a(n + 1, x) + r
        if denom == 0.0:
            denom = _TINY
        r = -rec.b(n + 1, x) / denom
        if n <= keep:
            out[n] = r
    return out


def ratio_cf(rec: Recurrence, x: float) -> float:
    """Minimal-solution ratio r_0 = m_1/m_0 by backward continued fraction.

    One backward pass seeded with the asymptotic tail ratio, from the
    depth the recurrence gives (``minimal_ratios`` with n_max = 0).
    """
    return minimal_ratios(rec, x, 0)[0]


@dataclass(frozen=True)
class MinimalSolution:
    """Coefficients m_0..m_N (m_0 = 1) and per-row recurrence defects.

    residuals[n] = |m_{n+1} + a_n m_n + b_n m_{n-1}| for 1 <= n < N and
    residuals[0] = |m_1 + a_0 m_0|, the boundary-condition row, which
    equals |char(x)| and vanishes only at an eigenvalue.
    """

    m: list[float]
    residuals: list[float]


def minimal_ratios(rec: Recurrence, x: float, n_max: int) -> list[float]:
    """Minimal ratios r_0..r_{n_max} from one backward pass.

    A pass shrinks its seed error at each level n by |t_-/t_+|, the ratio
    of the roots of t^2 + a_n t + b_n = 0 (Gautschi, SIAM Rev. 9, 1967),
    so it starts at the first depth d >= max(2 n_max, 1) where the
    product of these ratios since the last level with complex roots is
    <= 2^-53 and a_{d+1}, whose -b_{d+1}/a_{d+1} seeds the pass, is not 0.
    The ratios stay O(1/n) where the m_n themselves would underflow.

    Raises NonConvergenceError if the walk reaches ``_CF_MAX_DEPTH``.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    floor, shrink = max(2 * n_max, 1), 1.0
    for n in range(1, _CF_MAX_DEPTH + 1):
        a_n, b_n = rec.a(n, x), rec.b(n, x)
        if shrink <= 2.0 ** -53 and n > floor and a_n != 0.0:  # the unit roundoff
            return _cf_ratios(rec, x, n - 1, n_max)
        disc = a_n * a_n - 4.0 * b_n
        if disc < 0.0:
            shrink = 1.0
            continue
        t_plus = abs(a_n) + disc ** 0.5  # 2 |t_+|; t_- t_+ = b_n
        shrink *= 4.0 * abs(b_n) / (t_plus * t_plus)
    raise NonConvergenceError(f"backward pass depth not found by level {_CF_MAX_DEPTH}")


def minimal_solution(rec: Recurrence, x_root: float, n_count: int) -> MinimalSolution:
    """Reconstruct the minimal solution m_0..m_{n_count} at x_root.

    x_root is expected to be an accepted root of the characteristic
    function; this is not enforced, but away from a root the n = 0
    residual stays finite instead of vanishing.
    """
    if n_count < 0:
        raise ValueError("n_count must be >= 0")
    rs = minimal_ratios(rec, x_root, max(n_count - 1, 0))

    m = [1.0]
    for n in range(n_count):
        m.append(rs[n] * m[n])

    residuals: list[float] = []
    if n_count >= 1:
        residuals.append(abs(m[1] + rec.a(0, x_root) * m[0]))
        for n in range(1, n_count):
            defect = m[n + 1] + rec.a(n, x_root) * m[n] + rec.b(n, x_root) * m[n - 1]
            residuals.append(abs(defect))
    return MinimalSolution(m=m, residuals=residuals)
