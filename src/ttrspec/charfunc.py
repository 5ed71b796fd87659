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

* ``ratio_cf``: direct backward evaluation of the continued fraction
  for r_0, seeded with the asymptotic tail ratio.

``minimal_solution`` reconstructs m_0..m_N at an accepted root from the
same backward ratios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import CoefficientPoleError, NonConvergenceError, NumericsError
from .recurrence import Recurrence, tail_ratio_estimate

_TINY = 1e-300


class SeriesStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_TERMS = "MaxTermsReached"
    POLE = "PoleDetected"


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation and pole-guard settings for the series evaluation.

    Convergence requires ``consecutive_small`` successive product terms
    below rel_tol*|partial sum| + abs_tol, because the products can dip
    accidentally and a single small term is not proof of convergence.
    """

    rel_tol: float = 1e-14
    abs_tol: float = 1e-300
    consecutive_small: int = 3
    max_terms: int = 20000
    pole_guard: float = 1e-12

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.consecutive_small < 1:
            raise ValueError("consecutive_small must be >= 1")


DEFAULT_CONFIG = SeriesConfig()


@dataclass(frozen=True)
class CharEval:
    """One evaluation of the characteristic series.

    ``last_term`` is the magnitude of the final product rho_1...rho_k.
    status POLE means a u_l denominator fell inside the pole guard, the
    numerical signature of m_0 = 0 where the fraction (and the series)
    genuinely diverges; scanners treat such points as branch boundaries.
    """

    value: float
    terms_used: int
    status: SeriesStatus
    last_term: float


def char_series(rec: Recurrence, x: float,
                cfg: SeriesConfig = DEFAULT_CONFIG) -> CharEval:
    """Evaluate char(x) = a_0 + sum of telescoped continued-fraction terms.

    Parameters
    ----------
    rec : Recurrence
        Coefficient functions and metadata.
    x : float
        Energy parameter; must not sit on an explicit coefficient pole.
    cfg : SeriesConfig
        Truncation rule and pole guard.

    Raises
    ------
    CoefficientPoleError
        If some a_l with l >= 1 vanishes (the transform needs a_l != 0).
    """
    a0 = rec.a(0, x)
    a_prev = rec.a(1, x)
    if a_prev == 0.0:
        raise CoefficientPoleError("coefficient pole at level 1")
    term = -rec.b(1, x) / a_prev
    total = a0 + term
    u_prev = 1.0

    small_run = 1 if abs(term) <= cfg.rel_tol * abs(total) + cfg.abs_tol else 0
    if small_run >= cfg.consecutive_small:
        return CharEval(total, 1, SeriesStatus.CONVERGED, abs(term))

    for l in range(2, cfg.max_terms + 1):
        a_l = rec.a(l, x)
        b_l = rec.b(l, x)
        if a_l == 0.0:
            raise CoefficientPoleError(f"coefficient pole at level {l}")
        denom = 1.0 - u_prev * b_l / (a_l * a_prev)
        if abs(denom) < cfg.pole_guard:
            return CharEval(total, l - 1, SeriesStatus.POLE, abs(term))
        u = 1.0 / denom
        term *= u - 1.0
        total += term
        if abs(term) <= cfg.rel_tol * abs(total) + cfg.abs_tol:
            small_run += 1
            if small_run >= cfg.consecutive_small:
                return CharEval(total, l, SeriesStatus.CONVERGED, abs(term))
        else:
            small_run = 0
        u_prev = u
        a_prev = a_l
    return CharEval(total, cfg.max_terms, SeriesStatus.MAX_TERMS, abs(term))


def char_partial_sums(rec: Recurrence, x: float, k_max: int) -> list[float]:
    """Partial sums S_1..S_{k_max} of the series, with no stopping rule.

    Each S_k equals the k-th convergent of the r_0 continued fraction
    plus a_0; see ``cf_convergent``.
    """
    a0 = rec.a(0, x)
    a_prev = rec.a(1, x)
    if a_prev == 0.0:
        raise CoefficientPoleError("coefficient pole at level 1")
    term = -rec.b(1, x) / a_prev
    total = a0 + term
    sums = [total]
    u_prev = 1.0
    for l in range(2, k_max + 1):
        a_l = rec.a(l, x)
        b_l = rec.b(l, x)
        if a_l == 0.0:
            raise CoefficientPoleError(f"coefficient pole at level {l}")
        denom = 1.0 - u_prev * b_l / (a_l * a_prev)
        if denom == 0.0:
            raise NumericsError(f"series transform pole at level {l}")
        u = 1.0 / denom
        term *= u - 1.0
        total += term
        sums.append(total)
        u_prev = u
        a_prev = a_l
    return sums


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


def ratio_cf(rec: Recurrence, x: float, depth: int = 64,
             rel_tol: float = 1e-12, max_depth: int = 1 << 20) -> float:
    """Minimal-solution ratio r_0 = m_1/m_0 by backward continued fraction.

    Evaluates backward from ``depth`` seeded with the asymptotic tail
    ratio, doubling the start depth until two successive approximants
    agree to rel_tol (``minimal_ratios`` with n_max = 0).

    Raises NonConvergenceError (carrying both approximants) if the cap
    is reached without agreement.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    return minimal_ratios(rec, x, 0, depth=depth, rel_tol=rel_tol,
                          max_depth=max_depth)[0]


@dataclass(frozen=True)
class MinimalSolution:
    """Coefficients m_0..m_N (m_0 = 1) and per-row recurrence defects.

    residuals[n] = |m_{n+1} + a_n m_n + b_n m_{n-1}| for 1 <= n < N and
    residuals[0] = |m_1 + a_0 m_0|, the boundary-condition row, which
    equals |char(x)| and vanishes only at an eigenvalue.
    """

    m: list[float]
    residuals: list[float]


def minimal_ratios(rec: Recurrence, x: float, n_max: int,
                   depth: int | None = None, rel_tol: float = 1e-12,
                   max_depth: int = 1 << 20) -> list[float]:
    """Minimal ratios r_0..r_{n_max} from one converged backward pass.

    The start depth doubles until r_0 stabilizes (the deeper ratios
    converge faster still).  Useful when the coefficients m_n themselves
    would underflow: the ratios stay of size O(1/n).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    d = depth if depth is not None else max(2 * n_max, 64)
    d = max(d, n_max + 2)
    rs = prev = _cf_ratios(rec, x, d, n_max)
    while d < max_depth:
        d *= 2
        prev, rs = rs, _cf_ratios(rec, x, d, n_max)
        if abs(rs[0] - prev[0]) <= rel_tol * max(1.0, abs(rs[0])):
            return rs
    raise NonConvergenceError(
        f"backward ratios did not stabilize by depth {d}",
        last=rs[0], previous=prev[0])


def minimal_solution(rec: Recurrence, x_root: float, n_count: int,
                     depth: int | None = None,
                     rel_tol: float = 1e-12) -> MinimalSolution:
    """Reconstruct the minimal solution m_0..m_{n_count} at x_root.

    x_root is expected to be an accepted root of the characteristic
    function; this is not enforced, but away from a root the n = 0
    residual stays finite instead of vanishing.
    """
    if n_count < 0:
        raise ValueError("n_count must be >= 0")
    rs = minimal_ratios(rec, x_root, max(n_count - 1, 0),
                        depth=depth, rel_tol=rel_tol)

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
