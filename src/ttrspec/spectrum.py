"""Scan the characteristic function, isolate its zeros by exact level counts.

The characteristic function is a chain of discontinuous branches, so a
sign change on a grid may be a zero or a pole.  ``Recurrence.levels_below``
counts the levels below x exactly, from the signs of the recurrence's
forward pivots, and that count decides:

* a cell whose count rises by exactly one and across which char(x)
  changes sign holds exactly one zero (a certified cell);
* any other cell whose count rises is halved until it becomes one;
* a cell changes sign once per zero and once per pole, so a sign change
  that the count does not account for (above all, one across a cell with
  no level) is a pole and ends a branch, as do explicit coefficient poles
  and PoleDetected points.

``find_roots`` bisects each cell holding one level on the count and
polishes the result on char(x).  The count assumes a recurrence whose
coefficients form a pencil of the shipped orientation (see
``Recurrence``); ``scan`` raises NumericsError where the count falls.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .charfunc import DEFAULT_CONFIG, CharEval, SeriesConfig, SeriesStatus, char_series
from .errors import CoefficientPoleError, NumericsError
from .models import recurrences_for
from .recurrence import Recurrence

#: grid points this close (relative to span) to an explicit pole are nudged
_POLE_NUDGE = 1e-9
#: cells narrower than this fraction of the window are not halved further:
#: the resolution below which a pole and a zero, or two levels of different
#: sectors, are left in one cell
_HALVING_FLOOR = 1e-12


class RootKind(Enum):
    ZERO = "Zero"
    POLE_CROSSING = "PoleCrossing"


@dataclass(frozen=True)
class ScanResult:
    """Grid evaluation of the characteristic function with level counts.

    ``counts[i]`` is the number of levels below ``xs[i]``, so the cells
    hold the levels in [xs[0], xs[-1]); a level within rounding of an end
    may fall on either side of it.  Cells whose count rises have been
    halved until each is certified (the count rises by one and char(x)
    changes sign) or is narrower than 1e-12 of the window.
    ``branch_ids`` are non-decreasing and increment across every cell
    that holds an explicit coefficient pole, touches a PoleDetected
    point, or changes sign a number of times the count does not account
    for (a pole).
    """

    xs: np.ndarray
    fs: list[CharEval]
    counts: np.ndarray
    branch_ids: np.ndarray
    cfg: SeriesConfig


@dataclass(frozen=True)
class Root:
    """One level located in a scan cell, classified as Zero or PoleCrossing.

    ``index`` is the level's Sturm index: the number of levels of its
    recurrence below it (for a PoleCrossing holding several levels, below
    the lowest of them).  The levels of one parity sector are simple
    eigenvalues of a Jacobi pencil and never cross, so (parity, index)
    names the same level at every value of a swept parameter.
    """

    x: float
    energy: float
    residual: float
    bracket: tuple[float, float]
    branch_id: int
    index: int
    parity: int | None
    classification: RootKind
    note: str = ""


@dataclass(frozen=True)
class FlowResult:
    """Spectrum as a function of one swept model parameter.

    ``tracks`` are lists of (sweep_index, Root) pairs, one track per
    level: the Zero roots of one (parity, ``Root.index``) identity, in
    the order the tracks first appear (by sweep step, then as in
    ``levels``).  A level that leaves the window and comes back keeps its
    track.  The identity holds within one sector structure of the
    model's recurrences: the displaced-frame ``rabi`` recurrence is one
    ladder at delta = 0 and two parity sectors elsewhere, so its roots at
    delta = 0 and at delta != 0 lie on different tracks.  ``rabi`` roots
    carry no parity label, so each of its tracks is its k-th level for
    one k.
    """

    sweep_values: list[float]
    levels: list[list[Root]]
    tracks: list[list[tuple[int, "Root"]]]


def _evaluate(rec: Recurrence, x: float, cfg: SeriesConfig) -> CharEval:
    try:
        return char_series(rec, x, cfg)
    except CoefficientPoleError:
        return CharEval(math.nan, 0, SeriesStatus.POLE, math.inf)


def _sign_change(fl: CharEval, fr: CharEval) -> bool | None:
    """Whether char(x) changes sign across a cell; None if an end failed."""
    if (fl.status is not SeriesStatus.CONVERGED
            or fr.status is not SeriesStatus.CONVERGED):
        return None
    return fl.value * fr.value <= 0.0


def scan(rec: Recurrence, x_lo: float, x_hi: float, points: int,
         cfg: SeriesConfig = DEFAULT_CONFIG) -> ScanResult:
    """Evaluate char(x) and the level count on a grid over [x_lo, x_hi].

    ``rec.levels_below`` must rise with x, as it does for a pencil of the
    orientation ``Recurrence`` describes; NumericsError is raised where
    the count falls instead of dropping the levels it would have held.
    Grid points that coincide with explicit coefficient poles are
    perturbed by 1e-9 of the window width.  Every cell whose count rises
    is halved until the count rises by exactly one across it and char(x)
    changes sign, or until it is narrower than 1e-12 of the window: two
    levels closer than that, or a pole that close to a zero, stay in one
    cell.  Each returned x carries exactly one evaluation of char(x).
    """
    if not x_lo < x_hi:
        raise ValueError("x_lo must be < x_hi")
    if points < 16:
        raise ValueError("points must be >= 16")
    span = x_hi - x_lo
    floor = _HALVING_FLOOR * span
    poles = sorted(rec.explicit_poles(x_lo, x_hi))

    grid = list(np.linspace(x_lo, x_hi, points))
    if poles:
        nudge = _POLE_NUDGE * span
        for i, x in enumerate(grid):
            j = _bisect.bisect_left(poles, x)
            near = min((abs(x - poles[m]) for m in (j - 1, j)
                        if 0 <= m < len(poles)), default=math.inf)
            if near < nudge:
                grid[i] = x + nudge

    def visit(x: float) -> tuple[float, CharEval, int]:
        return x, _evaluate(rec, x, cfg), rec.levels_below(x)

    ends = [visit(x) for x in grid]
    pts = [ends[0]]
    for right in ends[1:]:
        pending = [right]
        while pending:
            (xl, fl, cl), (xr, fr, cr) = pts[-1], pending[-1]
            mid = 0.5 * (xl + xr)
            certified = cr - cl == 1 and _sign_change(fl, fr)
            if cr > cl and not certified and xr - xl > floor and xl < mid < xr:
                pending.append(visit(mid))
            else:
                pts.append(pending.pop())

    branch_ids = [0]
    for (xl, fl, cl), (xr, fr, cr) in zip(pts, pts[1:]):
        if cr < cl:
            raise NumericsError(
                f"level count falls from {cl} to {cr} across [{xl}, {xr}] in "
                f"'{rec.label}': its coefficients are not a pencil of the "
                "orientation the count assumes")
        sc = _sign_change(fl, fr)
        ends_branch = (sc is None or sc != ((cr - cl) % 2 == 1)
                       or _bisect.bisect_right(poles, xl) < _bisect.bisect_right(poles, xr))
        branch_ids.append(branch_ids[-1] + ends_branch)
    return ScanResult(xs=np.asarray([p[0] for p in pts]), fs=[p[1] for p in pts],
                      counts=np.asarray([p[2] for p in pts]),
                      branch_ids=np.asarray(branch_ids), cfg=cfg)


def _bisect_count(rec: Recurrence, lo: float, hi: float, below: int,
                  x_tol: float) -> tuple[float, float]:
    """Shrink a cell holding one level (``below`` levels below lo) to x_tol."""
    while hi - lo > x_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if rec.levels_below(mid) > below:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _polish(rec: Recurrence, lo: float, hi: float,
            cfg: SeriesConfig) -> tuple[float, float]:
    """Point of smallest |char| among the bracket ends and up to three
    secant steps inside the bracket; (midpoint, inf) if no end converges."""
    ends = []
    for x in (lo, hi):
        ev = _evaluate(rec, x, cfg)
        if ev.status is SeriesStatus.CONVERGED:
            ends.append((x, ev.value))
    if not ends:
        return 0.5 * (lo + hi), math.inf
    best_x, best_f = min(ends, key=lambda t: abs(t[1]))
    if len(ends) < 2:
        return best_x, best_f
    (lo, flo), (hi, fhi) = ends
    for _ in range(3):
        if best_f == 0.0 or (flo < 0.0) == (fhi < 0.0):
            break
        x_new = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo < x_new < hi:
            break
        ev = _evaluate(rec, x_new, cfg)
        if ev.status is not SeriesStatus.CONVERGED:
            break
        if abs(ev.value) < abs(best_f):
            best_x, best_f = x_new, ev.value
        if (flo < 0.0) == (ev.value < 0.0):
            lo, flo = x_new, ev.value
        else:
            hi, fhi = x_new, ev.value
    return best_x, best_f


def find_roots(sr: ScanResult, rec: Recurrence, x_tol: float = 1e-10) -> list[Root]:
    """Locate every level the scan's counts place in [xs[0], xs[-1]).

    A cell whose count rises by one holds exactly one level: it is
    bisected on the count to x_tol and polished by secant steps on
    char(x), and the point of smallest |char| is returned as a Zero with
    that residual.  A Zero within 10*x_tol of an explicit coefficient
    pole is returned as a PoleCrossing noted as a possible exceptional
    point, outside the regular spectrum.  A cell that still holds more
    than one level (closer than the scan's halving floor) is returned as
    one PoleCrossing whose note gives the count, so no level is dropped
    silently.
    """
    xs, counts, ids = sr.xs, sr.counts, sr.branch_ids
    poles = sorted(rec.explicit_poles(float(xs[0]), float(xs[-1])))
    roots: list[Root] = []
    for i in range(len(xs) - 1):
        rise = int(counts[i + 1] - counts[i])
        if rise <= 0:
            continue
        lo, hi = float(xs[i]), float(xs[i + 1])
        if rise > 1:
            mid = 0.5 * (lo + hi)
            roots.append(Root(x=mid, energy=rec.energy_of(mid), residual=math.inf,
                              bracket=(lo, hi), branch_id=int(ids[i]),
                              index=int(counts[i]), parity=None,
                              classification=RootKind.POLE_CROSSING,
                              note=f"unresolved count: {rise} levels in one cell"))
            continue
        lo, hi = _bisect_count(rec, lo, hi, int(counts[i]), x_tol)
        x_best, f_best = _polish(rec, lo, hi, sr.cfg)
        if any(abs(x_best - p) <= 10.0 * x_tol for p in poles):
            kind, note = RootKind.POLE_CROSSING, "possible exceptional point"
        else:
            kind, note = RootKind.ZERO, ""
        roots.append(Root(x=x_best, energy=rec.energy_of(x_best),
                          residual=abs(f_best), bracket=(lo, hi),
                          branch_id=int(ids[i]), index=int(counts[i]),
                          parity=None, classification=kind, note=note))
    return roots


_PARITY_ORDER = {1: 0, -1: 1, None: 2}


def resolve_spectrum(model: str, params, window: tuple[float, float],
                     cfg: SeriesConfig = DEFAULT_CONFIG, *,
                     parity: str = "both", points: int = 4000,
                     x_tol: float = 1e-10) -> list[Root]:
    """Scan and refine one model over the energy window [e_lo, e_hi)
    (units of omega).

    For the parity-resolved model both branches are scanned and merged
    into one ascending-energy list carrying parity labels; single-
    recurrence models carry parity None.
    """
    e_lo, e_hi = window
    if not e_lo < e_hi:
        raise ValueError("window must satisfy e_lo < e_hi")
    merged: list[Root] = []
    for rec, label in recurrences_for(model, params, parity=parity):
        sr = scan(rec, rec.x_of(e_lo), rec.x_of(e_hi), points, cfg)
        for root in find_roots(sr, rec, x_tol=x_tol):
            merged.append(replace(root, parity=label))
    merged.sort(key=lambda r: (r.energy, _PARITY_ORDER[r.parity]))
    return merged


def flow(model: str, params, sweep: tuple[str, float, float, int],
         window: tuple[float, float], cfg: SeriesConfig = DEFAULT_CONFIG, *,
         parity: str = "both", points: int = 4000,
         x_tol: float = 1e-10) -> FlowResult:
    """Resolve the spectrum along a parameter sweep and build level tracks.

    sweep = (name, lo, hi, steps) with name a field of ``params``
    (e.g. 'delta' or 'kappa').  The parameters of every step are built
    before the first solve, so a step they reject (kappa = 0) raises
    ValueError at once.  Each Zero root joins the track of its
    (sector structure, parity, ``Root.index``) identity; see
    ``FlowResult``.
    """
    name, lo, hi, steps = sweep
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not hasattr(params, name):
        raise ValueError(f"'{name}' is not a parameter of {type(params).__name__}")
    values = [float(v) for v in np.linspace(lo, hi, steps)]
    step_params = [replace(params, **{name: v}) for v in values]

    levels: list[list[Root]] = []
    tracks: list[list[tuple[int, Root]]] = []
    track_of: dict[tuple, int] = {}
    for i, p in enumerate(step_params):
        roots = resolve_spectrum(model, p, window, cfg, parity=parity,
                                 points=points, x_tol=x_tol)
        levels.append([r for r in roots if r.classification is RootKind.ZERO])
        sectors = tuple(len(rec.sectors) for rec, _ in recurrences_for(model, p, parity))
        for r in levels[-1]:
            key = (sectors, r.parity, r.index)
            if key not in track_of:
                track_of[key] = len(tracks)
                tracks.append([])
            tracks[track_of[key]].append((i, r))
    return FlowResult(sweep_values=values, levels=levels, tracks=tracks)
