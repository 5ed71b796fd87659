"""Scan the characteristic function, isolate its zeros by exact level counts.

The characteristic function is a chain of discontinuous branches, so a
sign change on a grid may be a zero or a pole.  ``Recurrence.levels_below``
counts the levels below x exactly, from the signs of the recurrence's
forward pivots, and that count alone isolates every level: a cell whose
count rises by m holds exactly m (Sturm bisection; Barth, Martin &
Wilkinson, 1967).

``scan`` tabulates char(x) and the count on a grid.  The count never
falls with x, so it is taken only where a bisection over the grid rows
needs it: a run of rows whose end counts agree holds no level.  A cell
changes sign once per simple zero and once per pole, so across a cell
whose count rises by 0 or 1 a sign change that the count does not
account for is a pole and ends a branch, as do explicit coefficient
poles and PoleDetected points (``ScanResult.branch_ids``, computed only
when read, as ``ttrspec scan`` does, and never by a solve).  A cell
whose count rises by 2 or more holds levels closer than 1e-10, such as
a degenerate pair, which char(x) may cross with either sign, so its
sign decides nothing.  ``scan`` also halves every cell whose count
rises down to 1e-10; ``find_roots`` polishes each such cell once,
from the scan's char(x) at its ends and up to three secant steps inside
it, and returns one root per level the count puts there.  The count
assumes a recurrence whose coefficients form a pencil of the shipped
orientation (see ``Recurrence``); NumericsError is raised where two of
the counts taken fall.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from itertools import takewhile

import numpy as np

from .charfunc import CharEval, SeriesStatus, char_series
from .errors import CoefficientPoleError, NumericsError
from .models import recurrences_for
from .recurrence import Recurrence

#: grid points this close (relative to span) to an explicit pole are nudged
_POLE_NUDGE = 1e-9
#: width to which ``scan`` narrows every cell whose count rises; a Zero within
#: 10*_X_TOL of an explicit coefficient pole is a possible exceptional point
_X_TOL = 1e-10


class RootKind(Enum):
    ZERO = "Zero"
    POLE_CROSSING = "PoleCrossing"


@dataclass(frozen=True)
class ScanResult:
    """Grid evaluation of the characteristic function with level counts.

    ``xs`` are the grid plus the ends of the 1e-10 cell of every level
    (levels closer than that share one cell), and ``counts[i]`` is the
    number of levels below ``xs[i]``, so the cells hold the levels in
    [xs[0], xs[-1]); a level within rounding of an end may fall on either
    side of it.  ``poles`` are the explicit coefficient poles of the
    window [x_lo, x_hi) ``scan`` was given.  ``branch_ids``, computed from
    the fields when first read, are non-decreasing and increment across
    every cell that holds one of ``poles``, touches a PoleDetected point,
    or rises in count by 0 or 1 and changes sign a number of times the
    count does not account for (a pole).
    """

    xs: np.ndarray
    fs: list[CharEval]
    counts: np.ndarray
    poles: list[float]

    @cached_property
    def branch_ids(self) -> np.ndarray:
        """One branch label per row; see the class docstring."""
        rows = list(zip(self.xs.tolist(), self.fs, self.counts.tolist()))
        poles, ids = self.poles, [0]
        for (xl, fl, cl), (xr, fr, cr) in zip(rows, rows[1:]):
            converged = fl.status is fr.status is SeriesStatus.CONVERGED
            rise = cr - cl
            ends_branch = (not converged
                           or (rise < 2 and (fl.value * fr.value <= 0.0) != (rise == 1))
                           or _bisect.bisect_right(poles, xl) < _bisect.bisect_right(poles, xr))
            ids.append(ids[-1] + ends_branch)
        return np.asarray(ids)


@dataclass(frozen=True)
class Root:
    """One level isolated by the count, classified as Zero or PoleCrossing.

    ``index`` is the level's Sturm index: the number of levels of its
    recurrence below it.  Levels closer than 1e-10 share one cell and
    one x, and come back as one root each, with consecutive indices.
    The levels of one parity sector are simple eigenvalues of a Jacobi
    pencil and never cross, so (parity, index) names the same level at
    every value of a swept parameter.
    """

    x: float
    energy: float
    residual: float
    bracket: tuple[float, float]
    index: int
    parity: int | None
    classification: RootKind


@dataclass(frozen=True)
class FlowResult:
    """Spectrum as a function of one swept model parameter.

    ``tracks`` are lists of (sweep_index, Root) pairs, one track per
    level: the Zero roots of one (parity, ``Root.index``) identity, in
    the order the tracks first appear (by sweep step, then as in
    ``levels``).  A level that leaves the window and comes back keeps its
    track.  ``rabi`` roots carry no parity label, so each of its tracks
    is its k-th level for one k.
    """

    sweep_values: list[float]
    levels: list[list[Root]]
    tracks: list[list[tuple[int, "Root"]]]


#: char(x) where a coefficient is singular
_POLE_EVAL = CharEval(math.nan, 0, SeriesStatus.POLE, math.inf)


def _isolate(rec: Recurrence,
             grid: list[float]) -> tuple[list[int], list[tuple[float, int]]]:
    """The level count at every grid row, and the (x, count) of both ends
    of the cell of every level, ascending in x.

    The count never falls with x, so a run of grid rows whose end counts
    agree holds no level, and every row in it has that count.  A run
    whose count rises is split at its middle row, and a single grid cell
    whose count rises is halved on the count down to 1e-10 (in a plain
    loop if it holds one level), so a cell still holding several holds
    levels closer than that.  This takes about levels * log2(rows/levels)
    counts and one slice assignment per run.  NumericsError is raised
    where the count falls between two of the points it is taken at: the
    ends of a run and its middle row, or of a cell and its midpoint.
    """
    levels_below = rec.levels_below
    c_first, c_last = levels_below(grid[0]), levels_below(grid[-1])
    counts, ends = [c_first] * (len(grid) - 1) + [c_last], []
    # (lo, hi, count at lo, count at hi, indices of the grid rows lo ... hi;
    # none inside a grid cell)
    stack = [(grid[0], grid[-1], c_first, c_last, range(len(grid)))]
    while stack:
        lo, hi, c_lo, c_hi, rows = stack.pop()
        if c_hi < c_lo:
            raise NumericsError(
                f"level count falls from {c_lo} to {c_hi} across [{lo}, {hi}] "
                f"in '{rec.label}': its coefficients are not a pencil of the "
                "orientation the count assumes")
        if c_hi == c_lo:
            counts[rows.start:rows.stop] = [c_lo] * len(rows)
            continue
        if len(rows) > 2:
            m = rows[len(rows) // 2]
            mid = grid[m]
            counts[m] = c_mid = levels_below(mid)
            stack += [(mid, hi, c_mid, c_hi, range(m, rows.stop)),
                      (lo, mid, c_lo, c_mid, range(rows.start, m + 1))]
            continue
        while True:
            mid = 0.5 * (lo + hi)
            if not (hi - lo > _X_TOL and lo < mid < hi):
                ends += [(lo, c_lo), (hi, c_hi)]
                break
            c_mid = levels_below(mid)
            if c_hi - c_lo > 1 or not c_lo <= c_mid <= c_hi:
                stack += [(mid, hi, c_mid, c_hi, range(0)),
                          (lo, mid, c_lo, c_mid, range(0))]
                break
            lo, hi = (mid, hi) if c_mid == c_lo else (lo, mid)
    return counts, ends


def scan(rec: Recurrence, x_lo: float, x_hi: float, points: int) -> ScanResult:
    """Evaluate char(x) and the level count on a grid over [x_lo, x_hi].

    Grid points within 1e-9 of the window width of an explicit
    coefficient pole move up by that much, and x_hi down.  The grid is
    counted by bisection over its rows (``_isolate``): the count is taken
    at both ends and at the middle row of every run whose count rises,
    and the rows of a run whose end counts agree take that count.  Each
    grid cell whose count rises is halved on the count alone down to
    1e-10; a cell then holding one level changes sign across it unless a
    pole lies as close, and one holding several holds levels closer than
    1e-10.  The ends of these cells join the grid, and each returned x
    carries exactly one evaluation of char(x).

    ``rec.levels_below`` must rise with x, as it does for a pencil of the
    orientation ``Recurrence`` describes.  NumericsError is raised where
    the count falls between two of the points it is taken at (the ends
    and middle row of a run, or the ends and midpoint of a cell), so a
    count that falls across the window is caught, but one that dips and
    recovers between two counted points is not.  The count's own
    NumericsError (a non-finite pivot, a count that does not settle) is
    likewise raised only at a counted point: a row inside a run whose end
    counts agree is never counted and takes the run's count.  A window
    that is not ascending, or whose bounds or width are not finite, or
    fewer than 16 points, raises ValueError.
    """
    if not math.isfinite(x_hi - x_lo):
        raise ValueError("window bounds and width must be finite")
    if not x_lo < x_hi:
        raise ValueError("window must be ascending")
    if points < 16:
        raise ValueError("points must be >= 16")
    # the poles of [x_lo, x_hi]: a row near one is nudged up, or in at x_hi
    near_poles = sorted(rec.explicit_poles(x_lo, math.nextafter(x_hi, math.inf)))
    poles = [p for p in near_poles if p < x_hi]
    grid = np.linspace(x_lo, x_hi, points).tolist()
    nudge, near = _POLE_NUDGE * (x_hi - x_lo), set()
    for p in near_poles:  # the rows near p lie next to it: |x - p| grows away from it
        j = _bisect.bisect_left(grid, p)
        for rows in (range(j, points), range(j - 1, -1, -1)):
            near.update(takewhile(lambda i: abs(grid[i] - p) < nudge, rows))
    for i in near:
        grid[i] += nudge if i < points - 1 else -nudge

    counts, ends = _isolate(rec, grid)
    # each cell end once, among the grid rows, unless it is one of them
    inner = {x: c for x, c in ends if x != grid[_bisect.bisect_left(grid, x)]}
    at = [_bisect.bisect_left(grid, x) for x in inner]
    xs = np.insert(np.asarray(grid), at, list(inner))
    fs = []
    for x in xs.tolist():
        try:
            fs.append(char_series(rec, x))
        except CoefficientPoleError:
            fs.append(_POLE_EVAL)
    counts = np.insert(np.asarray(counts), at, list(inner.values()))
    return ScanResult(xs=xs, fs=fs, counts=counts, poles=poles)


def _polish(rec: Recurrence, lo: float, f_lo: CharEval, hi: float,
            f_hi: CharEval) -> tuple[float, float]:
    """Point of smallest |char| among the bracket ends, evaluated as
    ``f_lo`` and ``f_hi``, and up to three secant steps inside the
    bracket; (midpoint, inf) if no end converges."""
    ends = [(x, ev.value) for x, ev in ((lo, f_lo), (hi, f_hi))
            if ev.status is SeriesStatus.CONVERGED]
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
        try:
            ev = char_series(rec, x_new)
        except CoefficientPoleError:
            break
        if ev.status is not SeriesStatus.CONVERGED:
            break
        if abs(ev.value) < abs(best_f):
            best_x, best_f = x_new, ev.value
        if (flo < 0.0) == (ev.value < 0.0):
            lo, flo = x_new, ev.value
        else:
            hi, fhi = x_new, ev.value
    return best_x, best_f


def find_roots(sr: ScanResult, rec: Recurrence) -> list[Root]:
    """Locate every level the scan's counts place in [xs[0], xs[-1]).

    Each pair of consecutive scan rows whose count rises by m is the cell
    of m levels, which ``scan`` has narrowed to 1e-10 on the count.  The
    cell is polished once, from the scan's char(x) at its ends and up to
    three secant steps, and its point of smallest |char| is returned m
    times, with that residual and indices count_lo ... count_hi - 1: a
    cell holding several levels holds levels closer than 1e-10, such as
    a degenerate pair.  Only the rows of cells whose count changes are
    read; a cell whose count falls, which ``scan`` raises on, is polished
    and gives no root.  A root within 1e-9 of an explicit coefficient
    pole is returned as a PoleCrossing, a possible exceptional point
    outside the regular spectrum; every other root is a Zero.
    """
    xs, fs, counts = sr.xs, sr.fs, sr.counts
    poles = sorted(rec.explicit_poles(float(xs[0]), float(xs[-1])))
    cells = np.flatnonzero(np.diff(counts))
    roots: list[Root] = []
    for k, lo, hi, c_lo, c_hi in zip(cells.tolist(), xs[cells].tolist(),
                                     xs[cells + 1].tolist(), counts[cells].tolist(),
                                     counts[cells + 1].tolist()):
        x, f = _polish(rec, lo, fs[k], hi, fs[k + 1])
        near_pole = any(abs(x - p) <= 10.0 * _X_TOL for p in poles)
        kind = RootKind.POLE_CROSSING if near_pole else RootKind.ZERO
        roots += [Root(x=x, energy=rec.energy_of(x), residual=abs(f),
                       bracket=(lo, hi), index=index, parity=None,
                       classification=kind)
                  for index in range(c_lo, c_hi)]
    return roots


_PARITY_ORDER = {1: 0, -1: 1, None: 2}


def resolve_spectrum(model: str, params, window: tuple[float, float], *,
                     parity: str = "both", points: int = 4000) -> list[Root]:
    """Scan and refine one model over the energy window [e_lo, e_hi)
    (units of omega).

    For the parity-resolved model both branches are scanned and merged
    into one ascending-energy list carrying parity labels; single-
    recurrence models carry parity None.  ``scan`` raises ValueError for
    a window that is not ascending, or whose bounds or width are not
    finite: x = E + shift keeps all three.
    """
    e_lo, e_hi = window
    merged: list[Root] = []
    for rec, label in recurrences_for(model, params, parity=parity):
        sr = scan(rec, rec.x_of(e_lo), rec.x_of(e_hi), points)
        for root in find_roots(sr, rec):
            merged.append(replace(root, parity=label))
    merged.sort(key=lambda r: (r.energy, _PARITY_ORDER[r.parity]))
    return merged


def flow(model: str, params, sweep: tuple[str, float, float, int],
         window: tuple[float, float], *, parity: str = "both",
         points: int = 4000) -> FlowResult:
    """Resolve the spectrum along a parameter sweep and build level tracks.

    sweep = (name, lo, hi, steps) with name a field of ``params``
    (e.g. 'delta' or 'kappa') and lo, hi and hi - lo finite.  The
    parameters of every step are built before the first solve, so a step
    they reject (kappa = 0) raises ValueError at once.  Each Zero root
    joins the track of its (parity, ``Root.index``) identity; see
    ``FlowResult``.
    """
    name, lo, hi, steps = sweep
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if name not in {f.name for f in fields(params)}:
        raise ValueError(f"'{name}' is not a parameter of {type(params).__name__}")
    if not math.isfinite(hi - lo):
        raise ValueError(f"sweep bounds and span must be finite, got [{lo}, {hi}]")
    values = [float(v) for v in np.linspace(lo, hi, steps)]
    step_params = [replace(params, **{name: v}) for v in values]

    levels: list[list[Root]] = []
    tracks: list[list[tuple[int, Root]]] = []
    track_of: dict[tuple, int] = {}
    for i, p in enumerate(step_params):
        roots = resolve_spectrum(model, p, window, parity=parity, points=points)
        levels.append([r for r in roots if r.classification is RootKind.ZERO])
        for r in levels[-1]:
            key = (r.parity, r.index)
            if key not in track_of:
                track_of[key] = len(tracks)
                tracks.append([])
            tracks[track_of[key]].append((i, r))
    return FlowResult(sweep_values=values, levels=levels, tracks=tracks)
