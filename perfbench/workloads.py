"""Seeded inputs, operations and reference checks of the three workloads.

A workload is a fixed list of cases (one *pass*) built from the seed.
The timed loop cycles through the pass; the reference check scores each
case once.  Every call into the package goes through a module attribute
(``spectrum.resolve_spectrum``, ``oracle.eigen_lowest``, ...), so the
traced run can wrap those attributes without touching the package.

Reference levels:

* dho: the exact levels l - kappa**2;
* rabi, rabi-parity: ``eigen_lowest`` of the truncated Rabi Hamiltonian,
  certified by its own cutoff doubling.  For ``window`` and ``sweep`` it
  is computed before the timed loop; for ``crosscheck`` it is the second
  half of the timed operation itself.

A reference level counts as found when an unused ``Zero`` root lies
within MATCH_TOL of it with the same parity; parity is compared only
where both sides carry a label (the oracle leaves degenerate and mixed
states unlabeled).  ``PoleCrossing`` roots never count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
from ttrspec import models, oracle, spectrum

MATCH_TOL = 1e-6
#: kappa is drawn log-uniform in [KAPPA_LO, KAPPA_HI], delta uniform in [0, DELTA_HI]
KAPPA_LO, KAPPA_HI, DELTA_HI = 0.1, 2.0, 1.5
#: ROADMAP item 3's crosscheck grid
GRID_KAPPAS = (0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0)
GRID_DELTAS = (0.0, 0.2, 0.5, 0.9, 1.5)
CROSSCHECK_E_HI = 4.0
CROSSCHECK_POINTS = 1000
CROSSCHECK_CUTOFF = 200
SWEEP_WINDOW = (-1.0, 4.0)
SWEEP_STEPS = 12
SWEEP_POINTS = 400
#: cutoff the reference diagonalization starts from (eigen_lowest doubles it)
REFERENCE_CUTOFF = 64

@dataclass(frozen=True)
class Case:
    """One operation's input.  ``sweep`` is set for flow cases only."""

    model: str
    kappa: float
    delta: float
    window: tuple[float, float]
    points: int
    sweep: tuple[str, float, float, int] | None = None
    #: the oracle runs inside the timed operation (crosscheck)
    crosscheck: bool = False


@dataclass(frozen=True)
class Solve:
    """Zero roots of one solve and the reference levels they must match."""

    roots: list[tuple[float, int | None]]
    reference: list[tuple[float, int | None]]


# ---------------------------------------------------------------- inputs

def _strata(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1), one per equal stratum, ordered lowest, highest,
    second lowest, ... so that every prefix of a pass is balanced."""
    order = [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]
    return [(i + rng.random()) / n for i in order]


def _log_kappa(u: float) -> float:
    return math.exp(math.log(KAPPA_LO) + u * math.log(KAPPA_HI / KAPPA_LO))


def _wide_window(kappa: float, delta: float) -> tuple[float, float]:
    lo = -kappa * kappa - delta - 0.5
    return (lo, lo + 7.0)


def window_cases(seed: int) -> list[Case]:
    """6 anchors (the 4 ROADMAP baseline cases at their own point counts,
    DHO kappa = 1 and sqrt(2)), each followed by one draw of each model."""
    rng = random.Random(seed)
    anchors = [
        Case("dho", 0.7, 0.0, (-1.0, 6.0), 4000),
        Case("rabi-parity", 0.7, 0.4, (-1.0, 4.0), 2000),
        Case("rabi-parity", 1.5, 0.7, (-3.0, 8.0), 4000),
        Case("rabi", 0.7, 0.4, (-1.0, 4.0), 2000),
        Case("dho", 1.0, 0.0, (-1.0, 6.0), 4000),
        Case("dho", math.sqrt(2.0), 0.0, (-1.0, 6.0), 4000),
    ]
    draws = {}
    for model in ("dho", "rabi", "rabi-parity"):
        ks = _strata(rng, len(anchors))
        ds = _strata(rng, len(anchors))
        rng.shuffle(ds)
        draws[model] = []
        for u, v in zip(ks, ds):
            kappa = _log_kappa(u)
            delta = 0.0 if model == "dho" else v * DELTA_HI
            draws[model].append(Case(model, kappa, delta,
                                     _wide_window(kappa, delta), 4000))
    cases = []
    for i, anchor in enumerate(anchors):
        cases.append(anchor)
        cases.extend(draws[m][i] for m in ("dho", "rabi", "rabi-parity"))
    return cases


def sweep_cases(seed: int) -> list[Case]:
    """10 rabi-parity flows, 5 delta sweeps and 5 kappa sweeps, each from
    its own kappa stratum.  The cost grows with kappa, so the swept
    parameter follows the pattern d k k d d k k d d k over the strata
    order of ``_strata``: each kind gets low and high strata alike."""
    rng = random.Random(seed)
    n = 10
    cases = []
    for i, u in enumerate(_strata(rng, n)):
        kappa = _log_kappa(u)
        if (i + 1) // 2 % 2 == 0:
            d_lo = 0.5 * rng.random()
            sweep = ("delta", d_lo, d_lo + 1.0, SWEEP_STEPS)
            delta = d_lo
        else:
            sweep = ("kappa", kappa, min(KAPPA_HI, 1.5 * kappa), SWEEP_STEPS)
            delta = DELTA_HI * rng.random()
        cases.append(Case("rabi-parity", kappa, delta, SWEEP_WINDOW,
                          SWEEP_POINTS, sweep=sweep))
    return cases


def crosscheck_cases(seed: int) -> list[Case]:
    """The 35-case grid in 5 Latin blocks (each block holds every kappa
    once, the blocks together every (kappa, delta) once), one off-grid
    draw after each block."""
    rng = random.Random(seed)
    shift = rng.randrange(len(GRID_DELTAS))
    ks = _strata(rng, len(GRID_DELTAS))
    ds = _strata(rng, len(GRID_DELTAS))
    rng.shuffle(ds)
    cases = []
    for b in range(len(GRID_DELTAS)):
        block = []
        for i, kappa in enumerate(GRID_KAPPAS):
            delta = GRID_DELTAS[(i + b + shift) % len(GRID_DELTAS)]
            block.append(_crosscheck_case(kappa, delta))
        rng.shuffle(block)
        cases.extend(block)
        cases.append(_crosscheck_case(_log_kappa(ks[b]), ds[b] * DELTA_HI))
    return cases


def _crosscheck_case(kappa: float, delta: float) -> Case:
    window = (-kappa * kappa - delta - 0.5, CROSSCHECK_E_HI)
    return Case("rabi-parity", kappa, delta, window, CROSSCHECK_POINTS,
                crosscheck=True)


PASSES = {"window": window_cases, "sweep": sweep_cases,
          "crosscheck": crosscheck_cases}


def cases_for(workload: str, seed: int) -> list[Case]:
    return PASSES[workload](seed)


# ------------------------------------------------------------ references

def _in_window(levels, window):
    lo, hi = window
    return [(e, p) for e, p in levels if lo <= e <= hi]


def _levels_needed(kappa: float, delta: float, e_hi: float) -> int:
    # two parity ladders, one level per unit energy each, from about -kappa**2 - delta
    return 2 * math.ceil(e_hi + kappa * kappa + delta) + 4


def oracle_levels(kappa: float, delta: float, e_hi: float, cutoff: int):
    """Certified Rabi levels up to past e_hi, as (energy, parity label)."""
    p = models.RabiParams(kappa, delta)
    k = _levels_needed(kappa, delta, e_hi)
    spec = oracle.eigen_lowest(oracle.build_hamiltonian("rabi", p, cutoff), k)
    if spec.eigenvalues[-1] <= e_hi:
        raise RuntimeError(f"{k} oracle levels do not reach past E={e_hi} "
                           f"(kappa={kappa}, delta={delta})")
    return list(zip(spec.eigenvalues, spec.parities))


def reference_levels(model: str, kappa: float, delta: float, window):
    if model == "dho":
        k2 = kappa * kappa
        n = math.floor(window[1] + k2) + 1
        return _in_window([(l - k2, None) for l in range(n + 1)], window)
    return _in_window(oracle_levels(kappa, delta, window[1], REFERENCE_CUTOFF), window)


def references_for(case: Case):
    """Reference levels for window and sweep cases (None for crosscheck,
    whose reference is computed inside the operation)."""
    if case.sweep is not None:
        name, lo, hi, steps = case.sweep
        refs = []
        for v in np.linspace(lo, hi, steps):
            v = float(v)
            kappa = v if name == "kappa" else case.kappa
            delta = v if name == "delta" else case.delta
            refs.append(reference_levels(case.model, kappa, delta, case.window))
        return refs
    if case.crosscheck:
        return None
    return [reference_levels(case.model, case.kappa, case.delta, case.window)]


# ------------------------------------------------------------ operations

def _params(model: str, kappa: float, delta: float):
    if model == "dho":
        return models.DhoParams(kappa)
    return models.RabiParams(kappa, delta)


def _zeros(roots):
    return [(r.energy, r.parity) for r in roots
            if r.classification is spectrum.RootKind.ZERO]


def run_case(case: Case, refs) -> list[Solve]:
    """One timed operation.  Returns the solves it produced, each paired
    with its reference levels (computed here for crosscheck)."""
    params = _params(case.model, case.kappa, case.delta)
    if case.sweep is not None:
        result = spectrum.flow(case.model, params, case.sweep, case.window,
                               points=case.points)
        _check_tracks(result)
        return [Solve(_zeros(level), ref) for level, ref in zip(result.levels, refs)]
    roots = spectrum.resolve_spectrum(case.model, params, case.window,
                                      points=case.points)
    if refs is None:
        refs = [_in_window(oracle_levels(case.kappa, case.delta, case.window[1],
                                         CROSSCHECK_CUTOFF), case.window)]
    return [Solve(_zeros(roots), refs[0])]


def _check_tracks(result) -> None:
    """Every Zero root of the sweep sits on exactly one track, in order."""
    seen = set()
    for track in result.tracks:
        steps = [i for i, _ in track]
        if steps != sorted(set(steps)):
            raise RuntimeError("flow track revisits or reorders a sweep step")
        seen.update((i, id(r)) for i, r in track)
    expected = {(i, id(r)) for i, level in enumerate(result.levels) for r in level}
    if seen != expected:
        raise RuntimeError("flow tracks do not partition the sweep's roots")


def match(solve: Solve) -> tuple[int, int, int]:
    """(reference levels, found, zero roots) of one solve."""
    used: set[int] = set()
    found = 0
    for e, label in solve.reference:
        best = None
        for i, (x, parity) in enumerate(solve.roots):
            if i in used or abs(x - e) > MATCH_TOL:
                continue
            if label is not None and parity is not None and label != parity:
                continue
            if best is None or abs(x - e) < abs(solve.roots[best][0] - e):
                best = i
        if best is not None:
            used.add(best)
            found += 1
    return len(solve.reference), found, len(solve.roots)


def warm_up() -> None:
    """A small solve that touches every layer a workload calls."""
    spectrum.resolve_spectrum("rabi-parity", models.RabiParams(0.7, 0.4),
                              (-1.0, 1.0), points=64)
