"""Host-speed probe: a fixed pure-Python kernel timed between operations.

On a shared host the same operation's time moves by up to 1.9x within
minutes: the cores switch between a fast and a slow speed (about 1.6x
apart) many times a minute as the neighbours' load changes.
Timing a fixed piece of work before and after each operation measures
that speed, and ``scaled`` converts the operation's wall time to the
time it would have taken at the reference speed, at which the probe
takes ``REF_MS``.

The kernel imitates the shape of the ttrspec hot path (per-point scalar
recurrences through small function calls, one frozen dataclass per
point, a dict and a sort) but shares no code with the package, so a
change to the package never changes the probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: probe time (ms) at the reference speed, that of an uncontended core of a
#: 2-CPU shared VM (15-17 ms there, 25-29 ms while its neighbours load it);
#: scaled times are in ms at that speed
REF_MS = 16.0
POINTS = 1200
TERMS = 40


@dataclass(frozen=True)
class _Eval:
    x: float
    value: float
    terms: int


def _coefficients(l: int, x: float) -> tuple[float, float]:
    return l - x, 0.25 * l * l + x


def _series(x: float) -> _Eval:
    u, total, prev = 1.0, 0.0, 1.0
    for l in range(1, TERMS):
        a, b = _coefficients(l, x)
        u = 1.0 / (1.0 - u * b / (a * prev + 1e-3))
        prev = a
        total += u - 1.0
    return _Eval(x, total, TERMS)


def _kernel() -> int:
    evals = [_series(i * 1e-3) for i in range(POINTS)]
    by_x = {e.x: e for e in evals}
    return sorted(by_x.values(), key=lambda e: e.value)[0].terms


def probe_ms() -> float:
    """Wall time (ms) of one run of the fixed kernel."""
    t0 = time.perf_counter()
    _kernel()
    return 1e3 * (time.perf_counter() - t0)


def scaled(wall: list[float], probes: list[float]) -> list[float]:
    """Wall times at the reference speed.  ``probes[i]`` and
    ``probes[i + 1]`` are the probes taken just before and just after
    ``wall[i]``; their mean is the speed during it."""
    return [t * REF_MS / (0.5 * (probes[i] + probes[i + 1]))
            for i, t in enumerate(wall)]
