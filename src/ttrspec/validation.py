"""Self-contained cross-validation battery behind the CLI `validate` command.

Every check pits one evaluation route against an independent one
(series vs continued fraction, recurrence zeros vs dense
diagonalization, closed forms vs matrices) and reports pass/fail with a
one-line detail.  The same facts are asserted, with the full tolerances,
in the test suite; this battery is the runtime smoke version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfunc import SeriesStatus, char_series, minimal_ratios, ratio_cf
from .models import (
    DhoParams,
    GenRabiParams,
    JcParams,
    RabiParams,
    bessel_fixture,
    dho_exact_levels,
    dho_recurrence,
    jc_exact_levels,
    parity_rabi_recurrence,
    rabi_displaced_recurrence,
)
from .oracle import (
    bessel_j_series,
    bessel_j_upward,
    build_hamiltonian,
    dho_upward_coefficients,
    eigen_lowest,
    laguerre_dominant,
    laguerre_ratio,
)
from .spectrum import RootKind, resolve_spectrum


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _zeros(roots):
    return [r for r in roots if r.classification is RootKind.ZERO]


def _check_dho_roots() -> CheckResult:
    p = DhoParams(kappa=0.7)
    roots = _zeros(resolve_spectrum("dho", p, (-1.0, 6.0), points=2000))
    exact = dho_exact_levels(p, 6)
    ok = len(roots) == 7 and all(
        abs(r.energy - e) < 1e-8 for r, e in zip(roots, exact))
    worst = max((abs(r.energy - e) for r, e in zip(roots, exact)), default=np.inf)
    return CheckResult("dho-exact-levels", ok,
                       f"{len(roots)} zeros, worst |error| {worst:.2e}")


def _check_parity_rabi_roots() -> CheckResult:
    p = RabiParams(kappa=0.7, delta=0.4)
    roots = _zeros(resolve_spectrum("rabi-parity", p, (-1.0, 1.0), points=1500))
    minus = [r for r in roots if r.parity == -1]
    plus = [r for r in roots if r.parity == 1]
    ok = (minus and abs(minus[0].energy - (-0.707805)) < 1e-4
          and plus and abs(plus[0].energy - (-0.4270437)) < 1e-5)
    detail = (f"minus {minus[0].energy:.7f}, plus {plus[0].energy:.7f}"
              if minus and plus else "missing parity root")
    return CheckResult("parity-rabi-quoted-zeros", bool(ok), detail)


def _check_frame_shift() -> CheckResult:
    p = RabiParams(kappa=0.7, delta=0.4)
    parity = _zeros(resolve_spectrum("rabi-parity", p, (-1.0, 1.0), points=1500))
    displaced = _zeros(resolve_spectrum("rabi", p, (-1.0, 1.0), points=1500))
    ok = len(parity) == len(displaced)
    worst = 0.0
    if ok:
        for a, b in zip(parity, displaced):
            worst = max(worst, abs(a.energy - b.energy))
        ok = worst < 1e-9
    return CheckResult("displaced-frame-shift", ok,
                       f"{len(displaced)} frame roots, worst energy gap {worst:.2e}")


def _check_oracle_match() -> CheckResult:
    p = RabiParams(kappa=0.7, delta=0.4)
    zeros = _zeros(resolve_spectrum("rabi-parity", p, (-1.0, 4.0), points=2000))
    spectrum = eigen_lowest(build_hamiltonian("rabi", p, 200), 14, 1e-9)
    oracle = [(e, pl) for e, pl in zip(spectrum.eigenvalues, spectrum.parities)
              if -1.0 <= e <= 4.0]
    ok = len(zeros) == len(oracle)
    if ok:
        for z in zeros:
            matches = [e for e, pl in oracle
                       if abs(e - z.energy) < 1e-6 and pl == z.parity]
            if len(matches) != 1:
                ok = False
                break
    return CheckResult("oracle-equivalence", ok,
                       f"{len(zeros)} zeros vs {len(oracle)} oracle levels in [-1, 4]")


def _check_series_cf_identity() -> CheckResult:
    cases = [
        (dho_recurrence(DhoParams(0.7)), np.linspace(-0.95, 5.95, 200)),
        (rabi_displaced_recurrence(RabiParams(0.7, 0.4)),
         np.linspace(-0.45, 1.43, 200)),
        (parity_rabi_recurrence(RabiParams(0.7, 0.4), "plus"),
         np.linspace(-0.95, 3.95, 200)),
    ]
    worst = 0.0
    checked = 0
    for rec, grid in cases:
        poles = rec.explicit_poles(float(grid[0]), float(grid[-1]))
        for x in grid:
            if any(abs(x - q) < 1e-3 for q in poles):
                continue
            ev = char_series(rec, x)
            if ev.status is not SeriesStatus.CONVERGED:
                continue
            other = rec.a(0, x) + ratio_cf(rec, x)
            worst = max(worst, abs(ev.value - other) / max(1.0, abs(ev.value)))
            checked += 1
    ok = worst < 1e-9 and checked > 500
    return CheckResult("series-vs-continued-fraction", ok,
                       f"{checked} points, worst rel gap {worst:.2e}")


def _check_jc() -> CheckResult:
    p = JcParams(kappa=0.25, delta=0.45)
    exact = jc_exact_levels(p, 12)
    spectrum = eigen_lowest(build_hamiltonian("jc", p, 64), 10, 1e-10)
    worst = max(abs(a - b) for a, b in zip(spectrum.eigenvalues, exact[:10]))
    return CheckResult("jc-closed-form", worst < 1e-10,
                       f"worst |error| {worst:.2e} over 10 levels")


def _check_modified_rabi() -> CheckResult:
    worst = 0.0
    for kappa, delta in ((0.7, 0.4), (0.2, 0.1)):
        p = RabiParams(kappa, delta)
        std = eigen_lowest(build_hamiltonian("rabi", p, 200), 10, 1e-9)
        mod = eigen_lowest(build_hamiltonian("rabi-modified", p, 200), 10, 1e-9)
        worst = max(worst, max(abs(a - b) for a, b in
                               zip(std.eigenvalues, mod.eigenvalues)))
    return CheckResult("plane-wave-coupling-equivalence", worst < 1e-8,
                       f"worst |error| {worst:.2e} over 10 levels x 2 settings")


def _check_gen_rabi() -> CheckResult:
    p = GenRabiParams(kappa=0.7, delta=0.4, theta=0.0)
    gen = eigen_lowest(build_hamiltonian("gen-rabi", p, 200), 10, 1e-9)
    std = eigen_lowest(build_hamiltonian("rabi", RabiParams(0.7, 0.4), 200), 10, 1e-9)
    worst = max(abs(a - b) for a, b in zip(gen.eigenvalues, std.eigenvalues))
    return CheckResult("deformed-rabi-theta0", worst < 1e-8,
                       f"worst |error| {worst:.2e} against the undeformed model")


def _check_bessel() -> CheckResult:
    rec = bessel_fixture(1.0)
    target = bessel_j_series(1, 1.0) / bessel_j_series(0, 1.0)
    r0 = ratio_cf(rec, 0.0)
    ok = abs(r0 - target) < 1e-10
    upward = bessel_j_upward(25, 1.0)
    departed = any(
        abs(upward[n] - bessel_j_series(n, 1.0)) > 0.1 * abs(bessel_j_series(n, 1.0))
        for n in range(2, 26))
    ok = ok and departed
    return CheckResult("bessel-fixture", ok,
                       f"|r0 - J1/J0| = {abs(r0 - target):.2e}, "
                       f"upward departs: {departed}")


def _check_laguerre() -> CheckResult:
    p = DhoParams(0.7)
    ups = dho_upward_coefficients(p, 0.3, 30)
    worst = max(abs(ups[n] - laguerre_dominant(p, 0.3, n))
                / abs(laguerre_dominant(p, 0.3, n)) for n in range(31))
    ok = worst < 1e-8
    r500 = abs(laguerre_ratio(p, 0.3, 500))
    ok = ok and abs(r500 - 1.0 / 0.7) < 0.05 / 0.7
    x5 = 5.0 - 0.7 ** 2
    r200 = abs(laguerre_ratio(p, x5, 200)) * 200
    ok = ok and abs(r200 - 0.7) < 0.1 * 0.7
    return CheckResult("laguerre-branches", ok,
                       f"upward err {worst:.1e}, |c501/c500| {r500:.4f}, "
                       f"integer-alpha |ratio|*200 {r200:.4f}")


def _check_minimal_decay() -> CheckResult:
    kappa = 0.7
    checks = []
    rec = dho_recurrence(DhoParams(kappa))
    checks.append(abs(minimal_ratios(rec, 0.51, 200)[200]) * 200)
    prec = parity_rabi_recurrence(RabiParams(kappa, 0.4), "plus")
    zp = _zeros(resolve_spectrum("rabi-parity", RabiParams(kappa, 0.4),
                                 (-1.0, 0.0), parity="plus", points=600))
    checks.append(abs(minimal_ratios(prec, zp[0].x, 200)[200]) * 200)
    ok = all(abs(c - kappa) < 0.1 * kappa for c in checks)
    return CheckResult("minimal-solution-decay", ok,
                       "ratio*n at n=200: " + ", ".join(f"{c:.4f}" for c in checks))


_CHECKS = {
    "dho": (_check_dho_roots, _check_series_cf_identity, _check_laguerre,
            _check_minimal_decay),
    "rabi": (_check_parity_rabi_roots, _check_frame_shift, _check_oracle_match,
             _check_series_cf_identity, _check_minimal_decay),
    "rabi-parity": (_check_parity_rabi_roots, _check_frame_shift,
                    _check_oracle_match, _check_series_cf_identity),
    "jc": (_check_jc,),
    "rabi-modified": (_check_modified_rabi,),
    "gen-rabi": (_check_gen_rabi,),
    "bessel": (_check_bessel,),
}


def run_validation(model: str | None = None) -> list[CheckResult]:
    """Run the cross-validation battery, optionally scoped to one model."""
    if model is None:
        seen = []
        for group in _CHECKS.values():
            for check in group:
                if check not in seen:
                    seen.append(check)
    else:
        if model not in _CHECKS:
            raise ValueError(f"unknown model '{model}'")
        seen = list(_CHECKS[model])
    return [check() for check in seen]
