"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import zeros_of
from ttrspec import (
    AsymptoticProfile,
    DhoParams,
    RabiParams,
    Recurrence,
    SeriesStatus,
    bessel_fixture,
    bessel_j_series,
    bessel_j_upward,
    build_hamiltonian,
    cf_convergent,
    char_series,
    dho_recurrence,
    dho_upward_coefficients,
    eigen_lowest,
    flow,
    laguerre_dominant,
    parity_rabi_recurrence,
    rabi_displaced_recurrence,
    ratio_cf,
    resolve_spectrum,
)
from ttrspec.cli import cli
from ttrspec.oracle import laguerre_ratio


def test_criterion_1_dho_exact_spectrum():
    """Seven zeros at l - 0.49 over [-1, 6], each within 1e-8, under 5 s."""
    t0 = time.perf_counter()
    result = CliRunner().invoke(cli, [
        "roots", "--model", "dho", "--kappa", "0.7",
        "--x-min", "-1", "--x-max", "6", "--points", "4000",
        "--format", "json"])
    elapsed = time.perf_counter() - t0
    assert result.exit_code == 0
    payload = json.loads(result.output)
    zeros = [r for r in payload["roots"] if r["classification"] == "Zero"]
    assert len(zeros) == 7
    worst = max(abs(r["x"] - (l - 0.49)) for l, r in enumerate(zeros))
    assert worst < 1e-8
    assert elapsed < 5.0
    print(f"PASS criterion 1: 7 DHO zeros, worst error {worst:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_2_rabi_parity_roots():
    """Quoted zeros of both parity branches and of the displaced frame."""
    p = RabiParams(kappa=0.7, delta=0.4)
    parity_roots = zeros_of(resolve_spectrum("rabi-parity", p, (-1.0, 1.0),
                                             points=2000))
    minus = [r.x for r in parity_roots if r.parity == -1]
    plus = [r.x for r in parity_roots if r.parity == 1]
    assert any(abs(x - (-0.707805)) <= 1e-4 for x in minus)
    assert any(abs(x - (-0.4270437)) <= 1e-5 for x in plus)

    displaced_roots = zeros_of(resolve_spectrum("rabi", p, (-1.0, 1.0),
                                                points=2000))
    xs = [r.x for r in displaced_roots]
    assert any(abs(x - (-0.217805)) <= 1e-4 for x in xs)
    assert any(abs(x - 0.0629563) <= 1e-5 for x in xs)
    # the frame shift is +kappa^2 exactly
    for r in displaced_roots:
        assert r.x - r.energy == pytest.approx(0.49, abs=1e-12)
    print(f"PASS criterion 2: parity zeros {min(minus):.6f}/{min(plus):.7f}, "
          f"displaced-frame zeros {xs[0]:.6f}/{xs[1]:.7f}")


@pytest.mark.parametrize("kappa,delta", [(0.7, 0.4), (0.2, 0.1), (1.0, 0.7)])
def test_criterion_3_oracle_equivalence(kappa, delta):
    """Zeros in [-1, 4] pair one-to-one with certified oracle levels."""
    p = RabiParams(kappa, delta)
    zeros = zeros_of(resolve_spectrum("rabi-parity", p, (-1.0, 4.0),
                                      points=2500))
    spectrum = eigen_lowest(build_hamiltonian("rabi", p, 200), 16, 1e-9)
    oracle = [(e, pl) for e, pl in zip(spectrum.eigenvalues, spectrum.parities)
              if -1.0 <= e <= 4.0]
    pole_energies = [n - kappa * kappa for n in range(8)]
    oracle = [(e, pl) for e, pl in oracle
              if min(abs(e - q) for q in pole_energies) > 1e-8]

    assert len(zeros) == len(oracle)
    used = set()
    for z in zeros:
        matches = [i for i, (e, pl) in enumerate(oracle)
                   if abs(e - z.energy) <= 1e-6 and pl == z.parity
                   and i not in used]
        assert len(matches) >= 1
        used.add(matches[0])
    assert len(used) == len(oracle)
    print(f"PASS criterion 3 (kappa={kappa}, delta={delta}): "
          f"{len(zeros)} levels matched one-to-one within 1e-6")


def test_criterion_4_series_cf_identity():
    """Series route equals a_0 + continued fraction on 500-point grids."""
    cases = [
        ("dho", dho_recurrence(DhoParams(0.7)), (-1.0, 6.0)),
        ("rabi", rabi_displaced_recurrence(RabiParams(0.7, 0.4)), (-0.5, 1.45)),
        ("parity+", parity_rabi_recurrence(RabiParams(0.7, 0.4), "plus"),
         (-1.0, 4.0)),
        ("parity-", parity_rabi_recurrence(RabiParams(0.7, 0.4), "minus"),
         (-1.0, 4.0)),
    ]
    worst = 0.0
    for label, rec, (lo, hi) in cases:
        grid = np.linspace(lo + 1e-4, hi - 1e-4, 500)
        poles = rec.explicit_poles(lo, hi)
        for x in grid:
            x = float(x)
            if any(abs(x - q) < 1e-3 for q in poles):
                continue
            ev = char_series(rec, x)
            if ev.status is not SeriesStatus.CONVERGED:
                continue
            other = rec.a(0, x) + ratio_cf(rec, x)
            gap = abs(ev.value - other) / max(1.0, abs(ev.value))
            assert gap <= 1e-9, f"{label} at x={x}"
            worst = max(worst, gap)

    # the series of the fraction ended after level k (a_l = 1, b_l = 0
    # beyond it) = a_0 + its k-th convergent
    rng = np.random.default_rng(20240809)
    worst_identity = 0.0
    for _ in range(30):
        a_vals = {n: float(rng.choice([-1, 1]) * rng.uniform(1.0, 2.0))
                  for n in range(1, 32)}
        b_vals = {}
        for n in range(1, 32):
            prev = a_vals[n - 1] if n > 1 else 1.0
            b_vals[n] = float(rng.uniform(-0.25, 0.25)) * a_vals[n] * prev
        a0 = float(rng.uniform(1.0, 2.0))
        for k in range(1, 31):
            def a(n, x, _a=a_vals, _a0=a0, _k=k):
                return _a0 if n == 0 else _a[n] if n <= _k else 1.0

            def b(n, x, _b=b_vals, _k=k):
                return _b[n] if n <= _k else 0.0

            rec = Recurrence(a=a, b=b,
                             profile=AsymptoticProfile(0.0, -1.0, 1.0, 1.0))
            conv = a0 + cf_convergent(rec, 0.0, k)
            gap = abs(char_series(rec, 0.0).value - conv) / max(1.0, abs(conv))
            assert gap <= 1e-12
            worst_identity = max(worst_identity, gap)
    print(f"PASS criterion 4: grid identity worst {worst:.2e} (<=1e-9), "
          f"partial-sum identity worst {worst_identity:.2e} (<=1e-12)")


def test_criterion_5_degeneracy_and_splitting():
    """Parity root sets coincide at delta = 0 and split monotonically."""
    p0 = RabiParams(0.7, 0.0)
    plus = zeros_of(resolve_spectrum("rabi-parity", p0, (-1.0, 2.3),
                                     parity="plus", points=1200))
    minus = zeros_of(resolve_spectrum("rabi-parity", p0, (-1.0, 2.3),
                                      parity="minus", points=1200))
    assert len(plus) == len(minus) == 3
    exact = [l - 0.49 for l in range(3)]
    for a, b, e in zip(plus, minus, exact):
        assert abs(a.x - b.x) <= 1e-10
        assert abs(a.x - e) <= 1e-10

    result = flow("rabi-parity", p0, ("delta", 0.0, 0.2, 6), (-1.0, 2.3),
                  points=1200)
    assert len(result.tracks) == 6
    pairs = {}
    for track in result.tracks:
        pairs.setdefault(round(track[0][1].energy, 6), []).append(dict(track))
    assert len(pairs) == 3
    for level, pair in sorted(pairs.items())[:3]:
        gaps = [abs(pair[0][i].energy - pair[1][i].energy)
                for i in range(len(result.sweep_values))]
        assert gaps[0] <= 1e-10
        assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:])), level
    print("PASS criterion 5: delta=0 degeneracy <=1e-10 at DHO levels, "
          "3 lowest pairs split monotonically over delta in [0, 0.2]")


def test_criterion_6_dominant_vs_minimal_branch():
    """Upward recursion tracks the closed form; branch character by alpha."""
    p = DhoParams(0.7)
    x = 0.3  # alpha = 0.79, not an integer
    ups = dho_upward_coefficients(p, x, 30)
    worst = max(abs(ups[n] - laguerre_dominant(p, x, n))
                / abs(laguerre_dominant(p, x, n)) for n in range(31))
    assert worst <= 1e-8

    ratio500 = abs(laguerre_ratio(p, x, 500))
    assert abs(ratio500 - 1 / 0.7) <= 0.05 * (1 / 0.7)

    x_int = 5.0 - 0.7 ** 2
    assert x_int + 0.7 ** 2 == 5.0
    ratio200 = abs(laguerre_ratio(p, x_int, 200)) * 200
    assert abs(ratio200 - 0.7) <= 0.1 * 0.7
    print(f"PASS criterion 6: upward/closed-form gap {worst:.1e} (<=1e-8), "
          f"|c501/c500|={ratio500:.4f} (~1/kappa), "
          f"integer-alpha |ratio|*200={ratio200:.4f} (~kappa)")


def test_criterion_7_bessel_caution():
    """Backward ratio is exact; upward recursion decays into noise."""
    rec = bessel_fixture(1.0)
    target = bessel_j_series(1, 1.0) / bessel_j_series(0, 1.0)
    r0 = ratio_cf(rec, 0.0)
    assert abs(r0 - target) <= 1e-10

    upward = bessel_j_upward(25, 1.0)
    depart_n = None
    for n in range(2, 26):
        ref = bessel_j_series(n, 1.0)
        if abs(upward[n] - ref) > 0.1 * abs(ref):
            depart_n = n
            break
    assert depart_n is not None
    print(f"PASS criterion 7: |r0 - J1/J0| = {abs(r0 - target):.1e} (<=1e-10), "
          f"upward recursion departs >10% at n = {depart_n}")


def test_criterion_8_plane_wave_rabi():
    """Phase-rotated plane-wave coupling reproduces the standard spectrum."""
    worst = 0.0
    for kappa, delta in ((0.7, 0.4), (0.2, 0.1)):
        p = RabiParams(kappa, delta)
        std = eigen_lowest(build_hamiltonian("rabi", p, 200), 10, 1e-9)
        mod = eigen_lowest(build_hamiltonian("rabi-modified", p, 200), 10, 1e-9)
        assert std.converged_count == mod.converged_count == 10
        gap = max(abs(a - b) for a, b in zip(std.eigenvalues, mod.eigenvalues))
        assert gap <= 1e-8
        worst = max(worst, gap)
    print(f"PASS criterion 8: modified vs standard spectra agree, "
          f"worst gap {worst:.2e} (<=1e-8)")
