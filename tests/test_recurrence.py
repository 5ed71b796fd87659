import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ttrspec import (
    AsymptoticProfile,
    DhoParams,
    NumericsError,
    RabiParams,
    Recurrence,
    SeriesStatus,
    bessel_fixture,
    build_hamiltonian,
    char_series,
    classify,
    dho_recurrence,
    eigen_lowest,
    parity_rabi_recurrence,
    rabi_displaced_recurrence,
    tail_ratio_estimate,
    upward_recursion,
)


def shipped_recurrences():
    return [
        dho_recurrence(DhoParams(0.7)),
        rabi_displaced_recurrence(RabiParams(0.7, 0.4)),
        parity_rabi_recurrence(RabiParams(0.7, 0.4), "plus"),
        parity_rabi_recurrence(RabiParams(0.7, 0.4), "minus"),
        bessel_fixture(1.0),
    ]


class TestClassify:
    def test_dho_profile_admissible(self):
        rep = classify(AsymptoticProfile(delta=0.0, upsilon=-1.0,
                                         a_coef=1.0 / 0.7, b_coef=1.0))
        assert rep.two_delta_gt_upsilon
        assert rep.tau_ok
        assert rep.bargmann_ok
        assert rep.k == pytest.approx(-0.7)

    def test_growth_ordering_violation(self):
        rep = classify(AsymptoticProfile(delta=1.0, upsilon=2.0,
                                         a_coef=1.0, b_coef=1.0))
        assert not rep.two_delta_gt_upsilon
        assert not rep.bargmann_ok

    def test_tau_boundary_with_large_k(self):
        rep = classify(AsymptoticProfile(delta=0.5, upsilon=0.0,
                                         a_coef=1.0, b_coef=-2.0))
        assert rep.tau_ok
        assert rep.k == pytest.approx(2.0)
        assert not rep.bargmann_ok
        assert "|k|" in rep.notes

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(ValueError, match="degenerate"):
            classify(AsymptoticProfile(delta=0.0, upsilon=-1.0,
                                       a_coef=0.0, b_coef=1.0))

    @given(delta=st.floats(-2, 2), upsilon=st.floats(-2, 2),
           a=st.floats(-3, 3).filter(lambda v: abs(v) > 1e-3),
           b=st.floats(-3, 3))
    def test_pure_and_consistent(self, delta, upsilon, a, b):
        prof = AsymptoticProfile(delta=delta, upsilon=upsilon, a_coef=a, b_coef=b)
        first = classify(prof)
        second = classify(prof)
        assert first == second
        tau = delta - upsilon
        assert first.bargmann_ok == (tau > 0.5 or (tau == 0.5 and abs(first.k) < 1))
        assert first.k == -b / a


class TestTailRatio:
    def test_dho_formula(self):
        rec = dho_recurrence(DhoParams(0.7))
        n, x = 10 ** 4, 0.51
        expected = -0.7 / (n + 1 - x)
        assert tail_ratio_estimate(rec, n, x) == pytest.approx(expected, rel=1e-14)

    def test_bessel_value(self):
        rec = bessel_fixture(1.0)
        assert tail_ratio_estimate(rec, 100, 0.0) == pytest.approx(1.0 / 202.0)

    def test_displaced_rabi_by_hand(self):
        rec = rabi_displaced_recurrence(RabiParams(0.7, 0.4))
        n, x = 10 ** 3, 0.3
        gap = (n + 1) - x
        f = 2 * 0.7 + (gap - 0.4 ** 2 / gap) / (2 * 0.7)
        assert tail_ratio_estimate(rec, n, x) == pytest.approx(1.0 / f, rel=1e-14)

    def test_degenerate_seed(self):
        rec = dho_recurrence(DhoParams(0.7))
        # a(n+1, x) = 0 at x = n + 1
        with pytest.raises(NumericsError, match="tail seed"):
            tail_ratio_estimate(rec, 4, 5.0)

    def test_requires_positive_level(self):
        rec = dho_recurrence(DhoParams(0.7))
        with pytest.raises(ValueError):
            tail_ratio_estimate(rec, 0, 0.3)


class TestProfileLimits:
    @pytest.mark.parametrize("rec", shipped_recurrences(),
                             ids=lambda r: r.label)
    def test_coefficients_reach_power_law(self, rec):
        rng = np.random.default_rng(20240811)
        n = 10 ** 6
        prof = rec.profile
        for x in rng.uniform(-0.9, 4.9, size=100):
            if any(abs(x - p) < 1e-3 for p in rec.explicit_poles(-1.0, 5.0)):
                continue
            a_scaled = rec.a(n, x) / n ** prof.delta
            b_scaled = rec.b(n, x) / n ** prof.upsilon
            assert abs(a_scaled - prof.a_coef) <= 0.01 * abs(prof.a_coef)
            assert abs(b_scaled - prof.b_coef) <= 0.01 * abs(prof.b_coef)

    @pytest.mark.parametrize("rec", shipped_recurrences(),
                             ids=lambda r: r.label)
    def test_b_nonzero_and_finite_away_from_poles(self, rec):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-0.9, 4.9, size=50):
            if any(abs(x - p) < 1e-3 for p in rec.explicit_poles(-1.0, 5.0)):
                continue
            for n in (1, 2, 17, 400):
                assert rec.b(n, x) != 0.0
                assert math.isfinite(rec.b(n, x))
                assert math.isfinite(rec.a(n, x))

    def test_coefficient_functions_are_pure(self):
        rec = dho_recurrence(DhoParams(0.7))
        assert rec.a(3, 0.4) == rec.a(3, 0.4)
        assert rec.b(5, -1.2) == rec.b(5, -1.2)


class TestUpwardRecursion:
    def test_reproduces_recurrence_rows(self):
        rec = dho_recurrence(DhoParams(0.7))
        x = 0.3
        cs = upward_recursion(rec, x, 1.0, x / 0.7, 20)
        assert len(cs) == 21
        for n in range(1, 20):
            defect = cs[n + 1] + rec.a(n, x) * cs[n] + rec.b(n, x) * cs[n - 1]
            assert abs(defect) < 1e-12 * max(abs(c) for c in cs[: n + 2])

    def test_trivial_lengths(self):
        rec = dho_recurrence(DhoParams(0.7))
        assert upward_recursion(rec, 0.0, 2.0, 3.0, 0) == [2.0]
        assert upward_recursion(rec, 0.0, 2.0, 3.0, 1) == [2.0, 3.0]


class TestEnergyMap:
    def test_displaced_frame_shift(self):
        rec = rabi_displaced_recurrence(RabiParams(0.7, 0.4))
        assert rec.energy_of(0.49) == pytest.approx(0.0)
        assert rec.x_of(0.0) == pytest.approx(0.49)

    def test_identity_maps(self):
        for rec in (dho_recurrence(DhoParams(0.7)),
                    parity_rabi_recurrence(RabiParams(0.7, 0.4), "plus")):
            assert rec.energy_of(1.23) == 1.23
            assert rec.x_of(-0.5) == -0.5


def fixed_pivot_count(rec, x, levels=600):
    """Negative forward pivots among the first ``levels``, no stopping rule."""
    if rec.sectors:
        energy = rec.energy_of(x)
        return sum(fixed_pivot_count(s, s.x_of(energy), levels) for s in rec.sectors)
    sg = 1.0 if rec.profile.a_coef > 0 else -1.0
    count, p = 0, rec.a(0, x)
    for n in range(levels):
        if p == 0.0:
            p = sg * np.finfo(float).eps
        elif sg * p < 0.0:
            count += 1
        p = rec.a(n + 1, x) - rec.b(n + 1, x) / p
    return count


class TestLevelCount:
    KAPPAS = (0.1, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0, -0.7, -2.0)
    DELTAS = (0.0, 0.2, 0.5, 0.9, 1.5)
    E_MAX = 12.0

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_counts_match_diagonalization(self, kappa):
        """levels_below equals the oracle's count below E: per parity label
        for the sectors, and over the whole Rabi spectrum for the displaced
        frame, degenerate pairs included at delta = 0."""
        rng = np.random.default_rng(int(1000 * abs(kappa)) + (kappa < 0))
        checked = 0
        for delta in self.DELTAS:
            p = RabiParams(kappa, delta)
            k = 2 * math.ceil(self.E_MAX + kappa * kappa + delta) + 6
            spec = eigen_lowest(build_hamiltonian("rabi", p, 128), k, 1e-9)
            assert spec.eigenvalues[-1] > self.E_MAX
            levels = np.array(spec.eigenvalues)
            labels = spec.parities
            sectors = {label: parity_rabi_recurrence(RabiParams(kappa, delta), name)
                       for label, name in ((1, "plus"), (-1, "minus"))}
            displaced = rabi_displaced_recurrence(p)
            dho = dho_recurrence(DhoParams(kappa))
            energies = rng.uniform(-kappa * kappa - delta - 1.0, self.E_MAX, 32)
            for e in energies:
                if np.min(np.abs(levels - e)) < 1e-7:
                    continue
                below = [labels[i] for i, v in enumerate(levels) if v < e]
                ladder = len(below) // 2
                labeled = all(label is not None for label in below)
                assert labeled or delta == 0.0
                cases = [(rec, float(e), below.count(label) if labeled else ladder)
                         for label, rec in sectors.items()]
                cases.append((displaced, displaced.x_of(e), len(below)))
                if delta == 0.0:
                    cases.append((dho, float(e), ladder))
                for rec, x, expect in cases:
                    got = rec.levels_below(x)
                    assert got == expect, (rec.label, kappa, delta, e)
                    assert got == fixed_pivot_count(rec, x), (rec.label, kappa, delta, e)
                    checked += 1
        assert checked > 400

    def test_steps_at_levels_on_coefficient_zeros(self):
        # kappa = 1: the levels are x = l - 1, each on a zero of a_{l-1}
        rec = dho_recurrence(DhoParams(1.0))
        for l in range(9):
            assert rec.levels_below(l - 1 - 1e-12) == l
            assert rec.levels_below(l - 1 + 1e-12) == l + 1

    def test_non_finite_pivot_raises(self):
        rec = dho_recurrence(DhoParams(0.7))
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(NumericsError, match="non-finite pivot"):
                rec.levels_below(x)

    def test_unsettled_count_raises(self, monkeypatch):
        monkeypatch.setattr("ttrspec.recurrence._MAX_LEVELS", 20)
        rec = dho_recurrence(DhoParams(0.7))
        with pytest.raises(NumericsError, match="did not settle"):
            rec.levels_below(50.0)

    def test_series_is_not_the_count(self):
        """char_series needs no level past where its series converges, and
        it can converge before the last pivot sign change, so the count
        cannot ride along inside it."""
        def a(n, x):
            if n > 3:
                raise IndexError(n)
            return 1.0 + n

        def b(n, x):
            if n > 3:
                raise IndexError(n)
            return 1e-20

        shallow = Recurrence(a=a, b=b, profile=AsymptoticProfile(1.0, 0.0, 1.0, 0.0))
        ev = char_series(shallow, 0.0)
        assert ev.status is SeriesStatus.CONVERGED and ev.terms_used <= 3

        rec = dho_recurrence(DhoParams(0.1))
        ev = char_series(rec, 7.5)
        assert ev.status is SeriesStatus.CONVERGED and ev.terms_used == 7
        # levels l - 0.01 for l = 0..7 lie below 7.5; the last negative
        # pivot is p_7, past the series' last term
        assert rec.levels_below(7.5) == 8
