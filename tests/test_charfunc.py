import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttrspec import (
    AsymptoticProfile,
    CoefficientPoleError,
    DhoParams,
    NonConvergenceError,
    RabiParams,
    Recurrence,
    SeriesStatus,
    bessel_fixture,
    bessel_j_series,
    cf_convergent,
    char_series,
    dho_recurrence,
    minimal_ratios,
    minimal_solution,
    parity_rabi_recurrence,
    rabi_displaced_recurrence,
    ratio_cf,
)
from ttrspec import charfunc


def table_recurrence(a_vals, b_vals, a0=1.0, k=None):
    """Recurrence backed by finite coefficient tables (tests only).

    With ``k`` the fraction ends after level k: a_l = 1 and b_l = 0 beyond.
    """
    def a(n, x):
        return a0 if n == 0 else a_vals[n] if k is None or n <= k else 1.0

    def b(n, x):
        return b_vals[n] if k is None or n <= k else 0.0

    profile = AsymptoticProfile(0.0, -1.0, 1.0, 1.0)
    return Recurrence(a=a, b=b, profile=profile, label="table")


class TestCharSeries:
    def test_dho_vanishes_at_exact_levels(self):
        rec = dho_recurrence(DhoParams(0.7))
        for x in (0.51, -0.49):
            ev = char_series(rec, x)
            assert ev.status is SeriesStatus.CONVERGED
            assert abs(ev.value) < 1e-10

    def test_converged_means_small_last_term(self):
        rec = dho_recurrence(DhoParams(0.7))
        ev = char_series(rec, 0.2)
        assert ev.status is SeriesStatus.CONVERGED
        assert ev.last_term <= charfunc._REL_TOL * abs(ev.value) + charfunc._ABS_TOL

    def test_bessel_fixture_equals_bessel_ratio(self):
        rec = bessel_fixture(1.0)
        target = bessel_j_series(1, 1.0) / bessel_j_series(0, 1.0)
        ev = char_series(rec, 0.0)
        assert ev.value == pytest.approx(target, abs=1e-10)

    def test_pole_status_on_exact_transform_pole(self):
        # u_2 denominator is 1 - b_2/(a_2 a_1); make it vanish exactly
        rec = table_recurrence({1: 1.0, 2: 1.0, 3: 1.0},
                               {1: 1.0, 2: 1.0, 3: 0.1})
        ev = char_series(rec, 0.0)
        assert ev.status is SeriesStatus.POLE
        assert ev.terms_used == 1

    def test_coefficient_pole_raises(self):
        rec = table_recurrence({1: 0.0, 2: 1.0}, {1: 1.0, 2: 1.0})
        with pytest.raises(CoefficientPoleError, match="level 1"):
            char_series(rec, 0.0)

    def test_displaced_rabi_singular_at_integer(self):
        rec = rabi_displaced_recurrence(RabiParams(0.7, 0.4))
        with pytest.raises(CoefficientPoleError):
            char_series(rec, 1.0)

    def test_max_terms_status(self, monkeypatch):
        # constant coefficients converge too slowly for a 5-term cap
        monkeypatch.setattr(charfunc, "_MAX_TERMS", 5)
        a = {n: 1.0 for n in range(1, 50)}
        b = {n: 0.2 for n in range(1, 50)}
        ev = char_series(table_recurrence(a, b), 0.0)
        assert ev.status is SeriesStatus.MAX_TERMS
        assert ev.terms_used == 5


class TestRatioCf:
    def test_bessel_ratio(self):
        rec = bessel_fixture(1.0)
        target = bessel_j_series(1, 1.0) / bessel_j_series(0, 1.0)
        assert ratio_cf(rec, 0.0) == pytest.approx(target, abs=1e-10)

    def test_bessel_ratio_x2(self):
        rec = bessel_fixture(2.0)
        target = bessel_j_series(1, 2.0) / bessel_j_series(0, 2.0)
        assert ratio_cf(rec, 0.0) == pytest.approx(target, abs=1e-10)

    def test_boundary_condition_at_dho_root(self):
        rec = dho_recurrence(DhoParams(0.7))
        r0 = ratio_cf(rec, 0.51)
        assert r0 == pytest.approx(-rec.a(0, 0.51), abs=1e-10)
        assert r0 == pytest.approx(0.51 / 0.7, abs=1e-10)

    def test_non_convergence_carries_both_approximants(self, monkeypatch):
        monkeypatch.setattr(charfunc, "_CF_DEPTH", 2)
        monkeypatch.setattr(charfunc, "_CF_REL_TOL", 1e-300)
        monkeypatch.setattr(charfunc, "_CF_MAX_DEPTH", 8)
        rec = dho_recurrence(DhoParams(0.7))
        with pytest.raises(NonConvergenceError) as err:
            ratio_cf(rec, 0.3)
        assert math.isfinite(err.value.last) and math.isfinite(err.value.previous)
        assert err.value.last != err.value.previous

    def test_series_equals_a0_plus_cf_random_models(self):
        rng = np.random.default_rng(42)
        recs = []
        for _ in range(6):
            kappa = float(rng.uniform(0.3, 1.4))
            delta = float(rng.uniform(0.0, 0.9))
            recs.append(dho_recurrence(DhoParams(kappa)))
            recs.append(parity_rabi_recurrence(
                RabiParams(kappa, delta), "minus"))
        for rec in recs:
            for x in rng.uniform(-0.8, 3.8, size=8):
                ev = char_series(rec, float(x))
                if ev.status is not SeriesStatus.CONVERGED:
                    continue
                other = rec.a(0, float(x)) + ratio_cf(rec, float(x))
                assert abs(ev.value - other) <= 1e-10 * max(1.0, abs(ev.value))


@st.composite
def contractive_tables(draw):
    k = 30
    signs = st.sampled_from([-1.0, 1.0])
    a_vals = {n: draw(signs) * draw(st.floats(1.0, 2.0)) for n in range(1, k + 2)}
    b_vals = {}
    for n in range(1, k + 2):
        y = draw(st.floats(-0.25, 0.25))
        prev = a_vals[n - 1] if n > 1 else 1.0
        b_vals[n] = y * a_vals[n] * prev
    a0 = draw(signs) * draw(st.floats(1.0, 2.0))
    return a_vals, b_vals, a0


class TestEulerIdentity:
    @settings(max_examples=60, deadline=None)
    @given(contractive_tables())
    def test_partial_sums_equal_convergents(self, table):
        a_vals, b_vals, a0 = table
        # the series of the fraction ended after level k sums to its
        # k-th partial sum, which is a_0 plus the k-th convergent
        for k in range(1, 31):
            rec = table_recurrence(a_vals, b_vals, a0=a0, k=k)
            value = char_series(rec, 0.0).value
            conv = a0 + cf_convergent(rec, 0.0, k)
            assert abs(value - conv) <= 1e-12 * max(1.0, abs(conv))

    def test_first_convergent(self):
        rec = table_recurrence({1: 2.0}, {1: 0.5}, a0=1.0, k=1)
        assert cf_convergent(rec, 0.0, 1) == pytest.approx(-0.25)
        assert char_series(rec, 0.0).value == pytest.approx(0.75)

    def test_convergent_validation(self):
        with pytest.raises(ValueError):
            cf_convergent(dho_recurrence(DhoParams(0.7)), 0.0, 0)


class TestSignFlip:
    @settings(max_examples=40, deadline=None)
    @given(kappa=st.floats(0.2, 1.5), x=st.floats(-0.9, 4.2),
           delta=st.floats(0.0, 0.9))
    def test_characteristic_function_odd_in_coupling(self, kappa, x, delta):
        builders = [
            lambda k: dho_recurrence(DhoParams(k)),
            lambda k: rabi_displaced_recurrence(RabiParams(k, delta)),
            lambda k: parity_rabi_recurrence(RabiParams(k, delta), "plus"),
        ]
        for build in builders:
            plus = build(kappa)
            if any(abs(x - p) < 1e-6 for p in plus.explicit_poles(-1.0, 5.0)):
                continue
            ev_plus = char_series(plus, x)
            ev_minus = char_series(build(-kappa), x)
            assert ev_plus.status is ev_minus.status
            if ev_plus.status is SeriesStatus.CONVERGED:
                assert abs(ev_plus.value + ev_minus.value) <= \
                    1e-12 * max(1.0, abs(ev_plus.value))


class TestMinimalSolution:
    def test_dho_first_ratio_is_boundary_value(self):
        rec = dho_recurrence(DhoParams(0.7))
        sol = minimal_solution(rec, 0.51, 60)
        assert sol.m[0] == 1.0
        assert sol.m[1] == pytest.approx(0.51 / 0.7, abs=1e-9)

    def test_dho_residuals_tiny(self):
        rec = dho_recurrence(DhoParams(0.7))
        sol = minimal_solution(rec, 0.51, 60)
        scale = max(abs(v) for v in sol.m)
        assert len(sol.residuals) == 60
        assert max(sol.residuals) <= 1e-10 * scale
        assert all(math.isfinite(r) for r in sol.residuals)

    def test_parity_rabi_boundary_residual_at_root(self):
        rec = parity_rabi_recurrence(RabiParams(0.7, 0.4), "plus")
        sol = minimal_solution(rec, -0.4270437, 40)
        assert sol.residuals[0] <= 1e-6

    def test_decay_rate_dho_and_parity(self):
        kappa = 0.7
        rec = dho_recurrence(DhoParams(kappa))
        rs = minimal_ratios(rec, 0.51, 200)
        assert abs(rs[200]) * 200 == pytest.approx(kappa, rel=0.1)
        for parity, root in (("plus", -0.4270436746), ("minus", -0.7078050641)):
            prec = parity_rabi_recurrence(RabiParams(kappa, 0.4), parity)
            rsp = minimal_ratios(prec, root, 200)
            assert abs(rsp[200]) * 200 == pytest.approx(kappa, rel=0.1)

    def test_decay_rate_displaced_frame(self):
        # the displaced frame has a_coef = -1/(2 kappa), so the minimal
        # tail is -b/a ~ 2 kappa / n rather than kappa / n
        rec = rabi_displaced_recurrence(RabiParams(0.7, 0.4))
        rs = minimal_ratios(rec, 0.0629563254, 200)
        assert abs(rs[200]) * 200 == pytest.approx(2 * 0.7, rel=0.1)

    def test_validation(self):
        rec = dho_recurrence(DhoParams(0.7))
        with pytest.raises(ValueError):
            minimal_solution(rec, 0.51, -1)
        with pytest.raises(ValueError):
            minimal_ratios(rec, 0.51, -1)
