import math

import numpy as np
import pytest

from ttrspec import (
    CoefficientPoleError,
    DhoParams,
    JcParams,
    RabiParams,
    bessel_fixture,
    bessel_j_series,
    dho_exact_levels,
    dho_recurrence,
    jc_exact_levels,
    parity_rabi_recurrence,
    rabi_displaced_recurrence,
    ratio_cf,
    resolve_spectrum,
)
from ttrspec.models import recurrences_for


class TestParamValidation:
    def test_kappa_nonzero(self):
        for cls in (DhoParams, RabiParams):
            with pytest.raises(ValueError, match="kappa"):
                cls(kappa=0.0)

    def test_kappa_and_delta_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            for cls in (DhoParams, RabiParams):
                with pytest.raises(ValueError, match="finite"):
                    cls(kappa=bad)
            with pytest.raises(ValueError, match="finite"):
                RabiParams(kappa=0.7, delta=bad)

    def test_parity_choices(self):
        with pytest.raises(ValueError, match="parity"):
            parity_rabi_recurrence(RabiParams(0.7), "up")


class TestDho:
    def test_coefficients(self):
        rec = dho_recurrence(DhoParams(0.7))
        assert rec.a(0, 0.51) == pytest.approx(-0.51 / 0.7)
        assert rec.b(3, 0.0) == pytest.approx(0.25)

    def test_profile(self):
        prof = dho_recurrence(DhoParams(0.7)).profile
        assert prof.tau == 1.0
        assert prof.a_coef == pytest.approx(1.0 / 0.7)
        assert prof.b_coef == 1.0

    def test_no_explicit_poles(self):
        rec = dho_recurrence(DhoParams(0.7))
        assert rec.explicit_poles(-10.0, 10.0) == []

    def test_exact_levels(self):
        assert dho_exact_levels(DhoParams(0.7), 2) == pytest.approx(
            [-0.49, 0.51, 1.51])
        assert dho_exact_levels(DhoParams(1e-12), 3) == pytest.approx(
            [0.0, 1.0, 2.0, 3.0])
        assert dho_exact_levels(DhoParams(1.0), 5)[5] == pytest.approx(4.0)

    def test_exact_levels_validation(self):
        with pytest.raises(ValueError):
            dho_exact_levels(DhoParams(0.7), -1)


class TestDisplacedRabi:
    def test_coefficient_by_hand(self):
        rec = rabi_displaced_recurrence(RabiParams(0.7, 0.4))
        f1 = 2 * 0.7 + (1 / (2 * 0.7)) * (0.5 - 0.16 / 0.5)
        assert f1 == pytest.approx(1.5285714285714285)
        assert rec.a(1, 0.5) == pytest.approx(-f1 / 2)
        assert rec.b(1, 0.5) == pytest.approx(0.5)

    def test_delta_zero_reduction(self):
        rec = rabi_displaced_recurrence(RabiParams(0.7, 0.0))
        assert rec.profile.a_coef == pytest.approx(-1.0 / 1.4)
        assert rec.explicit_poles(-1.0, 3.0) == []
        # f_n collapses to 2 kappa + (n - x)/(2 kappa)
        n, x = 3, 0.2
        f = 2 * 0.7 + (n - x) / 1.4
        assert rec.a(n, x) == pytest.approx(-f / (n + 1))

    def test_explicit_poles_window(self):
        rec = rabi_displaced_recurrence(RabiParams(0.7, 0.4))
        assert rec.explicit_poles(-1.0, 3.0) == [0.0, 1.0, 2.0]
        assert rec.explicit_poles(-1.0, 2.9) == [0.0, 1.0, 2.0]
        assert rec.explicit_poles(0.5, 0.9) == []

    def test_pole_error_at_integer(self):
        rec = rabi_displaced_recurrence(RabiParams(0.7, 0.4))
        with pytest.raises(CoefficientPoleError, match="x = 2"):
            rec.a(2, 2.0)

    def test_energy_shift(self):
        rec = rabi_displaced_recurrence(RabiParams(0.7, 0.4))
        assert rec.energy_shift == pytest.approx(0.49)


class TestParityRabi:
    def test_plus_coefficient(self):
        rec = parity_rabi_recurrence(RabiParams(0.7, 0.4), "plus")
        # (-1)^1 makes the shift -delta at n = 1
        assert rec.a(1, 0.0) == pytest.approx((1 - 0.4) / (0.7 * 2))

    def test_minus_coefficient(self):
        rec = parity_rabi_recurrence(RabiParams(0.7, 0.4), "minus")
        assert rec.a(0, 0.0) == pytest.approx(-0.4 / 0.7)

    def test_delta_zero_matches_dho_exactly(self):
        rng = np.random.default_rng(3)
        dho = dho_recurrence(DhoParams(0.7))
        for parity in ("plus", "minus"):
            rec = parity_rabi_recurrence(RabiParams(0.7, 0.0), parity)
            for x in rng.uniform(-2.0, 8.0, size=40):
                for n in (0, 1, 2, 17, 255, 10 ** 4):
                    assert rec.a(n, float(x)) == dho.a(n, float(x))
                    assert rec.b(n, float(x)) == dho.b(n, float(x))

    def test_no_explicit_poles(self):
        rec = parity_rabi_recurrence(RabiParams(0.7, 0.4), "plus")
        assert rec.explicit_poles(-5.0, 5.0) == []


class TestJcLevels:
    def test_decoupled_limit(self):
        levels = jc_exact_levels(JcParams(kappa=0.0, delta=0.5), 2)
        assert levels == pytest.approx([-0.5, 0.5, 0.5, 1.5, 1.5, 2.5, 2.5])

    def test_first_block_by_hand(self):
        levels = jc_exact_levels(JcParams(kappa=0.1, delta=0.5), 0)
        assert levels == pytest.approx([-0.5, 0.4, 0.6])

    def test_blocks_match_two_by_two_diagonalization(self):
        p = JcParams(0.37 / 1.3, 0.4 / 1.3)
        expected = [-p.delta]
        for n in range(8):
            block = np.array([
                [n + p.delta, p.kappa * np.sqrt(n + 1)],
                [p.kappa * np.sqrt(n + 1), (n + 1) - p.delta],
            ])
            expected.extend(np.linalg.eigvalsh(block))
        expected = sorted(expected)
        assert jc_exact_levels(p, 7) == pytest.approx(expected, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            jc_exact_levels(JcParams(0.1, 0.5), -1)


class TestBesselFixture:
    def test_ratio_against_series_oracle(self):
        for x in (1.0, 2.0):
            rec = bessel_fixture(x)
            target = bessel_j_series(1, x) / bessel_j_series(0, x)
            assert ratio_cf(rec, 0.0) == pytest.approx(target, abs=1e-10)

    def test_first_coefficient_vanishes(self):
        rec = bessel_fixture(1.0)
        assert rec.a(0, 0.0) == 0.0
        assert rec.b(5, 0.0) == 1.0

    def test_rejects_zero_argument(self):
        with pytest.raises(ValueError):
            bessel_fixture(0.0)


class TestRecurrencesFor:
    def test_parity_branches(self):
        branches = recurrences_for("rabi-parity", RabiParams(0.7, 0.4))
        assert [label for _, label in branches] == [1, -1]
        single = recurrences_for("rabi-parity", RabiParams(0.7, 0.4),
                                 parity="minus")
        assert [label for _, label in single] == [-1]

    @pytest.mark.parametrize("model, params", [
        ("dho", DhoParams(0.7)), ("rabi", RabiParams(0.7, 0.4)),
        ("rabi-parity", RabiParams(0.7, 0.4))])
    def test_unknown_parity_rejected(self, model, params):
        with pytest.raises(ValueError, match="parity"):
            recurrences_for(model, params, parity="sideways")
        with pytest.raises(ValueError, match="parity"):
            resolve_spectrum(model, params, (-1.0, 1.0), parity="sideways")

    def test_single_recurrence_models(self):
        assert len(recurrences_for("dho", DhoParams(0.7))) == 1
        assert len(recurrences_for("rabi", RabiParams(0.7, 0.4))) == 1

    def test_oracle_only_models_rejected(self):
        with pytest.raises(ValueError, match="recurrence"):
            recurrences_for("gen-rabi", RabiParams(0.7, 0.4))
        with pytest.raises(ValueError, match="recurrence"):
            recurrences_for("jc", JcParams(0.1, 0.5))
