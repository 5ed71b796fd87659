import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ttrspec import oracle
from ttrspec import (
    DhoParams,
    GenRabiParams,
    JcParams,
    NonConvergenceError,
    NumericsError,
    RabiParams,
    bessel_j_series,
    bessel_j_upward,
    build_hamiltonian,
    dho_exact_levels,
    dho_upward_coefficients,
    eigen_lowest,
    jc_exact_levels,
    laguerre_dominant,
)
from ttrspec.oracle import (
    _label,
    _lowest,
    _parity_expectations,
    _sectors,
    laguerre_ratio,
)

# the benchmark's crosscheck grid, read from its own module
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

ALL_TAGS = ["dho", "rabi", "jc", "gen-rabi", "rabi-modified"]


def params_for(tag):
    return {
        "dho": DhoParams(0.7),
        "rabi": RabiParams(0.7, 0.4),
        "jc": JcParams(0.25, 0.45),
        "gen-rabi": GenRabiParams(0.7, 0.4, theta=0.2),
        "rabi-modified": RabiParams(0.7, 0.4),
    }[tag]


def entrywise_spin_boson(tag, p, cutoff):
    """A spinful matrix placed one entry at a time (index 2n + s), the
    reference for the block-built matrices of ``build_hamiltonian``."""
    bias = p.theta if tag == "gen-rabi" else p.delta
    h = np.zeros((2 * cutoff, 2 * cutoff),
                 dtype=complex if tag == "rabi-modified" else float)
    for n in range(cutoff):
        h[2 * n, 2 * n] = n + bias
        h[2 * n + 1, 2 * n + 1] = n - bias
        if tag == "gen-rabi":
            h[2 * n, 2 * n + 1] = h[2 * n + 1, 2 * n] = p.delta
        if n + 1 == cutoff:
            continue
        c = p.kappa * math.sqrt(n + 1)
        for s in ((0,) if tag == "jc" else (0, 1)):
            if tag == "gen-rabi":  # kappa sigma3 (a^+ + a)
                i, j = 2 * n + s, 2 * (n + 1) + s
                h[i, j] = h[j, i] = (1.0, -1.0)[s] * c
            elif tag == "rabi-modified":  # i kappa sigma1 (a^+ - a)
                i, j = 2 * n + s, 2 * (n + 1) + (1 - s)
                h[i, j] = -1j * c
                h[j, i] = np.conj(h[i, j])
            else:  # kappa sigma1 (a^+ + a), or its sigma^+ a + h.c. part
                i, j = 2 * n + s, 2 * (n + 1) + (1 - s)
                h[i, j] = h[j, i] = c
    return h


class TestBuildHamiltonian:
    @pytest.mark.parametrize("tag", ["rabi", "jc", "gen-rabi", "rabi-modified"])
    def test_blocks_match_entrywise_reference(self, tag):
        # byte for byte, signed zeros included, over signs and scales of
        # the couplings
        for kappa in (0.7, -0.7, 2.0, 1e-300):
            for delta in (0.0, -0.0, 0.4, -0.3):
                p = (GenRabiParams(kappa, delta, theta=-delta)
                     if tag == "gen-rabi" else
                     JcParams(kappa, delta) if tag == "jc" else
                     RabiParams(kappa, delta))
                for cutoff in (4, 17):
                    got = build_hamiltonian(tag, p, cutoff).entries
                    want = entrywise_spin_boson(tag, p, cutoff)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (kappa, delta, cutoff)

    def test_dho_two_by_two(self):
        h = build_hamiltonian("dho", DhoParams(0.7), 4)
        assert h.entries[:2, :2] == pytest.approx(np.array([[0.0, 0.7],
                                                            [0.7, 1.0]]))

    def test_free_field_is_diagonal(self):
        h = build_hamiltonian("rabi", RabiParams(1e-300, 0.0), 6)
        off = h.entries - np.diag(np.diag(h.entries))
        assert np.max(np.abs(off)) < 1e-299
        assert np.diag(h.entries)[:6] == pytest.approx([0, 0, 1, 1, 2, 2])

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_symmetric_and_banded(self, tag):
        h = build_hamiltonian(tag, params_for(tag), 24)
        # Hermitian: symmetric for every model but the complex rabi-modified
        assert np.array_equal(h.entries, h.entries.conj().T)
        i, j = np.nonzero(h.entries)
        assert np.max(np.abs(i - j), initial=0) <= 4

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown model tag"):
            build_hamiltonian("squeezed", DhoParams(0.7), 16)

    def test_cutoff_floor(self):
        with pytest.raises(ValueError, match="cutoff"):
            build_hamiltonian("dho", DhoParams(0.7), 3)


class TestEigenLowest:
    def test_dho_exact_spectrum(self):
        h = build_hamiltonian("dho", DhoParams(0.7), 64)
        spec = eigen_lowest(h, 5, 1e-10)
        assert spec.eigenvalues == pytest.approx(
            dho_exact_levels(DhoParams(0.7), 4), abs=1e-8)
        assert spec.parities == [None] * 5
        assert spec.converged_count == 5

    def test_jc_matches_closed_form(self):
        p = JcParams(0.25, 0.45)
        spec = eigen_lowest(build_hamiltonian("jc", p, 64), 10, 1e-10)
        assert spec.eigenvalues == pytest.approx(jc_exact_levels(p, 12)[:10],
                                                 abs=1e-10)

    def test_decoupled_rabi_levels(self):
        p = RabiParams(1e-300, 0.2)
        spec = eigen_lowest(build_hamiltonian("rabi", p, 32), 6, 1e-10)
        assert spec.eigenvalues == pytest.approx(
            [-0.2, 0.2, 0.8, 1.2, 1.8, 2.2], abs=1e-12)

    def test_rabi_parity_labels_alternate_from_ground(self):
        spec = eigen_lowest(build_hamiltonian("rabi", RabiParams(0.7, 0.4), 128),
                            4, 1e-9)
        assert spec.eigenvalues[0] == pytest.approx(-0.7078050641, abs=1e-6)
        assert spec.parities[:4] == [-1, 1, -1, 1]

    def test_parity_expectation_near_unit_modulus(self):
        h = build_hamiltonian("gen-rabi", GenRabiParams(0.7, 0.4, theta=0.0), 128)
        vals, vecs = np.linalg.eigh(h.entries)
        pe = _parity_expectations(vecs[:, :6])
        assert all(abs(abs(v) - 1.0) < 1e-8 for v in pe)

    def test_broken_symmetry_gets_no_label(self):
        p = GenRabiParams(0.7, 0.4, theta=0.3)
        spec = eigen_lowest(build_hamiltonian("gen-rabi", p, 128), 6, 1e-9)
        assert all(label is None for label in spec.parities)

    def test_gen_rabi_theta_zero_labels(self):
        p = GenRabiParams(0.7, 0.4, theta=0.0)
        spec = eigen_lowest(build_hamiltonian("gen-rabi", p, 128), 4, 1e-9)
        assert spec.parities == [-1, 1, -1, 1]

    def test_k_window_guard(self):
        h = build_hamiltonian("dho", DhoParams(0.7), 16)
        with pytest.raises(ValueError, match="dimension/4"):
            eigen_lowest(h, 5, 1e-8)

    def test_nonconvergence_carries_both_spectra(self):
        # kappa = 6 centers the displaced state near n = 36, far beyond
        # the largest cutoff three doublings can reach from 4
        p = RabiParams(6.0, 1.0)
        h = build_hamiltonian("rabi", p, 4)
        with pytest.raises(NonConvergenceError) as err:
            eigen_lowest(h, 2, 1e-10)
        last, previous = (list(_lowest(build_hamiltonian("rabi", p, c), 2)[0])
                          for c in (32, 16))
        assert err.value.last == last
        assert err.value.previous == previous
        assert last != previous


def record_builds(monkeypatch):
    """Record every matrix ``eigen_lowest`` builds, in order."""
    built = []
    real_build = oracle.build_hamiltonian

    def recording(*args):
        built.append(real_build(*args))
        return built[-1]

    monkeypatch.setattr(oracle, "build_hamiltonian", recording)
    return built


def doubling_route(h, k, tol):
    """The certificate without the half: compare c with 2c, 2c with 4c
    and 4c with 8c, and return the first larger matrix that agrees."""
    prev, cur = _lowest(h, k)[0], h
    for _ in range(3):
        cur = build_hamiltonian(cur.model_tag, cur.params, 2 * cur.cutoff)
        vals, labels = _lowest(cur, k)
        if np.max(np.abs(vals - prev)) < tol:
            return [float(v) for v in vals], labels
        prev = vals
    raise AssertionError("the doubling route did not converge")


class TestHalfCertificate:
    """``eigen_lowest`` certifies the caller's cutoff c against c // 2 and
    doubles only where the half disagrees."""

    def test_disagreeing_half_takes_the_doubling_route(self, monkeypatch):
        p, cutoff, k, tol = RabiParams(0.7, 0.4), 24, 6, 1e-10
        h = build_hamiltonian("rabi", p, cutoff)
        half = build_hamiltonian("rabi", p, cutoff // 2)
        assert np.max(np.abs(_lowest(h, k)[0] - _lowest(half, k)[0])) >= tol
        want = doubling_route(h, k, tol)
        built = record_builds(monkeypatch)
        spec = eigen_lowest(h, k, tol)
        assert [m.cutoff for m in built] == [cutoff // 2, 2 * cutoff]
        assert (spec.eigenvalues, spec.parities) == want

    @pytest.mark.parametrize("tag,cutoff,k,half_built", [
        ("rabi", 64, 16, True),
        ("rabi", 64, 17, False),   # k > dimension(32)/4 = 16
        ("rabi", 8, 2, True),
        ("rabi", 8, 3, False),     # k > dimension(4)/4 = 2
        ("rabi", 7, 1, False),     # 7 // 2 < 4
        ("dho", 8, 1, True),
        ("dho", 8, 2, False),      # k > dimension(4)/4 = 1
    ])
    def test_half_built_only_within_the_guard(self, monkeypatch, tag, cutoff,
                                              k, half_built):
        # decoupled, so every cutoff holds the exact lowest levels
        p = DhoParams(1e-300) if tag == "dho" else RabiParams(1e-300, 0.2)
        h = build_hamiltonian(tag, p, cutoff)
        built = record_builds(monkeypatch)
        eigen_lowest(h, k, 1e-10)
        assert [m.cutoff for m in built] == [cutoff // 2 if half_built else 2 * cutoff]

    @pytest.mark.parametrize("delta", [0.0, 0.9])
    @pytest.mark.parametrize("kappa", workloads.GRID_KAPPAS)
    def test_agrees_with_the_doubled_matrix_on_the_crosscheck_grid(self, kappa, delta):
        # the spectrum certified at cutoff 200 is that of the 400 matrix
        # the doubling certificate returned, to rounding
        p = RabiParams(kappa, delta)
        k = workloads._levels_needed(kappa, delta, workloads.CROSSCHECK_E_HI)
        cutoff = workloads.CROSSCHECK_CUTOFF
        spec = eigen_lowest(build_hamiltonian("rabi", p, cutoff), k)
        vals, labels = _lowest(build_hamiltonian("rabi", p, 2 * cutoff), k)
        assert np.max(np.abs(np.array(spec.eigenvalues) - vals)) <= 1e-12
        assert spec.parities == labels


class TestBlockDiagonalization:
    """``eigen_lowest`` diagonalizes each parity sector alone."""

    @staticmethod
    def _final_matrix(monkeypatch, tag, p, cutoff, k, tol):
        """The spectrum and its certified matrix: the caller's own, or the
        last doubling."""
        h = oracle.build_hamiltonian(tag, p, cutoff)
        built = record_builds(monkeypatch)
        spec = eigen_lowest(h, k, tol)
        doublings = [m for m in built if m.cutoff > cutoff]
        return spec, doublings[-1] if doublings else h

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_values_and_labels_match_dense(self, monkeypatch, tag):
        k = 10
        spec, final = self._final_matrix(monkeypatch, tag, params_for(tag), 48, k, 1e-10)
        vals, vecs = np.linalg.eigh(final.entries)
        assert np.max(np.abs(np.array(spec.eigenvalues)
                             - np.linalg.eigvalsh(final.entries)[:k])) < 1e-12
        # dense reference: <sigma3 (-1)**n>, in spin-boson form
        # <sigma1 (-1)**n>, over the eigenvectors of the whole matrix
        vecs = vecs[:, :k]
        n = np.arange(final.dimension) // 2
        if tag == "gen-rabi":
            sign = (-1.0) ** n[0::2]
            dense = 2.0 * np.sum(sign[:, None] * vecs[0::2] * vecs[1::2], axis=0)
        else:
            s3 = np.where(np.arange(final.dimension) % 2 == 0, 1.0, -1.0)
            dense = np.sum(((-1.0) ** n * s3)[:, None] * np.abs(vecs) ** 2, axis=0)
        for i in range(k):
            gap = min(abs(vals[i] - vals[j]) for j in (i - 1, i + 1) if j >= 0)
            if gap > 1e-9:
                want = None if tag == "dho" else _label(dense[i])
                assert spec.parities[i] == want, i

    def test_degenerate_pairs_keep_their_own_labels(self):
        # at delta = 0 every Rabi level is a degenerate pair, one per chain
        spec = eigen_lowest(build_hamiltonian("rabi", RabiParams(0.7, 0.0), 64),
                            8, 1e-10)
        for i in range(0, 8, 2):
            assert abs(spec.eigenvalues[i] - spec.eigenvalues[i + 1]) < 1e-9
            assert sorted(spec.parities[i:i + 2]) == [-1, 1]

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_sector_sizes(self, tag):
        h = build_hamiltonian(tag, params_for(tag), 64)
        sectors = _sectors(h)
        if tag in ("dho", "gen-rabi"):
            assert list(sectors) == [None]
            assert np.array_equal(sectors[None], np.arange(h.dimension))
            return
        # i = 2n + s with sigma3 = +1 at s = 0: the parity is (-1)**(n + s)
        assert {label: idx[:4].tolist() for label, idx in sectors.items()} == {
            1: [0, 3, 4, 7], -1: [1, 2, 5, 6]}
        assert [len(idx) for idx in sectors.values()] == [64, 64]

    def test_coupling_across_sectors_raises(self):
        h = build_hamiltonian("rabi", RabiParams(0.7, 0.4), 32)
        entries = h.entries.copy()
        # a sigma1 term at n = 0 joins the two spin states of opposite parity
        entries[0, 1] = entries[1, 0] = 0.1
        with pytest.raises(NumericsError, match="couples the two sectors"):
            eigen_lowest(dataclasses.replace(h, entries=entries), 4, 1e-8)

    def test_no_solver_call_wider_than_the_cutoff(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def recording(a, *args, _name=name, _real=real, **kwargs):
                calls.append((_name, a.shape[-1]))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        spec = eigen_lowest(build_hamiltonian("rabi", RabiParams(0.7, 0.4), 100),
                            14, 1e-8)
        assert spec.converged_count == 14
        assert {width for _, width in calls} == {50, 100}
        # no model but gen-rabi needs eigenvectors
        for tag in ("rabi-modified", "jc", "dho"):
            eigen_lowest(build_hamiltonian(tag, params_for(tag), 100), 14, 1e-8)
        assert {name for name, _ in calls} == {"eigvalsh"}

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_tol_rejected_before_any_solve(self, monkeypatch, tol):
        def forbidden(*args, **kwargs):
            raise AssertionError("diagonalized before rejecting tol")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        h = build_hamiltonian("rabi", RabiParams(0.7, 0.4), 64)
        with pytest.raises(ValueError, match="tol"):
            eigen_lowest(h, 4, tol)


class TestModifiedRabi:
    @pytest.mark.parametrize("kappa,delta", [(0.7, 0.4), (0.2, 0.1), (2.0, 0.4)])
    def test_spectrum_equals_standard_rabi(self, kappa, delta):
        p = RabiParams(kappa, delta)
        std = eigen_lowest(build_hamiltonian("rabi", p, 200), 10, 1e-9)
        mod = eigen_lowest(build_hamiltonian("rabi-modified", p, 200), 10, 1e-9)
        assert np.max(np.abs(np.array(std.eigenvalues)
                             - np.array(mod.eigenvalues))) < 1e-8

    def test_matrix_is_complex_hermitian(self):
        h = build_hamiltonian("rabi-modified", RabiParams(0.7, 0.4), 16)
        assert h.entries.dtype == np.complex128
        assert np.any(h.entries.imag)
        assert np.array_equal(h.entries, h.entries.conj().T)


class TestGenRabiOracle:
    def test_theta_zero_equals_standard_rabi(self):
        gen = eigen_lowest(build_hamiltonian(
            "gen-rabi", GenRabiParams(0.7, 0.4, theta=0.0), 200), 10, 1e-9)
        std = eigen_lowest(build_hamiltonian(
            "rabi", RabiParams(0.7, 0.4), 200), 10, 1e-9)
        assert np.max(np.abs(np.array(gen.eigenvalues)
                             - np.array(std.eigenvalues))) < 1e-8


class TestLaguerreBranch:
    def test_low_orders_closed_form(self):
        p = DhoParams(0.7)
        x = 0.3
        alpha = x + 0.49
        assert laguerre_dominant(p, x, 0) == pytest.approx(0.7 ** alpha)
        assert laguerre_dominant(p, x, 1) == pytest.approx(0.7 ** (alpha - 1) * x)

    def test_upward_recursion_tracks_closed_form(self):
        p = DhoParams(0.7)
        ups = dho_upward_coefficients(p, 0.3, 30)
        for n in range(31):
            ref = laguerre_dominant(p, 0.3, n)
            assert abs(ups[n] - ref) <= 1e-8 * abs(ref)

    def test_dominant_ratio_at_n200(self):
        p = DhoParams(0.7)
        ratio = laguerre_dominant(p, 0.3, 201) / laguerre_dominant(p, 0.3, 200)
        assert abs(ratio) == pytest.approx(1.0 / 0.7, rel=0.05)
        assert ratio < 0

    def test_dominant_ratio_at_n500(self):
        p = DhoParams(0.7)
        ratio = laguerre_dominant(p, 0.3, 501) / laguerre_dominant(p, 0.3, 500)
        assert abs(ratio) == pytest.approx(1.0 / 0.7, rel=0.05)

    def test_scaled_ratio_agrees_with_direct(self):
        p = DhoParams(0.7)
        direct = laguerre_dominant(p, 0.3, 501) / laguerre_dominant(p, 0.3, 500)
        assert laguerre_ratio(p, 0.3, 500) == pytest.approx(direct, rel=1e-12)

    def test_integer_alpha_follows_minimal_decay(self):
        p = DhoParams(0.7)
        x = 5.0 - 0.7 ** 2
        assert x + 0.7 ** 2 == 5.0  # alpha must round to exactly 5
        ratio = laguerre_ratio(p, x, 200)
        assert abs(ratio) * 200 == pytest.approx(0.7, rel=0.1)
        assert abs(ratio) == pytest.approx(0.7 / (201 - 5), rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            laguerre_dominant(DhoParams(0.7), 0.3, -1)
        with pytest.raises(ValueError):
            laguerre_dominant(DhoParams(-0.7), 0.3, 2)


class TestBesselSeries:
    def test_fixed_points(self):
        assert bessel_j_series(0, 0.0) == 1.0
        assert bessel_j_series(1, 1.0) == pytest.approx(0.4400505857, abs=1e-9)
        assert bessel_j_series(0, 1.0) == pytest.approx(0.7651976866, abs=1e-9)

    def test_recurrence_consistency(self):
        # 2n/x J_n = J_{n-1} + J_{n+1} must hold to near machine accuracy
        x = 2.5
        for n in (1, 3, 7):
            lhs = 2 * n / x * bessel_j_series(n, x)
            rhs = bessel_j_series(n - 1, x) + bessel_j_series(n + 1, x)
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            bessel_j_series(61, 1.0)
        with pytest.raises(ValueError):
            bessel_j_series(0, 11.0)

    def test_upward_recursion_departs(self):
        upward = bessel_j_upward(25, 1.0)
        departed = False
        for n in range(2, 26):
            ref = bessel_j_series(n, 1.0)
            if abs(upward[n] - ref) > 0.1 * abs(ref):
                departed = True
                break
        assert departed
