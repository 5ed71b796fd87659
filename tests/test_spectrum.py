import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import pole_crossings_of, zeros_of
from ttrspec import (
    AsymptoticProfile,
    DhoParams,
    NumericsError,
    RabiParams,
    Recurrence,
    RootKind,
    SeriesStatus,
    bessel_fixture,
    build_hamiltonian,
    char_series,
    dho_exact_levels,
    dho_recurrence,
    eigen_lowest,
    find_roots,
    flow,
    parity_rabi_recurrence,
    rabi_displaced_recurrence,
    ratio_cf,
    resolve_spectrum,
    scan,
)
from ttrspec.charfunc import CharEval
from ttrspec.spectrum import ScanResult


def constant_fixture():
    """a_n = 1 with rapidly vanishing b_n: the series is a_0 plus dust."""
    def a(n, x):
        return 1.0

    def b(n, x):
        return 0.01 * 0.5 ** n

    return Recurrence(a=a, b=b,
                      profile=AsymptoticProfile(0.0, -1.0, 1.0, 0.0),
                      label="constant")


class TestScan:
    def test_validation(self):
        rec = dho_recurrence(DhoParams(0.7))
        with pytest.raises(ValueError):
            scan(rec, 2.0, 1.0, 100)
        with pytest.raises(ValueError):
            scan(rec, 0.0, 1.0, 8)

    def test_grid_through_a_zero_seed_coefficient(self):
        # at x = 5, a_5 = 0 and the series takes a_0 + ratio_cf, whose
        # walk must not seed its pass with -b_5/a_5
        rec = dho_recurrence(DhoParams(0.01))
        sr = scan(rec, 0.0, 10.0, 21)
        (row,) = np.flatnonzero(sr.xs == 5.0)
        backward = rec.a(0, 5.0) + ratio_cf(rec, 5.0)
        assert sr.fs[row] == (backward, 0, SeriesStatus.CONVERGED, 0.0)

    def test_invariants(self):
        rec = dho_recurrence(DhoParams(0.7))
        sr = scan(rec, -1.0, 6.0, 500)
        assert np.all(np.diff(sr.xs) > 0)
        assert np.all(np.diff(sr.branch_ids) >= 0)
        assert len(sr.fs) == len(sr.xs)

    def test_dho_branch_structure(self):
        rec = dho_recurrence(DhoParams(0.7))
        sr = scan(rec, -1.0, 6.0, 4000)
        n_branches = int(sr.branch_ids[-1]) + 1
        assert n_branches >= 7
        exact = dho_exact_levels(DhoParams(0.7), 6)
        for level in exact:
            cells = [
                i for i in range(len(sr.xs) - 1)
                if sr.xs[i] <= level <= sr.xs[i + 1]
                and sr.branch_ids[i] == sr.branch_ids[i + 1]
                and sr.fs[i].status is SeriesStatus.CONVERGED
                and sr.fs[i + 1].status is SeriesStatus.CONVERGED
                and sr.fs[i].value * sr.fs[i + 1].value < 0
            ]
            assert len(cells) == 1

    def test_dho_branches_monotone(self):
        rec = dho_recurrence(DhoParams(0.7))
        sr = scan(rec, -1.0, 6.0, 2000)
        for branch in range(int(sr.branch_ids[-1]) + 1):
            vals = [f.value for f, b in zip(sr.fs, sr.branch_ids)
                    if b == branch and f.status is SeriesStatus.CONVERGED]
            if len(vals) < 2:
                continue
            diffs = np.diff(vals)
            assert np.all(diffs < 0) or np.all(diffs > 0)

    def test_constant_fixture_single_branch_no_roots(self):
        rec = constant_fixture()
        sr = scan(rec, -1.0, 1.0, 200)
        assert int(sr.branch_ids[-1]) == 0
        assert all(f.status is SeriesStatus.CONVERGED for f in sr.fs)
        assert all(f.value > 0.9 for f in sr.fs)
        assert find_roots(sr, rec) == []

    def test_displaced_rabi_boundaries_at_explicit_poles(self):
        # at delta = 0 the integers are no poles but degenerate levels,
        # where the count rises by 2 and no branch may end
        for delta, x_lo, x_hi, points in ((0.4, -1.0, 3.0, 2000),
                                          (0.0, -0.51, 2.49, 200)):
            rec = rabi_displaced_recurrence(RabiParams(0.7, delta))
            sr = scan(rec, x_lo, x_hi, points)
            bounds = [0.5 * (sr.xs[i - 1] + sr.xs[i])
                      for i in range(1, len(sr.xs))
                      if sr.branch_ids[i] != sr.branch_ids[i - 1]]
            poles = rec.explicit_poles(x_lo, x_hi)
            assert len(poles) == (3 if delta else 0)
            for x in (0.0, 1.0, 2.0):
                at_pole = any(abs(x - p) < 1e-12 for p in poles)
                assert any(abs(b - x) < 5e-3 for b in bounds) == at_pole, (delta, x)

    def test_grid_points_nudged_off_poles(self):
        rec = rabi_displaced_recurrence(RabiParams(0.7, 0.4))
        # linspace(-1, 3, 2001) hits 0, 1, 2 exactly without the nudge, and
        # x_hi = 3 is a pole too: that row is nudged inward
        sr = scan(rec, -1.0, 3.0, 2001)
        assert not any(float(x) in (0.0, 1.0, 2.0, 3.0) for x in sr.xs)
        assert sr.xs[-1] == 3.0 - 4e-9 and sr.poles == [0.0, 1.0, 2.0]
        assert sr.fs[-1].status is SeriesStatus.CONVERGED

    @pytest.mark.parametrize("rec, x_lo, x_hi, points", [
        (dho_recurrence(DhoParams(0.7)), -1.0, 6.0, 500),
        (parity_rabi_recurrence(RabiParams(1.5, 0.7), "minus"), -3.0, 8.0, 400),
        (rabi_displaced_recurrence(RabiParams(0.7, 0.4)), -0.5, 3.5, 300),
        # linspace(-1, 3, 2001) hits the poles 0, 1, 2: the grid is nudged
        (rabi_displaced_recurrence(RabiParams(0.7, 0.4)), -1.0, 3.0, 2001),
        # at delta = 0 the count rises by 2 at every degenerate pair
        (rabi_displaced_recurrence(RabiParams(0.7, 0.0)), -1.0, 3.0, 2001),
        # linspace(-1, 7, 801) hits the levels x = l - 1 of kappa = 1
        (dho_recurrence(DhoParams(1.0)), -1.0, 7.0, 801),
        # coefficients that ignore x: the count is flat
        (bessel_fixture(1.0), -1.0, 1.0, 50),
    ])
    def test_grid_counts_equal_scalar_counts(self, rec, x_lo, x_hi, points):
        sr = scan(rec, x_lo, x_hi, points)
        assert sr.counts.tolist() == [rec.levels_below(float(x)) for x in sr.xs]
        # the rows are the nudged grid plus the bracket ends of every root;
        # a row near a pole of [x_lo, x_hi] moves up, or down at x_hi
        nudge = 1e-9 * (x_hi - x_lo)
        poles = rec.explicit_poles(x_lo, math.nextafter(x_hi, math.inf))
        grid = [x + (nudge if x < x_hi else -nudge)
                if any(abs(x - p) < nudge for p in poles) else x
                for x in np.linspace(x_lo, x_hi, points).tolist()]
        ends = [x for r in find_roots(sr, rec) for x in r.bracket]
        assert sr.xs.tolist() == sorted(set(grid + ends))

    def test_coefficients_take_one_float(self):
        """The count and the series pass the coefficients one float x at a
        time, so closures that call float(x) scan and solve as the shipped
        ones do."""
        kappa = 0.7
        shipped = dho_recurrence(DhoParams(kappa))
        scalar = replace(shipped, a=lambda n, x: (n - float(x)) / ((n + 1) * kappa),
                         b=lambda n, x: 1.0 / (n + 1))
        roots = find_roots(scan(scalar, -1.0, 6.0, 500), scalar)
        assert len(roots) == 7
        assert roots == find_roots(scan(shipped, -1.0, 6.0, 500), shipped)

    def test_falling_count_raises(self):
        # a_n grows with x: the mirror image of DHO kappa = 1, whose count
        # falls with x, so the count cannot place its zeros
        mirrored = Recurrence(a=lambda n, x: (n + x) / (n + 1),
                              b=lambda n, x: 1.0 / (n + 1),
                              profile=AsymptoticProfile(0.0, -1.0, 1.0, 1.0),
                              label="mirrored")
        with pytest.raises(NumericsError, match="count falls"):
            scan(mirrored, -1.5, 2.5, 64)


class TestFindRoots:
    def test_dho_exact_levels(self):
        rec = dho_recurrence(DhoParams(0.7))
        sr = scan(rec, -1.0, 6.0, 4000)
        roots = find_roots(sr, rec)
        zeros = zeros_of(roots)
        assert len(zeros) == 7
        for l, root in enumerate(zeros):
            assert abs(root.x - (l - 0.49)) < 1e-8
            assert root.bracket[0] <= root.x <= root.bracket[1]
            assert root.bracket[1] - root.bracket[0] <= 1e-10

    def test_no_pole_misclassified_as_zero(self):
        rec = dho_recurrence(DhoParams(0.7))
        sr = scan(rec, -1.0, 6.0, 4000)
        exact = dho_exact_levels(DhoParams(0.7), 6)
        for root in zeros_of(find_roots(sr, rec)):
            assert min(abs(root.x - e) for e in exact) < 1e-8

    def test_parity_rabi_quoted_zeros(self):
        for parity, expected, tol in (("minus", -0.707805, 1e-4),
                                      ("plus", -0.4270437, 1e-5)):
            rec = parity_rabi_recurrence(RabiParams(0.7, 0.4), parity)
            sr = scan(rec, -1.0, 1.0, 1500)
            zeros = zeros_of(find_roots(sr, rec))
            assert any(abs(r.x - expected) < tol for r in zeros)

    def test_exceptional_point_guard(self):
        # a pole abscissa declared within 1e-9 of a refined zero must
        # demote it to PoleCrossing, a possible exceptional point; scan
        # with the clean recurrence so the candidate reaches bisection
        base = dho_recurrence(DhoParams(0.7))
        planted = Recurrence(a=base.a, b=base.b, profile=base.profile,
                             explicit_poles=lambda lo, hi: [0.51],
                             label="planted")
        sr = scan(base, 0.4, 0.6, 64)
        roots = find_roots(sr, planted)
        assert zeros_of(roots) == []
        flagged = pole_crossings_of(roots)
        assert len(flagged) == 1
        assert abs(flagged[0].x - 0.51) < 1e-6


    def test_degenerate_levels_reported_not_dropped(self):
        # two copies of the DHO ladder: every level is doubly degenerate,
        # so no cell can hold just one of them, and each cell gives two
        # Zeros at one x
        dho = dho_recurrence(DhoParams(0.7))
        doubled = Recurrence(a=dho.a, b=dho.b, profile=dho.profile,
                             sectors=(dho, dho), label="doubled")
        sr = scan(doubled, -1.0, 2.0, 300)
        roots = find_roots(sr, doubled)
        assert zeros_of(roots) == roots
        assert len(roots) == 6
        for l, level in enumerate(dho_exact_levels(DhoParams(0.7), 2)):
            pair = roots[2 * l:2 * l + 2]
            assert [r.index for r in pair] == [2 * l, 2 * l + 1]
            assert pair[0].x == pair[1].x
            lo, hi = pair[0].bracket
            assert pair[1].bracket == (lo, hi)
            assert hi - lo <= 1e-10
            assert lo <= level <= hi

    def test_rising_cells_read_at_the_grid_edges(self):
        # a hand-built scan: rising first and last cells, a cell rising by
        # 2, a PoleDetected end set at x = 1, a cell with no converged
        # end, and a declared pole at a bracket end
        base = dho_recurrence(DhoParams(0.7))
        rec = Recurrence(a=base.a, b=base.b, profile=base.profile,
                         explicit_poles=lambda lo, hi: [p for p in (1.505,)
                                                        if lo <= p < hi],
                         label="planted")
        xs = [-0.5, -0.48, 0.2, 0.5, 0.52, 1.0, 1.505, 1.515, 2.0, 2.5, 2.52]
        pole = CharEval(math.nan, 0, SeriesStatus.POLE, math.inf)
        fs = [char_series(rec, x) for x in xs[:-2]]
        fs[5] = pole
        sr = ScanResult(xs=np.asarray(xs), fs=fs + [pole, pole],
                        counts=np.asarray([0, 1, 1, 1, 3, 3, 4, 4, 4, 4, 5]),
                        poles=[])
        got = [(r.index, r.bracket, r.x, r.residual, r.classification)
               for r in find_roots(sr, rec)]
        zero, crossing = RootKind.ZERO, RootKind.POLE_CROSSING
        assert got == [
            (0, (-0.5, -0.48), -0.4900000017631298, 4.11140795844853e-09, zero),
            (1, (0.5, 0.52), 0.5100000573056643, 2.727141574897063e-07, zero),
            (2, (0.5, 0.52), 0.5100000573056643, 2.727141574897063e-07, zero),
            (3, (1.0, 1.505), 1.505, 0.10122292665318013, crossing),
            (4, (2.5, 2.52), 2.51, math.inf, zero),
        ]
        assert all(type(v) is float for r in find_roots(sr, rec)
                   for v in (r.x, r.energy, *r.bracket))

    def test_pole_hugging_zero_is_a_zero(self):
        # at kappa = 0.12 the pole next to E = 6 - kappa**2 lies about
        # 1e-14 from the level: one cell holds both, the count certifies it
        p = DhoParams(0.12)
        zeros = zeros_of(resolve_spectrum("dho", p, (-1.0, 6.5)))
        assert [r.energy for r in zeros] == pytest.approx(
            dho_exact_levels(p, 6), abs=1e-8)


class TestResolveSpectrum:
    @pytest.mark.parametrize("model, params, window", [
        ("dho", DhoParams(0.7), (-1.0, 6.0)),
        ("rabi-parity", RabiParams(1.5, 0.7), (-3.0, 8.0)),
    ])
    def test_char_evaluated_on_scan_rows_and_to_polish(self, monkeypatch, model,
                                                       params, window):
        # every char(x) of a solve is made under exactly one of scan and
        # find_roots: one per scan row (the grid plus at most two bracket
        # ends per level) and at most three per level in find_roots (the
        # secant steps; the bracket ends are the scan's rows)
        import ttrspec.spectrum as spectrum

        layers = (spectrum.scan.__code__, spectrum.find_roots.__code__)
        callers, rows = [], []
        traced_scan = spectrum.scan

        def counting(*args, **kwargs):
            codes = set()
            frame = sys._getframe(1)
            while frame is not None:
                codes.add(frame.f_code)
                frame = frame.f_back
            callers.append(tuple(c for c in layers if c in codes))
            return char_series(*args, **kwargs)

        def recording_scan(*args, **kwargs):
            sr = traced_scan(*args, **kwargs)
            rows.append(len(sr.xs))
            return sr

        monkeypatch.setattr(spectrum, "char_series", counting)
        monkeypatch.setattr(spectrum, "scan", recording_scan)
        roots = resolve_spectrum(model, params, window, points=4000)
        assert roots
        assert all(len(c) == 1 for c in callers)
        assert callers.count(layers[:1]) == sum(rows)
        assert sum(rows) <= 4000 * len(rows) + 2 * len(roots)
        assert len(callers) - sum(rows) <= 3 * len(roots)

    def test_solves_compute_no_branch_ids(self, monkeypatch):
        # branch ids are a cached property that only ``ttrspec scan`` reads
        import ttrspec.spectrum as spectrum

        results = []
        traced_scan = spectrum.scan

        def recording_scan(*args, **kwargs):
            results.append(traced_scan(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(spectrum, "scan", recording_scan)
        resolve_spectrum("rabi", RabiParams(0.7, 0.4), (-1.0, 3.0), points=400)
        flow("rabi-parity", RabiParams(0.7, 0.4), ("delta", 0.0, 0.4, 3),
             (-1.0, 2.0), points=300)
        assert len(results) == 1 + 3 * 2
        assert all("branch_ids" not in vars(sr) for sr in results)
        assert results[0].poles == [0.0, 1.0, 2.0, 3.0]
        assert results[0].branch_ids[-1] >= 4  # each pole ends a branch
        assert "branch_ids" in vars(results[0])

    def test_dho_energies(self):
        roots = zeros_of(resolve_spectrum("dho", DhoParams(0.7), (-1.0, 6.0),
                                          points=2000))
        assert [r.energy for r in roots] == pytest.approx(
            dho_exact_levels(DhoParams(0.7), 6), abs=1e-8)
        assert all(r.parity is None for r in roots)

    def test_parity_window_contains_quoted_energies(self):
        roots = zeros_of(resolve_spectrum("rabi-parity", RabiParams(0.7, 0.4),
                                          (-1.0, 1.0), points=1500))
        minus = [r for r in roots if r.parity == -1]
        plus = [r for r in roots if r.parity == 1]
        assert abs(minus[0].energy - (-0.707805)) < 1e-4
        assert abs(plus[0].energy - (-0.4270437)) < 1e-5
        assert [r.energy for r in roots] == sorted(r.energy for r in roots)

    def test_displaced_frame_matches_parity_energies(self):
        # both brackets are at most 1e-10 wide; at delta = 0 every level
        # is a degenerate pair
        window = (-1.0, 1.0)
        for delta in (0.4, 0.0):
            parity = zeros_of(resolve_spectrum("rabi-parity", RabiParams(0.7, delta),
                                               window, points=1500))
            displaced = zeros_of(resolve_spectrum("rabi", RabiParams(0.7, delta),
                                                  window, points=1500))
            assert len(parity) == len(displaced), delta
            for a, b in zip(parity, displaced):
                assert abs(a.energy - b.energy) <= 2e-10, delta

    def test_displaced_frame_x_is_shifted(self):
        displaced = zeros_of(resolve_spectrum("rabi", RabiParams(0.7, 0.4),
                                              (-1.0, 1.0), points=1500))
        for r in displaced:
            assert r.x - r.energy == pytest.approx(0.49)

    def test_single_parity_selection(self):
        only_minus = zeros_of(resolve_spectrum(
            "rabi-parity", RabiParams(0.7, 0.4), (-1.0, 1.0),
            parity="minus", points=1000))
        assert all(r.parity == -1 for r in only_minus)
        both = zeros_of(resolve_spectrum(
            "rabi-parity", RabiParams(0.7, 0.4), (-1.0, 1.0),
            parity="both", points=1000))
        only_plus = zeros_of(resolve_spectrum(
            "rabi-parity", RabiParams(0.7, 0.4), (-1.0, 1.0),
            parity="plus", points=1000))
        assert only_minus == [r for r in both if r.parity == -1]
        assert only_plus == [r for r in both if r.parity == 1]
        assert only_minus and only_plus

    def test_window_validation(self):
        with pytest.raises(ValueError):
            resolve_spectrum("dho", DhoParams(0.7), (2.0, -1.0))

    @pytest.mark.parametrize("kappa", [1.0, math.sqrt(2.0)])
    def test_dho_levels_on_coefficient_zeros(self, kappa):
        """Every level over [-1, 6] sits on, or within rounding of, a zero
        of some a_n, where the series raises or loses digits."""
        p = DhoParams(kappa)
        exact = [e for e in dho_exact_levels(p, 10) if -1.5 <= e <= 6.5]
        assert len(exact) == 8
        zeros = zeros_of(resolve_spectrum("dho", p, (-1.5, 6.5)))
        assert [r.energy for r in zeros] == pytest.approx(exact, abs=1e-8)


class TestOracleGrid:
    """rabi-parity and rabi against certified diagonalization over the
    35-case grid."""

    E_HI = 4.0

    @staticmethod
    def disagreements(zeros, levels, parities, window):
        """Zeros matching no level (one-to-one, within 1e-6, same parity
        where both the zero and the oracle carry a label), plus levels
        inside the window that no zero matched.  A level within 1e-6 of a window end is neither
        required nor spurious: at that tolerance it may lie on either side
        (rabi-parity kappa = 2, delta = 0 has a degenerate pair at E = 4,
        which the oracle puts 5e-14 below and 3e-15 above the end)."""
        used = set()
        bad = 0
        for z in zeros:
            near = [i for i, (e, label) in enumerate(zip(levels, parities))
                    if i not in used and abs(e - z.energy) <= 1e-6
                    and (None in (label, z.parity) or label == z.parity)]
            if not near:
                bad += 1
                continue
            used.add(min(near, key=lambda i: abs(levels[i] - z.energy)))
        lo, hi = window
        bad += sum(1 for i, e in enumerate(levels)
                   if lo + 1e-6 <= e <= hi - 1e-6 and i not in used)
        return bad

    @pytest.mark.parametrize("kappa", [0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0])
    def test_no_disagreements(self, kappa):
        for delta in (0.0, 0.2, 0.5, 0.9, 1.5):
            p = RabiParams(kappa, delta)
            window = (-kappa * kappa - delta - 0.5, self.E_HI)
            k = 2 * math.ceil(self.E_HI + kappa * kappa + delta) + 4
            spec = eigen_lowest(build_hamiltonian("rabi", p, 200), k)
            assert spec.eigenvalues[-1] > self.E_HI
            for model in ("rabi-parity", "rabi"):
                roots = resolve_spectrum(model, p, window, points=1000)
                assert all(r.classification is RootKind.ZERO for r in roots)
                bad = self.disagreements(roots, spec.eigenvalues, spec.parities,
                                         window)
                assert bad == 0, (model, kappa, delta)


class TestDeterminism:
    def test_scan_bitwise_stable(self):
        rec = parity_rabi_recurrence(RabiParams(0.7, 0.4), "plus")
        a = scan(rec, -1.0, 2.0, 700)
        b = scan(rec, -1.0, 2.0, 700)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.branch_ids, b.branch_ids)
        assert [f.value for f in a.fs] == [f.value for f in b.fs]

    def test_resolve_bitwise_stable(self):
        first = resolve_spectrum("rabi-parity", RabiParams(0.7, 0.4),
                                 (-1.0, 1.0), points=900)
        second = resolve_spectrum("rabi-parity", RabiParams(0.7, 0.4),
                                  (-1.0, 1.0), points=900)
        assert first == second


class TestFlow:
    def test_degenerate_pairs_at_delta_zero(self):
        result = flow("rabi-parity", RabiParams(0.7, 0.0),
                      ("delta", 0.0, 0.2, 4), (-1.0, 2.3), points=900)
        exact = dho_exact_levels(DhoParams(0.7), 2)
        at_zero = sorted(r.energy for r in result.levels[0])
        assert len(at_zero) == 6
        for pair, level in zip(np.array(at_zero).reshape(3, 2), exact):
            assert abs(pair[0] - pair[1]) < 1e-10
            assert abs(pair[0] - level) < 1e-10

    def test_pairs_split_monotonically(self):
        result = flow("rabi-parity", RabiParams(0.7, 0.0),
                      ("delta", 0.0, 0.2, 5), (-1.0, 2.3), points=900)
        assert len(result.tracks) == 6
        by_start = {}
        for track in result.tracks:
            key = round(track[0][1].energy, 6)
            by_start.setdefault(key, []).append(track)
        assert len(by_start) == 3
        for key, pair in by_start.items():
            assert len(pair) == 2
            gaps = []
            for i in range(len(result.sweep_values)):
                energies = [dict(t)[i].energy for t in pair]
                gaps.append(abs(energies[0] - energies[1]))
            assert gaps[0] < 1e-10
            assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_tracks_preserve_parity(self):
        for kappa, sweep, window, points in (
                (0.7, ("delta", 0.0, 0.2, 4), (-1.0, 1.4), 800),
                # levels of opposite parity cross inside this sweep
                (0.23, ("delta", 0.28, 1.28, 6), (-1.0, 2.5), 400)):
            result = flow("rabi-parity", RabiParams(kappa, 0.0), sweep, window,
                          points=points)
            for track in result.tracks:
                parities = {r.parity for _, r in track}
                assert len(parities) == 1
                assert len({r.index for _, r in track}) == 1

    def test_rabi_tracks_do_not_jump_across_sector_change(self):
        # the degenerate pairs at delta = 0 split at delta != 0
        result = flow("rabi", RabiParams(0.7, 0.0), ("delta", 0.0, 0.1, 3),
                      (-1.0, 2.0))
        assert all(result.levels)
        assert len(result.tracks) == 6
        for track in result.tracks:
            assert len({r.index for _, r in track}) == 1
            for (_, r), (_, s) in zip(track, track[1:]):
                assert abs(r.energy - s.energy) <= 0.1

    def test_single_step_sweep_reduces_to_resolve(self):
        result = flow("rabi-parity", RabiParams(0.7, 0.4),
                      ("delta", 0.4, 0.4, 1), (-1.0, 1.0), points=900)
        direct = zeros_of(resolve_spectrum("rabi-parity", RabiParams(0.7, 0.4),
                                           (-1.0, 1.0), points=900))
        assert result.levels[0] == direct
        assert len(result.tracks) == len(direct)

    def test_sweep_validation(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a step was solved")

        monkeypatch.setattr("ttrspec.spectrum.resolve_spectrum", no_solve)
        with pytest.raises(ValueError, match="steps"):
            flow("dho", DhoParams(0.7), ("kappa", 0.5, 1.0, 0), (-1.0, 1.0))
        with pytest.raises(ValueError, match="parameter"):
            flow("dho", DhoParams(0.7), ("theta", 0.0, 1.0, 3), (-1.0, 1.0))
        with pytest.raises(ValueError, match="kappa must be nonzero"):
            flow("dho", DhoParams(0.7), ("kappa", -0.5, 0.5, 3), (-1.0, 1.0))


@pytest.mark.parametrize("call", [
    lambda: scan(dho_recurrence(DhoParams(0.7)), -1.0, math.inf, 100),
    lambda: resolve_spectrum("dho", DhoParams(0.7), (-1.0, math.inf)),
    lambda: resolve_spectrum("dho", DhoParams(0.7), (-math.inf, 1.0)),
    lambda: flow("rabi-parity", RabiParams(0.7, 0.4), ("delta", 0.0, math.inf, 3),
                 (-1.0, 1.0)),
    lambda: scan(dho_recurrence(DhoParams(0.7)), -1e308, 1e308, 100),
    lambda: resolve_spectrum("dho", DhoParams(0.7), (-1e308, 1e308), points=100),
    lambda: flow("rabi-parity", RabiParams(0.7, 0.4), ("delta", -1e308, 1e308, 3),
                 (-1.0, 1.0)),
], ids=["scan", "resolve_spectrum-hi", "resolve_spectrum-lo", "flow",
        "scan-width", "resolve_spectrum-width", "flow-span"])
def test_non_finite_bounds_rejected(call):
    """An infinite window or sweep bound, or finite bounds whose width
    overflows, is an argument error, raised before any grid is built
    from it, so no numpy warning is emitted."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            call()
