"""Independent ground truth for the recurrence-based spectra.

Truncated Fock-space Hamiltonians diagonalized one connected block of
their nonzero pattern at a time (dense LAPACK via numpy on each block),
with convergence certified by doubling the cutoff; the
closed-form Laguerre branch of the displaced-oscillator recurrence; and
an ascending-series Bessel oracle used by the upward-recursion caution
fixture.  Nothing here touches the characteristic-function route, so
agreement between the two is a real cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .errors import NonConvergenceError, NumericsError
from .models import DhoParams, GenRabiParams, JcParams, RabiParams
from .recurrence import upward_recursion

#: eigenvector parity expectation must be this close to +/-1 to get a label
_PARITY_LABEL_TOL = 1e-6


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """Real symmetric matrix in the number basis, bandwidth <= 4.

    Spinful models interleave as index i = 2n + s with s = 0 the upper
    (sigma3 = +1) and s = 1 the lower spin state; the spinless
    oscillator uses the Fock index directly.  ``params`` is retained so
    the cutoff can be doubled for convergence certification.  Where a
    symmetry decouples the basis, the nonzero pattern falls apart into
    blocks (two parity chains of length ``cutoff`` for ``rabi`` and
    ``rabi-modified``, 2-state blocks for ``jc``, one block for ``dho``
    and for ``gen-rabi`` at delta != 0), and ``eigen_lowest`` finds them
    from the entries.
    """

    dimension: int
    entries: np.ndarray
    model_tag: str
    cutoff: int
    params: object


@dataclass(frozen=True)
class OracleSpectrum:
    """Lowest eigenvalues in units of omega with parity labels.

    Parities come from the reflection quantum number measured as
    <sigma3 (-1)**n> (spin-boson form: <sigma1 (-1)**n>), the sign that
    tags which of the two parity-resolved recurrences owns the level;
    None where the model has no such symmetry or the state is unlabeled.
    """

    eigenvalues: list[float]
    parities: list[int | None]
    converged_count: int


def _dho_matrix(p: DhoParams, cutoff: int) -> np.ndarray:
    h = np.zeros((cutoff, cutoff))
    for n in range(cutoff):
        h[n, n] = n
        if n + 1 < cutoff:
            c = p.kappa * math.sqrt(n + 1)
            h[n, n + 1] = c
            h[n + 1, n] = c
    return h


def _rabi_matrix(p: RabiParams, cutoff: int) -> np.ndarray:
    h = np.zeros((2 * cutoff, 2 * cutoff))
    for n in range(cutoff):
        h[2 * n, 2 * n] = n + p.delta
        h[2 * n + 1, 2 * n + 1] = n - p.delta
        if n + 1 < cutoff:
            c = p.kappa * math.sqrt(n + 1)
            for s in (0, 1):
                i, j = 2 * n + s, 2 * (n + 1) + (1 - s)
                h[i, j] = c
                h[j, i] = c
    return h


def _jc_matrix(p: JcParams, cutoff: int) -> np.ndarray:
    h = np.zeros((2 * cutoff, 2 * cutoff))
    for n in range(cutoff):
        h[2 * n, 2 * n] = n + p.delta
        h[2 * n + 1, 2 * n + 1] = n - p.delta
        if n + 1 < cutoff:
            c = p.kappa * math.sqrt(n + 1)
            i, j = 2 * n, 2 * (n + 1) + 1
            h[i, j] = c
            h[j, i] = c
    return h


def _gen_rabi_matrix(p: GenRabiParams, cutoff: int) -> np.ndarray:
    # spin-boson form: n + kappa sigma3 (a^+ + a) + theta sigma3 + delta sigma1
    h = np.zeros((2 * cutoff, 2 * cutoff))
    for n in range(cutoff):
        h[2 * n, 2 * n] = n + p.theta
        h[2 * n + 1, 2 * n + 1] = n - p.theta
        h[2 * n, 2 * n + 1] = p.delta
        h[2 * n + 1, 2 * n] = p.delta
        if n + 1 < cutoff:
            c = p.kappa * math.sqrt(n + 1)
            for s, sign in ((0, 1.0), (1, -1.0)):
                i, j = 2 * n + s, 2 * (n + 1) + s
                h[i, j] = sign * c
                h[j, i] = sign * c
    return h


def _modified_rabi_matrix(p: RabiParams, cutoff: int) -> np.ndarray:
    # plane-wave coupling i kappa sigma1 (a^+ - a); the phase rotation
    # |n> -> i**n |n>, with exact powers of i, turns it into the standard
    # real coupling.
    d = 2 * cutoff
    hc = np.zeros((d, d), dtype=complex)
    for n in range(cutoff):
        hc[2 * n, 2 * n] = n + p.delta
        hc[2 * n + 1, 2 * n + 1] = n - p.delta
        if n + 1 < cutoff:
            c = p.kappa * math.sqrt(n + 1)
            for s in (0, 1):
                i, j = 2 * (n + 1) + (1 - s), 2 * n + s
                hc[i, j] = 1j * c
                hc[j, i] = -1j * c
    u = np.repeat(np.array([1, 1j, -1, -1j])[np.arange(cutoff) % 4], 2)
    hr = np.conj(u)[:, None] * hc * u[None, :]
    residue = float(np.max(np.abs(hr.imag)))
    if residue > 1e-12:
        raise NumericsError(
            f"phase rotation left imaginary residue {residue:g}")
    return np.ascontiguousarray(hr.real)


_BUILDERS = {
    "dho": _dho_matrix,
    "rabi": _rabi_matrix,
    "jc": _jc_matrix,
    "gen-rabi": _gen_rabi_matrix,
    "rabi-modified": _modified_rabi_matrix,
}


def build_hamiltonian(model_tag: str, params, cutoff: int) -> TruncatedHamiltonian:
    """Assemble the truncated number-basis matrix for a model tag."""
    if cutoff < 4:
        raise ValueError("cutoff must be >= 4")
    try:
        builder = _BUILDERS[model_tag]
    except KeyError:
        raise ValueError(f"unknown model tag '{model_tag}'") from None
    entries = builder(params, cutoff)
    return TruncatedHamiltonian(dimension=entries.shape[0], entries=entries,
                                model_tag=model_tag, cutoff=cutoff,
                                params=params)


def _parity_expectations(tag: str, vecs: np.ndarray) -> list[float] | None:
    dim = vecs.shape[0]
    if tag == "dho":
        return None
    n = np.arange(dim) // 2
    if tag == "gen-rabi":
        sign = (-1.0) ** n[::2]
        up = vecs[0::2, :]
        down = vecs[1::2, :]
        return list(2.0 * np.sum(sign[:, None] * up * down, axis=0))
    s3 = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    diag = ((-1.0) ** n) * s3
    return list(np.sum(diag[:, None] * vecs * vecs, axis=0))


def _label(expectation: float | None) -> int | None:
    if expectation is None:
        return None
    if expectation >= 1.0 - _PARITY_LABEL_TOL:
        return 1
    if expectation <= -1.0 + _PARITY_LABEL_TOL:
        return -1
    return None


def _blocks(entries: np.ndarray) -> list[np.ndarray]:
    """Connected components of the nonzero pattern, as ascending index arrays.

    The matrix is block diagonal, up to a permutation, with one block per
    component.  Labels start as the indices and are hooked to the smallest
    label across every nonzero entry, then shortcut to their roots, until
    no label moves (O(nnz) per round; a chain numbered along its length
    settles in one round).
    """
    dim = entries.shape[0]
    # flat indices of a boolean mask cost several times less than
    # np.nonzero of the float matrix
    i, j = np.divmod(np.flatnonzero(entries != 0), dim)
    root = np.arange(dim)
    while True:
        before = root.copy()
        np.minimum.at(root, root[i], root[j])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        if np.array_equal(root, before):
            break
    members = np.argsort(root, kind="stable")
    cuts = np.flatnonzero(np.diff(root[members])) + 1
    return np.split(members, cuts)


def _lowest_eigenpairs(entries: np.ndarray, k: int, vectors: bool):
    """Lowest k eigenvalues of a real symmetric matrix, block by block.

    Each block of ``_blocks`` is diagonalized on its own and the
    eigenvalues of all blocks are merged in ascending order.  With
    ``vectors`` the eigenvectors of the lowest k come back as full-length
    columns, each supported on its own block; otherwise the second
    result is None.
    """
    parts = []
    for block in _blocks(entries):
        sub = entries[np.ix_(block, block)]
        if vectors:
            parts.append((block, *np.linalg.eigh(sub)))
        else:
            parts.append((block, np.linalg.eigvalsh(sub), None))
    vals = np.concatenate([w for _, w, _ in parts])
    lowest = np.argsort(vals, kind="stable")[:k]
    if not vectors:
        return vals[lowest], None
    sizes = [len(block) for block, _, _ in parts]
    owner = np.repeat(np.arange(len(parts)), sizes)
    start = np.cumsum([0] + sizes)
    vecs = np.zeros((entries.shape[0], k))
    for col, pos in enumerate(lowest):
        block, _, v = parts[owner[pos]]
        vecs[block, col] = v[:, pos - start[owner[pos]]]
    return vals[lowest], vecs


def eigen_lowest(h: TruncatedHamiltonian, k: int, tol: float = 1e-8) -> OracleSpectrum:
    """Lowest k eigenvalues, certified by doubling the cutoff.

    The cutoff is doubled (up to three times) until the lowest k values
    move by less than ``tol`` (in units of omega) under a doubling; the
    spectrum and parity labels of the larger matrix are returned.  Each
    matrix is diagonalized one connected block of its nonzero pattern at
    a time (the two parity chains of the Rabi matrix, the 2-state blocks
    of Jaynes-Cummings), which changes no eigenvalue beyond rounding.
    Eigenvectors, needed only for the labels, are skipped on the first
    cutoff, which is never the last.  A level of an exactly degenerate
    pair keeps the label of its own block.

    Raises ValueError unless ``tol`` is finite and positive, and
    NonConvergenceError carrying the last two spectra if three doublings
    do not suffice.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > h.dimension // 4:
        raise ValueError("k must be <= dimension/4; raise the cutoff")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and > 0")
    cur = h
    vals_prev = None
    vals = None
    for step in range(4):
        vals, vecs = _lowest_eigenpairs(cur.entries, k, vectors=step > 0)
        if vals_prev is not None:
            moved = float(np.max(np.abs(vals - vals_prev)))
            if moved < tol:
                pe = _parity_expectations(cur.model_tag, vecs)
                if pe is None:
                    labels: list[int | None] = [None] * k
                else:
                    labels = [_label(v) for v in pe]
                return OracleSpectrum(eigenvalues=[float(v) for v in vals],
                                      parities=labels, converged_count=k)
        vals_prev = vals
        if step < 3:
            cur = build_hamiltonian(cur.model_tag, cur.params, cur.cutoff * 2)
    raise NonConvergenceError(
        "lowest eigenvalues did not stabilize after 3 cutoff doublings",
        last=[float(v) for v in vals],
        previous=[float(v) for v in vals_prev])


def laguerre_dominant(p: DhoParams, x: float, n: int) -> float:
    """Closed-form coefficient of the upward branch of the DHO recurrence.

    c_n = kappa**(alpha - n) * L_n^(alpha - n)(kappa**2) with
    alpha = x + kappa**2, evaluated by the explicit finite sum

        L_n^(alpha - n)(z) = sum_{i=0}^{n} (-1)**i C(alpha, n - i) z**i / i!

    over generalized binomials C(alpha, k) = alpha(alpha-1)...(alpha-k+1)/k!.
    At exactly integer alpha the binomials with k > alpha vanish and the
    branch degenerates into the minimal (normalizable) solution.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if p.kappa <= 0:
        raise ValueError("closed form requires kappa > 0")
    kappa = p.kappa
    z = kappa * kappa
    alpha = x + z

    binom = [1.0] * (n + 1)
    for kk in range(1, n + 1):
        binom[kk] = binom[kk - 1] * (alpha - kk + 1) / kk

    total = 0.0
    z_over_fact = 1.0  # z**i / i!
    for i in range(n + 1):
        term = binom[n - i] * z_over_fact
        total += term if i % 2 == 0 else -term
        z_over_fact *= z / (i + 1)
    return kappa ** (alpha - n) * total


def laguerre_ratio(p: DhoParams, x: float, n: int) -> float:
    """Ratio c_{n+1}/c_n of the closed-form branch, safe from underflow.

    Evaluates the two Laguerre sums in 50-digit decimal arithmetic with
    an unbounded exponent, so the factorially small values reached at
    integer alpha (below the float64 range already near n = 160) stay
    representable.  alpha is rounded in float first, matching
    ``laguerre_dominant``; at exactly integer alpha the generalized
    binomials vanish identically and the ratio follows the minimal
    branch -kappa/(n + 1 - alpha).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if p.kappa <= 0:
        raise ValueError("closed form requires kappa > 0")
    alpha_f = x + p.kappa * p.kappa
    with localcontext() as ctx:
        ctx.prec = 50
        ctx.Emax = 10 ** 9
        ctx.Emin = -(10 ** 9)
        alpha = Decimal(alpha_f)
        z = Decimal(p.kappa * p.kappa)

        def lag(m: int) -> Decimal:
            binom = [Decimal(1)] * (m + 1)
            for kk in range(1, m + 1):
                binom[kk] = binom[kk - 1] * (alpha - kk + 1) / kk
            total = Decimal(0)
            z_over_fact = Decimal(1)
            for i in range(m + 1):
                term = binom[m - i] * z_over_fact
                total += term if i % 2 == 0 else -term
                z_over_fact *= z / (i + 1)
            return total

        low = lag(n)
        if low == 0:
            raise NumericsError(f"coefficient ratio undefined: c_{n} = 0")
        return float(lag(n + 1) / (low * Decimal(p.kappa)))


def dho_upward_coefficients(p: DhoParams, x: float, n_max: int) -> list[float]:
    """Upward iteration of the DHO recurrence from the closed-form seed.

    Seeds (c_0, c_1) = (kappa**alpha, kappa**(alpha-1) x), i.e. the
    boundary row c_1/c_0 = x/kappa, and iterates upward; tracks the
    dominant branch stably for any x.
    """
    from .models import dho_recurrence

    alpha = x + p.kappa * p.kappa
    c0 = p.kappa ** alpha
    c1 = p.kappa ** (alpha - 1.0) * x
    return upward_recursion(dho_recurrence(p), x, c0, c1, n_max)


def bessel_j_series(order: int, x: float) -> float:
    """J_order(x) by the ascending power series, |x| <= 10, order <= 60.

    Summed in 40-digit decimal arithmetic so the float64 result is
    correct to well below 1e-14 absolute error across the whole domain
    (plain double-precision term recursion can lose that near x = 10).
    """
    if not 0 <= order <= 60:
        raise ValueError("order must be in [0, 60]")
    if abs(x) > 10:
        raise ValueError("|x| must be <= 10")
    with localcontext() as ctx:
        ctx.prec = 40
        half = Decimal(x) / 2
        term = Decimal(1)
        for i in range(1, order + 1):
            term *= half / i
        total = term
        neg_q = -(half * half)
        j = 0
        while True:
            j += 1
            term *= neg_q / (j * (order + j))
            total += term
            if abs(term) < Decimal("1e-30") and j > 3:
                return float(total)
            if j > 400:
                raise NonConvergenceError("Bessel series failed to converge")


def bessel_j_upward(order_max: int, x: float) -> list[float]:
    """J_0..J_order_max by naive upward recursion from series-valued seeds.

    Provided to demonstrate dominant-solution contamination: the values
    depart from the true J_n long before the recursion overflows.
    """
    from .models import bessel_fixture

    rec = bessel_fixture(x)
    return upward_recursion(rec, 0.0, bessel_j_series(0, x),
                            bessel_j_series(1, x), order_max)
