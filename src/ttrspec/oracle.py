"""Independent ground truth for the recurrence-based spectra.

Truncated Fock-space Hamiltonians diagonalized one parity sector at a
time (dense LAPACK via numpy on each sector), with convergence
certified by comparing the caller's cutoff with its half, doubling the
cutoff only where the two disagree; the closed-form Laguerre branch of
the displaced-oscillator recurrence; and an ascending-series Bessel
oracle used by the upward-recursion caution fixture.  Nothing here
touches the characteristic-function route, so agreement between the
two is a real cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .errors import NonConvergenceError, NumericsError
from .models import DhoParams, GenRabiParams, JcParams, RabiParams
from .recurrence import upward_recursion

#: a gen-rabi eigenvector's parity expectation must be this close to +/-1
#: to get a label
_PARITY_LABEL_TOL = 1e-6


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """Hermitian matrix in the number basis, bandwidth <= 4; real
    symmetric for every model but ``rabi-modified``.

    Every matrix holds d states per Fock level n at index i = d n + s:
    d = 2 for the spinful models, with s = 0 the upper (sigma3 = +1) and
    s = 1 the lower spin state, and d = 1 for the oscillator.  ``params``
    is retained so the half and doubled cutoffs of the convergence
    certificate can be built.  In this basis the reflection parity
    sigma3 (-1)**n of ``rabi``, ``rabi-modified`` and ``jc`` is
    diagonal, so their matrices split into two sectors of ``cutoff``
    states each, which ``eigen_lowest`` diagonalizes apart.
    """

    dimension: int
    entries: np.ndarray
    model_tag: str
    cutoff: int
    params: object


@dataclass(frozen=True)
class OracleSpectrum:
    """Lowest eigenvalues in units of omega with parity labels.

    A parity is the reflection quantum number sigma3 (-1)**n of the
    sector that holds the level (spin-boson form: <sigma1 (-1)**n>,
    measured), the sign that tags which of the two parity-resolved
    recurrences owns the level; None where the model has no such
    symmetry or the state is unlabeled.
    """

    eigenvalues: list[float]
    parities: list[int | None]
    converged_count: int


def _fock_blocks(cutoff: int, onsite, hop) -> np.ndarray:
    """n + onsite + hop a + hop^H a^+ in the basis i = d n + s.

    ``onsite`` (Hermitian) and ``hop`` are d x d blocks, d = len(onsite):
    the block of level n is n*1 + onsite, the block from n to n + 1 is
    sqrt(n + 1) hop, and the block from n + 1 to n its conjugate
    transpose.
    """
    onsite, hop = np.asarray(onsite), np.asarray(hop)
    d = len(onsite)
    h = np.zeros((d * cutoff, d * cutoff), dtype=np.result_type(onsite, hop))
    n = np.arange(cutoff)[:, None]
    s, t = np.divmod(np.arange(d * d), d)  # row, column of each block entry
    h[d * n + s, d * n + t] = onsite[s, t]
    h[np.diag_indices_from(h)] += np.arange(d * cutoff) // d
    root = np.sqrt(n[1:])
    h[d * n[:-1] + s, d * n[1:] + t] = root * hop[s, t]
    h[d * n[1:] + t, d * n[:-1] + s] = root * hop.conj()[s, t]
    return h


def _dho_matrix(p: DhoParams, cutoff: int) -> np.ndarray:
    return _fock_blocks(cutoff, [[0.0]], [[p.kappa]])


def _rabi_matrix(p: RabiParams, cutoff: int) -> np.ndarray:
    return _fock_blocks(cutoff, [[p.delta, 0.0], [0.0, -p.delta]],
                       [[0.0, p.kappa], [p.kappa, 0.0]])


def _jc_matrix(p: JcParams, cutoff: int) -> np.ndarray:
    return _fock_blocks(cutoff, [[p.delta, 0.0], [0.0, -p.delta]],
                       [[0.0, p.kappa], [0.0, 0.0]])


def _gen_rabi_matrix(p: GenRabiParams, cutoff: int) -> np.ndarray:
    # spin-boson form: n + kappa sigma3 (a^+ + a) + theta sigma3 + delta sigma1
    return _fock_blocks(cutoff, [[p.theta, p.delta], [p.delta, -p.theta]],
                       [[p.kappa, 0.0], [0.0, -p.kappa]])


def _modified_rabi_matrix(p: RabiParams, cutoff: int) -> np.ndarray:
    # plane-wave coupling i kappa sigma1 (a^+ - a): complex Hermitian
    return _fock_blocks(cutoff, [[p.delta, 0.0], [0.0, -p.delta]],
                       [[0.0, -1j * p.kappa], [-1j * p.kappa, 0.0]])


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


def _parity_expectations(vecs: np.ndarray) -> list[float]:
    """<sigma1 (-1)**n> of each column, the reflection parity of ``gen-rabi``."""
    sign = (-1.0) ** np.arange(vecs.shape[0] // 2)
    return list(2.0 * np.sum(sign[:, None] * vecs[0::2] * vecs[1::2], axis=0))


def _label(expectation: float) -> int | None:
    if expectation >= 1.0 - _PARITY_LABEL_TOL:
        return 1
    if expectation <= -1.0 + _PARITY_LABEL_TOL:
        return -1
    return None


def _sectors(h: TruncatedHamiltonian) -> dict[int | None, np.ndarray]:
    """Index sets of the parity sectors of ``h``, keyed by their label.

    For ``rabi``, ``rabi-modified`` and ``jc`` the reflection parity
    sigma3 (-1)**n is diagonal in the basis i = 2n + s, where it reads
    (-1)**(n + s), and the matrix couples no index of one sign to one of
    the other; NumericsError is raised if an entry does.  ``dho`` and
    ``gen-rabi`` get one sector covering the whole matrix, keyed None.
    """
    i = np.arange(h.dimension)
    if h.model_tag not in ("rabi", "rabi-modified", "jc"):
        return {None: i}
    even = (i // 2 + i % 2) % 2 == 0
    plus, minus = i[even], i[~even]
    if np.any(h.entries[np.ix_(plus, minus)]):
        raise NumericsError(
            f"'{h.model_tag}' matrix couples the two sectors of sigma3 (-1)**n")
    return {1: plus, -1: minus}


def _lowest(h: TruncatedHamiltonian, k: int) -> tuple[np.ndarray, list[int | None]]:
    """Lowest k eigenvalues of ``h``, one ``eigvalsh`` per sector, merged in
    ascending order, each with the label of its sector."""
    parts, labels = [], []
    for label, idx in _sectors(h).items():
        parts.append(np.linalg.eigvalsh(h.entries[np.ix_(idx, idx)]))
        labels += [label] * len(idx)
    vals = np.concatenate(parts)
    lowest = np.argsort(vals, kind="stable")[:k]
    return vals[lowest], [labels[i] for i in lowest]


def eigen_lowest(h: TruncatedHamiltonian, k: int, tol: float = 1e-8) -> OracleSpectrum:
    """Lowest k eigenvalues, certified at the caller's cutoff where it can.

    The cutoffs c // 2 (when that half has at least 4 levels and
    k <= its dimension/4), c = ``h.cutoff``, 2c, 4c and 8c are
    diagonalized in turn until the lowest k values of two neighbours
    agree to less than ``tol`` (in units of omega), and the spectrum and
    parity labels of the larger of the two are returned: ``h``'s own
    when it agrees with its half.  Each
    matrix is diagonalized one parity sector at a time (``_sectors``:
    the two sigma3 (-1)**n sectors of ``rabi``, ``rabi-modified`` and
    ``jc``), which changes no eigenvalue beyond rounding, and each level
    takes the label of its sector, so the two levels of an exactly
    degenerate pair carry one label each.  ``gen-rabi`` alone measures
    its label <sigma1 (-1)**n> from the eigenvectors of the certified
    matrix; ``dho`` levels carry None.

    Raises ValueError unless ``tol`` is finite and positive,
    NumericsError if a matrix couples its two parity sectors, and
    NonConvergenceError carrying the 8c and 4c spectra (``last``,
    ``previous``) if 8c does not agree.  ``h`` is never rebuilt.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > h.dimension // 4:
        raise ValueError("k must be <= dimension/4; raise the cutoff")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and > 0")
    c = h.cutoff
    ladder = [c, 2 * c, 4 * c, 8 * c]
    if c // 2 >= 4 and k <= h.dimension // c * (c // 2) // 4:
        ladder.insert(0, c // 2)
    vals = None
    for cutoff in ladder:
        cur = h if cutoff == c else build_hamiltonian(h.model_tag, h.params, cutoff)
        vals_prev, (vals, labels) = vals, _lowest(cur, k)
        if vals_prev is not None and np.max(np.abs(vals - vals_prev)) < tol:
            if cur.model_tag == "gen-rabi":
                vecs = np.linalg.eigh(cur.entries)[1][:, :k]
                labels = [_label(v) for v in _parity_expectations(vecs)]
            return OracleSpectrum(eigenvalues=[float(v) for v in vals],
                                  parities=labels, converged_count=k)
    raise NonConvergenceError(
        "lowest eigenvalues did not stabilize after 3 cutoff doublings",
        last=[float(v) for v in vals],
        previous=[float(v) for v in vals_prev])


def _laguerre_sum(alpha, z, n: int):
    """The finite Laguerre sum of ``laguerre_dominant``, in the arithmetic
    of ``z`` (float, or Decimal in the caller's context)."""
    one = type(z)(1)
    binom = [one] * (n + 1)
    for kk in range(1, n + 1):
        binom[kk] = binom[kk - 1] * (alpha - kk + 1) / kk
    total = 0 * one
    z_over_fact = one  # z**i / i!
    for i in range(n + 1):
        term = binom[n - i] * z_over_fact
        total += term if i % 2 == 0 else -term
        z_over_fact *= z / (i + 1)
    return total


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
    return kappa ** (alpha - n) * _laguerre_sum(alpha, z, n)


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
        low = _laguerre_sum(alpha, z, n)
        if low == 0:
            raise NumericsError(f"coefficient ratio undefined: c_{n} = 0")
        return float(_laguerre_sum(alpha, z, n + 1) / (low * Decimal(p.kappa)))


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
