"""Spectra of boson-mode quantum models from three-term recurrences.

Any model whose eigenvalue problem reduces to a three-term recurrence
c_{n+1} + a_n c_n + b_n c_{n-1} = 0 with power-law coefficients has its
regular energy levels at the zeros of a characteristic function built
solely from a_n and b_n.  The package evaluates that function two
independent ways (telescoped series and backward continued fraction),
counts the levels below any energy from the forward pivots of the same
coefficients, isolates and refines every level in a window, and
cross-checks everything against truncated Fock-space diagonalization.
"""

from .charfunc import (
    CharEval,
    MinimalSolution,
    SeriesStatus,
    cf_convergent,
    char_series,
    minimal_ratios,
    minimal_solution,
    ratio_cf,
)
from .errors import CoefficientPoleError, NonConvergenceError, NumericsError
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
    recurrences_for,
)
from .oracle import (
    OracleSpectrum,
    TruncatedHamiltonian,
    bessel_j_series,
    bessel_j_upward,
    build_hamiltonian,
    dho_upward_coefficients,
    eigen_lowest,
    laguerre_dominant,
)
from .recurrence import (
    AdmissibilityReport,
    AsymptoticProfile,
    Recurrence,
    classify,
    tail_ratio_estimate,
    upward_recursion,
)
from .spectrum import (
    FlowResult,
    Root,
    RootKind,
    ScanResult,
    find_roots,
    flow,
    resolve_spectrum,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "AsymptoticProfile",
    "CharEval",
    "CoefficientPoleError",
    "DhoParams",
    "FlowResult",
    "GenRabiParams",
    "JcParams",
    "MinimalSolution",
    "NonConvergenceError",
    "NumericsError",
    "OracleSpectrum",
    "RabiParams",
    "Recurrence",
    "Root",
    "RootKind",
    "ScanResult",
    "SeriesStatus",
    "TruncatedHamiltonian",
    "bessel_fixture",
    "bessel_j_series",
    "bessel_j_upward",
    "build_hamiltonian",
    "cf_convergent",
    "char_series",
    "classify",
    "dho_exact_levels",
    "dho_recurrence",
    "dho_upward_coefficients",
    "eigen_lowest",
    "find_roots",
    "flow",
    "jc_exact_levels",
    "laguerre_dominant",
    "minimal_ratios",
    "minimal_solution",
    "parity_rabi_recurrence",
    "rabi_displaced_recurrence",
    "ratio_cf",
    "recurrences_for",
    "resolve_spectrum",
    "scan",
    "tail_ratio_estimate",
    "upward_recursion",
]
