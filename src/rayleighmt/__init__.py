"""Rayleigh surface waves in strongly elliptic thermoelastic half-spaces
with microtemperatures.

The pipeline: validate a material and its strong-ellipticity margins,
solve the quadratic and cubic factors for the five squared bulk mode
speeds, select the decaying depth branch of each mode, assemble the
closed-form kernel vectors of the propagation matrix, build the secular
matrix of the traction-free surface condition, and minimize the log
magnitude of its determinant over the complex speed plane.  One table of
closed-form kernel rows (``kernel_row``) covers the fully coupled
materials and the paper's three decoupled regimes, so every one of them is
solved the same way, from the same secular determinant; the decoupled
regimes also have labelled closed-form speeds and explicit secular
expansions, used as cross-checks against that determinant.
"""

from .errors import (
    AllPointsFailedError,
    CommonRootError,
    DegenerateKernelError,
    DegenerateRootsError,
    DomainError,
    IndistinctRootsError,
    InputError,
    MissingFieldError,
    ModeFailureError,
    NonDecayingError,
    NonFiniteError,
    NotARootError,
    NotStronglyEllipticError,
    RayleighError,
    StartFailureError,
    UnsupportedCouplingError,
    WrongCaseError,
)
from .material import (
    COEFFICIENT_KEYS,
    CouplingCase,
    CubicCoefficients,
    EllipticityReport,
    MaterialCoefficients,
    check_distinct_cubic_roots,
    check_strong_ellipticity,
    classify_coupling,
    derived_cubic,
    load_material,
    validate_coefficients,
)
from .modes import (
    AttenuationExponent,
    ComplexSpeed,
    ModeBasis,
    assemble_Dp,
    kernel_row,
    mode_vector,
    numeric_nullspace,
    p_from_t,
    polarization_check,
)
from .search import (
    RayleighRoot,
    RefineOptions,
    ScanGrid,
    ScanWindow,
    default_window,
    find_rayleigh,
    grid_scan,
    local_minima,
    refine_minimum,
)
from .secular import (
    FieldState,
    SecularMatrix,
    amplitudes,
    boundary_residual,
    field_eval,
    objective_F,
    secular_matrix,
    secular_objective,
)
from .special_cases import (
    CaseCrossCheck,
    cross_check_case,
    reduced_cubic_coefficients,
    roots_case,
    secular_case_explicit,
)
from .spectrum import (
    ModeRoot,
    RootSet,
    mode_speeds,
    polynomial_residual,
    roots_q2,
    roots_q3,
)

__version__ = "0.1.0"
