"""Rayleigh surface waves in strongly elliptic thermoelastic half-spaces
with microtemperatures.

The pipeline: validate a material and its strong-ellipticity margins,
solve the quadratic and cubic factors for the five squared bulk mode
speeds, select the decaying depth branch of each mode, assemble the
closed-form kernel vectors of the propagation matrix, build the secular
matrix of the traction-free surface condition, and minimize the log
magnitude of its determinant over the complex speed plane.  Decoupled
coupling regimes have fully explicit parallel routes used as cross-checks.
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
    mode_vector,
    numeric_nullspace,
    p_from_t,
    polarization_check,
    propagation_blocks,
)
from .search import (
    RayleighRoot,
    RefineOptions,
    ScanGrid,
    ScanWindow,
    find_rayleigh,
    grid_scan,
    local_minima,
    refine_minimum,
)
from .secular import (
    AmplitudeVector,
    FieldState,
    SecularMatrix,
    amplitudes,
    assemble_Sp,
    boundary_residual,
    field_eval,
    objective_F,
    secular_det,
    secular_matrix,
    secular_objective,
)
from .special_cases import (
    CaseCrossCheck,
    CaseRootSet,
    LimitReport,
    cross_check_case,
    limit_consistency,
    mode_vectors_case,
    reduced_cubic_coefficients,
    roots_case,
    secular_case_det,
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
