"""Exception hierarchy for the surface-wave solver.

Every failure mode of the library raises a subclass of :class:`RayleighError`,
so callers can distinguish solver-domain failures from programming errors.
"""

from __future__ import annotations


class RayleighError(Exception):
    """Base class for all solver-domain errors."""


class InputError(RayleighError):
    """A material input that cannot be read as constitutive coefficients."""


class MissingFieldError(InputError):
    """A required constitutive coefficient is absent from the input."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"missing constitutive coefficient {name!r}")


class NonFiniteError(InputError):
    """A constitutive coefficient is NaN, infinite, or not a real number."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"coefficient {name!r} is not a finite real number")


class NotStronglyEllipticError(RayleighError):
    """Material violates the strong-ellipticity inequalities."""

    def __init__(self, violations=()):
        self.violations = tuple(violations)
        detail = ", ".join(self.violations) if self.violations else "unknown"
        super().__init__(f"material is not strongly elliptic (violated: {detail})")


class IndistinctRootsError(RayleighError):
    """The mode-speed polynomials have a repeated root."""


class CommonRootError(RayleighError):
    """The quadratic and cubic mode-speed factors share a root."""


class DomainError(RayleighError):
    """An intermediate value left its mathematically admissible domain."""


class NonDecayingError(RayleighError):
    """No depth-decaying branch exists for the requested speed and mode."""

    def __init__(self, t: float, v: complex, mode_index: int = 0):
        self.t = t
        self.v = v
        self.mode_index = mode_index
        super().__init__(
            f"mode {mode_index} with squared speed t={t!r} has no decaying "
            f"depth exponent at v={v!r}"
        )


class UnsupportedCouplingError(RayleighError):
    """The closed-form kernel vectors require fully coupled coefficients."""


class DegenerateKernelError(RayleighError):
    """The propagation matrix kernel does not have dimension one."""


class ModeFailureError(RayleighError):
    """Wraps any solver error raised while evaluating one speed sample."""

    def __init__(self, v_r: float, v_i: float, cause: Exception):
        self.v_r = v_r
        self.v_i = v_i
        self.cause_name = type(cause).__name__
        super().__init__(
            f"objective undefined at v = {complex(float(v_r), -float(v_i))!r} "
            f"({self.cause_name}: {cause})"
        )


class NotARootError(RayleighError):
    """Amplitude extraction was requested away from a secular root."""


class AllPointsFailedError(RayleighError):
    """Every lattice point of a scan failed to evaluate."""


class StartFailureError(RayleighError):
    """The refinement objective is undefined at the seed and all perturbations."""


class WrongCaseError(RayleighError):
    """A decoupled-case routine was called with a mismatched material."""

    def __init__(self, expected, actual):
        self.expected = expected
        self.actual = actual
        super().__init__(f"material classifies as {actual}, not {expected}")


class DegenerateRootsError(RayleighError):
    """A decoupled case produced coinciding mode speeds."""
