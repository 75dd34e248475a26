"""Typed exceptions shared by all quadham modules.

Every error carries a stable ``code`` string so the CLI can emit
machine-readable error records.
"""


class QuadhamError(Exception):
    code = "error"

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = dict(info)


class ValidationError(QuadhamError):
    """Bad inputs: the caller must fix parameters or configuration."""

    code = "validation"


class NumericalError(QuadhamError):
    """The computation itself failed (tolerance, singularity, caustic)."""

    code = "numerical"


class InvalidModelParams(ValidationError):
    code = "invalid_model_params"


class ConventionMismatch(ValidationError):
    code = "convention_mismatch"


class SingularCoefficient(NumericalError):
    code = "singular_coefficient"


class ToleranceNotMet(NumericalError):
    code = "tolerance_not_met"


class NoClosedForm(ValidationError):
    code = "no_closed_form"


class CausticEncountered(NumericalError):
    code = "caustic_encountered"


class NonNormalizable(ValidationError):
    code = "non_normalizable"


class DegenerateWidth(NumericalError):
    code = "degenerate_width"


class UnderResolved(NumericalError):
    code = "under_resolved"


class BoundaryLeak(NumericalError):
    code = "boundary_leak"


class NonPositiveForm(NumericalError):
    code = "non_positive_form"


class InvalidMoments(NumericalError):
    code = "invalid_moments"
