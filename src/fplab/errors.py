"""Exception taxonomy for the verification pipeline.

Every failure mode that a caller can act on gets its own class; generic
ValueError is reserved for plain argument misuse.

Each class carries the command line's answer to it: `exit_code` is the
exit status (2 usage or configuration error, 1 a verification failure,
3 a solver failure or any other package failure) and `stderr_format` the
stderr line after the stage name. The three families below set both.
"""


class FplabError(Exception):
    """Base class for all package-specific failures."""

    exit_code = 3
    stderr_format = "{name}: {message}"


class _UsageError(FplabError):
    exit_code = 2


class _SolverFailure(FplabError):
    stderr_format = "solver failure: {name}: {message}"


class _CheckFailure(FplabError):
    exit_code = 1
    stderr_format = "verification failure: {message}"


# mesh construction and refinement

class InvalidRadius(_UsageError):
    """Ball radius is not a positive finite number."""


class InvalidBox(_UsageError):
    """Box bounds are empty or inverted along some axis."""


class RefinementTooDeep(_UsageError):
    """Requested refinement level exceeds the supported depth."""


class SingularElement(_SolverFailure):
    """An element has non-positive volume."""


# fem core

class NonFiniteValue(_SolverFailure):
    """A sampled field value is NaN or infinite."""


class NonPositiveDensity(_SolverFailure):
    """A weight that must be a density is <= 0 at a quadrature point."""


class NonEllipticSample(_SolverFailure):
    """A diffusion sample failed the quadratic-form positivity check."""


# coefficient fields

class UnknownPreset(_UsageError):
    """Requested coefficient preset name is not registered."""


class DegenerateRadius(_UsageError):
    """A sampling radius is non-positive or exceeds the domain size."""


class SingularMass(_SolverFailure):
    """A lumped mass weight is non-positive (defensive; valid meshes cannot produce this)."""


class MissingDerivative(_UsageError):
    """An operation needs an analytic derivative the coefficient set does not provide."""


# invariant density

class DensityNotPositive(_SolverFailure):
    """The computed invariant density has a non-positive vertex value."""


class KernelDimensionError(_SolverFailure):
    """The stationarity system kernel is not one-dimensional within tolerance."""


# sectorial form and resolvents

class DimensionUnsupported(_UsageError):
    """The requested quantity is only defined for d = 3."""


class SolverDivergence(_SolverFailure):
    """An iterative linear solve failed to reach tolerance."""


class ContractionViolation(_CheckFailure):
    """||alpha G_alpha f|| exceeded ||f|| beyond tolerance."""


class SubmarkovViolation(_CheckFailure):
    """alpha G_alpha applied to an indicator left [0, 1] beyond tolerance."""


# cutoffs and configuration

class InvalidRadii(_UsageError):
    """Cutoff radii must satisfy 0 < s < r."""


class ConfigError(_UsageError):
    """A configuration file is malformed or has an invalid value."""
