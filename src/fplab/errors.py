"""Exception taxonomy for the verification pipeline.

Every failure mode that a caller can act on gets its own class; generic
ValueError is reserved for plain argument misuse.
"""


class FplabError(Exception):
    """Base class for all package-specific failures."""


# mesh construction and refinement

class InvalidRadius(FplabError):
    """Ball radius is not a positive finite number."""


class InvalidBox(FplabError):
    """Box bounds are empty or inverted along some axis."""


class RefinementTooDeep(FplabError):
    """Requested refinement level exceeds the supported depth."""


class SingularElement(FplabError):
    """An element has non-positive volume."""


# fem core

class NonFiniteValue(FplabError):
    """A sampled field value is NaN or infinite."""


class NonPositiveDensity(FplabError):
    """A weight that must be a density is <= 0 at a quadrature point."""


class NonEllipticSample(FplabError):
    """A diffusion sample failed the quadratic-form positivity check."""


# coefficient fields

class UnknownPreset(FplabError):
    """Requested coefficient preset name is not registered."""


class DegenerateRadius(FplabError):
    """A sampling radius is non-positive or exceeds the domain size."""


class SingularMass(FplabError):
    """A lumped mass weight is non-positive (defensive; valid meshes cannot produce this)."""


class MissingDerivative(FplabError):
    """An operation needs an analytic derivative the coefficient set does not provide."""


# invariant density

class DensityNotPositive(FplabError):
    """The computed invariant density has a non-positive vertex value."""


class KernelDimensionError(FplabError):
    """The stationarity system kernel is not one-dimensional within tolerance."""


# sectorial form and resolvents

class DimensionUnsupported(FplabError):
    """The requested quantity is only defined for d = 3."""


class SolverDivergence(FplabError):
    """An iterative linear solve failed to reach tolerance."""


class ContractionViolation(FplabError):
    """||alpha G_alpha f|| exceeded ||f|| beyond tolerance."""


class SubmarkovViolation(FplabError):
    """alpha G_alpha applied to an indicator left [0, 1] beyond tolerance."""


# cutoffs and configuration

class InvalidRadii(FplabError):
    """Cutoff radii must satisfy 0 < s < r."""


class ConfigError(FplabError):
    """A configuration file is malformed or has an invalid value."""
