"""Finite element laboratory for stationary Fokker-Planck structures.

The package builds simplicial meshes of balls and boxes, solves for the
invariant density of a drift-diffusion operator, decomposes the drift into
a gradient part and a divergence-free remainder, assembles the weighted
sectorial form with its resolvent family, and runs the cutoff energy-bound
experiment together with mollifier and mean-oscillation diagnostics. Every
identity the construction relies on is exposed as a checkable operation.
"""

from .errors import (
    ConfigError,
    ContractionViolation,
    DegenerateRadius,
    DensityNotPositive,
    DimensionUnsupported,
    FplabError,
    InvalidBox,
    InvalidRadii,
    InvalidRadius,
    KernelDimensionError,
    MissingDerivative,
    NonEllipticSample,
    NonFiniteValue,
    NonPositiveDensity,
    RefinementTooDeep,
    SingularElement,
    SingularMass,
    SolverDivergence,
    SubmarkovViolation,
    UnknownPreset,
)
from .quadrature import (
    QuadratureRule,
    gauss_legendre,
    quadrature_rule,
)
from .mesh import (
    Ball,
    Box,
    SimplicialMesh,
    boundary_facets,
    build_ball_mesh,
    build_box_mesh,
    check_conformity,
    mesh_quality,
    read_mesh,
    refine_uniform,
    write_mesh,
)
from .fem import (
    FeFunction,
    assemble_drift,
    assemble_load,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    element_geometry,
    interpolate,
    l2_error,
    lumped_weights,
    matrix_at_quad,
    norm,
    physical_quad_points,
    quadrature_norm,
    scalar_at_quad,
    vector_at_quad,
)
from .coefficients import (
    AnalyticFunction,
    CoefficientSet,
    MeshInterpolant,
    PRESET_NAMES,
    VmoProductReport,
    VmoReport,
    WeakDivergence,
    example_i_phi,
    example_ii_profile,
    load_coefficient_data,
    nondivergence_apply,
    preset,
    sample_domain_points,
    sampled_coefficient_set,
    unit_ball_volume,
    vmo_modulus,
    vmo_product_inequality_check,
    weak_divergence_matrix,
)
from .density import (
    DensityField,
    DriftDecomposition,
    decompose_drift,
    divergence_free_residual,
    solve_invariant_density,
    stationarity_matrix,
)
from .forms import (
    DEFAULT_ALPHAS,
    ContractionReport,
    FormMatrices,
    Resolvent,
    ResolventIdentityReport,
    ResolventSweepReport,
    SectorReport,
    StrongContinuityReport,
    SubmarkovReport,
    apply_generator,
    assemble_form,
    check_contraction,
    check_resolvent_identity,
    check_submarkov,
    first_dirichlet_eigenpair,
    resolvent_sweep,
    sector_constant,
    solve_resolvent,
    strong_continuity_gaps,
    theoretical_sector_bound,
)
from .mollifiers import (
    MollifierFamily,
    capital_phi_eps,
    mollifier_mass,
    phi_eps,
    phi_eps_prime,
    phi_eps_quadrature,
    standard_mollifier,
)
from .experiment import (
    ConstantsReport,
    ConvergenceDiagnostics,
    CutoffSpec,
    EnergyBoundReport,
    build_cutoff,
    compute_constants,
    convergence_diagnostics,
    product_rule_residual,
    run_experiment,
)
from .config import (
    ExperimentConfig,
    parse_alphas,
    parse_config,
    parse_config_text,
)

__version__ = "0.1.0"


def version_string() -> str:
    """Describe-style identifier embedded in every emitted report."""
    return f"fplab-{__version__}"


__all__ = [name for name in dir() if not name.startswith("_")]
