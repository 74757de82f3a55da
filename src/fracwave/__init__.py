"""Numerical laboratory for time-fractional wave dynamics.

Discretizes the evolution problem  d_t^alpha (u - a - b t) = -A u  with
1 < alpha < 2 and a (possibly non-symmetric) second-order elliptic operator A
on a box, and provides the machinery to study it: discrete fractional
calculus, operator assembly, Riesz spectral projections from eigenvectors or
resolvent contour integrals, three mutually cross-validating forward solvers,
and the subdomain-observation map with its injectivity analysis and
regularized inverse source recovery.
"""

from .elliptic import (
    CoefficientField,
    DiscreteOperator,
    Mesh,
    assemble,
    check_ellipticity,
    subdomain_indices,
)
from .errors import (
    ConfigError,
    ContourError,
    DefectiveClusterError,
    EllipticityError,
    FracwaveError,
    MittagLefflerError,
    NumericsError,
)
from .fraccalc import (
    TimeGrid,
    TimeSeries,
    caputo_derivative,
    mittag_leffler,
    mittag_leffler_kernel,
    rl_integral,
)
from .observability import (
    ObservationMap,
    ObservationSetup,
    ProbeVector,
    branch_identity_probe,
    build_observation_map,
    injectivity_report,
    invert_source,
    synthesize_observations,
)
from .solver import (
    GrowthFit,
    LaplaceContour,
    SolutionSamples,
    SourcePair,
    growth_probe,
    laplace_identity_check,
    route_difference,
    solve,
    solve_resolvent,
    solve_spectral_oracle,
    solve_timestep,
)
from .spectral import (
    Eigensystem,
    RieszData,
    completeness_defect,
    compute_riesz_data,
    eigendecompose,
    lemma3_check,
    riesz_projection,
    verify_identities,
)

__version__ = "0.1.0"
