"""Numerical toolkit for the finite Hilbert transform on (-1,1)."""

from .airfoil import (
    RoundTripReport,
    solvability_residual,
    solve_high,
    solve_low,
    verify_roundtrip,
)
from .engine import (
    TRICOMI,
    WIDOM,
    fht_check,
    fht_hat,
    fht_pointwise,
    fht_polynomial,
    fht_spectral,
    integrate_unit,
    project_P,
    project_Q,
    transform,
    weighted_transform,
)
from .errors import FhtError
from .functions import (
    EndpointWeightedFunction,
    IndicatorUnion,
    SampledFunction,
    inverse_sqrt_weight,
    one,
    sample,
    sqrt_weight,
)
from .harness import (
    IdentityReport,
    ProbeReport,
    check_kernel,
    check_laeng,
    check_parseval,
    check_poincare_bertrand,
    khvedelidze_probe,
    loglog_probe,
    norm_probe,
)
from .rearrange import (
    decreasing_rearrangement,
    lorentz_norm,
    lorentz_norm_with_divergence_check,
    lp_norm,
    zygmund_norm,
)
from .series import ChebyshevSeries, interpolate_chebyshev
from .spectrum import (
    FineSpectrum,
    SpaceDescriptor,
    classify_point,
    classify_space,
    eigen_residual,
    gamma_of_lambda,
    region_boundary_points,
    region_contains,
    xi_function,
    z_of_lambda,
)

__version__ = "0.1.0"
