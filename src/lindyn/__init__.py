"""Numerical laboratory for the dynamics of weighted composition operators
on discretized function spaces."""

from .funcspace import (
    Grid,
    GridFunction,
    PiecewiseMap,
    Translation,
    PiecewiseAffineHomeo,
    SUP,
    L2,
    SegalNorm,
    norm,
    linear_interpolate,
    triangular_bump,
)
from .operators import CompositionOperator
from .criteria import (
    CompactWindow,
    CriterionKind,
    CriterionVerdict,
    evaluate,
)
from .dynamics import (
    projective_distance,
    orbit_trace,
    empirical_best,
)
from .measures import adjoint_criterion
from .porosity import (
    GammaSet,
    gamma_membership,
    choose_N,
    build_h,
    build_script_E,
    build_gamma,
    porosity_probe,
    corollary_g,
    corollary_check,
)
from .presets import build_preset, REGISTRY

__version__ = "0.1.0"
