"""Numerical laboratory for the dynamics of weighted composition operators
on discretized function spaces."""

from .funcspace import (
    Grid,
    GridFunction,
    PiecewiseMap,
    Translation,
    PiecewiseAffineHomeo,
    identity_homeo,
    SUP,
    L2,
    SegalNorm,
    norm,
    restrict,
    linear_interpolate,
    triangular_bump,
    rectangular_bump,
)
from .operators import (
    CompositionOperator,
    apply_T,
    apply_S,
    apply_Tn,
    apply_Sn,
    cocycle,
)
from .criteria import (
    CompactWindow,
    CriterionKind,
    CriterionVerdict,
    evaluate,
    implication_check,
    wedge_condition,
)
from .dynamics import (
    projective_distance,
    orbit_trace,
    supercyclic_approximant,
    cesaro_approximant,
    segal_approximant,
    empirical_best,
)
from .measures import (
    AtomicMeasure,
    tv_norm,
    adjoint_T,
    adjoint_Tn,
    adjoint_Sn,
    duality_check,
    adjoint_criterion,
    measure_approximant,
)
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
from .presets import build_preset, preset_names, REGISTRY

__version__ = "0.1.0"
