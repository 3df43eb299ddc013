"""Computer-algebra and numerical-verification kernel for regularized
holonomy of the logarithmic flat connection on the punctured plane, Fox
calculus, double brackets, coaction maps, and the induced Poisson structures
on matrix representation spaces."""

from .coefficients import bernoulli, r_am_series, r_zeta_series, zeta
from .free_hopf import COMPLEX, RATIONAL, CyclicSeries, FreeSeries, TensorSeries
from .fox_calculus import (
    FoxPairing,
    d_left,
    d_right,
    rho_inner,
    rho_kks,
    rho_kks_pairing,
    rho_left,
    rho_right,
)
from .brackets_coactions import (
    CyclicByFree,
    CyclicWedge,
    coaction_mu_kks,
    double_bracket_from_pairing,
    double_bracket_kks,
    double_derivation_left,
    double_derivation_right,
    mu_bar_kks,
    necklace_bracket,
    necklace_cobracket,
)
from .trivial_extension import (
    TrivExtElement,
    generator_images,
    square_w,
    square_z,
    square_zw,
    trivext_mul,
)
from .kz_holonomy import (
    ConnectionSpec,
    HolonomyResult,
    associator,
    coaction_check,
    goldman_bracket_check,
    holonomy_reg,
    mu_bar_rhs,
    pentagon_projection_check,
    rho_paths,
)
from .kz_paths import (
    Anchor,
    PLPath,
    PunctureConfig,
    compose,
    intersections,
    rotation_number,
    self_intersections,
    subpath,
)
from .rep_space import (
    MatrixTuple,
    bivector_pi,
    evaluate,
    tail_bound,
    verify_theorem2,
)

__version__ = "0.1.0"
