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
    transpose,
)
from .brackets_coactions import (
    CyclicByFree,
    CyclicWedge,
    coaction_mu_kks,
    double_bracket_from_pairing,
    double_bracket_kks,
    double_derivation_from_fox,
    mu_bar_kks,
    necklace_bracket,
    necklace_cobracket,
)
from .trivial_extension import (
    DKGenerator,
    TrivExtElement,
    associator_tail,
    gen_w,
    gen_z,
    pi,
    pi0,
    pi1,
    square_w,
    square_z,
    square_zw,
    trivext_mul,
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

# The transport engine and the representation-space evaluators import numpy;
# they are loaded on first attribute access so that thread-count environment
# caps set by the CLI take effect before any numerical library initializes.
_LAZY = {
    "ConnectionSpec": "kz_holonomy",
    "HolonomyResult": "kz_holonomy",
    "associator": "kz_holonomy",
    "holonomy_reg": "kz_holonomy",
    "coaction_check": "kz_holonomy",
    "mu_bar_rhs": "kz_holonomy",
    "rho_paths": "kz_holonomy",
    "goldman_bracket_check": "kz_holonomy",
    "pentagon_projection_check": "kz_holonomy",
    "BivectorReport": "rep_space",
    "MatrixTuple": "rep_space",
    "bivector_pi": "rep_space",
    "evaluate": "rep_space",
    "tail_bound": "rep_space",
    "vdb_bracket": "rep_space",
    "verify_theorem2": "rep_space",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = sorted(
    [
        "COMPLEX",
        "RATIONAL",
        "CyclicSeries",
        "FreeSeries",
        "TensorSeries",
        "CyclicByFree",
        "CyclicWedge",
        "FoxPairing",
        "DKGenerator",
        "TrivExtElement",
        "Anchor",
        "PLPath",
        "PunctureConfig",
        "bernoulli",
        "zeta",
        "r_am_series",
        "r_zeta_series",
        "d_left",
        "d_right",
        "rho_inner",
        "rho_kks",
        "rho_kks_pairing",
        "rho_left",
        "rho_right",
        "transpose",
        "coaction_mu_kks",
        "double_bracket_from_pairing",
        "double_bracket_kks",
        "double_derivation_from_fox",
        "mu_bar_kks",
        "necklace_bracket",
        "necklace_cobracket",
        "associator_tail",
        "gen_w",
        "gen_z",
        "pi",
        "pi0",
        "pi1",
        "square_w",
        "square_z",
        "square_zw",
        "trivext_mul",
        "compose",
        "intersections",
        "rotation_number",
        "self_intersections",
        "subpath",
    ]
    + list(_LAZY)
)

__version__ = "0.1.0"
