"""divergence-lab: divergence families on finite probability simplices and
numerical checkers for the data-processing, sufficiency and decomposability
properties, including binary-alphabet counterexample constructions."""

from .simplex import (Channel, Distribution, merge_transform, push_forward,
                      split_transform)
from .divergences import (DivergenceError, DivergenceSpec, ScalarFunction,
                          catalog, negative_entropy, resolve)
from .families import (FamilyError, HGenerator, bregman_from_symmetric_g,
                       build_G_from_h, build_f_from_h, kl_type_from_h,
                       random_symmetric_convex_g)
from .checkers import (CheckReport, check_decomposable_binary, check_dpi,
                       check_shannon_inequality, check_sufficiency,
                       dpi_local_refine, evaluate_scenario)
from .fitting import (ConvexPiecewiseLinearFit, fit_bregman_binary,
                      fit_f_divergence, pav_nondecreasing)
from .scenarios import ScenarioResult, emit_report, run_all, run_scenario

__version__ = "0.1.0"

__all__ = [
    "Channel", "Distribution", "merge_transform", "push_forward",
    "split_transform",
    "DivergenceError", "DivergenceSpec", "ScalarFunction", "catalog",
    "negative_entropy", "resolve",
    "FamilyError", "HGenerator", "bregman_from_symmetric_g",
    "build_G_from_h", "build_f_from_h", "kl_type_from_h",
    "random_symmetric_convex_g",
    "CheckReport", "check_decomposable_binary", "check_dpi",
    "check_shannon_inequality", "check_sufficiency", "dpi_local_refine",
    "evaluate_scenario",
    "ConvexPiecewiseLinearFit", "fit_bregman_binary", "fit_f_divergence",
    "pav_nondecreasing",
    "ScenarioResult", "emit_report", "run_all", "run_scenario",
]
