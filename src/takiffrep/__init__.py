"""Exact module families over the Takiff algebra of sl2.

The package works over exact rationals throughout: polynomials in the two
Cartan variables (h, hbar), straightening in the enveloping algebra and its
localization at ebar, three families of modules free of rank one over the
Cartan subalgebra (Gamma, Theta, Omega), the dual weight families (M, N, V),
simplicity and singular-vector detection, the twisting substitution, and the
explicit isomorphisms linking all of the above.
"""

from .poly import (NEG_INF, PolyHH, Rational, format_rational, parse_poly,
                   poly1_eval, random_rational, shifted_expand, to_rational)
from .algebra import (GENERATORS, AlgebraElement, Monomial, bracket,
                      check_theta_automorphism, commutator, normal_form,
                      parse_word_expr, theta)
from .linalg import RowBasis, nullspace, vec_axpy, vec_clean
from .freemod import (FreeModuleSpec, GENERATOR_PAIRS, act, act_word,
                      alpha_from_beta, e34_residual, iso_invariants_free,
                      make_gamma, make_omega, make_theta_mod,
                      omega_layer_action, omega_quotient_delta_params,
                      random_free_spec, simplicity_criterion_free,
                      submodule_saturate, verify_axioms)
from .weightmod import (DEFAULT_WINDOW, WeightModuleSpec, Window, act_weight,
                        act_weight_word, delta_action, dual_consistency,
                        eval_functional, make_weight_m,
                        make_weight_n, make_weight_v, parent_spec,
                        random_weight_spec, simplicity_criterion_weight,
                        singular_vectors, verma_check, weight_bracket_report,
                        wv_scale, wv_text, wv_unit)
from .functors import (check_twist_iso, ebinv_act, intertwiner_search,
                       lambda_rescale_iso, twisted_act, vm_iso_check,
                       vm_matching_b, vm_matching_m_spec)
from .scan import builtin_scan_grid, run_scan, scan_point

__version__ = "0.1.0"

__all__ = [
    "NEG_INF", "PolyHH", "Rational", "format_rational", "parse_poly",
    "poly1_eval", "random_rational", "shifted_expand", "to_rational",
    "GENERATORS", "AlgebraElement", "Monomial", "bracket",
    "check_theta_automorphism", "commutator", "normal_form",
    "parse_word_expr", "theta",
    "RowBasis", "nullspace", "vec_axpy", "vec_clean",
    "FreeModuleSpec", "GENERATOR_PAIRS", "act", "act_word",
    "alpha_from_beta", "e34_residual", "iso_invariants_free", "make_gamma",
    "make_omega", "make_theta_mod", "omega_layer_action",
    "omega_quotient_delta_params", "random_free_spec",
    "simplicity_criterion_free", "submodule_saturate", "verify_axioms",
    "DEFAULT_WINDOW", "WeightModuleSpec", "Window", "act_weight",
    "act_weight_word", "delta_action", "dual_consistency", "eval_functional",
    "make_weight_m", "make_weight_n", "make_weight_v", "parent_spec",
    "random_weight_spec", "simplicity_criterion_weight", "singular_vectors",
    "verma_check", "weight_bracket_report", "wv_scale", "wv_text", "wv_unit",
    "check_twist_iso", "ebinv_act", "intertwiner_search",
    "lambda_rescale_iso", "twisted_act", "vm_iso_check", "vm_matching_b",
    "vm_matching_m_spec",
    "builtin_scan_grid", "run_scan", "scan_point",
    "__version__",
]
