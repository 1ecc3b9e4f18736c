"""Parameter-grid reducibility scan for the weight families.

The built-in grid (521 points: 201 M, 201 N, 119 V) walks all three
families across the reducibility strata: beta^2 + a = 0 with and without
an integral root of alpha_j beta + b = 0 for M and N, and the beta = a,
beta = -a walls (including beta = a = 0) for V.  Each point is judged twice: by the
closed-form criterion and by an exact windowed singular-vector search
centered on the predicted witness; the scan row records whether the two
agree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .poly import poly1_eval
from .weightmod import (SingularReport, WeightModuleSpec,
                        WeightSimplicityResult, Window, make_weight_m,
                        make_weight_n, make_weight_v,
                        simplicity_criterion_weight, singular_vectors)

SCAN_CSV_COLUMNS = ["family", "params", "simple?", "witness_k", "witness_s"]


def _dedupe(values):
    return list(dict.fromkeys(values))


def builtin_scan_grid() -> List[WeightModuleSpec]:
    F = Fraction
    lam = F(1)
    specs: List[WeightModuleSpec] = []
    alphas = [F(0), F(1), F(1, 2)]
    betas = [F(0), F(1), F(2), F(-1), F(1, 2)]
    for family, maker in (("M", make_weight_m), ("N", make_weight_n)):
        for alpha in alphas:
            for beta in betas:
                for a in _dedupe([-beta * beta, -beta * beta + 1, F(1)]):
                    if beta:
                        b_vals = _dedupe(
                            [-(alpha + 2 * j) * beta for j in (-1, 0, 2)]
                            + [F(1, 3), F(1)])
                    else:
                        b_vals = [F(0), F(1), F(1, 3), F(-2), F(5)]
                    for b in b_vals:
                        specs.append(maker(alpha, beta, lam, a, b))
    for a in (F(0), F(1), F(2), F(-1, 2)):
        for beta in _dedupe([a, -a, a + 1]):
            for beta1 in ((F(0),), (F(1),), (F(1), F(1)), (F(1, 3),)):
                probe = make_weight_v(0, beta, lam, a, beta1)
                alpha_vals = [F(0), F(1, 2)]
                # steer one alpha onto the integral stratum when on a wall
                if beta == a and a != 0:
                    alpha_vals.append(2 * lam * poly1_eval(beta1, beta) - 4)
                elif beta == -a and a != 0:
                    alpha_vals.append(
                        -2 * poly1_eval(probe.alpha1, beta) / lam - 4)
                else:
                    alpha_vals.append(F(1))
                for alpha in _dedupe(alpha_vals):
                    specs.append(make_weight_v(alpha, beta, lam, a, beta1))
    return specs


def _params_text(spec: WeightModuleSpec) -> str:
    """``spec.params()`` less the family, beta1 printed as (q0,q1,...)."""
    params = spec.params()
    del params["family"]
    return ";".join(
        f"{k}=({','.join(map(str, v))})" if isinstance(v, tuple) else f"{k}={v}"
        for k, v in params.items())


def criterion_agrees(spec: WeightModuleSpec, crit: WeightSimplicityResult,
                     report: SingularReport) -> bool:
    """Whether a windowed singular search confirms the closed-form verdict.

    A simple module must show no hit; a reducible one must show a hit at
    the criterion's witness, killed by its pair, with the witness's
    h-eigenvalue.  The window must contain the witness.
    """
    if crit.simple:
        return not report.found
    wk, ws = crit.witness
    return any(hit.k == wk and hit.s == ws and hit.killed_by == crit.pair
               and hit.h_eigenvalue == -spec.alpha_k(wk)
               for hit in report.hits)


def scan_point(spec: WeightModuleSpec) -> dict:
    """One scan row: closed-form verdict vs windowed singular search."""
    crit = simplicity_criterion_weight(spec)
    if crit.simple:
        window = Window(-3, 3, 4)
        witness_k = witness_s = ""
    else:
        witness_k, witness_s = crit.witness
        window = Window(witness_k - 2, witness_k + 2, max(4, witness_s + 1))
    agrees = criterion_agrees(spec, crit, singular_vectors(spec, window))
    return {
        "family": spec.family,
        "params": _params_text(spec),
        "simple?": crit.simple,
        "witness_k": witness_k,
        "witness_s": witness_s,
        "agrees": agrees,
    }


def run_scan(specs=None) -> List[dict]:
    if specs is None:
        specs = builtin_scan_grid()
    return [scan_point(spec) for spec in specs]
