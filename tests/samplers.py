"""Random polynomials and the pairing of a weight vector with one.

Only the tests sample: the library proves its identities.  The property
tests draw polynomials with ``random_poly``, and the sampled duality
oracle of ``test_weightmod`` pairs weight vectors with them through
``eval_weightvec``.
"""

from fractions import Fraction

from takiffrep.poly import PolyHH
from takiffrep.weightmod import eval_functional


def random_poly(rng, max_deg_h: int = 5, max_deg_hbar: int = 5,
                max_terms: int = 6) -> PolyHH:
    """Random sparse polynomial: coefficients num in -9..9, den in 1..9."""
    n = rng.randint(1, max_terms)
    coeffs = {}
    for _ in range(n):
        e = (rng.randint(0, max_deg_h), rng.randint(0, max_deg_hbar))
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        coeffs[e] = coeffs.get(e, Fraction(0)) + v
    return PolyHH({e: v for e, v in coeffs.items() if v})


def eval_weightvec(spec, v, p: PolyHH) -> Fraction:
    """The value of the weight vector v of ``spec`` on the polynomial p."""
    total = Fraction(0)
    for (k, s), c in v.items():
        total += c * eval_functional(k, s, spec.alpha, spec.beta, p)
    return total
