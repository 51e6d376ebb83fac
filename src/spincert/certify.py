"""Certificate logic: realization search, exclusion bounds, the Klein combinator.

Non-existence enters only through the concrete obstructions (the W5
verdict, integrality failures, the signature bound, the dimension-8
congruence).  Combinators never infer non-existence from existence,
since reading an existence rule backwards is unsound: the Klein-bottle
product only carries forward an exclusion that one of those
obstructions has certified.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from types import MappingProxyType
from typing import Dict, Tuple

from . import genus
from .certificates import (
    Certificate,
    CertificateError,
    Check,
    ESTABLISHED,
    EXCLUDED,
    INCONCLUSIVE,
    ReadOnly,
    pin_label,
    spin_label,
)
from .exact import (
    alpha,
    four_squares,
    is_dyadic,
    nu2,
    odd_part,
    quadratic_residues,
)

class InconsistentLiftError(ValueError):
    pass


# -- models and witnesses ----------------------------------------------


class RHCModel(ReadOnly):
    """Rationally highly connected 8m-model with its two surviving numbers.

    P2 is integral(p_m^2) and Q is integral(p_{2m}).  In terms of the
    realization conditions x = P2 and y = Q; where the model arises from
    the dimension-8 family with p_1 = x * generator, P2 equals x^2.
    """

    __slots__ = ("m", "middle_betti", "sigma", "P2", "Q")

    def __init__(self, m: int, middle_betti: int, sigma: int, P2: int, Q: int) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        if middle_betti < 0:
            raise ValueError("middle Betti number must be >= 0")
        if abs(sigma) > middle_betti:
            raise ValueError(
                f"|sigma| = {abs(sigma)} exceeds the middle Betti number {middle_betti}"
            )
        # b - |sigma| = 2 min(b+, b-), since sigma = b+ - b- and b = b+ + b-
        if (middle_betti - abs(sigma)) % 2:
            raise ValueError(
                f"sigma = {sigma} and the middle Betti number {middle_betti} "
                "differ in parity; sigma = b+ - b- and b+ + b- agree mod 2"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "middle_betti", middle_betti)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "P2", P2)
        object.__setattr__(self, "Q", Q)


class RealizationWitness(ReadOnly):
    """Poincare-algebra witness for a realizable (P2, Q, sigma) triple."""

    __slots__ = ("sigma", "P2", "Q", "four_square", "algebra_note")

    def __init__(
        self,
        sigma: int,
        P2: int,
        Q: int,
        four_square: Tuple[int, int, int, int],
        algebra_note: str,
    ) -> None:
        if sigma <= 4 or sigma % 2 == 0:
            raise ValueError("witness signature must be an odd integer > 4")
        if sum(a * a for a in four_square) != P2:
            raise ValueError("four-square decomposition does not sum to P2")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "P2", P2)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "four_square", four_square)
        object.__setattr__(self, "algebra_note", algebra_note)

    def to_dict(self) -> Dict:
        return {
            "sigma": self.sigma,
            "P2": self.P2,
            "Q": self.Q,
            "four_square": list(self.four_square),
            "algebra_note": self.algebra_note,
        }


# -- realization conditions and search -----------------------------------


def _condition_coefficient(m: int, s_m: Fraction) -> Fraction:
    return Fraction((-1) ** (m + 1), factorial(2 * m - 1)) * s_m + Fraction(
        1, 2 * factorial(4 * m - 1)
    )


def realization_conditions(m: int, P2: int, Q: int) -> Certificate:
    """Check the three arithmetic realization conditions for an 8m-model.

    Computes sigma from the signature-sequence coefficients and checks
    that it is an integer, plus the two dyadic-integrality conditions.
    Failures are recorded in the certificate (verdict inconclusive: the
    conditions are sufficient for realization, so their failure only
    blocks this route); no exception is raised.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    coeffs = genus.l_coefficients(m)
    sigma = genus.l_signature(m, P2, Q)
    cond2 = _condition_coefficient(m, coeffs.s_m) * P2 - Fraction(Q, factorial(4 * m - 1))
    cond3 = Fraction(P2, factorial(2 * m - 1) ** 2)
    checks = [
        Check("signature from the L-evaluation", sigma, "Z", "in", sigma.denominator == 1),
        Check("condition (ii) value", cond2, "Z[1/2]", "in", is_dyadic(cond2)),
        Check("condition (iii) value", cond3, "Z[1/2]", "in", is_dyadic(cond3)),
    ]
    satisfied = all(c.passed for c in checks)
    return Certificate(
        claim="realizable",
        parameters={
            "m": m,
            "dimension": 8 * m,
            "P2": P2,
            "Q": Q,
            "sigma": sigma,
            "s_m": coeffs.s_m,
            "s_mm": coeffs.s_mm,
            "s_2m": coeffs.s_2m,
        },
        checks=checks,
        verdict=ESTABLISHED if satisfied else INCONCLUSIVE,
    )


def poincare_witness(sigma: int, P2: int, Q: int) -> RealizationWitness:
    """Witness data realizing (P2, Q) on a rank-sigma Poincare algebra.

    The algebra has sigma degree-4m generators alpha_i with
    alpha_i^2 = alpha_j^2 and alpha_i*alpha_j = 0; p_m is spread over the
    generators by a four-square decomposition of P2 and p_{2m} is
    Q * alpha_1^2.
    """
    if sigma <= 4:
        raise ValueError(f"witness construction needs sigma > 4, got {sigma}")
    if P2 < 0:
        raise ValueError(f"P2 must be a non-negative integer, got {P2}")
    quad = four_squares(P2)
    note = (
        f"Q[alpha_1..alpha_{sigma}] with alpha_i^2 = alpha_j^2 and "
        f"alpha_i*alpha_j = 0 for i != j; p_m = "
        f"{quad[0]}*alpha_1 + {quad[1]}*alpha_2 + {quad[2]}*alpha_3 + {quad[3]}*alpha_4, "
        f"p_2m = {Q}*alpha_1^2"
    )
    return RealizationWitness(sigma, P2, Q, quad, note)


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def _multiplier(a: int, b: int, target: int) -> int:
    """First t in 1, -1, 3, -3, ... with a + b*t >= target, for b odd.

    When need = target - a <= -|b| both signs reach at magnitude 1 and
    t = 1 comes first; otherwise only t of the sign of b can reach.
    """
    need = target - a
    if need <= -abs(b):
        return 1
    magnitude = max(1, -(-need // abs(b)))
    return (magnitude | 1) * (1 if b > 0 else -1)


def realization_search(m: int, sigma_min: int = 1) -> RealizationWitness:
    """Deterministic witness for an odd-signature realizable model.

    Follows the power-of-two recipe: pick a positive odd base x clearing
    the odd denominators of conditions (ii) and (iii), rescale so
    s_mm * x is an even integer, pick an odd base y making s_2m * y an
    odd integer, then take the signed odd multiplier t of y of smallest
    magnitude (positive before negative) whose signature reaches
    max(5, sigma_min); it is one ceiling division, so any sigma_min is
    answered at once.  The returned witness is re-validated through
    :func:`realization_conditions`.
    """
    if not _is_power_of_two(m):
        raise ValueError(f"the search recipe needs m to be a power of two, got {m}")
    coeffs = genus.l_coefficients(m)
    if nu2(coeffs.s_2m) != 0:
        raise AssertionError(f"nu2(s_2m) = {nu2(coeffs.s_2m)} for m = {m}, expected 0")

    c1 = _condition_coefficient(m, coeffs.s_m)
    x0 = lcm(odd_part(c1.denominator), odd_part(factorial(2 * m - 1) ** 2))
    scaled = coeffs.s_mm * x0
    x = x0 * scaled.denominator * 2
    a_part = coeffs.s_mm * x
    y0 = lcm(coeffs.s_2m.denominator, odd_part(factorial(4 * m - 1)))
    b_part = coeffs.s_2m * y0
    if a_part.denominator != 1 or a_part.numerator % 2 != 0:
        raise AssertionError("s_mm * x is not an even integer")
    if b_part.denominator != 1 or b_part.numerator % 2 == 0:
        raise AssertionError("s_2m * y0 is not an odd integer")

    a, b = a_part.numerator, b_part.numerator
    t = _multiplier(a, b, max(5, sigma_min))
    witness = poincare_witness(a + b * t, x, y0 * t)
    cert = realization_conditions(m, witness.P2, witness.Q)
    if cert.verdict != ESTABLISHED or cert.parameters["sigma"] != witness.sigma:
        raise AssertionError(
            "search output failed re-validation through realization_conditions"
        )
    return witness


# -- the signature bound ---------------------------------------------------


def _signature_bound(m: int, k: int) -> int:
    # the lower bound 4m - 5 - 2*nu2(m) - floor(k/2) on nu2(2*sigma)
    return 4 * m - 5 - 2 * nu2(m) - k // 2


def signature_bound_verdict(m: int, k: int, sigma: int) -> Certificate:
    """Exclusion by the 2-adic signature bound on 8m-dimensional models.

    With l = floor(k/2), a rationally highly connected spin^k manifold
    of dimension 8m and non-zero signature sigma must satisfy
    nu2(2*sigma) >= 4m - 5 - 2*nu2(m) - l; a violation excludes spin^k
    for every manifold with these data.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 1 or k >= 2 * m:
        raise ValueError(f"the bound applies only for 1 <= k < 2m, got k = {k}")
    if sigma == 0:
        raise ValueError("the bound needs a non-zero signature")
    bound = _signature_bound(m, k)
    value = nu2(2 * sigma)
    excluded = value < bound
    check = Check(
        "nu2(2*sigma) against the spin^k lower bound",
        value,
        bound,
        "<" if excluded else ">=",
        True,
    )
    return Certificate(
        claim=f"not-{spin_label(k)}",
        parameters={
            "m": m,
            "k": k,
            "l": k // 2,
            "sigma": sigma,
            "dimension": 8 * m,
            "bound": bound,
            "orientable": True,
        },
        checks=[check],
        verdict=EXCLUDED if excluded else INCONCLUSIVE,
    )


def bound_exclusion_dimension(k: int) -> int:
    """First dimension 8m (m a power of two) where the signature bound bites.

    This is specific to the odd-signature criterion: the smallest power
    of two m with k < 2m and nu2(2*sigma) = 1 < 4m - 5 - 2*nu2(m) -
    floor(k/2).  It is not the minimal non-spin^k dimension (for k = 1
    that would be 4).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = 1
    while True:
        if k < 2 * m and _signature_bound(m, k) > 1:
            return 8 * m
        m *= 2


# -- the dimension-8 family -------------------------------------------------


def nonspinh8_certificate(a: int) -> Certificate:
    """Exclusion certificate for the dimension-8 odd-signature family.

    Member a has p_1 = x * generator and p_2 = y * generator^2 with
    x = -168a + 240 and y = 4032a^2 - 11520a + 8235.  The certificate
    re-derives the congruence c^2 - y + 6 = 0 mod 48 from the symbolic
    degree-8 expansion, computes the forced residue 21, and records that
    21 is not a square mod 48.
    """
    x = -168 * a + 240
    y = 4032 * a * a - 11520 * a + 8235
    cxx, cy, cgg = genus.spinh_integrand_coefficients()
    derived = (48 * cgg, 48 * (7 * cxx + cy), -45 * 48 * cxx)
    expected = (Fraction(1), Fraction(-1), Fraction(6))
    residue = (y - 6) % 48
    qr48 = quadratic_residues(48)
    checks = [
        Check("7*y - x^2", 7 * y - x * x, 45, "=", 7 * y - x * x == 45),
        Check(
            "48 * integrand reduces to c^2 - y + 6: coefficients on (c^2, y, 1)",
            derived,
            (1, -1, 6),
            "=",
            derived == expected,
        ),
        Check("(y - 6) mod 48", residue, 21, "=", residue == 21),
        Check("21", 21, "QR(48)", "not in", 21 not in qr48),
    ]
    all_passed = all(c.passed for c in checks)
    return Certificate(
        claim="not-spin^h" if all_passed else "not-spin^h-undetermined",
        parameters={
            "a": a,
            "x": x,
            "y": y,
            "P2": x * x,
            "Q": y,
            "sigma": 1,
            "dimension": 8,
            "k": 3,
            "orientable": True,
        },
        checks=checks,
        verdict=EXCLUDED if all_passed else INCONCLUSIVE,
        witnesses={"pontryagin_numbers": MappingProxyType({"p1^2": x * x, "p2": y})},
    )


# -- integral lifts of w4 ----------------------------------------------------


W4_LIFT_VARIANTS = ("plain", "spin4_plus", "spin4_minus")


def w4_lift(p1_M: int, p1_E: int, variant: str = "plain", euler_E: int = 0) -> int:
    """Integral lift of w4 from a spin^h (or spin^4) structure's p_1 data.

    plain: (p1_M - p1_E)/2; the spin^4 variants shift p1_E by the
    self-dual/anti-self-dual correction -+2e(E).  An odd difference is
    impossible when the structure exists, so it is rejected.
    """
    if variant not in W4_LIFT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {W4_LIFT_VARIANTS}")
    diff = p1_M - p1_E
    if variant == "spin4_plus":
        diff -= 2 * euler_E
    elif variant == "spin4_minus":
        diff += 2 * euler_E
    if diff % 2 != 0:
        raise InconsistentLiftError(
            "inconsistent input: no spin^h structure can produce these classes"
        )
    return diff // 2


# -- guaranteed structures ----------------------------------------------------


class GuaranteeRow(ReadOnly):
    """Structures guaranteed for every manifold of a given dimension.

    ``cohen_k`` is n - alpha(n), the immersion codimension.  The
    orientable guarantee is sharpened in low dimensions (spin through
    dimension 3, spin^c in dimension 4, spin^h through dimension 7).
    The pin guarantee twists the rank-k normal bundle nu of the
    immersion into an orientable bundle E: nu ox det nu for odd k, whose
    w_1 is (k + 1) w_1 = 0, and (nu ox det nu) + det nu of rank k + 1 for
    even k.  So pin_k is k for odd k and k + 1 for even k.  The sign is
    '+' exactly when w_2(E) = w_2 + w_1^2, which holds for k = 2 and
    3 mod 4 (``mod2.tensor_with_det`` and ``mod2.twist_then_sum``).
    """

    __slots__ = ("dimension", "cohen_k", "orientable_k", "pin_k", "pin_sign")

    def __init__(
        self, dimension: int, cohen_k: int, orientable_k: int, pin_k: int, pin_sign: str
    ) -> None:
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "cohen_k", cohen_k)
        object.__setattr__(self, "orientable_k", orientable_k)
        object.__setattr__(self, "pin_k", pin_k)
        object.__setattr__(self, "pin_sign", pin_sign)

    @property
    def orientable_label(self) -> str:
        return spin_label(self.orientable_k)

    @property
    def pin_structure(self) -> str:
        return pin_label(self.pin_k, self.pin_sign)

    def to_dict(self) -> Dict:
        return {
            "dimension": self.dimension,
            "cohen_k": self.cohen_k,
            "orientable_k": self.orientable_k,
            "orientable_structure": self.orientable_label,
            "pin_k": self.pin_k,
            "pin_structure": self.pin_structure,
        }


def guaranteed_structures(n: int) -> GuaranteeRow:
    """Guaranteed spin^k and pin^{k+-} structures in dimension n >= 2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    k = n - alpha(n)
    if n <= 3:
        orientable_k = 1
    elif n == 4:
        orientable_k = 2
    elif n <= 7:
        orientable_k = 3
    else:
        orientable_k = k
    pin_k = k if k % 2 else k + 1
    sign = "+" if k % 4 in (2, 3) else "-"
    return GuaranteeRow(
        dimension=n,
        cohen_k=k,
        orientable_k=orientable_k,
        pin_k=pin_k,
        pin_sign=sign,
    )


# -- the Klein-bottle product obstruction --------------------------------------


def _premise(cert: Certificate, role: str) -> Tuple[int, int]:
    """(k, dimension) of an exclusion, refused unless it is complete.

    The input must be excluded with every check passed, claim not-spin^k
    for its parameter k, an int >= 1, and record its dimension as an int
    >= 0: nothing is filled in.
    """
    if cert.verdict != EXCLUDED:
        raise CertificateError(f"{role} certificate does not carry the verdict {EXCLUDED!r}")
    failed = [c.name for c in cert.checks if not c.passed]
    if failed:
        raise CertificateError(f"{role} certificate has failed checks: {failed}")
    k = cert.parameters.get("k")
    if not _is_count(k) or k < 1 or cert.claim != "not-" + spin_label(k):
        raise CertificateError(f"{role} certificate does not exclude a spin^k structure")
    dimension = cert.parameters.get("dimension")
    if not _is_count(dimension):
        raise CertificateError(f"{role} certificate records no dimension (an int >= 0)")
    return k, dimension


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def klein_product_pin_obstruction(cert: Certificate) -> Certificate:
    """Non-orientable exclusion from an orientable one.

    Input: an established exclusion "M is orientable and not spin^k".
    The product of M with the Klein bottle K then admits neither a
    pin^{k+} nor a pin^{k-} structure: w_1(K)^2 = 0 makes the two
    conditions agree, and w_2(K) = 0 lets any such structure restrict to
    a spin^k structure on M.
    """
    k, factor_dimension = _premise(cert, "input")
    if cert.parameters.get("orientable") is not True:
        raise CertificateError("the argument needs the excluded factor to be orientable")
    plus, minus = pin_label(k, "+"), pin_label(k, "-")
    return Certificate(
        claim=f"not-{plus}-and-not-{minus}",
        parameters={
            "k": k,
            "dimension": factor_dimension + 2,
            "factor_claim": cert.claim,
            "factor_dimension": factor_dimension,
        },
        checks=[
            Check(
                "w1(Klein bottle)^2 = 0 equates the two pin conditions",
                "w1(K)^2",
                "0",
                "=",
                True,
            ),
            Check(
                "w2(Klein bottle) = 0 restricts the structure to the factor",
                "w2(K)",
                "0",
                "=",
                True,
            ),
            Check("factor exclusion", cert.claim, EXCLUDED, "recorded", True),
        ],
        verdict=EXCLUDED,
        witnesses={"factor_certificate": cert},
    )
