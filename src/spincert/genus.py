"""Multiplicative-sequence engine over formal Pontryagin classes.

A multiplicative sequence is determined by its characteristic power
series Q(z) = 1 + q1*z + q2*z^2 + ...; the polynomial K_j of the
sequence is the degree-4j part of the product of Q over formal roots,
rewritten in the elementary symmetric polynomials of those roots.  The
variable z always stands for the *square* of a formal Chern-style root,
so every series here has integral powers of z and no fractional powers
ever appear; z has weight 4 and p_i = e_i(z_1, z_2, ...) has weight 4i.

The engine computes K_j by the log/power-sum route: log Q summed over
the roots is g = sum_k l_k ps_k, with the power sums ps_k written in the
p_i by Newton's identities.  Only the log-derivative d = zQ'/Q, whose
coefficients are d_k = k l_k, is ever read: it is the quotient of the
series k q_k by Q, and the total class exp(g) follows from the recurrence
j K_j = sum_k d_k ps_k K_(j-k).  The naive many-root expansion is kept
out of the library on purpose: it serves as the independent test oracle.

Each K_j comes out as a :class:`PontryaginPolynomial` that holds what the
engine computed, integer numerators by named monomial over one denominator.
Its ``str`` is the only printer of K_j, and ``terms`` builds ``Fraction``
coefficients only when it is read.

Built-in series:

* signature sequence: sqrt(z)/tanh(sqrt(z)), the series whose genus is
  the signature;
* roof sequence ("A-hat"): (sqrt(z)/2)/sinh(sqrt(z)/2);
* normal-bundle factor: cosh(sqrt(z)/2), the multiplier appearing in
  the immersion integrality theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

from .certificates import Certificate, Check, ESTABLISHED, EXCLUDED, spin_label
from .exact import bernoulli

Monomial = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class PontryaginPolynomial:
    """Polynomial in Pontryagin classes with exact rational coefficients.

    The read-only result type of the genus engine, held as the engine makes
    it: integer ``numerators`` by named monomial over one positive
    ``denominator``, in lowest terms.  Zero numerators are never stored and a
    common factor is divided out, so equal polynomials compare equal.  There
    is no arithmetic.
    """

    numerators: Mapping[Monomial, int]
    denominator: int = 1

    def __post_init__(self) -> None:
        if self.denominator < 1:
            raise ValueError(f"denominator must be >= 1, got {self.denominator!r}")
        g = gcd(self.denominator, *self.numerators.values())
        nums = {mono: c // g for mono, c in self.numerators.items() if c}
        object.__setattr__(self, "numerators", MappingProxyType(nums))
        object.__setattr__(self, "denominator", self.denominator // g)

    # -- queries -------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        """Each monomial's coefficient as a ``Fraction``, built on every read."""
        d = self.denominator
        return MappingProxyType({mono: Fraction(c, d) for mono, c in self.numerators.items()})

    def evaluate(self, values: Mapping[str, Fraction | int]) -> Fraction:
        for name, value in values.items():
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise ValueError(f"value {value!r} of {name!r} is not an int or a Fraction")
        total = 0
        for mono, c in self.numerators.items():
            for name, exp in mono:
                if name not in values:
                    raise ValueError(f"no value supplied for generator {name!r}")
                c *= values[name] ** exp
            total += c
        return Fraction(total, self.denominator)

    def __repr__(self) -> str:
        return f"PontryaginPolynomial({self})"

    def __str__(self) -> str:
        # terms sorted by named monomial, each reduced by one gcd, as
        # "-1/45*p1^2 + 7/45*p2"
        d, parts = self.denominator, []
        for mono, c in sorted(self.numerators.items()):
            g = gcd(c, d)
            num, den = c // g, d // g
            body = "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in mono)
            mag = f"{abs(num)}" if den == 1 else f"{abs(num)}/{den}"
            if not body:
                piece = mag
            elif mag == "1":
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not parts:
                parts.append(piece if num > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if num > 0 else f"- {piece}")
        return " ".join(parts) or "0"


# -- characteristic power series ---------------------------------------


@dataclass(frozen=True)
class CharacteristicSeries:
    """Formal power series 1 + q1*z + ... + q_max*z^max, coefficients exact.

    Coefficients may be given as ints or Fractions and are stored as
    Fractions; anything else (a float, a bool) is refused.
    """

    coefficients: Tuple[Fraction, ...]

    def __post_init__(self):
        for q in self.coefficients:
            if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
                raise ValueError(f"series coefficient {q!r} is not an int or a Fraction")
        object.__setattr__(self, "coefficients", tuple(map(Fraction, self.coefficients)))
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("characteristic series must have constant term 1")

    @property
    def max_degree(self) -> int:
        return len(self.coefficients) - 1


def _series_quotient(num: List[Fraction | int], den: List[Fraction]) -> Tuple[Fraction, ...]:
    # q = num / den through the length of num, den_0 = 1:
    # q_k = num_k - sum_{0<i<=k} den_i q_(k-i).  With den_i = big_i / e over
    # one common denominator e, and q_0..q_(k-1) = top_i / m over one running
    # denominator m, the sum is (sum_i big_i top_(k-i)) / (e m), all in ints.
    den = den[: len(num)]
    e = lcm(*(den_i.denominator for den_i in den))
    big = [den_i.numerator * (e // den_i.denominator) for den_i in den]
    tops: List[int] = []
    out: List[Tuple[int, int]] = []
    m = 1
    for k, num_k in enumerate(num):
        s = sum(map(mul, big[1 : k + 1], reversed(tops)))
        a, b = num_k.numerator * e * m - num_k.denominator * s, num_k.denominator * e * m
        g = gcd(a, b)
        a, b = a // g, b // g
        if m % b:
            grow = b // gcd(m, b)
            tops = [top * grow for top in tops]
            m *= grow
        tops.append(a * (m // b))
        out.append((a, b))
    return tuple(Fraction(a, b) for a, b in out)


def _log_derivative(series: CharacteristicSeries, n: int) -> Tuple[Fraction, ...]:
    # d = zQ'/Q through z^n: d_k = k l_k with l = log Q, and d_0 = 0
    q = series.coefficients
    return _series_quotient([k * q[k] for k in range(n + 1)], q)


def signature_series(max_degree: int) -> CharacteristicSeries:
    """sqrt(z)/tanh(sqrt(z)) as a z-series: cosh-type over sinh-type factorials."""
    num = [Fraction(1, factorial(2 * k)) for k in range(max_degree + 1)]
    den = [Fraction(1, factorial(2 * k + 1)) for k in range(max_degree + 1)]
    return CharacteristicSeries(_series_quotient(num, den))


def ahat_series(max_degree: int) -> CharacteristicSeries:
    """(sqrt(z)/2)/sinh(sqrt(z)/2) as a z-series: one over the sinh-type series at z/4."""
    den = [Fraction(1, 4**k * factorial(2 * k + 1)) for k in range(max_degree + 1)]
    one = [int(k == 0) for k in range(max_degree + 1)]
    return CharacteristicSeries(_series_quotient(one, den))


def mayer_series(max_degree: int) -> CharacteristicSeries:
    """cosh(sqrt(z)/2): z^k-coefficient 1/(4^k (2k)!)."""
    return CharacteristicSeries(
        tuple(Fraction(1, 4**k * factorial(2 * k)) for k in range(max_degree + 1))
    )


# -- genus polynomials -------------------------------------------------
# The engine packs the exponent vector of p_1^e_1 ... p_n^e_n into one int
# key: field i - 1, n.bit_length() bits wide, holds e_i.  Every monomial of
# weight at most n has exponents at most n, so adding two keys of total
# weight at most n adds their vectors without a carry, and a monomial
# product is one int addition.  A homogeneous polynomial is a bucket, a
# dict from keys to integer coefficients; class names enter only in _named.

Bucket = Dict[int, int]


def _named(key: int, names: List[str]) -> Monomial:
    # names[i - 1] is "p{i}", and the key was packed for n = len(names)
    width = len(names).bit_length()
    field = (1 << width) - 1
    mono = []
    for name in names:
        if not key:
            break
        if key & field:
            mono.append((name, key & field))
        key >>= width
    # names sort as strings, and "p10" < "p2"
    return tuple(sorted(mono)) if len(names) > 9 else tuple(mono)


def _power_sums(n: int) -> List[Bucket]:
    # Newton: ps_k = sum_{i<k} (-1)^(i-1) p_i ps_(k-i) + (-1)^(k-1) k p_k
    width = n.bit_length()
    sums: List[Bucket] = []
    for k in range(1, n + 1):
        acc = {1 << (k - 1) * width: (-1) ** (k - 1) * k}
        for i in range(1, k):
            p_i, sign = 1 << (i - 1) * width, (-1) ** (i - 1)
            for mono, c in sums[k - i - 1].items():
                key = mono + p_i
                acc[key] = acc.get(key, 0) + sign * c
        sums.append(acc)
    return sums


def _genus_buckets(
    series: CharacteristicSeries, n: int
) -> Tuple[List[Bucket], List[int]]:
    # K_1..K_n, each an integer bucket over its denominator, in lowest terms
    if n < 1:
        raise ValueError("n must be >= 1")
    if series.max_degree < n:
        raise ValueError(
            f"series tracked through degree {series.max_degree}, need {n}"
        )
    # K = exp(g) with g = sum_k l_k ps_k, l = log Q; the weight-j part of
    # dK = dg K reads j K_j = sum_{k<=j} d_k ps_k K_(j-k), where d_k = k l_k
    # are the coefficients of zQ'/Q, here top_k / dd over one denominator dd.
    # With below = lcm(dens[<j]), every weight d_k / (j dens[j-k]) is an
    # integer over j dd below, and one gcd brings K_j to lowest terms.
    d = _log_derivative(series, n)
    dd = lcm(*(dk.denominator for dk in d))
    top = [dk.numerator * (dd // dk.denominator) for dk in d]
    sums = _power_sums(n)
    nums, dens, below = [{0: 1}], [1], 1
    for j in range(1, n + 1):
        below = lcm(below, dens[j - 1])
        den = j * dd * below
        acc: Bucket = {}
        get = acc.get
        for k in range(1, j + 1):
            w = top[k] * (below // dens[j - k])
            lower = nums[j - k].items()
            for ma, ca in sums[k - 1].items():
                c = ca * w
                for mb, cb in lower:
                    key = ma + mb
                    acc[key] = get(key, 0) + c * cb
        g = gcd(den, *acc.values())
        nums.append({mono: c // g for mono, c in acc.items() if c})
        dens.append(den // g)
    return nums[1:], dens[1:]


def genus_polynomials(
    series: CharacteristicSeries, n: int
) -> List[PontryaginPolynomial]:
    """The polynomials K_1..K_n of the multiplicative sequence of ``series``."""
    nums, dens = _genus_buckets(series, n)
    names = [f"p{i}" for i in range(1, n + 1)]
    return [
        PontryaginPolynomial({_named(m, names): c for m, c in bucket.items()}, d)
        for bucket, d in zip(nums, dens)
    ]


# -- signature-sequence coefficients -----------------------------------


@dataclass(frozen=True)
class SCoefficients:
    """Coefficients of p_m, p_m^2 and p_{2m} in the signature sequence."""

    s_m: Fraction
    s_mm: Fraction
    s_2m: Fraction


def _sequence_triple(
    series: CharacteristicSeries, m: int
) -> Tuple[Fraction, Fraction, Fraction]:
    """Coefficients of p_m, p_m^2 and p_{2m} in the multiplicative sequence.

    Only these three coefficients are read on an 8m-dimensional model, so
    the sequence is evaluated in the truncated algebra spanned by 1, p_m,
    p_m^2 and p_{2m}: every other p_i is set to zero and degrees above 8m
    are dropped.  There the only nonzero power sums are
    ps_m = (-1)^(m-1) m p_m and ps_2m = m p_m^2 - 2m p_{2m} (Newton's
    identities), so with l = log Q the total class is exp(g) = 1 + g + g^2/2
    for g = l_m ps_m + l_2m ps_2m (Hirzebruch, Topological Methods in
    Algebraic Geometry, section 1).  In d = zQ'/Q, d_k = k l_k, that is
    s_m = (-1)^(m-1) d_m, s_2m = -d_2m and s_mm = (d_2m + s_m^2)/2.
    """
    d = _log_derivative(series, 2 * m)
    s_m = (-1) ** (m - 1) * d[m]
    return s_m, (d[2 * m] + s_m * s_m) / 2, -d[2 * m]


@lru_cache(maxsize=None)
def l_coefficients(m: int) -> SCoefficients:
    if m < 1:
        raise ValueError("m must be >= 1")
    return SCoefficients(*_sequence_triple(signature_series(2 * m), m))


def l_signature(m: int, P2: int, Q: int) -> Fraction:
    """The signature s_mm * P2 + s_2m * Q that the L-genus gives an 8m-model."""
    coeffs = l_coefficients(m)
    return coeffs.s_mm * P2 + coeffs.s_2m * Q


def s2m_bernoulli(m: int) -> Fraction:
    """s_{2m} from the closed Bernoulli-number formula.

    s_{2m} = 2^{4m} (2^{4m-1} - 1) / (4m)! times the 2m-th Bernoulli
    number in the unsigned classical convention (B_1 = 1/6, ...).  Kept
    independent of the genus engine so the two can be checked against
    each other.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return Fraction(2 ** (4 * m) * (2 ** (4 * m - 1) - 1), factorial(4 * m)) * bernoulli(2 * m)


# -- twist class and rationally-highly-connected integrals --------------


def rhc_ahat_twist_coeffs(m: int) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """The pairs (a, b) with integral(e1^t * Ahat) = a*P2 + b*Q, for t = 0 and 2.

    On an 8m-dimensional rationally highly connected model only the
    monomials p_m^2 and p_{2m} survive rationally; everything else is
    torsion and integrates to zero.  The products are therefore taken in
    the truncated algebra of :func:`_sequence_triple`, where
    Ahat = 1 + a1 p_m + a11 p_m^2 + a2 p_2m.  By Newton's identities e1 is
    c1 p_m plus terms of degree 8m, with c1 = 2 (-1)^(m-1) m / (2m)!.
    e1 has no constant term, so e1^2 Ahat = c1^2 p_m^2 and the sign of c1
    drops out.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _, a11, a2 = _sequence_triple(ahat_series(2 * m), m)
    c1 = Fraction(2 * m, factorial(2 * m))
    return (a11, a2), (c1 * c1, Fraction(0))


def ahat_rhc_coeffs(m: int) -> Tuple[Fraction, Fraction]:
    """(a, b) with integral(Ahat) = a*P2 + b*Q on the 8m-dimensional model."""
    return rhc_ahat_twist_coeffs(m)[0]


def mayer_integrality_check(model, k: int) -> Certificate:
    """Integrality test excluding spin^k on a rationally highly connected model.

    For dimension 8m and k < 2m the normal-bundle factor is rationally
    trivial, so the only content is that 2^l * integral(Ahat) and
    2^l * integral(e1^2 * Ahat) are integers, with l = floor(k/2).
    Failure of either excludes a spin^k structure on any closed manifold
    realizing the model.  The model's sigma must be the signature the
    L-genus gives it; otherwise no closed manifold realizes the model and
    the check refuses it with a ValueError.
    """
    sigma = l_signature(model.m, model.P2, model.Q)
    if sigma.denominator != 1:
        raise ValueError(
            f"the L-evaluation gives the non-integer signature {sigma}; "
            "these (P2, Q) fit no closed manifold"
        )
    if sigma != model.sigma:
        raise ValueError(
            f"the L-evaluation gives the signature {sigma}, but the model "
            f"declares sigma = {model.sigma}"
        )
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= 2 * model.m:
        raise ValueError(
            f"k = {k} is not below 2m = {2 * model.m}: "
            "the normal-bundle factor need not be rationally trivial"
        )
    l = k // 2
    (a0, b0), (a2, b2) = rhc_ahat_twist_coeffs(model.m)
    ahat = a0 * model.P2 + b0 * model.Q
    twisted = a2 * model.P2 + b2 * model.Q
    checks = []
    for tag, value in (("ahat", ahat), ("e1^2*ahat", twisted)):
        scaled = 2**l * value
        checks.append(
            Check(
                name=f"2^{l} * integral({tag})",
                lhs=scaled,
                rhs="Z",
                relation="in" if scaled.denominator == 1 else "not in",
                passed=True,
            )
        )
    parameters = {
        "m": model.m,
        "k": k,
        "l": l,
        "dimension": 8 * model.m,
        "P2": model.P2,
        "Q": model.Q,
        "sigma": sigma,
        "integral(ahat)": ahat,
        "integral(e1^2*ahat)": twisted,
        "orientable": True,
    }
    claim, verdict = (
        ("mayer-integrality-consistent", ESTABLISHED)
        if all(check.lhs.denominator == 1 for check in checks)
        else (f"not-{spin_label(k)}", EXCLUDED)
    )
    return Certificate(claim=claim, parameters=parameters, checks=checks, verdict=verdict)


# -- dimension-8 twisted integrand and the 4-manifold indicator ----------


def _twisted_integrand_parts() -> Tuple[Fraction, ...]:
    # cosh(sqrt(X)/2) = 1 + m1 X + m2 X^2 + ...; Ahat = 1 + a1 p1 + a11 p1^2 + a2 p2 + ...
    _, m1, m2 = mayer_series(2).coefficients
    return (m1, m2, *_sequence_triple(ahat_series(2), 1))


@lru_cache(maxsize=None)
def spinh_integrand_coefficients() -> Tuple[Fraction, Fraction, Fraction]:
    """Coefficients of (p1^2, p2, gamma^2) in the degree-8 twisted integrand.

    The integrand is 2 * cosh(sqrt(X)/2) * Ahat with X = p1 + 2*gamma,
    gamma an independent weight-4 class.  Its degree-8 part is
    2 * (m2 X^2 + m1 a1 X p1 + a11 p1^2 + a2 p2), read off in closed form.
    The mixed gamma*p1 coefficient 8 m2 + 4 m1 a1 vanishes identically;
    this is asserted rather than assumed.
    """
    m1, m2, a1, a11, a2 = _twisted_integrand_parts()
    cross = 8 * m2 + 4 * m1 * a1
    if cross != 0:
        raise AssertionError(f"gamma*p1 coefficient expected to vanish, got {cross}")
    return 2 * (m2 + m1 * a1 + a11), 2 * a2, 8 * m2


def mayer_indicator_coefficients(sign: str) -> Tuple[Fraction, Fraction]:
    """(p1, e)-coefficients of 2 * cosh(sqrt(p1 +- 2e)/2) * Ahat in degree 4.

    The degree-4 part is 2 * (m1 (p1 +- 2e) + a1 p1), read off in closed form.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    m1, _, a1, _, _ = _twisted_integrand_parts()
    return 2 * (m1 + a1), (4 if sign == "+" else -4) * m1


def mayer_indicator_4d(p1: int, euler: int, sign: str) -> Fraction:
    """Degree-4 twisted integrand on a 4-manifold; equals (p1/3 +- e)/2."""
    cp, ce = mayer_indicator_coefficients(sign)
    return cp * p1 + ce * euler
