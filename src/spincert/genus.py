"""Multiplicative-sequence engine over formal Pontryagin classes.

A multiplicative sequence is determined by its characteristic power
series Q(z) = 1 + q1*z + q2*z^2 + ...; the polynomial K_j of the
sequence is the degree-4j part of the product of Q over formal roots,
rewritten in the elementary symmetric polynomials of those roots.  The
variable z always stands for the *square* of a formal Chern-style root,
so every series here has integral powers of z and no fractional powers
ever appear; z has weight 4 and p_i = e_i(z_1, z_2, ...) has weight 4i.

The engine reads every coefficient of K_j as a number.  Write Q formally
as prod_s (1 + b_s z); then the coefficient of p_lambda in K_|lambda| is
the monomial symmetric function m_lambda of the b_s (the dual Cauchy
identity).  The power sums of the b_s are (-1)^(k-1) d_k, where
d = zQ'/Q is the log-derivative of Q, the quotient of the series k q_k
by Q.  One scalar step per partition then gives each m_lambda from
partitions of lower weight and from partitions of the same weight with a
larger largest part.  Every series is built in integers, numerators
over one common denominator; ``Fraction`` is made only for
``CharacteristicSeries.coefficients``, ``SCoefficients`` and K_j.  The
naive many-root expansion is kept out of the library on purpose: it
serves as the independent test oracle.

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

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

from .certificates import Certificate, Check, ESTABLISHED, EXCLUDED, ReadOnly, spin_label
from .exact import bernoulli

Monomial = Tuple[Tuple[str, int], ...]


class PontryaginPolynomial(ReadOnly):
    """Polynomial in Pontryagin classes with exact rational coefficients.

    The read-only result type of the genus engine, held as the engine makes
    it: integer ``numerators`` by named monomial over one positive
    ``denominator``, in lowest terms.  Zero numerators are never stored and a
    common factor is divided out, so equal polynomials compare equal.  There
    is no arithmetic.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators: Mapping[Monomial, int], denominator: int = 1) -> None:
        if denominator < 1:
            raise ValueError(f"denominator must be >= 1, got {denominator!r}")
        g = gcd(denominator, *numerators.values())
        nums = {mono: c // g for mono, c in numerators.items() if c}
        object.__setattr__(self, "numerators", MappingProxyType(nums))
        object.__setattr__(self, "denominator", denominator // g)

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


class CharacteristicSeries(ReadOnly):
    """Formal power series 1 + q1*z + ... + q_max*z^max, coefficients exact.

    Coefficients may be given as ints or Fractions and are stored as
    Fractions: a Fraction is kept as given and an int converted; anything
    else (a float, a bool) is refused.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[Fraction | int]) -> None:
        for q in coefficients:
            if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
                raise ValueError(f"series coefficient {q!r} is not an int or a Fraction")
        coefficients = tuple(Fraction(q) if isinstance(q, int) else q for q in coefficients)
        if not coefficients or coefficients[0] != 1:
            raise ValueError("characteristic series must have constant term 1")
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def max_degree(self) -> int:
        return len(self.coefficients) - 1


def _series_quotient(num: List[int], den: List[int]) -> Tuple[List[int], int]:
    # q = num / den through the length of num, for integers with den_0 > 0,
    # returned as tops over one running denominator m: q_k = top_k / m.  With
    # q_0..q_(k-1) over m, q_k = (num_k m - sum_{0<i<=k} den_i top_(k-i)) / (den_0 m).
    # m grows, and the tops are rescaled, only when the reduced denominator of
    # q_k does not divide it, so m ends as the lcm of the q_k's denominators.
    tops: List[int] = []
    m = 1
    for k, num_k in enumerate(num):
        a = num_k * m - sum(map(mul, den[1 : k + 1], reversed(tops)))
        b = den[0] * m
        g = gcd(a, b)
        a, b = a // g, b // g
        if m % b:
            grow = b // gcd(m, b)
            tops = [top * grow for top in tops]
            m *= grow
        tops.append(a * (m // b))
    return tops, m


def _log_derivative(series: CharacteristicSeries, n: int) -> Tuple[List[int], int]:
    # d = zQ'/Q through z^n as tops over one denominator dd: d_k = k l_k with
    # l = log Q, and d_0 = 0.  The series k q_k over Q, both put over the lcm
    # of Q's denominators.
    q = series.coefficients[: n + 1]
    e = lcm(*(q_k.denominator for q_k in q))
    big = [q_k.numerator * (e // q_k.denominator) for q_k in q]
    return _series_quotient([k * b for k, b in enumerate(big)], big)


def _series(tops: List[int], m: int) -> CharacteristicSeries:
    return CharacteristicSeries(tuple(Fraction(top, m) for top in tops))


def signature_series(max_degree: int) -> CharacteristicSeries:
    """sqrt(z)/tanh(sqrt(z)) as a z-series: cosh-type over sinh-type factorials."""
    # 1/(2k)! over 1/(2k+1)!, both times (2n+1)!
    f = factorial(2 * max_degree + 1)
    num = [f // factorial(2 * k) for k in range(max_degree + 1)]
    den = [f // factorial(2 * k + 1) for k in range(max_degree + 1)]
    return _series(*_series_quotient(num, den))


def ahat_series(max_degree: int) -> CharacteristicSeries:
    """(sqrt(z)/2)/sinh(sqrt(z)/2) as a z-series: one over the sinh-type series at z/4."""
    # 1 over 1/(4^k (2k+1)!), both times 4^n (2n+1)!
    n = max_degree
    f = factorial(2 * n + 1)
    den = [4 ** (n - k) * (f // factorial(2 * k + 1)) for k in range(n + 1)]
    return _series(*_series_quotient([4**n * f] + [0] * n, den))


def mayer_series(max_degree: int) -> CharacteristicSeries:
    """cosh(sqrt(z)/2): z^k-coefficient 1/(4^k (2k)!)."""
    return CharacteristicSeries(
        tuple(Fraction(1, 4**k * factorial(2 * k)) for k in range(max_degree + 1))
    )


# -- genus polynomials -------------------------------------------------
# With Q(z) = prod_s (1 + b_s z) over formal roots b_s, the total class is
# prod_r Q(z_r) = sum_lambda m_lambda(b) p_lambda (the dual Cauchy identity;
# Macdonald, Symmetric Functions and Hall Polynomials, I.4): the coefficient
# of p_lambda = p_1^e_1 ... p_n^e_n in K_|lambda| is the monomial symmetric
# function m_lambda of the b_s.  A partition lambda is its multiplicity
# vector (e_1, ..., e_n), packed into one int key: field i - 1,
# n.bit_length() bits wide, holds e_i.  No multiplicity of a partition of at
# most n exceeds n, so adding a part, or moving one to another field, is
# one int addition with no carry.


def _genus_terms(
    series: CharacteristicSeries, n: int
) -> Tuple[List[Dict[Monomial, int]], List[int]]:
    # K_1..K_n, each as integer numerators by named monomial over one
    # denominator, zero-free but not in lowest terms: PontryaginPolynomial
    # reduces them
    if n < 1:
        raise ValueError("n must be >= 1")
    if series.max_degree < n:
        raise ValueError(
            f"series tracked through degree {series.max_degree}, need {n}"
        )
    # The power sums of the roots are P_k = (-1)^(k-1) d_k, d = zQ'/Q, and the
    # augmented monomials mt_lambda = (prod_i e_i!) m_lambda obey
    #   P_a mt_mu = mt_(mu + {a}) + sum_i e_i(mu) mt_(mu with one part i raised to i + a).
    # Read with a the largest part of lambda = mu + {a}, this gives mt_lambda
    # from mt_mu of lower weight and from raised partitions of the same weight,
    # whose largest part exceeds a.  So each weight walks its partitions by
    # decreasing largest part, every mt it reads already known.  With
    # below = lcm(dens[<j]), the mt of weight j are integers over dd below, and
    # one gcd per weight brings them to dens[j].
    tops, dd = _log_derivative(series, n)
    width = n.bit_length()
    field = (1 << width) - 1
    bit = [0] + [1 << (i - 1) * width for i in range(1, n + 1)]
    names = [""] + [f"p{i}" for i in range(1, n + 1)]
    ps = [-top if k % 2 == 0 else top for k, top in enumerate(tops)]
    # per weight, by decreasing largest part: the keys, largest parts,
    # prod e_i! and named monomials of its partitions, and their mt
    # numerators over dens[w]
    keys, bigs, facts, monos, vals = [[0]], [[0]], [[1]], [[()]], [[1]]
    dens, below = [1], 1
    nums: List[Dict[Monomial, int]] = []
    out_dens: List[int] = []
    for j in range(1, n + 1):
        below = lcm(below, dens[j - 1])
        kj: List[int] = []
        bj: List[int] = []
        fj: List[int] = []
        mj: List[Monomial] = []
        mt: Dict[int, int] = {}
        for a in range(j, 0, -1):
            w = ps[a] * (below // dens[j - a])
            shift, name = (a - 1) * width, names[a]
            for mu, big, fact, mono, v in zip(
                keys[j - a], bigs[j - a], facts[j - a], monos[j - a], vals[j - a]
            ):
                if big > a:
                    continue
                acc = w * v
                # the parts i of mu, read off its key field by field
                rest, i = mu, 1
                while rest:
                    e = rest & field
                    if e:
                        acc -= e * mt[mu - bit[i] + bit[i + a]]
                    rest >>= width
                    i += 1
                lam = mu + bit[a]
                mt[lam] = acc
                kj.append(lam)
                bj.append(a)
                # p_a is the last name of mu's monomial when mu has a part a
                e = mu >> shift & field
                fj.append(fact * (e + 1))
                mj.append((*mono[:-1], (name, e + 1)) if e else (*mono, (name, 1)))
        den = dd * below
        g = gcd(den, *mt.values())
        keys.append(kj)
        bigs.append(bj)
        facts.append(fj)
        monos.append(mj)
        vals.append([mt[lam] // g for lam in kj])
        dens.append(den // g)
        # the coefficient of p_lambda is mt_lambda / prod_i e_i!; names sort as
        # strings, and "p10" < "p2"
        f = lcm(*fj)
        terms = zip(mj, vals[j], fj)
        if n > 9:
            terms = ((tuple(sorted(mono)), v, fact) for mono, v, fact in terms)
        nums.append({mono: v * (f // fact) for mono, v, fact in terms if v})
        out_dens.append(dens[j] * f)
    return nums, out_dens


def genus_polynomials(
    series: CharacteristicSeries, n: int
) -> List[PontryaginPolynomial]:
    """The polynomials K_1..K_n of the multiplicative sequence of ``series``."""
    return [PontryaginPolynomial(*pair) for pair in zip(*_genus_terms(series, n))]


# -- signature-sequence coefficients -----------------------------------


class SCoefficients(ReadOnly):
    """Coefficients of p_m, p_m^2 and p_{2m} in the signature sequence."""

    __slots__ = ("s_m", "s_mm", "s_2m")

    def __init__(self, s_m: Fraction, s_mm: Fraction, s_2m: Fraction) -> None:
        object.__setattr__(self, "s_m", s_m)
        object.__setattr__(self, "s_mm", s_mm)
        object.__setattr__(self, "s_2m", s_2m)


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
    tops, dd = _log_derivative(series, 2 * m)
    s_m, d_2m = Fraction((-1) ** (m - 1) * tops[m], dd), Fraction(tops[2 * m], dd)
    return s_m, (d_2m + s_m * s_m) / 2, -d_2m


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
