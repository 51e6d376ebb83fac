import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spincert import certify, cli, genus
from spincert.exact import alpha, bernoulli, nu2
from spincert.genus import PontryaginPolynomial as PP

GOLDEN = Path(__file__).parent / "golden"


# -- independent oracle: naive expansion over formal roots -----------------
#
# Truncated polynomials in roots z_1..z_N are dicts {exponent tuple:
# Fraction}; the degree of z_i is 1 (one z-degree unit = real degree 4).
# The oracle multiplies out prod_i Q(z_i) and rewrites each homogeneous
# part in elementary symmetric polynomials by lexicographic descent,
# with no shared code with the engine's partition recurrence.


def _poly_mul(a, b, max_deg):
    out = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) > max_deg:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def _product_over_roots(coeffs, n_roots, max_deg):
    result = {(0,) * n_roots: Fraction(1)}
    for i in range(n_roots):
        factor = {}
        for k in range(min(len(coeffs) - 1, max_deg) + 1):
            if coeffs[k]:
                exps = [0] * n_roots
                exps[i] = k
                factor[tuple(exps)] = coeffs[k]
        result = _poly_mul(result, factor, max_deg)
    return result


def _elementary(n_roots, j):
    return {
        tuple(1 if i in chosen else 0 for i in range(n_roots)): Fraction(1)
        for chosen in combinations(range(n_roots), j)
    }


def _to_elementary(sym, n_roots, max_deg):
    """Partition dict {((i, mult), ...): coeff} for a symmetric polynomial."""
    out = {}
    for degree in range(max_deg + 1):
        component = {k: v for k, v in sym.items() if sum(k) == degree}
        while component:
            lead = max(component)
            coeff = component[lead]
            assert all(lead[i] >= lead[i + 1] for i in range(len(lead) - 1)), lead
            multiplicities = {}
            product = {(0,) * n_roots: Fraction(1)}
            for i in range(len(lead)):
                following = lead[i + 1] if i + 1 < len(lead) else 0
                mult = lead[i] - following
                if mult:
                    multiplicities[i + 1] = mult
                    for _ in range(mult):
                        product = _poly_mul(product, _elementary(n_roots, i + 1), degree)
            for key, value in product.items():
                component[key] = component.get(key, Fraction(0)) - coeff * value
            component = {k: v for k, v in component.items() if v}
            key = tuple(sorted(multiplicities.items()))
            out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}


def _engine_to_partitions(poly):
    out = {}
    for mono, coeff in poly.terms.items():
        key = tuple(sorted((int(name[1:]), exp) for name, exp in mono))
        out[key] = coeff
    return out


def _parse_printed(text):
    """The exact terms of a printed K_j such as "-1/45*p1^2 + 7/45*p2".

    Keys are partitions ((i, mult), ...) as in the oracle above.  Each
    coefficient must be printed in lowest terms, with no unit magnitude
    in front of a monomial and no monomial printed twice.
    """
    if text == "0":
        return {}
    tokens = text.split(" ")
    signs = [-1 if tokens[0].startswith("-") else 1]
    signs += [{"+": 1, "-": -1}[op] for op in tokens[1::2]]
    terms = {}
    for sign, body in zip(signs, [tokens[0].lstrip("-"), *tokens[2::2]]):
        coeff, mults = Fraction(sign), {}
        for factor in body.split("*"):
            if factor.startswith("p"):
                name, _, exp = factor.partition("^")
                assert int(name[1:]) not in mults, text
                mults[int(name[1:])] = int(exp or 1)
            else:
                assert str(Fraction(factor)) == factor and factor != "1", text
                coeff *= Fraction(factor)
        key = tuple(sorted(mults.items()))
        assert coeff and key not in terms, text
        terms[key] = coeff
    return terms


def _oracle_genus(series, n, n_roots):
    raw = _product_over_roots(list(series.coefficients), n_roots, n)
    reduced = _to_elementary(raw, n_roots, n)
    parts = [dict() for _ in range(n + 1)]
    for key, coeff in reduced.items():
        degree = sum(i * mult for i, mult in key)
        parts[degree][key] = coeff
    return parts


# -- slow oracle by the power-sum route -------------------------------------
#
# A different algorithm from the engine's: log Q summed over the roots is
# g = sum_k l_k ps_k, with the power sums ps_k written in the p_i by Newton's
# identities, and the total class exp(g) follows from the recurrence
# j K_j = sum_k k l_k ps_k K_(j-k), a product of whole polynomials per step.
# Each monomial p_1^e_1 ... p_n^e_n is keyed by its exponent tuple
# (e_1, ..., e_n) with rational coefficients, so a product of monomials adds
# tuples entry by entry; the engine packs the same vectors into ints.  The
# library reads d_k = k l_k from the quotient zQ'/Q; this takes l = log Q from
# its own logarithm recurrence.


def _series_log(a, n):
    # c = log a with a_0 = 1, via k*a_k = sum_{i<=k} i*c_i*a_{k-i}; a has n + 1 terms
    out = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        out[k] = (k * a[k] - sum(i * out[i] * a[k - i] for i in range(1, k))) / k
    return out


def _tuple_power_sums(n):
    # Newton: ps_k = sum_{i<k} (-1)^(i-1) p_i ps_(k-i) + (-1)^(k-1) k p_k
    sums = []
    for k in range(1, n + 1):
        acc = {tuple(int(i == k) for i in range(1, n + 1)): (-1) ** (k - 1) * k}
        for i in range(1, k):
            for mono, c in sums[k - i - 1].items():
                key = mono[: i - 1] + (mono[i - 1] + 1,) + mono[i:]
                acc[key] = acc.get(key, 0) + (-1) ** (i - 1) * c
        sums.append(acc)
    return sums


def _tuple_genus_terms(series, n):
    """The .terms of K_1..K_n, computed over exponent tuples."""
    logs = _series_log(series.coefficients, n)
    sums = _tuple_power_sums(n)
    parts = [{(0,) * n: Fraction(1)}]
    for j in range(1, n + 1):
        acc = {}
        for k in range(1, j + 1):
            weight = k * logs[k] / j
            for ma, ca in sums[k - 1].items():
                for mb, cb in parts[j - k].items():
                    key = tuple(x + y for x, y in zip(ma, mb))
                    acc[key] = acc.get(key, 0) + weight * ca * cb
        parts.append(acc)
    return [
        {
            tuple(sorted((f"p{i}", e) for i, e in enumerate(mono, 1) if e)): c
            for mono, c in part.items()
            if c
        }
        for part in parts[1:]
    ]


# -- slow oracle for the series: multiply and invert -----------------------
#
# The library builds each series in one quotient pass.  This oracle builds
# sqrt(z)/tanh(sqrt(z)) as the cosh-type series times the inverse of the
# sinh-type one, and the A-hat series as the inverse of the sinh-type series
# at z/4, in two separate O(n^2) passes.


def _series_mul(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_inverse(a, n):
    out = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        out[k] = -sum(a[i] * out[k - i] for i in range(1, k + 1))
    return out


def _signature_series_by_inversion(n):
    num = [Fraction(1, factorial(2 * k)) for k in range(n + 1)]
    den = [Fraction(1, factorial(2 * k + 1)) for k in range(n + 1)]
    return tuple(_series_mul(num, _series_inverse(den, n), n))


def _ahat_series_by_inversion(n):
    den = [Fraction(1, 4**k * factorial(2 * k + 1)) for k in range(n + 1)]
    return tuple(_series_inverse(den, n))


def _fraction_series_quotient(num, den):
    # the quotient recurrence in Fraction arithmetic, term by term:
    # q_k = num_k - sum_{0<i<=k} den_i q_(k-i)
    out = []
    for k, num_k in enumerate(num):
        out.append(num_k - sum(den[i] * out[k - i] for i in range(1, k + 1)))
    return tuple(out)


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


@st.composite
def _quotient_inputs(draw):
    # den_i over prime powers, so the running denominator of the quotient
    # takes a new prime factor at many steps
    size = draw(st.integers(1, 30))
    num = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))
    den = [Fraction(1)]
    for _ in range(size - 1):
        top = draw(st.integers(-9, 9))
        bottom = draw(st.sampled_from(_PRIMES)) ** draw(st.integers(0, 2))
        den.append(Fraction(top, bottom))
    return num, den


@st.composite
def _random_series(draw):
    # Fraction coefficients with mixed denominators, negatives and zeros
    n = draw(st.integers(1, 8))
    coefficient = st.one_of(
        st.just(0),
        st.integers(-5, 5),
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 40)),
    )
    rest = draw(st.lists(coefficient, min_size=n, max_size=n))
    return genus.CharacteristicSeries((1, *rest)), n


# -- the first K-theoretic twist class, expanded in p-classes ---------------


def twist_class_e1(max_degree):
    """First K-theoretic twist class, 2*sum_j (cosh y_j - 1), in p-classes.

    With z_j = y_j^2 this is 2 * sum_{r>=1} ps_r(z) / (2r)! where ps_r is
    the r-th power sum; the degree-4 part is p_1.  The slow oracle of
    genus.rhc_ahat_twist_coeffs, which writes its pairs down in closed form.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    n = max_degree // 4
    # every term over the common denominator (2n)!
    numerators = {}
    for r, ps in enumerate(_tuple_power_sums(n), 1):
        scale = 2 * (factorial(2 * n) // factorial(2 * r))
        numerators.update(
            (tuple(sorted((f"p{i}", e) for i, e in enumerate(mono, 1) if e)), scale * c)
            for mono, c in ps.items()
        )
    return PP(numerators, factorial(2 * n))


# -- slow oracles for the closed-form coefficients -------------------------
#
# The library reads the p_m, p_m^2 and p_{2m} coefficients from a closed
# form in a four-dimensional truncated algebra.  These oracles expand the
# whole degree-2m genus polynomials instead and read the same coefficients.


def _l_coefficients_by_expansion(m):
    polys = genus.genus_polynomials(genus.signature_series(2 * m), 2 * m)
    return genus.SCoefficients(
        s_m=polys[m - 1].terms.get(((f"p{m}", 1),), Fraction(0)),
        s_mm=polys[2 * m - 1].terms.get(((f"p{m}", 2),), Fraction(0)),
        s_2m=polys[2 * m - 1].terms.get(((f"p{2 * m}", 1),), Fraction(0)),
    )


# -- slow oracle for the twist pairs: products of 4-vectors -----------------
#
# genus.rhc_ahat_twist_coeffs writes its two pairs down in closed form.  This
# oracle multiplies the A-hat vector by the whole of e1 twice in the basis
# (1, p_m, p_m^2, p_2m), with the A-hat coefficients read from the logarithm
# above, and keeps the pairs of A-hat and e1^2 A-hat.


@lru_cache(maxsize=None)  # one logarithm serves every m up to 64
def _ahat_log():
    return _series_log(genus.ahat_series(128).coefficients, 128)


def _ahat_triple_by_log(m):
    logs = _ahat_log()
    c_m = (-1) ** (m - 1) * m * logs[m]
    return c_m, m * logs[2 * m] + c_m * c_m / 2, -2 * m * logs[2 * m]


def _four_vector_mul(a, b):
    # product in the basis (1, p_m, p_m^2, p_2m), dropping degrees above 8m
    return (
        a[0] * b[0],
        a[0] * b[1] + a[1] * b[0],
        a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
        a[0] * b[3] + a[3] * b[0],
    )


def _ahat_twists_by_products(m):
    integrand = (Fraction(1), *_ahat_triple_by_log(m))
    e1 = (
        Fraction(0),
        Fraction(2 * (-1) ** (m - 1) * m, factorial(2 * m)),
        Fraction(2 * m, factorial(4 * m)),
        Fraction(-4 * m, factorial(4 * m)),
    )
    twice = _four_vector_mul(_four_vector_mul(integrand, e1), e1)
    return (integrand[2], integrand[3]), (twice[2], twice[3])


def _truncated_mul(a, b, max_weight, weight=lambda g: g):
    """Product of dicts keyed by sorted (generator, multiplicity) tuples.

    Terms whose total weight exceeds max_weight are dropped; a partition
    key ((i, mult), ...) stands for prod p_i^mult, of weight sum i * mult.
    """
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            mults = dict(ka)
            for g, k in kb:
                mults[g] = mults.get(g, 0) + k
            if sum(weight(g) * k for g, k in mults.items()) <= max_weight:
                key = tuple(sorted(mults.items()))
                out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)  # the Hypothesis test below calls it per example
def _twist_coeffs_by_expansion(m, twist_power):
    integrand = {(): Fraction(1)}
    for poly in genus.genus_polynomials(genus.ahat_series(2 * m), 2 * m):
        integrand.update(_engine_to_partitions(poly))
    e1 = _engine_to_partitions(twist_class_e1(8 * m))
    for _ in range(twist_power):
        integrand = _truncated_mul(integrand, e1, 2 * m)
    return (
        integrand.get(((m, 2),), Fraction(0)),
        integrand.get(((2 * m, 1),), Fraction(0)),
    )


# -- slow oracle for the twisted integrands ---------------------------------
#
# 2 * cosh(sqrt(X)/2) * Ahat expanded term by term over named generators of
# weight 1 (degree 4) and p2 of weight 2, with Ahat from the root expansion
# above and cosh(sqrt(X)/2) = sum_k X^k / (4^k (2k)!).

_WEIGHT = {"p1": 1, "p2": 2, "gamma": 1, "e": 1}.__getitem__


def _twisted_integrand_top(arg, top):
    """Weight-`top` part of 2 * cosh(sqrt(arg)/2) * Ahat."""
    ahat = {(): Fraction(1)}
    for part in _oracle_genus(genus.ahat_series(top), top, n_roots=top)[1:]:
        ahat.update({tuple((f"p{i}", k) for i, k in key): c for key, c in part.items()})
    cosh, power = {(): Fraction(1)}, {(): Fraction(1)}
    for k in range(1, top + 1):
        power = _truncated_mul(power, arg, top, _WEIGHT)
        for key, c in power.items():
            cosh[key] = cosh.get(key, Fraction(0)) + c / (4**k * factorial(2 * k))
    total = _truncated_mul(cosh, ahat, top, _WEIGHT)
    return {
        key: 2 * c
        for key, c in total.items()
        if sum(_WEIGHT(g) * k for g, k in key) == top
    }


# -- frozen golden polynomials (confirmed by the oracle below) --------------

P1, P1_2, P2 = (("p1", 1),), (("p1", 2),), (("p2", 1),)
L1 = PP({P1: 1}, 3)
L2 = PP({P2: 7, P1_2: -1}, 45)
A1 = PP({P1: -1}, 24)
A2 = PP({P1_2: 7, P2: -4}, 5760)


class TestSeries:
    def test_signature_series_low_terms(self):
        coeffs = genus.signature_series(3).coefficients
        assert coeffs == (1, Fraction(1, 3), Fraction(-1, 45), Fraction(2, 945))

    def test_ahat_series_low_terms(self):
        coeffs = genus.ahat_series(2).coefficients
        assert coeffs == (1, Fraction(-1, 24), Fraction(7, 5760))

    @pytest.mark.parametrize(
        "maker, oracle",
        [
            (genus.signature_series, _signature_series_by_inversion),
            (genus.ahat_series, _ahat_series_by_inversion),
        ],
        ids=["signature", "ahat"],
    )
    def test_quotient_matches_multiply_and_invert(self, maker, oracle):
        for n in range(65):
            assert maker(n).coefficients == oracle(n), n

    @pytest.mark.parametrize(
        "maker", [genus.signature_series, genus.ahat_series, genus.mayer_series]
    )
    def test_log_derivative_matches_the_logarithm(self, maker):
        # d = zQ'/Q has d_k = k l_k, with l = log Q from the oracle's recurrence
        for n in range(65):
            series = maker(n)
            logs = _series_log(series.coefficients, n)
            tops, dd = genus._log_derivative(series, n)
            assert [Fraction(top, dd) for top in tops] == [k * l for k, l in enumerate(logs)], n

    @settings(max_examples=200, deadline=None)
    @given(_quotient_inputs())
    def test_integer_quotient_matches_the_fraction_recurrence(self, inputs):
        # the library takes both series over one common denominator e, which
        # leaves the quotient alone and makes den_0 = e; its running
        # denominator must end as the least one
        num, den = inputs
        e = lcm(*(d.denominator for d in den))
        tops, m = genus._series_quotient(
            [x * e for x in num], [d.numerator * (e // d.denominator) for d in den]
        )
        oracle = _fraction_series_quotient(num, den)
        assert tuple(Fraction(top, m) for top in tops) == oracle
        assert m == lcm(*(q.denominator for q in oracle))

    def test_mayer_series(self):
        coeffs = genus.mayer_series(3).coefficients
        assert coeffs[0] == 1
        assert coeffs[1] == Fraction(1, 8)
        assert coeffs[2] == Fraction(1, 384)
        assert coeffs[3] == Fraction(1, 46080)
        for k, q in enumerate(coeffs):
            assert q == Fraction(1, 4**k * factorial(2 * k))

    def test_constant_term_enforced(self):
        with pytest.raises(ValueError):
            genus.CharacteristicSeries((Fraction(2), Fraction(1)))

    def test_integer_coefficients_are_stored_exactly(self):
        ints = genus.CharacteristicSeries((1, 0, 2, -3))
        assert all(type(q) is Fraction for q in ints.coefficients)
        fractions = genus.CharacteristicSeries(tuple(map(Fraction, (1, 0, 2, -3))))
        assert genus.genus_polynomials(ints, 3) == genus.genus_polynomials(fractions, 3)
        mixed = genus.CharacteristicSeries((Fraction(1), 2))
        assert genus.genus_polynomials(mixed, 1) == [PP({P1: 2})]

    @pytest.mark.parametrize(
        "coefficients",
        [(1, 0.5), (True, 1), (1, False), (Fraction(1), 2.0), (1, "1")],
        ids=["float", "bool-constant", "bool", "float-integral", "str"],
    )
    def test_inexact_coefficients_refused(self, coefficients):
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            genus.CharacteristicSeries(coefficients)


class TestGenusPolynomials:
    def test_signature_sequence_goldens(self):
        polys = genus.genus_polynomials(genus.signature_series(2), 2)
        assert polys[0] == L1
        assert polys[1] == L2

    def test_ahat_goldens(self):
        polys = genus.genus_polynomials(genus.ahat_series(2), 2)
        assert polys[0] == A1
        assert polys[1] == A2

    def test_trivial_series(self):
        series = genus.CharacteristicSeries((Fraction(1),) + (Fraction(0),) * 3)
        polys = genus.genus_polynomials(series, 3)
        assert all(not p.numerators for p in polys)
        assert [str(p) for p in polys] == ["0"] * 3

    def test_results_are_not_shared(self):
        series = genus.signature_series(2)
        with pytest.raises(TypeError):
            genus.genus_polynomials(series, 2)[0].terms[P1] = Fraction(0)
        with pytest.raises(TypeError):
            genus.genus_polynomials(series, 2)[0].numerators[P1] = 0
        assert genus.genus_polynomials(series, 2) == [L1, L2]

    def test_insufficient_degree(self):
        with pytest.raises(ValueError, match="need 3"):
            genus.genus_polynomials(genus.signature_series(2), 3)

    @pytest.mark.parametrize("maker", [genus.signature_series, genus.ahat_series, genus.mayer_series])
    def test_against_root_expansion_oracle(self, maker):
        n = 6
        series = maker(n)
        engine = genus.genus_polynomials(series, n)
        oracle = _oracle_genus(series, n, n_roots=n)
        for j in range(1, n + 1):
            assert _engine_to_partitions(engine[j - 1]) == oracle[j]

    @pytest.mark.parametrize("maker", [genus.signature_series, genus.ahat_series, genus.mayer_series])
    def test_packed_keys_match_the_tuple_oracle(self, maker):
        # the field width n.bit_length() grows at n = 2, 4, 8 and 16
        oracle = _tuple_genus_terms(maker(16), 16)
        for n in range(1, 17):
            engine = genus.genus_polynomials(maker(n), n)
            assert [poly.terms for poly in engine] == oracle[:n], n

    @pytest.mark.parametrize("k", range(1, 17))
    def test_signature_of_complex_projective_space(self, k):
        # p(CP^{2k}) = (1 + x^2)^(2k+1) and x^{2k}[CP^{2k}] = 1, signature 1
        poly = genus.genus_polynomials(genus.signature_series(16), 16)[k - 1]
        assert poly.evaluate({f"p{i}": comb(2 * k + 1, i) for i in range(1, k + 1)}) == 1

    @pytest.mark.parametrize("k", range(1, 17))
    def test_ahat_of_quaternionic_projective_space(self, k):
        # p(HP^k) = (1 + u)^(2k+2) / (1 + 4u) and u^k[HP^k] = 1; Ahat vanishes
        poly = genus.genus_polynomials(genus.ahat_series(16), 16)[k - 1]
        p = {
            f"p{i}": sum(comb(2 * k + 2, r) * (-4) ** (i - r) for r in range(i + 1))
            for i in range(1, k + 1)
        }
        assert poly.evaluate(p) == 0

    def test_oracle_stable_in_root_count(self):
        n = 4
        series = genus.signature_series(n)
        assert _oracle_genus(series, n, n_roots=n) == _oracle_genus(
            series, n, n_roots=n + 2
        )

    def test_multiplicativity_on_random_bundles(self):
        # K(total)(a * b) = K(total)(a) * K(total)(b) as graded scalars
        n = 4
        polys = genus.genus_polynomials(genus.signature_series(n), n)

        def graded_values(total):
            values = {f"p{i}": total[i] for i in range(1, n + 1)}
            out = [Fraction(1)]
            out.extend(p.evaluate(values) for p in polys)
            return out

        rng = random.Random(777)
        for _ in range(100):
            a = [Fraction(1)] + [
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)
            ]
            b = [Fraction(1)] + [
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)
            ]
            c = [
                sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(n + 1)
            ]
            ka, kb, kc = graded_values(a), graded_values(b), graded_values(c)
            for j in range(n + 1):
                assert kc[j] == sum(ka[i] * kb[j - i] for i in range(j + 1))


# SHA-256 of the printed `spincert genus --series S --degree 24`, which holds
# every K_j up to the degree cap; taken from the power-sum engine that the
# partition recurrence replaced
DEGREE_CAP_DIGESTS = {
    "L": "29a321ba3663426d397aa99410fb33c060331580e317117f7cc15fd38a684bfc",
    "ahat": "3de8a3376241ffc88f8d02a01821bd38abe3c6c823077bcdfde50d1120b423ec",
    "mayer": "975cb748e189b541d9f619a3473d4d75c4afa3754058f252deb22d7589400339",
}


class TestGenusTexts:
    # the printed K_j, read back by _parse_printed, against oracles that
    # share no code with the printer

    @pytest.mark.parametrize("series", sorted(DEGREE_CAP_DIGESTS))
    def test_degree_cap_texts_are_pinned(self, series):
        code, document = cli.run(["genus", "--series", series, "--degree", "24"])
        assert code == 0
        digest = hashlib.sha256((document + "\n").encode()).hexdigest()
        assert digest == DEGREE_CAP_DIGESTS[series]

    @pytest.mark.parametrize("maker", [genus.signature_series, genus.ahat_series, genus.mayer_series])
    def test_texts_are_the_printed_polynomials(self, maker):
        n = 6
        name = {make: key for key, make in cli._SERIES.items()}[maker]
        code, document = cli.run(["genus", "--series", name, "--degree", str(n), "--json"])
        assert code == 0
        printed = json.loads(document)["polynomials"]
        oracle = _oracle_genus(maker(n), n, n_roots=n)
        assert [_parse_printed(printed[f"K{j}"]) for j in range(1, n + 1)] == oracle[1:]

    @settings(max_examples=100, deadline=None)
    @given(_random_series())
    def test_texts_of_random_series(self, drawn):
        # the root expansion takes seconds at n = 8, so the tuple oracle reads
        # every draw and the root expansion the draws with n <= 5
        series, n = drawn
        printed = [_parse_printed(str(p)) for p in genus.genus_polynomials(series, n)]
        tuples = [
            {tuple(sorted((int(g[1:]), e) for g, e in mono)): c for mono, c in terms.items()}
            for terms in _tuple_genus_terms(series, n)
        ]
        assert printed == tuples
        if n <= 5:
            assert printed == _oracle_genus(series, n, n_roots=n)[1:]

    def test_one_plus_z_gives_the_pontryagin_classes(self):
        # Q = 1 + z multiplies out to the total class 1 + p1 + p2 + ...; the
        # recurrence reaches each K_j = p_j through terms that cancel to zero
        series = genus.CharacteristicSeries((1, 1) + (0,) * 11)
        polys = genus.genus_polynomials(series, 12)
        assert [str(p) for p in polys] == [f"p{j}" for j in range(1, 13)]
        assert [_parse_printed(str(p)) for p in polys] == [{((j, 1),): 1} for j in range(1, 13)]


class TestSCoefficients:
    def test_m1_triple(self):
        coeffs = genus.l_coefficients(1)
        assert (coeffs.s_m, coeffs.s_mm, coeffs.s_2m) == (
            Fraction(1, 3),
            Fraction(-1, 45),
            Fraction(7, 45),
        )

    def test_m1_condition_identity(self):
        # s_mm*P2 + s_2m*Q = sigma collapses to 7Q - P2 = 45 at sigma = 1
        coeffs = genus.l_coefficients(1)
        rng = random.Random(11)
        for _ in range(50):
            P2, Q = rng.randint(-999, 999), rng.randint(-999, 999)
            assert (coeffs.s_mm * P2 + coeffs.s_2m * Q == 1) == (7 * Q - P2 == 45)

    @pytest.mark.parametrize("m", range(1, 33))
    def test_engine_matches_bernoulli_formula(self, m):
        coeffs = genus.l_coefficients(m)
        assert coeffs.s_2m == genus.s2m_bernoulli(m)
        assert coeffs.s_m == Fraction(
            4**m * (2 ** (2 * m - 1) - 1), factorial(2 * m)
        ) * bernoulli(m)
        # odd exactly when m is a power of two
        assert nu2(coeffs.s_2m) == alpha(m) - 1

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_closed_form_matches_expansion(self, m):
        assert genus.l_coefficients(m) == _l_coefficients_by_expansion(m)

    def test_s2m_values(self):
        assert genus.s2m_bernoulli(1) == Fraction(7, 45)
        assert genus.s2m_bernoulli(2) == Fraction(127, 4725)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_s2m_odd_valuation(self, m):
        from spincert.exact import nu2

        assert nu2(genus.s2m_bernoulli(m)) == 0


class TestRHCIntegrals:
    def test_dim8_coefficients(self):
        assert genus.ahat_rhc_coeffs(1) == (Fraction(7, 5760), Fraction(-1, 1440))

    def test_dim16_coefficients_against_oracle(self):
        series = genus.ahat_series(4)
        oracle = _oracle_genus(series, 4, n_roots=4)
        a = oracle[4].get(((2, 2),), Fraction(0))
        b = oracle[4].get(((4, 1),), Fraction(0))
        assert (a, b) == (Fraction(13, 29030400), Fraction(-1, 2419200))
        assert genus.ahat_rhc_coeffs(2) == (a, b)

    def test_quaternionic_plane_vanishing(self):
        a, b = genus.ahat_rhc_coeffs(1)
        assert a * 4 + b * 7 == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("power", [0, 2])
    def test_closed_form_matches_expansion(self, m, power):
        pairs = dict(zip((0, 2), genus.rhc_ahat_twist_coeffs(m)))
        assert pairs[power] == _twist_coeffs_by_expansion(m, power)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 4),
        data=st.data(),
        x=st.integers(-(10**40), 10**40),
        y=st.integers(-(10**40), 10**40),
    )
    def test_mayer_values_match_expansion(self, m, data, x, y):
        # lattice multiples, so the L-evaluation gives an integral signature
        k = data.draw(st.integers(1, 2 * m - 1), label="k")
        coeffs = genus.l_coefficients(m)
        P2, Q = x * coeffs.s_mm.denominator, y * coeffs.s_2m.denominator
        sigma = int(coeffs.s_mm * P2 + coeffs.s_2m * Q)
        model = certify.RHCModel(m=m, middle_betti=abs(sigma), sigma=sigma, P2=P2, Q=Q)
        values = genus.mayer_integrality_check(model, k).parameters
        for tag, power in (("ahat", 0), ("e1^2*ahat", 2)):
            a, b = _twist_coeffs_by_expansion(m, power)
            assert values[f"integral({tag})"] == a * P2 + b * Q

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("power", [0, 2])
    def test_twisted_coefficients_against_oracle(self, m, power):
        deg = 2 * m
        n_roots = deg + 1
        series = genus.ahat_series(deg)
        ahat = _product_over_roots(list(series.coefficients), n_roots, deg)
        e1 = {}
        for i in range(n_roots):
            for r in range(1, deg + 1):
                exps = [0] * n_roots
                exps[i] = r
                e1[tuple(exps)] = Fraction(2, factorial(2 * r))
        product = ahat
        for _ in range(power):
            product = _poly_mul(product, e1, deg)
        reduced = _to_elementary(product, n_roots, deg)
        expected = (
            reduced.get(((m, 2),), Fraction(0)),
            reduced.get(((2 * m, 1),), Fraction(0)),
        )
        assert dict(zip((0, 2), genus.rhc_ahat_twist_coeffs(m)))[power] == expected

    @pytest.mark.parametrize("m", range(1, 65))
    def test_closed_form_matches_four_vector_products(self, m):
        assert genus.rhc_ahat_twist_coeffs(m) == _ahat_twists_by_products(m)

    def test_twisted_coefficients_dim8_goldens(self):
        assert genus.rhc_ahat_twist_coeffs(1)[1] == (Fraction(1), Fraction(0))

    def test_mayer_check_reads_the_pairs_once(self, monkeypatch):
        calls = []
        reader = genus.rhc_ahat_twist_coeffs

        def counting(m):
            calls.append(m)
            return reader(m)

        monkeypatch.setattr(genus, "rhc_ahat_twist_coeffs", counting)
        argv = ["mayer-check", "--m", "2", "--k", "3", "--p2", "45", "--q", "1230"]
        code, document = cli.run(argv)
        assert code == 1
        assert (document + "\n").encode() == (GOLDEN / "mayer-check-m2-k3.txt").read_bytes()
        assert calls == [2]


class TestTwistClass:
    def test_degree_parts(self):
        # no constant term, p1 in degree 4, p1^2/12 - p2/6 in degree 8
        assert twist_class_e1(8) == PP({P1: 12, P1_2: 1, P2: -2}, 12)

    def test_results_are_not_shared(self):
        with pytest.raises(TypeError):
            twist_class_e1(8).terms[P1] = Fraction(0)
        assert twist_class_e1(8) == PP({P1: 12, P1_2: 1, P2: -2}, 12)

    def test_against_cosh_root_expansion(self):
        # sum_j (e^{y_j} + e^{-y_j} - 2) = 2 sum_{r>=1} z_j^r/(2r)! with z = y^2
        n, n_roots = 2, 4
        raw = {}
        for i in range(n_roots):
            for r in range(1, n + 1):
                exps = [0] * n_roots
                exps[i] = r
                raw[tuple(exps)] = Fraction(2, factorial(2 * r))
        reduced = _to_elementary(raw, n_roots, n)
        assert reduced == _engine_to_partitions(twist_class_e1(8))


class TestMayerIntegrality:
    def test_quaternionic_plane_passes(self):
        model = certify.RHCModel(m=1, middle_betti=1, sigma=1, P2=4, Q=7)
        cert = genus.mayer_integrality_check(model, 1)
        assert cert.verdict == "established"
        assert cert.parameters["integral(ahat)"] == 0
        assert cert.parameters["integral(e1^2*ahat)"] == 4

    def test_family_member_fails(self):
        model = certify.RHCModel(m=1, middle_betti=1, sigma=1, P2=57600, Q=8235)
        cert = genus.mayer_integrality_check(model, 1)
        assert cert.verdict == "excluded"
        assert cert.claim == "not-spin"
        assert cert.parameters["integral(ahat)"] == Fraction(2057, 32)

    def test_precondition(self):
        model = certify.RHCModel(m=1, middle_betti=1, sigma=1, P2=4, Q=7)
        with pytest.raises(ValueError):
            genus.mayer_integrality_check(model, 3)
        with pytest.raises(ValueError):
            genus.mayer_integrality_check(model, 2)

    def test_signature_is_a_parameter_not_a_check(self):
        cert = genus.mayer_integrality_check(certify.RHCModel(2, 1, 1, 36, 39), 1)
        assert cert.parameters["sigma"] == 1
        assert [c.name for c in cert.checks] == ["2^0 * integral(ahat)", "2^0 * integral(e1^2*ahat)"]

    def test_declared_signature_must_match(self):
        # the L-evaluation gives 1 on (57600, 8235), so sigma = 5 fits no manifold
        with pytest.raises(ValueError, match="gives the signature 1, .* sigma = 5"):
            genus.mayer_integrality_check(certify.RHCModel(1, 5, 5, 57600, 8235), 1)

    def test_non_integer_signature_refused(self):
        with pytest.raises(ValueError, match="non-integer signature 2/15"):
            genus.mayer_integrality_check(certify.RHCModel(1, 0, 0, 1, 1), 1)


class TestLSignature:
    def test_projective_planes(self):
        # HP^2 and OP^2 have signature 1; (1, 1) fits no closed 8-manifold
        assert genus.l_signature(1, 4, 7) == 1
        assert genus.l_signature(2, 36, 39) == 1
        assert genus.l_signature(1, 1, 1) == Fraction(2, 15)


class TestDim8Integrand:
    def test_symbolic_coefficients(self):
        assert genus.spinh_integrand_coefficients() == (
            Fraction(-1, 360),
            Fraction(-1, 720),
            Fraction(1, 48),
        )

    def test_closed_form_matches_slow_oracle(self):
        # every degree-8 coefficient, so the gamma*p1 term is checked to vanish
        top = _twisted_integrand_top({P1: Fraction(1), (("gamma", 1),): Fraction(2)}, 2)
        cxx, cy, cgg = genus.spinh_integrand_coefficients()
        assert top == {P1_2: cxx, P2: cy, (("gamma", 2),): cgg}

    @staticmethod
    def _value(x, y, c):
        # the integrand at integral(p1^2) = x^2, integral(p2) = y, integral(gamma^2) = c^2
        cxx, cy, cgg = genus.spinh_integrand_coefficients()
        return cxx * x**2 + cy * y + cgg * c**2

    def test_values(self):
        assert self._value(0, 0, 0) == 0
        assert self._value(240, 8235, 0) == Fraction(-8229, 48)

    def test_congruence_reduction_on_family(self):
        # whenever 7y - x^2 = 45, 48 * integrand equals c^2 - y + 6 exactly
        for a in range(-10, 11):
            x = -168 * a + 240
            y = 4032 * a * a - 11520 * a + 8235
            assert 7 * y - x * x == 45
            for c in range(4):
                value = 48 * self._value(x, y, c)
                assert value == c * c - y + 6


class TestMayerIndicator:
    def test_values(self):
        assert genus.mayer_indicator_4d(3, 3, "+") == 2
        assert genus.mayer_indicator_4d(3, 3, "-") == -1
        assert genus.mayer_indicator_4d(0, 0, "+") == 0
        assert genus.mayer_indicator_4d(0, 0, "-") == 0

    def test_coefficient_identity(self):
        # the expansion is (p1/3 +- e)/2, coefficientwise
        assert genus.mayer_indicator_coefficients("+") == (Fraction(1, 6), Fraction(1, 2))
        assert genus.mayer_indicator_coefficients("-") == (Fraction(1, 6), Fraction(-1, 2))

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_closed_form_matches_slow_oracle(self, sign):
        e = Fraction(2 if sign == "+" else -2)
        top = _twisted_integrand_top({P1: Fraction(1), (("e", 1),): e}, 1)
        cp, ce = genus.mayer_indicator_coefficients(sign)
        assert top == {P1: cp, (("e", 1),): ce}

    def test_signs_sum_to_signature(self):
        rng = random.Random(23)
        for _ in range(50):
            p1, e = rng.randint(-99, 99), rng.randint(-99, 99)
            total = genus.mayer_indicator_4d(p1, e, "+") + genus.mayer_indicator_4d(
                p1, e, "-"
            )
            assert total == Fraction(p1, 3)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            genus.mayer_indicator_4d(0, 0, "x")


class TestPontryaginPolynomial:
    def test_no_zero_terms_stored(self):
        poly = PP({P1: 0, P2: 0}, 7)
        assert poly.numerators == {} and poly.terms == {}
        assert poly == PP({})

    def test_lowest_terms_compare_equal(self):
        poly = PP({P2: 14, P1_2: -2, P1: 0}, 90)
        assert (dict(poly.numerators), poly.denominator) == ({P2: 7, P1_2: -1}, 45)
        assert poly == L2
        assert poly.terms == {P2: Fraction(7, 45), P1_2: Fraction(-1, 45)}
        assert poly != PP({P2: 7, P1_2: -1}, 15)

    @pytest.mark.parametrize("denominator", [0, -45])
    def test_non_positive_denominator_refused(self, denominator):
        with pytest.raises(ValueError, match="denominator must be >= 1"):
            PP({P2: 7}, denominator)

    def test_evaluate_requires_all_generators(self):
        poly = PP({(("p1", 1), ("p2", 1)): 1})
        with pytest.raises(ValueError):
            poly.evaluate({"p1": 1})

    @pytest.mark.parametrize(
        "values",
        [{"p1": 0.1, "p2": 1}, {"p1": 1, "p2": True}, {"p1": 1, "p2": 2.0}, {"p1": 1, "p2": "1"}],
        ids=["float", "bool", "float-integral", "str"],
    )
    def test_evaluate_refuses_inexact_values(self, values):
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            L2.evaluate(values)

    def test_str_deterministic(self):
        poly = PP({P2: 7, P1_2: -1}, 45)
        assert str(poly) == "-1/45*p1^2 + 7/45*p2"

    @pytest.mark.parametrize(
        "numerators, denominator, text",
        [
            ({(): 3}, 2, "3/2"),
            ({(): -2}, 1, "-2"),
            ({P1_2: -1}, 1, "-p1^2"),
            ({(): 1, P1: -1, P2: 1}, 1, "1 - p1 + p2"),
        ],
        ids=["constant", "negative-constant", "minus-one", "unit-coefficients"],
    )
    def test_str_of_constants_and_unit_coefficients(self, numerators, denominator, text):
        assert str(PP(numerators, denominator)) == text


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: genus.genus_polynomials(genus.signature_series(2), 0), "n must be >= 1"),
        (lambda: twist_class_e1(-1), "max_degree must be >= 0"),
        (lambda: genus.rhc_ahat_twist_coeffs(0), "m must be >= 1"),
        (lambda: genus.s2m_bernoulli(0), "m must be >= 1"),
    ],
    ids=["genus-polynomials", "twist-class", "rhc-twist-coeffs", "s2m-bernoulli"],
)
def test_out_of_range_arguments_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
