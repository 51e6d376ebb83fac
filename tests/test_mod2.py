import json
import operator
import os
import random
import re
import subprocess
import sys
from importlib import resources
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import space_model_to_json
from spincert import certify, mod2
from spincert.certificates import CertificateError
from spincert.mod2 import (
    AlgebraError,
    IntProfile,
    ModelError,
    build_algebra,
    kunneth,
    point_model,
    sphere_model,
    sum_with_det,
    sw_ring,
    tensor_with_det,
    twist_then_sum,
    w5_verdict,
    wu_manifold,
)


def _names(algebra, mask):
    """The basis names of the bits set in ``mask``."""
    return {name for i, name in enumerate(algebra.names) if mask >> i & 1}


def projective_space(n, gen_degree):
    """RP^n (gen_degree 1) or CP^n (gen_degree 2): F2[x]/(x^(n+1)), w = (1+x)^(n+1)."""
    names = ["1"] + [f"x{gen_degree * i}" for i in range(1, n + 1)]
    algebra = build_algebra(
        [(name, gen_degree * i) for i, name in enumerate(names)],
        {
            (names[i], names[j]): [names[i + j]] if i + j <= n else []
            for i in range(1, n + 1)
            for j in range(i, n + 1)
        },
    )
    sw = algebra.mask([names[i] for i in range(n + 1) if comb(n + 1, i) % 2])
    if gen_degree == 2:
        profile = {2 * i: (1, ()) for i in range(n + 1)}
    else:
        profile = {0: (1, ()), **{i: (0, (2,)) for i in range(2, n + 1, 2)}}
        if n % 2:
            profile[n] = (1, ())
    return mod2.SpaceModel(
        f"{'RP' if gen_degree == 1 else 'CP'}{n}",
        algebra,
        sw,
        IntProfile.from_mapping(profile),
        gen_degree * n,
    )


def random_model(rng, name):
    """A model with a random integral profile and a ring of matching mod-2 size.

    Every product of two non-unit elements is zero, and the SW class is a random
    choice in each degree.  Torsion orders are even or odd, and degree 0 only
    gets odd torsion: even torsion there has a mod-2 trace in degree -1, which
    no ring holds, so its products would fail the universal-coefficient check.
    """
    while True:
        dimension = rng.randint(0, 6)
        data = {}
        for degree in range(dimension + 1):
            orders = (3, 9, 15) if degree == 0 else (2, 3, 4, 6, 9)
            torsion = [rng.choice(orders) for _ in range(rng.choice((0, 0, 1, 2)))]
            free = rng.choice((0, 0, 1, 2))
            if degree in (0, dimension):
                free = max(free, 1)  # the unit and a top class
            data[degree] = (free, torsion if degree < dimension else [])
        profile = IntProfile.from_mapping(data)
        sizes = [profile.mod2_dim(degree) for degree in range(dimension + 1)]
        if sum(sizes) <= 6:
            break
    basis = [("1", 0)] + [
        (f"e{degree}.{k}", degree)
        for degree, size in enumerate(sizes)
        for k in range(size - (degree == 0))
    ]
    algebra = build_algebra(basis, {})
    sw = algebra.mask(["1"])
    for degree in range(1, dimension + 1):
        names = [n for n, d in basis if d == degree and rng.random() < 0.5]
        sw |= algebra.mask(names)
    return mod2.SpaceModel(name, algebra, sw, profile, dimension)


def dense_kunneth_sw_and_profile(a, b):
    """Slow oracle: the product SW class and profile summed over every degree pair.

    The class is summed degree by degree, w_d = sum over i of w_i ⊗ w_(d - i),
    one basis pair (p, q) at a time at bit p * width + q, and returned as the
    total over d = 0..dimension.
    """
    width = len(b.algebra.names)
    dimension = a.dimension + b.dimension
    sw = 0
    for degree in range(dimension + 1):
        for i in range(degree + 1):
            left, right = a.w(i), b.w(degree - i)
            for p in range(left.bit_length()):
                for q in range(right.bit_length()):
                    if left >> p & 1 and right >> q & 1:
                        sw ^= 1 << (p * width + q)

    profile = {}
    for degree in range(dimension + 1):
        free = 0
        torsion = []
        for i in range(degree + 1):
            j = degree - i
            fa, fb = a.int_profile.free(i), b.int_profile.free(j)
            ta, tb = a.int_profile.torsion(i), b.int_profile.torsion(j)
            free += fa * fb
            torsion.extend(list(tb) * fa)
            torsion.extend(list(ta) * fb)
            torsion.extend(gcd(s, t) for s in ta for t in tb if gcd(s, t) > 1)
        for i in range(degree + 2):
            j = degree + 1 - i
            torsion.extend(
                gcd(s, t)
                for s in a.int_profile.torsion(i)
                for t in b.int_profile.torsion(j)
                if gcd(s, t) > 1
            )
        if free or torsion:
            profile[degree] = (free, torsion)
    return sw, IntProfile.from_mapping(profile)


def binom_mod2(n, k):
    """Binomial coefficient mod 2 via Lucas: odd iff k's bits sit inside n's."""
    if k < 0 or k > n:
        return 0
    return 1 if (n & k) == k else 0


def generic_components(ring, k):
    """[1, w1, ..., wk] straight from the ring's generators."""
    return [ring.one()] + [ring.gen(f"w{i}") for i in range(1, k + 1)]


def oracle_line_twist(comps, t):
    """Slow oracle, degree by degree: w_j(E ox L) = sum_i binom(k - i, j - i) w_i t^(j - i)."""
    ring, k = t.ring, len(comps) - 1
    tpowers = [ring.one()]
    for _ in range(k):
        tpowers.append(tpowers[-1] * t)
    out = []
    for j in range(k + 1):
        acc = ring.zero()
        for i in range(j + 1):
            if binom_mod2(k - i, j - i):
                acc = acc + comps[i] * tpowers[j - i]
        out.append(acc)
    return out


def oracle_whitney_sum(a, b):
    """Slow oracle: the Whitney convolution w_j(A + B) = sum_i w_i(A) w_(j-i)(B)."""
    ring = a[0].ring
    out = []
    for j in range(len(a) + len(b) - 1):
        acc = ring.zero()
        for i in range(j + 1):
            if i < len(a) and j - i < len(b):
                acc = acc + a[i] * b[j - i]
        out.append(acc)
    return out


def product_verdicts(a, b):
    """The W5 document of a x b from the factors and from kunneth's product, or each refusal."""
    out = []
    for read in (mod2.product_w5_verdict, lambda x, y: w5_verdict(kunneth(x, y))):
        try:
            out.append(json.dumps(read(a, b).to_dict()))
        except AlgebraError as err:
            out.append(f"refused: {err}")
    return out


def dense_w5(a, b):
    """Slow oracle: claim, verdict and parameters of the W5 certificate of a x b.

    w4, w1 and H^4(Z) come from dense_kunneth_sw_and_profile, with the product
    basis written out by name.  The lift rule: a zero w4 lifts, a non-zero w4
    does not lift through a zero H^4(Z), and anything else is undetermined.
    """
    width = len(b.algebra.names)
    sw, profile = dense_kunneth_sw_and_profile(a, b)
    w1, w4 = [], []
    for k in range(sw.bit_length()):
        if sw >> k & 1:
            p, q = divmod(k, width)
            degree = a.algebra.degrees[p] + b.algebra.degrees[q]
            name = f"{a.algebra.names[p]}⊗{b.algebra.names[q]}"
            if degree == 1:
                w1.append(name)
            elif degree == 4:
                w4.append(name)
    free, torsion = profile.groups.get(4, (0, ()))
    h4 = ["Z" if free == 1 else f"Z^{free}"] * (free > 0) + [f"Z/{t}" for t in torsion]
    if not w4:
        claim, verdict = "w5-obstruction-vanishes", "established"
    elif not h4:
        claim, verdict = "not-spin^h", "excluded"
    else:
        claim, verdict = "w5-obstruction-undetermined", "inconclusive"
    parameters = {
        "model": f"{a.name} x {b.name}",
        "dimension": a.dimension + b.dimension,
        "k": 3,
        "orientable": not w1,
        "w4": " + ".join(sorted(w4)) or "0",
        "H4_integral": " + ".join(h4) or "0",
    }
    return claim, verdict, parameters


class TestBuildAlgebra:
    def test_ground_field(self):
        algebra = build_algebra([("1", 0)], {})
        one = algebra.mask(["1"])
        assert algebra.product(one, one) == one

    def test_wu_table_valid(self):
        algebra = wu_manifold().algebra
        z2, z3 = algebra.mask(["z2"]), algebra.mask(["z3"])
        assert algebra.product(z2, z3) == algebra.mask(["z5"])
        assert algebra.product(z2, z2) == 0

    def test_commutativity_violation_names_pair(self):
        products = {("z2", "z3"): ["z5"], ("z3", "z2"): []}
        message = "product table is not commutative on the pair (z2, z3)"
        with pytest.raises(AlgebraError, match=re.escape(message)):
            build_algebra([("1", 0), ("z2", 2), ("z3", 3), ("z5", 5)], products)

    def test_associativity_violation_names_triple(self):
        # (b*b)*a = c*a = d but b*(b*a) = 0
        basis = [("1", 0), ("a", 2), ("b", 2), ("c", 4), ("d", 6)]
        products = {
            ("a", "a"): ["c"],
            ("b", "b"): ["c"],
            ("a", "b"): [],
            ("a", "c"): ["d"],
            ("b", "c"): [],
            ("a", "d"): [],
            ("b", "d"): [],
            ("c", "c"): [],
            ("c", "d"): [],
            ("d", "d"): [],
        }
        message = "product table is not associative on the triple (a, b, b)"
        with pytest.raises(AlgebraError, match=re.escape(message)):
            build_algebra(basis, products)

    def test_degree_violation(self):
        message = "product (x, x) is not degree-additive: 'y' has degree 3, expected 4"
        with pytest.raises(AlgebraError, match=re.escape(message)):
            build_algebra([("1", 0), ("x", 2), ("y", 3)], {("x", "x"): ["y"]})

    def test_unit_must_have_degree_zero(self):
        with pytest.raises(AlgebraError):
            build_algebra([("1", 1)], {})

    def test_unit_law_violation_names_element(self):
        with pytest.raises(AlgebraError, match="unit law fails on 'z2'"):
            build_algebra([("1", 0), ("z2", 2)], {("1", "z2"): []})


# the messages of a write into a read-only container and into a read-only value type
ITEM = "does not support item assignment"
READ_ONLY = "is read-only: cannot (assign|delete)"


class TestWuManifold:
    def test_w2_nonzero(self):
        wu = wu_manifold()
        assert wu.w(2) == wu.algebra.mask(["z2"]) != 0

    def test_betti_vector(self):
        assert tuple(wu_manifold().algebra.dim(d) for d in range(6)) == (1, 0, 1, 1, 0, 1)

    def test_w4_vanishes(self):
        assert wu_manifold().w(4) == 0

    def test_matches_a_statement_independent_of_the_shipped_file(self):
        # wu_manifold() reads data/wu.json; this states the same model by hand
        algebra = build_algebra(
            basis=[("1", 0), ("z2", 2), ("z3", 3), ("z5", 5)],
            products={("z2", "z2"): [], ("z2", "z3"): ["z5"]},
        )
        expected = mod2.SpaceModel(
            name="wu-manifold",
            algebra=algebra,
            sw=algebra.mask(["1", "z2", "z3"]),
            int_profile=IntProfile.from_mapping({0: (1, ()), 3: (0, (2,)), 5: (1, ())}),
            dimension=5,
        )
        assert wu_manifold() == expected

    def test_one_shared_model(self):
        wu = wu_manifold()
        assert wu_manifold() is wu
        with pytest.raises(AttributeError, match="is read-only: cannot assign 'sw'"):
            wu.sw = 0

    @pytest.mark.parametrize(
        "write, error, message",
        [
            (lambda wu: operator.setitem(wu.int_profile.groups, 4, (1, ())), TypeError, ITEM),
            (lambda wu: operator.setitem(wu.algebra.mul[1], 1, 0), TypeError, ITEM),
            (lambda wu: operator.setitem(wu.algebra.mul, 1, ()), TypeError, ITEM),
            (lambda wu: operator.setitem(wu.algebra._index, "z2", 2), TypeError, ITEM),
            (lambda wu: setattr(wu.algebra, "mul", ()), AttributeError, READ_ONLY),
            (lambda wu: setattr(wu.algebra, "names", ()), AttributeError, READ_ONLY),
            (lambda wu: setattr(wu.algebra, "_index", {}), AttributeError, READ_ONLY),
            (lambda wu: delattr(wu.algebra, "degrees"), AttributeError, READ_ONLY),
            (lambda wu: setattr(wu.algebra, "unit", "z2"), AttributeError, READ_ONLY),
        ],
        ids=[
            "groups", "mul-row", "mul", "index-entry",
            "algebra-mul", "algebra-names", "algebra-index", "algebra-degrees", "algebra-unit",
        ],
    )
    def test_shared_model_is_read_only(self, write, error, message):
        wu = wu_manifold()
        with pytest.raises(error, match=message):
            write(wu)
        assert wu_manifold().algebra.mask(["z2"]) == 2
        assert w5_verdict(kunneth(wu, wu)).verdict == "excluded"

    @pytest.mark.parametrize(
        "total, message",
        [
            (lambda wu: -1, "not a mask over the basis"),
            (lambda wu: wu.sw | 1 << 4, "not a mask over the basis"),
            (lambda wu: wu.sw ^ wu.algebra.mask(["1"]), "the unit as its degree-0 part"),
        ],
        ids=["negative", "bit-outside-the-basis", "no-unit"],
    )
    def test_total_class_must_be_a_graded_total(self, total, message):
        wu = wu_manifold()
        with pytest.raises(ModelError, match=message):
            mod2.SpaceModel("bad", wu.algebra, total(wu), wu.int_profile, 5)

    def test_uct_mismatch_detected(self):
        wu = wu_manifold()
        bad_profile = IntProfile.from_mapping({0: (1, ()), 5: (1, ())})
        with pytest.raises(ModelError, match="degree 2"):
            mod2.SpaceModel("bad", wu.algebra, wu.sw, bad_profile, 5)

    @pytest.mark.parametrize(
        "data, degree",
        [
            # degrees 3 and 5 hold one basis element each, the profile predicts two
            ({0: (1, ()), 3: (1, (2,)), 5: (2, ())}, 3),
            # Z/2 in degree 2 predicts a class in degree 1, which holds no basis element
            ({0: (1, ()), 2: (0, (2,)), 3: (0, (2,)), 5: (1, ())}, 1),
        ],
        ids=["basis-degrees", "degree-below-a-group"],
    )
    def test_uct_mismatch_names_the_lowest_degree(self, data, degree):
        wu = wu_manifold()
        profile = IntProfile.from_mapping(data)
        with pytest.raises(ModelError, match=f"mismatch in degree {degree}:"):
            mod2.SpaceModel("bad", wu.algebra, wu.sw, profile, 5)


class TestKunneth:
    def test_mod2_h4_of_wu_square(self):
        algebra = kunneth(wu_manifold(), wu_manifold()).algebra
        assert algebra.dim(4) == 1
        assert algebra.names[algebra.degrees.index(4)] == "z2⊗z2"

    def test_integral_h4_of_wu_square_vanishes(self):
        product = kunneth(wu_manifold(), wu_manifold())
        assert product.int_profile.is_trivial(4)

    def test_unit_law(self):
        wu = wu_manifold()
        product = kunneth(wu, point_model())
        assert product.dimension == wu.dimension
        for degree in range(6):
            assert product.algebra.dim(degree) == wu.algebra.dim(degree)
            assert product.w(degree).bit_count() == wu.w(degree).bit_count()

    def test_dimension_count(self):
        models = [wu_manifold(), sphere_model(3), sphere_model(5), point_model()]
        for a in models:
            for b in models:
                product = kunneth(a, b)
                for d in range(product.dimension + 1):
                    expected = sum(
                        a.algebra.dim(i) * b.algebra.dim(d - i) for i in range(d + 1)
                    )
                    assert product.algebra.dim(d) == expected

    def test_tor_term_in_degree_five(self):
        # two order-2 classes in degree 3 contribute a Tor term one degree up
        product = kunneth(wu_manifold(), wu_manifold())
        assert product.int_profile.free(5) == 2
        assert product.int_profile.torsion(5) == (2,)

    def test_product_sw_class(self):
        product = kunneth(wu_manifold(), wu_manifold())
        w4 = product.w(4)
        assert w4 == product.algebra.mask(["z2⊗z2"])

    @pytest.mark.parametrize(
        "a, b",
        [
            (wu_manifold(), sphere_model(3)),
            (projective_space(3, 1), projective_space(2, 2)),
            (kunneth(wu_manifold(), sphere_model(3)), kunneth(wu_manifold(), sphere_model(3))),
        ],
        ids=["wu-x-s3", "rp3-x-cp2", "64-elements"],
    )
    def test_products_match_the_factors(self, a, b):
        # (x1⊗y1)(x2⊗y2) = (x1 x2)⊗(y1 y2), with the factor products written out by name
        product = kunneth(a, b)
        mod2._check_axioms(product.algebra)
        A, B, AB = a.algebra, b.algebra, product.algebra
        assert len(AB.names) == len(A.names) * len(B.names)
        for x1 in A.names:
            for y1 in B.names:
                for x2 in A.names:
                    for y2 in B.names:
                        xs = _names(A, A.product(A.mask([x1]), A.mask([x2])))
                        ys = _names(B, B.product(B.mask([y1]), B.mask([y2])))
                        got = AB.product(AB.mask([f"{x1}⊗{y1}"]), AB.mask([f"{x2}⊗{y2}"]))
                        assert _names(AB, got) == {f"{u}⊗{v}" for u in xs for v in ys}
        for degree in range(product.dimension + 1):
            want = set()
            for i in range(degree + 1):
                left, right = _names(A, a.w(i)), _names(B, b.w(degree - i))
                want ^= {f"{u}⊗{v}" for u in left for v in right}
            assert _names(AB, product.w(degree)) == want

    def test_products_pass_the_axiom_check(self):
        # kunneth does not check its table; the full check is the slow oracle here
        wu = wu_manifold()
        square = kunneth(wu, wu)
        mod2._check_axioms(square.algebra)
        chain = square
        for n in (3, 2, 1):
            chain = kunneth(chain, sphere_model(n))
        assert len(chain.algebra.names) == 128
        mod2._check_axioms(chain.algebra)

    def test_the_product_table_is_not_checked(self, monkeypatch):
        wu = wu_manifold()

        def refuse(algebra):
            raise AssertionError("the axiom check ran")

        monkeypatch.setattr(mod2, "_check_axioms", refuse)
        with pytest.raises(AssertionError, match="the axiom check ran"):
            sphere_model(2)
        assert w5_verdict(kunneth(wu, wu)).verdict == "excluded"

    def test_tensor_matches_the_shift_or_form(self):
        # _tensor multiplies y by the spread of x; the slow form ORs a shifted copy of y per bit of x
        rng = random.Random(17)
        for _ in range(2000):
            width = rng.randint(1, 40)
            x, y = rng.getrandbits(rng.randint(0, 40)), rng.getrandbits(width)
            want = 0
            for i in range(x.bit_length()):
                if x >> i & 1:
                    want |= y << (i * width)
            assert mod2._tensor(x, y, width) == want

    def test_product_class_is_the_tensor_of_the_totals(self):
        # the Whitney product formula: w(M x M) = w(M) ⊗ w(M), on the 4-element basis of Wu
        wu = wu_manifold()
        assert kunneth(wu, wu).sw == mod2._tensor(wu.sw, wu.sw, 4)

    def test_sparse_sums_match_the_dense_oracle(self):
        rng = random.Random(9)
        models = [random_model(rng, f"m{k}") for k in range(201)]
        seen = set()
        for a, b in zip(models, models[1:]):
            product = kunneth(a, b)
            mod2._check_axioms(product.algebra)
            sw, profile = dense_kunneth_sw_and_profile(a, b)
            assert product.sw == sw
            assert product.int_profile == profile
            for i, (_, ta) in a.int_profile.groups.items():
                for j, (fb, tb) in b.int_profile.groups.items():
                    if any(gcd(s, t) > 1 for s in ta for t in tb):
                        seen.add("tor-in-degree-0" if i + j == 0 else "tor-shift")
                    if ta and fb:
                        seen.add("torsion-beside-free")
                    seen.update("even" if t % 2 == 0 else "odd" for t in ta)
        assert seen == {"tor-in-degree-0", "tor-shift", "torsion-beside-free", "even", "odd"}


class TestW4Lift:
    """The lift rule, read from w5_verdict's claim and verdict."""

    def test_wu_square_has_no_lift(self):
        cert = w5_verdict(kunneth(wu_manifold(), wu_manifold()))
        assert (cert.claim, cert.verdict) == ("not-spin^h", "excluded")

    def test_zero_class_lifts(self):
        for model in (wu_manifold(), sphere_model(5)):
            cert = w5_verdict(model)
            assert (cert.claim, cert.verdict) == ("w5-obstruction-vanishes", "established")

    def test_unknown_when_criteria_silent(self):
        # synthetic 8-model with free H^4 and non-zero w4
        algebra = build_algebra(
            [("1", 0), ("x4", 4), ("x8", 8)], {("x4", "x4"): ["x8"], ("x4", "x8"): [], ("x8", "x8"): []}
        )
        model = mod2.SpaceModel(
            "synthetic-8",
            algebra,
            algebra.mask(["1", "x4"]),
            IntProfile.from_mapping({0: (1, ()), 4: (1, ()), 8: (1, ())}),
            8,
        )
        cert = w5_verdict(model)
        assert (cert.claim, cert.verdict) == ("w5-obstruction-undetermined", "inconclusive")

    def test_a_w4_named_0_is_not_zero(self):
        # the rule reads w4 from the mask, not from its text, which reads "0" here
        algebra = build_algebra(
            [("1", 0), ("0", 4), ("x8", 8)], {("0", "0"): ["x8"], ("0", "x8"): [], ("x8", "x8"): []}
        )
        profile = IntProfile.from_mapping({0: (1, ()), 4: (1, ()), 8: (1, ())})
        model = mod2.SpaceModel("named-0", algebra, algebra.mask(["1", "0"]), profile, 8)
        cert = w5_verdict(model)
        assert (cert.claim, cert.verdict, cert.parameters["w4"]) == (
            "w5-obstruction-undetermined", "inconclusive", "0"
        )


class TestW5Verdict:
    def test_wu_square_excluded(self):
        cert = w5_verdict(kunneth(wu_manifold(), wu_manifold()))
        assert cert.claim == "not-spin^h"
        assert cert.verdict == "excluded"
        assert cert.parameters["w4"] == "z2⊗z2"
        assert cert.parameters["H4_integral"] == "0"

    def test_wu_itself_unobstructed(self):
        cert = w5_verdict(wu_manifold())
        assert cert.verdict == "established"
        assert cert.claim == "w5-obstruction-vanishes"

    def test_free_rank_above_one(self):
        cp2 = projective_space(2, 2)
        cert = w5_verdict(kunneth(cp2, cp2))
        assert cert.verdict == "inconclusive"
        assert cert.parameters["H4_integral"] == "Z^3"

    def test_five_sphere(self):
        assert w5_verdict(sphere_model(5)).verdict == "established"

    def test_sphere_dimension_must_be_positive(self):
        with pytest.raises(ModelError, match="sphere dimension must be >= 1"):
            sphere_model(0)

    def test_orientability_read_from_w1(self):
        # synthetic 5-model with w1 = a1 != 0, whose W5 verdict is an exclusion
        algebra = build_algebra(
            [("1", 0), ("a1", 1), ("a2", 2), ("b4", 4), ("b5", 5)],
            {("a1", "a1"): ["a2"], ("a1", "b4"): ["b5"]},
        )
        model = mod2.SpaceModel(
            "synthetic-5",
            algebra,
            algebra.mask(["1", "a1", "b4"]),
            IntProfile.from_mapping({0: (1, ()), 2: (0, (2,)), 5: (0, (2,))}),
            5,
        )
        cert = w5_verdict(model)
        assert cert.verdict == "excluded"
        assert cert.parameters["orientable"] is False
        with pytest.raises(CertificateError, match="orientable"):
            certify.klein_product_pin_obstruction(cert)
        rp2 = projective_space(2, 1)
        assert w5_verdict(kunneth(rp2, rp2)).parameters["orientable"] is False
        wu = wu_manifold()
        assert w5_verdict(kunneth(wu, wu)).parameters["orientable"] is True


class TestProductW5Verdict:
    """product_w5_verdict against the dense oracle, and against w5_verdict of kunneth's product.

    The dense oracle shares no code with product_w5_verdict.  kunneth's product
    reads the same Whitney, Künneth and W5 helpers, so comparing with it guards
    only the wiring around them.
    """

    def test_matches_the_dense_oracle(self):
        rng = random.Random(25)
        models = [random_model(rng, f"m{k}") for k in range(200)]
        pairs = [*zip(models, models[1:]), *zip(models, models)]
        squares = [projective_space(n, g) for g in (1, 2) for n in range(1, 32)]
        pairs += [(model, model) for model in (*squares, wu_manifold())]
        seen = set()
        for a, b in pairs:
            cert = mod2.product_w5_verdict(a, b)
            claim, verdict, parameters = dense_w5(a, b)
            assert (cert.claim, cert.verdict, dict(cert.parameters)) == (claim, verdict, parameters)
            seen.add(verdict)
            if bool(a.w(1)) != bool(b.w(1)):
                seen.add("one-factor-orientable")
            for i, (_, ta) in a.int_profile.groups.items():
                if any(gcd(s, t) > 1 for s in ta for t in b.int_profile.torsion(5 - i)):
                    seen.add("tor-into-degree-4")
        assert seen == {
            "established", "excluded", "inconclusive", "one-factor-orientable", "tor-into-degree-4"
        }

    def test_random_pairs_match_the_product(self):
        rng = random.Random(25)
        models = [random_model(rng, f"m{k}") for k in range(200)]
        seen = set()
        for a, b in [*zip(models, models[1:]), *zip(models, models)]:
            factor_wise, oracle = product_verdicts(a, b)
            assert factor_wise == oracle, (a, b)
            seen.add(json.loads(oracle)["verdict"])
            if bool(a.w(1)) != bool(b.w(1)):
                seen.add("one-factor-orientable")
            for i, (_, ta) in a.int_profile.groups.items():
                if any(gcd(s, t) > 1 for s in ta for t in b.int_profile.torsion(5 - i)):
                    seen.add("tor-into-degree-4")
        # no random pair is excluded: the named products below cover that verdict
        assert seen == {"established", "inconclusive", "one-factor-orientable", "tor-into-degree-4"}

    @pytest.mark.parametrize("gen_degree", [1, 2], ids=["RP", "CP"])
    def test_projective_squares_match_the_product(self, gen_degree):
        for n in range(1, 32):
            model = projective_space(n, gen_degree)
            factor_wise, oracle = product_verdicts(model, model)
            assert factor_wise == oracle, n

    def test_named_products_match_the_product(self):
        wu, spheres = wu_manifold(), [sphere_model(k) for k in range(1, 10)]
        pairs = [(wu, wu), (wu, point_model()), (point_model(), point_model())]
        pairs += [(a, b) for a in spheres for b in spheres]
        pairs += [(kunneth(wu, s), kunneth(wu, s)) for s in spheres]
        pairs += [(wu, s) for s in spheres] + [(s, wu) for s in spheres]
        # the 128-element chain (Wu x Wu x S^3 x S^2) x S^1
        chain = kunneth(kunneth(kunneth(wu, wu), sphere_model(3)), sphere_model(2))
        pairs.append((chain, sphere_model(1)))
        verdicts = set()
        for a, b in pairs:
            factor_wise, oracle = product_verdicts(a, b)
            assert factor_wise == oracle, (a.name, b.name)
            verdicts.add(json.loads(oracle)["verdict"])
        assert verdicts == {"established", "excluded", "inconclusive"}


class TestSymbolicBundles:
    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            sw_ring(0)

    def test_rings_compare_by_value(self):
        assert sw_ring(3) == sw_ring(3) != sw_ring(3, ("t",))
        assert tensor_with_det(3).component(0) == sum_with_det(3).component(0)
        assert (sw_ring(3).gen("w1") + sw_ring(3).gen("w1")).is_zero()

    @pytest.mark.parametrize(
        "combine, left, right",
        [
            (operator.mul, sw_ring(3).gen("w1"), sw_ring(3, ("t",)).gen("t")),
            (operator.add, sw_ring(3).gen("w1"), sw_ring(4).gen("w1")),
        ],
        ids=["mul-extra-generator", "add-other-rank"],
    )
    def test_mixed_rings_are_refused(self, combine, left, right):
        for a, b in ((left, right), (right, left)):
            with pytest.raises(ValueError, match="different rings"):
                combine(a, b)

    def test_products_keep_every_degree(self):
        # degree 6 lies above k + 2 = 4; nothing is cut off
        w2 = sw_ring(2).gen("w2")
        assert (w2 * w2 * w2).monos == {(0, 3)}

    def test_no_class_above_the_rank(self):
        ring = sw_ring(2)
        with pytest.raises(ValueError, match="rank-1 bundle has no SW class above degree 1"):
            mod2.SymbolicSW(1, ring.one() + ring.gen("w2"))
        line = mod2.SymbolicSW(1, ring.one() + ring.gen("w1"))
        assert [line.component(d).monos for d in (-1, 2, 3)] == [frozenset()] * 3

    def test_tensor_case_split(self):
        for k in range(1, 9):
            ring_poly = tensor_with_det(k)
            ring = ring_poly.ring
            w1, w2 = ring.gen("w1"), (ring.gen("w2") if k >= 2 else ring.zero())
            expected_w1 = ring.zero() if (k + 1) % 2 == 0 else w1
            assert ring_poly.component(1) == expected_w1
            if k >= 2:
                if k % 4 in (0, 3):
                    assert ring_poly.component(2) == w2 + w1 * w1
                else:
                    assert ring_poly.component(2) == w2

    def test_line_bundle_tensor_trivial(self):
        total = tensor_with_det(1)
        assert total.component(0) == total.ring.one()
        assert total.component(1).is_zero()

    def test_sum_case(self):
        for k in range(1, 9):
            total = sum_with_det(k)
            ring = total.ring
            assert total.component(1).is_zero()
            expected = ring.gen("w1") * ring.gen("w1")
            if k >= 2:
                expected = expected + ring.gen("w2")
            assert total.component(2) == expected

    def test_sum_with_det_orientable_input(self):
        # setting w1 = 0 appends a trivial factor: the total class is unchanged
        def without_w1(poly):
            return {m for m in poly.monos if m[0] == 0}

        for k in range(1, 9):
            total = sum_with_det(k)
            bundle = mod2.generic_bundle(total.ring, k)
            for j in range(k + 2):
                assert without_w1(total.component(j)) == without_w1(
                    bundle.component(j)
                )

    def test_sum_is_whitney_product(self):
        for k in range(1, 9):
            total = sum_with_det(k)
            ring = total.ring
            bundle = mod2.generic_bundle(ring, k)
            w1 = ring.gen("w1")
            for j in range(k + 2):
                expected = bundle.component(j) + bundle.component(j - 1) * w1
                assert total.component(j) == expected

    def test_twist_then_sum_case_split(self):
        for k in range(1, 9):
            total = twist_then_sum(k)
            ring = total.ring
            w1 = ring.gen("w1")
            expected_w1 = ring.zero() if k % 2 == 0 else w1
            assert total.component(1) == expected_w1
            expected_w2 = ring.gen("w2") if k >= 2 else ring.zero()
            if k % 4 in (2, 3):
                expected_w2 = expected_w2 + w1 * w1
            assert total.component(2) == expected_w2

    def test_double_twist_is_identity(self):
        for k in range(1, 9):
            ring = sw_ring(k, extra_degree1=("t",))
            bundle = mod2.generic_bundle(ring, k)
            t = ring.gen("t")
            twice = mod2.line_twist(mod2.line_twist(bundle, t), t)
            for j in range(k + 1):
                assert twice.component(j) == bundle.component(j)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_pin_table_follows_the_twisted_normal_bundle(self, n):
        # E is nu ox det nu for odd k and (nu ox det nu) + det nu for even k
        row = certify.guaranteed_structures(n)
        k = row.cohen_k
        bundle = tensor_with_det(k) if k % 2 else twist_then_sum(k)
        ring = bundle.ring
        w1 = ring.gen("w1")
        w2 = ring.gen("w2") if k >= 2 else ring.zero()
        assert bundle.component(1).is_zero()
        assert bundle.rank == row.pin_k
        assert (row.pin_sign == "+") == (bundle.component(2) == w2 + w1 * w1)

    def test_binom_mod2_lucas(self):
        for n in range(0, 40):
            for k in range(0, n + 1):
                assert binom_mod2(n, k) == comb(n, k) % 2

    @pytest.mark.parametrize("n, k", [(3, 5), (0, 1), (3, -1), (0, -2)])
    def test_binom_mod2_outside_the_triangle(self, n, k):
        assert binom_mod2(n, k) == 0

    @staticmethod
    def assert_matches(total, oracle):
        # degrees 0..rank + 2, so 0..k + 2 at least, past the rank on both sides
        for j in range(total.rank + 3):
            expected = oracle[j] if j < len(oracle) else total.ring.zero()
            assert total.component(j) == expected, j

    @pytest.mark.parametrize("k", range(1, 11))
    def test_line_twist_matches_the_binomial_oracle(self, k):
        ring = sw_ring(k, extra_degree1=("t",))
        comps = generic_components(ring, k)
        bundle = mod2.generic_bundle(ring, k)
        for t in (ring.gen("w1"), ring.gen("t")):
            self.assert_matches(mod2.line_twist(bundle, t), oracle_line_twist(comps, t))
        w1 = sw_ring(k).gen("w1")
        self.assert_matches(tensor_with_det(k), oracle_line_twist(generic_components(w1.ring, k), w1))

    @pytest.mark.parametrize("k", range(1, 11))
    def test_sums_with_det_match_the_convolution_oracle(self, k):
        ring = sw_ring(k)
        comps, w1 = generic_components(ring, k), ring.gen("w1")
        det = [ring.one(), w1]
        self.assert_matches(sum_with_det(k), oracle_whitney_sum(comps, det))
        twisted = oracle_line_twist(comps, w1)
        self.assert_matches(twist_then_sum(k), oracle_whitney_sum(twisted, det))


WU_TEXT = resources.files("spincert").joinpath("data/wu.json").read_text()

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 7)
    | st.floats()
    | st.sampled_from(["1", "z2", "z3", "z5", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["free", "torsion", "x"]), inner, max_size=3),
    max_leaves=6,
)
ODD_KEYS = st.sampled_from(["-1", "04", "+4", " 4", "4.0", "\u0663", "", "free", "99"])


def _slots(node):
    """(container, key) for every entry of a JSON document, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def mutated_wu_documents(draw):
    """data/wu.json with values replaced, deleted or added at random paths."""
    doc = json.loads(WU_TEXT)
    # paths from a drawn seed: sampled_from would favour the first field, "name"
    rng = random.Random(draw(st.integers(0, 2**64)))
    for _ in range(draw(st.integers(1, 4))):
        container, key = rng.choice(list(_slots(doc)))
        action = rng.choice(["replace", "delete", "add"])
        if action == "replace":
            container[key] = draw(JSON_VALUES)
        elif action == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[draw(ODD_KEYS)] = draw(JSON_VALUES)
        else:
            container.insert(key, draw(JSON_VALUES))
    return doc


class TestModelDocuments:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(mutated_wu_documents())
    def test_mutated_documents_give_a_model_or_a_model_error(self, doc):
        try:
            model = mod2.space_model_from_dict(doc)
        except ModelError:
            return
        assert isinstance(model, mod2.SpaceModel)
        factor_wise, oracle = product_verdicts(model, model)
        assert factor_wise == oracle

    def test_basis_at_the_cap_loads(self):
        doc = json.loads(space_model_to_json(projective_space(mod2.MODEL_MAX_BASIS - 1, 2)))
        assert len(mod2.space_model_from_dict(doc).algebra.names) == mod2.MODEL_MAX_BASIS

    def test_shipped_wu_document_matches_constructor(self):
        shipped = resources.files("spincert").joinpath("data/wu.json").read_bytes()
        assert space_model_to_json(wu_manifold()).encode() == shipped

    def test_round_trip(self):
        doc = json.loads(space_model_to_json(wu_manifold()))
        assert mod2.space_model_from_dict(doc) == wu_manifold()

    def test_missing_field_named(self):
        doc = json.loads(WU_TEXT)
        del doc["unit"]
        with pytest.raises(ModelError, match="'unit'"):
            mod2.space_model_from_dict(doc)

    def test_bad_products_entry_named(self):
        doc = json.loads(WU_TEXT)
        doc["products"][1] = ["z2", "z3"]
        with pytest.raises(ModelError, match=r"products\[1\]"):
            mod2.space_model_from_dict(doc)

    def test_non_associative_document(self):
        doc = {
            "name": "broken",
            "dimension": 6,
            "basis": [["1", 0], ["a", 2], ["b", 2], ["c", 4], ["d", 6]],
            "unit": "1",
            "products": [
                ["a", "a", ["c"]],
                ["b", "b", ["c"]],
                ["a", "c", ["d"]],
            ],
            "sw": {},
            "int_profile": {
                "0": {"free": 1, "torsion": []},
                "2": {"free": 2, "torsion": []},
                "4": {"free": 1, "torsion": []},
                "6": {"free": 1, "torsion": []},
            },
        }
        with pytest.raises(ModelError, match="associative"):
            mod2.space_model_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc.update(dimension=True), "'dimension'"),
            (lambda doc: doc["basis"][1].__setitem__(1, False), r"'basis\[1\]'"),
            (lambda doc: doc["int_profile"]["0"].update(free=True), r"'int_profile\[0\]'"),
            (lambda doc: doc["int_profile"]["3"].update(torsion=[2.5]), r"'int_profile\[3\]'"),
        ],
        ids=["dimension-true", "degree-false", "free-true", "torsion-float"],
    )
    def test_non_integer_numbers_refused(self, edit, field):
        doc = json.loads(WU_TEXT)
        edit(doc)
        with pytest.raises(ModelError, match=field):
            mod2.space_model_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc["sw"].update({"2": [["z2"]]}), r"'sw\[2\]'"),
            (lambda doc: doc["products"][0].__setitem__(2, [["z5"]]), r"'products\[0\]'"),
        ],
        ids=["sw", "products"],
    )
    def test_name_lists_hold_strings(self, edit, field):
        doc = json.loads(WU_TEXT)
        edit(doc)
        with pytest.raises(ModelError, match=field):
            mod2.space_model_from_dict(doc)

    @pytest.mark.parametrize("field, key", [("sw", "2"), ("int_profile", "3")])
    @pytest.mark.parametrize(
        "spelling",
        ["0_{}", " {} ", "+{}", "0{}", "{}.0", "{}\n"],
        ids=["underscore", "spaces", "plus", "leading-zero", "decimal-point", "newline"],
    )
    def test_degree_keys_are_canonical(self, field, key, spelling):
        doc = json.loads(WU_TEXT)
        doc[field][spelling.format(key)] = doc[field].pop(key)
        with pytest.raises(ModelError, match=f"'{field}': degree key"):
            mod2.space_model_from_dict(doc)

    @pytest.mark.parametrize("field", ["sw", "int_profile"])
    def test_non_ascii_degree_key_refused(self, field):
        # int() reads ARABIC-INDIC DIGIT THREE as 3
        doc = json.loads(WU_TEXT)
        doc[field]["\u0663"] = doc[field].pop("3")
        with pytest.raises(ModelError, match=f"'{field}': degree key"):
            mod2.space_model_from_dict(doc)

    def test_negative_degree_key_reaches_range_checks(self):
        doc = json.loads(WU_TEXT)
        doc["sw"]["-1"] = ["z2"]
        with pytest.raises(ModelError, match="positive-degree components only"):
            mod2.space_model_from_dict(doc)
        doc = json.loads(WU_TEXT)
        doc["int_profile"]["-1"] = {"free": 1, "torsion": []}
        with pytest.raises(ModelError, match="malformed integral data in degree -1"):
            mod2.space_model_from_dict(doc)

    @pytest.mark.parametrize("dimension", [0, 4, 6, 1000])
    def test_top_degree_must_equal_dimension(self, dimension):
        doc = json.loads(WU_TEXT)
        doc["dimension"] = dimension
        message = f"top basis degree 5 differs from the dimension {dimension}"
        with pytest.raises(ModelError, match=message):
            mod2.space_model_from_dict(doc)

    def test_degree_zero_torsion_refused(self):
        doc = json.loads(WU_TEXT)
        doc["int_profile"]["0"]["torsion"] = [3]
        with pytest.raises(ModelError, match=r"'int_profile\[0\]': H\^0 is free"):
            mod2.space_model_from_dict(doc)

    def test_unknown_sw_name_named(self):
        doc = json.loads(WU_TEXT)
        doc["sw"]["2"] = ["nope"]
        with pytest.raises(ModelError, match=r"sw\[2\]"):
            mod2.space_model_from_dict(doc)

    @pytest.mark.parametrize(
        "model, edit, message",
        [
            (
                wu_manifold(),
                lambda doc: [entry.__setitem__(2, []) for entry in doc["products"]],
                "field 'products': cup pairing degenerate in degree 2 (H^2 x H^3 -> H^5)",
            ),
            (
                # H^2 = <x2> pairs with H^3 = 0
                sphere_model(5),
                lambda doc: (
                    doc["basis"].append(["x2", 2]),
                    doc["int_profile"].update({"2": {"free": 1, "torsion": []}}),
                ),
                "field 'products': cup pairing degenerate in degree 2 (H^2 x H^3 -> H^5)",
            ),
            (
                # a * a = a * b = b * b = t on T^2: the pairing matrix has rank 1
                kunneth(sphere_model(1), sphere_model(1)),
                lambda doc: [
                    entry.__setitem__(2, ["v1⊗v1"])
                    for entry in doc["products"]
                    if "v1⊗v1" not in entry[:2]
                ],
                "field 'products': cup pairing degenerate in degree 1 (H^1 x H^1 -> H^2)",
            ),
            (
                sphere_model(2),
                lambda doc: (
                    doc["basis"].append(["u2", 2]),
                    doc["int_profile"].update({"2": {"free": 2, "torsion": []}}),
                ),
                "field 'basis': H^2 has dimension 2, a closed 2-manifold has 1",
            ),
            (
                projective_space(2, 1),
                lambda doc: doc.update(sw={}),
                "field 'int_profile[2]': H^2(M; Z) has free rank 0 but w1 = 0",
            ),
            (
                projective_space(3, 1),
                lambda doc: doc.update(sw={"1": ["x1"]}),
                "field 'int_profile[3]': H^3(M; Z) has free rank 1 but w1 != 0",
            ),
        ],
        ids=[
            "wu-zero-products",
            "unpaired-degree",
            "singular-pairing",
            "top-dimension-2",
            "rp2-w1-zero",
            "rp3-w1",
        ],
    )
    def test_no_closed_manifold_has_the_data(self, model, edit, message):
        doc = json.loads(space_model_to_json(model))
        edit(doc)
        with pytest.raises(ModelError, match=re.escape(message)):
            mod2.space_model_from_dict(doc)

    @pytest.mark.parametrize(
        "model",
        [wu_manifold(), projective_space(2, 1), projective_space(3, 1), projective_space(4, 2)]
        + [sphere_model(n) for n in (1, 2, 5)]
        + [kunneth(sphere_model(1), sphere_model(1))],
        ids=lambda model: model.name,
    )
    def test_closed_manifolds_load(self, model):
        doc = json.loads(space_model_to_json(model))
        assert mod2.space_model_from_dict(doc) == model


def test_mod2_loads_neither_certify_nor_genus():
    script = "import sys, spincert.mod2; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(mod2.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "spincert.mod2" in loaded
    assert not loaded & {"spincert.certify", "spincert.genus"}
