"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every criterion prints a single pass/fail line; run with ``pytest -s
tests/test_acceptance.py`` to see them all.
"""

import random
from fractions import Fraction
from pathlib import Path

from spincert import certify, exact, genus, mod2
from spincert.cli import run

GOLDEN = Path(__file__).parent / "golden"


def _report(number, label, body):
    try:
        body()
    except Exception:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    print(f"criterion {number:2d} [{label}]: PASS")


def test_criterion_01_bernoulli_anchor():
    def body():
        assert exact.bernoulli(1) == Fraction(1, 6)
        assert exact.bernoulli(2) == Fraction(1, 30)
        assert exact.bernoulli(3) == Fraction(1, 42)
        for j in range(1, 17):
            assert exact.nu2(exact.bernoulli(j)) == -1

    _report(1, "bernoulli anchor", body)


def test_criterion_02_s_coefficient_identity():
    def body():
        for m in (1, 2, 4):
            assert genus.l_coefficients(m).s_2m == genus.s2m_bernoulli(m)
        coeffs = genus.l_coefficients(1)
        assert (coeffs.s_m, coeffs.s_mm, coeffs.s_2m) == (
            Fraction(1, 3),
            Fraction(-1, 45),
            Fraction(7, 45),
        )
        # condition (i) with sigma = 1 is literally 7Q - P2 = 45
        for P2, Q in ((57600, 8235), (4, 7), (45, 90), (-38, 1)):
            lhs = coeffs.s_mm * P2 + coeffs.s_2m * Q
            assert (lhs == 1) == (7 * Q - P2 == 45)

    _report(2, "s-coefficient identity", body)


def test_criterion_03_two_adic_claims():
    def body():
        for m in (1, 2, 4, 8):
            assert exact.nu2(genus.s2m_bernoulli(m)) == 0
            assert exact.nu2_factorial(4 * m) == 4 * m - 1

    _report(3, "2-adic claims", body)


def test_criterion_04_dimension8_integrand():
    def body():
        derived = genus.spinh_integrand_coefficients()
        assert derived == (Fraction(-1, 360), Fraction(-1, 720), Fraction(1, 48))

    _report(4, "dimension-8 integrand", body)


def test_criterion_05_non_spinh_family():
    def body():
        qr = exact.quadratic_residues(48)
        assert 21 not in qr
        for a in range(-50, 51):
            cert = certify.nonspinh8_certificate(a)
            x, y = cert.parameters["x"], cert.parameters["y"]
            assert 7 * y - x * x == 45
            assert (y - 6) % 48 == 21
            assert cert.verdict == "excluded"
        code, document = run(["non-spinh8", "--a", "0", "--json"])
        assert code == 1
        assert (document + "\n").encode() == (GOLDEN / "non-spinh8-a0.json").read_bytes()

    _report(5, "non-spin^h family", body)


def test_criterion_06_wu_product_obstruction():
    def body():
        product = mod2.kunneth(mod2.wu_manifold(), mod2.wu_manifold())
        assert product.algebra.dim(4) == 1
        assert product.int_profile.is_trivial(4)
        assert product.w(4) != 0
        cert = mod2.w5_verdict(product)
        assert cert.claim == "not-spin^h" and cert.verdict == "excluded"

    _report(6, "Wu-product obstruction", body)


def test_criterion_07_mayer_4manifold_example():
    def body():
        assert genus.mayer_indicator_4d(3, 3, "+") == 2
        assert genus.mayer_indicator_4d(3, 3, "-") == -1
        assert genus.mayer_indicator_coefficients("+") == (
            Fraction(1, 6),
            Fraction(1, 2),
        )
        assert genus.mayer_indicator_coefficients("-") == (
            Fraction(1, 6),
            Fraction(-1, 2),
        )

    _report(7, "Mayer 4-manifold example", body)


def test_criterion_08_signature_bound_exclusion():
    def body():
        cert = certify.signature_bound_verdict(4, 7, 1)
        assert cert.verdict == "excluded"
        assert (cert.checks[0].lhs, cert.checks[0].rhs) == (1, 4)

    _report(8, "signature-bound exclusion", body)


def test_criterion_09_quaternionic_plane_sanity():
    def body():
        coeffs = genus.l_coefficients(1)
        assert coeffs.s_mm * 4 + coeffs.s_2m * 7 == 1
        a, b = genus.ahat_rhc_coeffs(1)
        assert a * 4 + b * 7 == 0
        model = certify.RHCModel(m=1, middle_betti=1, sigma=1, P2=4, Q=7)
        cert = genus.mayer_integrality_check(model, 1)
        assert cert.verdict == "established"

    _report(9, "quaternionic-plane sanity", body)


def test_criterion_10_pin_table():
    def body():
        labels = [certify.guaranteed_structures(n).pin_structure for n in range(2, 8)]
        assert labels == [
            "pin^-",
            "pin^-",
            "pin^{3+}",
            "pin^{3+}",
            "pin^{5-}",
            "pin^{5-}",
        ]

    _report(10, "Table 1", body)


def test_criterion_11_bundle_formulas():
    def body():
        for k in range(1, 9):
            tensor = mod2.tensor_with_det(k)
            ring = tensor.ring
            w1 = ring.gen("w1")
            expected_w1 = ring.zero() if (k + 1) % 2 == 0 else w1
            assert tensor.component(1) == expected_w1
            if k >= 2:
                w2 = ring.gen("w2")
                if k % 4 in (0, 3):
                    assert tensor.component(2) == w2 + w1 * w1
                else:
                    assert tensor.component(2) == w2

            summed = mod2.sum_with_det(k)
            ring = summed.ring
            w1 = ring.gen("w1")
            assert summed.component(1).is_zero()
            expected_w2 = w1 * w1
            if k >= 2:
                expected_w2 = expected_w2 + ring.gen("w2")
            assert summed.component(2) == expected_w2

            both = mod2.twist_then_sum(k)
            ring = both.ring
            w1 = ring.gen("w1")
            assert both.component(1) == (ring.zero() if k % 2 == 0 else w1)
            expected_w2 = ring.gen("w2") if k >= 2 else ring.zero()
            if k % 4 in (2, 3):
                expected_w2 = expected_w2 + w1 * w1
            assert both.component(2) == expected_w2

    _report(11, "bundle formulas", body)


def test_criterion_12_property_suites():
    def body():
        # genus multiplicativity on 100 random formal bundles
        n = 4
        polys = genus.genus_polynomials(genus.signature_series(n), n)

        def graded_values(total):
            values = {f"p{i}": total[i] for i in range(1, n + 1)}
            return [Fraction(1)] + [p.evaluate(values) for p in polys]

        rng = random.Random(20240817)
        for _ in range(100):
            a = [Fraction(1)] + [
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)
            ]
            b = [Fraction(1)] + [
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)
            ]
            c = [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(n + 1)]
            ka, kb, kc = graded_values(a), graded_values(b), graded_values(c)
            for j in range(n + 1):
                assert kc[j] == sum(ka[i] * kb[j - i] for i in range(j + 1))

        # four-square verification up to 1000
        for x in range(1001):
            quad = exact.four_squares(x)
            assert sum(v * v for v in quad) == x

        # double-twist involution for k <= 8
        for k in range(1, 9):
            ring = mod2.sw_ring(k, extra_degree1=("t",))
            bundle = mod2.generic_bundle(ring, k)
            t = ring.gen("t")
            twice = mod2.line_twist(mod2.line_twist(bundle, t), t)
            for j in range(k + 1):
                assert twice.component(j) == bundle.component(j)

        # realization search re-validates for m in {1, 2}
        for m in (1, 2):
            witness = certify.realization_search(m)
            cert = certify.realization_conditions(m, witness.P2, witness.Q)
            assert cert.verdict == "established"
            assert cert.parameters["sigma"] == witness.sigma

        # Kunneth dimension counts on all shipped models
        models = [
            mod2.wu_manifold(),
            mod2.point_model(),
            mod2.sphere_model(3),
            mod2.sphere_model(5),
        ]
        for a_model in models:
            for b_model in models:
                product = mod2.kunneth(a_model, b_model)
                for d in range(product.dimension + 1):
                    expected = sum(
                        a_model.algebra.dim(i) * b_model.algebra.dim(d - i)
                        for i in range(d + 1)
                    )
                    assert product.algebra.dim(d) == expected

    _report(12, "property suites", body)
