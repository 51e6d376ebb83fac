import ast
import dataclasses
import importlib
import inspect
import itertools
import json
import pkgutil
import random
import types
from collections.abc import Mapping
from fractions import Fraction
from math import factorial, lcm
from pathlib import Path

import pytest

import spincert
from spincert import certificates, certify, cli, genus, mod2
from spincert.certificates import (
    Certificate,
    CertificateError,
    Check,
    ReadOnly,
    exact_to_json,
    pin_label,
    spin_label,
)
from spincert.exact import odd_part


def _mutable_paths(value, path):
    """Paths to the lists, dicts and sets reachable from ``value``, nested certificates included."""
    if isinstance(value, (list, dict, set)):
        yield path
    if isinstance(value, Certificate):
        yield from _mutable_paths(value.parameters, f"{path}.parameters")
        yield from _mutable_paths(value.witnesses, f"{path}.witnesses")
        for check in value.checks:
            yield from _mutable_paths((check.lhs, check.rhs), f"{path}.checks[{check.name!r}]")
    elif isinstance(value, Mapping):
        for key, item in value.items():
            yield from _mutable_paths(item, f"{path}[{key!r}]")
    elif isinstance(value, (tuple, list, set)):
        for i, item in enumerate(value):
            yield from _mutable_paths(item, f"{path}[{i}]")


def _check(cert, name):
    """The one check of ``cert`` named ``name``."""
    [check] = [c for c in cert.checks if c.name == name]
    return check


def rebuilt(cert, **changes):
    """``cert`` with ``changes`` applied, rebuilt through the constructor, which checks it again."""
    fields = {
        "claim": cert.claim,
        "parameters": cert.parameters,
        "checks": cert.checks,
        "verdict": cert.verdict,
        "witnesses": cert.witnesses,
    }
    return Certificate(**{**fields, **changes})


def with_parameter(cert, name, value):
    """``cert`` with parameter ``name`` set to ``value``, or removed when ``value`` is None."""
    parameters = {key: v for key, v in cert.parameters.items() if key != name}
    if value is not None:
        parameters[name] = value
    return rebuilt(cert, parameters=parameters)


class TestRealizationConditions:
    def test_family_member(self):
        cert = certify.realization_conditions(1, 57600, 8235)
        assert cert.verdict == "established"
        assert cert.parameters["sigma"] == 1
        assert _check(cert, "condition (ii) value").lhs == Fraction(45255, 2)

    def test_quaternionic_plane(self):
        cert = certify.realization_conditions(1, 4, 7)
        assert cert.verdict == "established"
        assert cert.parameters["sigma"] == 1
        assert _check(cert, "condition (ii) value").lhs == Fraction(1, 2)

    def test_zero_model(self):
        cert = certify.realization_conditions(1, 0, 0)
        assert cert.verdict == "established"
        assert cert.parameters["sigma"] == 0

    def test_non_integer_sigma_is_inconclusive(self):
        cert = certify.realization_conditions(1, 1, 0)
        assert cert.verdict == "inconclusive"
        assert cert.parameters["sigma"] == Fraction(-1, 45)

    def test_non_dyadic_condition_recorded(self):
        cert = certify.realization_conditions(1, 45, 45)
        # sigma = -1 + 7 = 6 integral, but (ii) = 45*5/12 - 45/6 = 85/8? dyadic;
        # use a case violating (ii): P2 = 2, Q = 31 gives sigma = 467/45
        cert = certify.realization_conditions(1, 2, 31)
        assert cert.verdict == "inconclusive"


class TestRealizationSearch:
    @pytest.mark.parametrize("m", [1, 2])
    def test_revalidates(self, m):
        witness = certify.realization_search(m)
        cert = certify.realization_conditions(m, witness.P2, witness.Q)
        assert cert.verdict == "established"
        assert cert.parameters["sigma"] == witness.sigma
        assert witness.sigma % 2 == 1 and witness.sigma > 4
        assert sum(a * a for a in witness.four_square) == witness.P2

    def test_m1_satisfies_family_equation(self):
        witness = certify.realization_search(1)
        assert 7 * witness.Q - witness.P2 == 45 * witness.sigma

    def test_sigma_min(self):
        witness = certify.realization_search(1, sigma_min=101)
        assert witness.sigma >= 101
        assert witness.sigma % 2 == 1

    def test_not_power_of_two(self):
        with pytest.raises(ValueError):
            certify.realization_search(3)
        with pytest.raises(ValueError):
            certify.realization_search(0)

    def test_deterministic(self):
        assert certify.realization_search(1) == certify.realization_search(1)


def _walk(a, b, target):
    """Slow oracle: try the signed odd multipliers 1, -1, 3, -3, ... in order."""
    for magnitude in itertools.count(1, 2):
        for t in (magnitude, -magnitude):
            sigma = a + b * t
            if sigma.denominator == 1 and sigma >= target:
                return t


def _recipe(m):
    """(s_mm * x, s_2m * y0, x, y0) of the power-of-two recipe, recomputed."""
    coeffs = genus.l_coefficients(m)
    c1 = Fraction((-1) ** (m + 1), factorial(2 * m - 1)) * coeffs.s_m + Fraction(
        1, 2 * factorial(4 * m - 1)
    )
    x0 = lcm(odd_part(c1.denominator), odd_part(factorial(2 * m - 1) ** 2))
    x = x0 * (coeffs.s_mm * x0).denominator * 2
    y0 = lcm(coeffs.s_2m.denominator, odd_part(factorial(4 * m - 1)))
    return coeffs.s_mm * x, coeffs.s_2m * y0, x, y0


def _walk_witness(m, sigma_min):
    a, b, x, y0 = _recipe(m)
    t = _walk(a, b, max(5, sigma_min))
    return a + b * t, x, y0 * t


class TestClosedFormMultiplier:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_matches_the_walk(self, m):
        for sigma_min in range(-3, 2001):
            witness = certify.realization_search(m, sigma_min)
            assert (witness.sigma, witness.P2, witness.Q) == _walk_witness(m, sigma_min)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_matches_the_walk_at_each_switch(self, m):
        # a witness sigma is the last sigma_min it answers; one more switches
        # to the next multiplier
        sigma_min = -3
        for _ in range(25):
            sigma = certify.realization_search(m, sigma_min).sigma
            for value in (sigma, sigma + 1):
                witness = certify.realization_search(m, value)
                assert (witness.sigma, witness.P2, witness.Q) == _walk_witness(m, value)
            sigma_min = sigma + 1

    def test_helper_matches_the_walk(self):
        rng = random.Random(5)
        for _ in range(4000):
            a = rng.randint(-2000, 2000)
            b = rng.choice((1, -1)) * rng.randrange(1, 400, 2)
            target = rng.randint(-2000, 2000)
            assert certify._multiplier(a, b, target) == _walk(Fraction(a), b, target)

    def test_sigma_min_far_beyond_any_walk(self):
        witness = certify.realization_search(1, 10**9)
        assert (witness.sigma, witness.P2, witness.Q) == (1000000013, 90, 6428571525)


class TestPoincareWitness:
    def test_example(self):
        witness = certify.poincare_witness(5, 45, 9)
        assert witness.four_square == (6, 2, 2, 1)
        assert "alpha_1..alpha_5" in witness.algebra_note

    def test_zero(self):
        assert certify.poincare_witness(5, 0, 0).four_square == (0, 0, 0, 0)

    def test_sigma_too_small(self):
        with pytest.raises(ValueError):
            certify.poincare_witness(3, 45, 9)

    def test_negative_p2(self):
        with pytest.raises(ValueError):
            certify.poincare_witness(5, -4, 9)

    @pytest.mark.parametrize(
        "sigma, P2, message",
        [
            (6, 45, "odd integer > 4"),
            (3, 45, "odd integer > 4"),
            (5, 46, "does not sum to P2"),
        ],
        ids=["even-sigma", "sigma-at-most-four", "squares-miss-P2"],
    )
    def test_witness_fields_checked(self, sigma, P2, message):
        with pytest.raises(ValueError, match=message):
            certify.RealizationWitness(sigma, P2, 9, (6, 2, 2, 1), "note")


class TestSignatureBound:
    def test_dimension_32_spin7(self):
        cert = certify.signature_bound_verdict(4, 7, 1)
        assert cert.verdict == "excluded"
        assert cert.claim == "not-spin^7"
        check = cert.checks[0]
        assert (check.lhs, check.rhs) == (1, 4)

    def test_vacuous_bound(self):
        cert = certify.signature_bound_verdict(1, 1, 1)
        assert cert.verdict == "inconclusive"
        assert cert.checks[0].rhs == -1

    def test_dimension_64(self):
        cert = certify.signature_bound_verdict(8, 3, 1)
        assert cert.verdict == "excluded"
        assert cert.checks[0].rhs == 20

    def test_preconditions(self):
        with pytest.raises(ValueError):
            certify.signature_bound_verdict(1, 2, 1)
        with pytest.raises(ValueError):
            certify.signature_bound_verdict(4, 7, 0)

    def test_monotone_in_l(self):
        # excluding at l excludes at every smaller l with the same (m, sigma)
        for m in (2, 4, 8):
            for sigma in (1, 3, 6):
                excluded_at = [
                    k
                    for k in range(1, 2 * m)
                    if certify.signature_bound_verdict(m, k, sigma).verdict
                    == "excluded"
                ]
                if excluded_at:
                    top = max(excluded_at)
                    assert excluded_at == list(range(1, top + 1))


class TestBoundExclusionDimension:
    def test_known_values(self):
        assert certify.bound_exclusion_dimension(7) == 32
        assert certify.bound_exclusion_dimension(3) == 32
        assert certify.bound_exclusion_dimension(1) == 32

    def test_consistency_with_verdict(self):
        for k in (1, 2, 3, 7, 9, 15):
            dimension = certify.bound_exclusion_dimension(k)
            m = dimension // 8
            assert certify.signature_bound_verdict(m, k, 1).verdict == "excluded"
            # no smaller power of two works
            smaller = m // 2
            while smaller >= 1:
                if k < 2 * smaller:
                    assert (
                        certify.signature_bound_verdict(smaller, k, 1).verdict
                        == "inconclusive"
                    )
                smaller //= 2


class TestNonSpinh8Family:
    def test_a0(self):
        cert = certify.nonspinh8_certificate(0)
        assert cert.verdict == "excluded"
        assert cert.claim == "not-spin^h"
        assert (cert.parameters["x"], cert.parameters["y"]) == (240, 8235)
        assert _check(cert, "(y - 6) mod 48").lhs == 21

    def test_a1(self):
        cert = certify.nonspinh8_certificate(1)
        assert (cert.parameters["x"], cert.parameters["y"]) == (72, 747)
        assert 7 * 747 - 72 * 72 == 45

    def test_family_range(self):
        seen = set()
        for a in range(-50, 51):
            cert = certify.nonspinh8_certificate(a)
            x, y = cert.parameters["x"], cert.parameters["y"]
            assert 7 * y - x * x == 45
            assert (y - 6) % 48 == 21
            assert cert.verdict == "excluded"
            seen.add((x * x, y))
        assert len(seen) == 101  # distinct Pontryagin numbers for distinct a


@dataclasses.dataclass(frozen=True)
class FourManifoldDatum:
    """Classical closed 4-manifold data paired with a structure's p1(E)."""

    name: str
    sigma: int
    euler: int
    p1: int
    p1_E: int  # 0 for a spin structure, c^2 for a spin^c structure


FOUR_MANIFOLD_DATA = (
    FourManifoldDatum("S^4", 0, 2, 0, 0),
    FourManifoldDatum("S^2 x S^2", 0, 4, 0, 0),
    FourManifoldDatum("CP^2", 1, 3, 3, 9),
    FourManifoldDatum("CP^2 (reversed)", -1, 3, -3, -9),
    FourManifoldDatum("CP^2 # CP^2", 2, 4, 6, 18),
    FourManifoldDatum("K3", -16, 24, -48, 0),
)


class TestW4Lift:
    def test_spin_case(self):
        assert certify.w4_lift(-48, 0) == -24

    def test_spinc_case(self):
        lift = certify.w4_lift(3, 9)
        assert lift == -3
        assert lift % 2 == 1

    def test_zero(self):
        assert certify.w4_lift(0, 0) == 0

    def test_spin4_variants(self):
        assert certify.w4_lift(3, 3, "spin4_plus", euler_E=2) == -2
        assert certify.w4_lift(3, 3, "spin4_minus", euler_E=2) == 2

    def test_odd_difference_rejected(self):
        with pytest.raises(certify.InconsistentLiftError, match="inconsistent input"):
            certify.w4_lift(3, 0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            certify.w4_lift(0, 0, "dual")

    def test_parity_matches_euler_on_shipped_data(self):
        # on a closed oriented 4-manifold w4 reduces to the Euler number mod 2
        for datum in FOUR_MANIFOLD_DATA:
            lift = certify.w4_lift(datum.p1, datum.p1_E)
            assert lift % 2 == datum.euler % 2
            assert datum.p1 == 3 * datum.sigma


class TestGuaranteedStructures:
    def test_table_row_labels(self):
        rows = [certify.guaranteed_structures(n) for n in range(2, 8)]
        assert [r.pin_structure for r in rows] == [
            "pin^-",
            "pin^-",
            "pin^{3+}",
            "pin^{3+}",
            "pin^{5-}",
            "pin^{5-}",
        ]
        assert [r.orientable_label for r in rows] == [
            "spin",
            "spin",
            "spin^c",
            "spin^h",
            "spin^h",
            "spin^h",
        ]

    def test_cohen_codimension(self):
        assert certify.guaranteed_structures(5).cohen_k == 3
        assert certify.guaranteed_structures(8).cohen_k == 7

    def test_higher_dimensions(self):
        row8 = certify.guaranteed_structures(8)
        assert row8.orientable_label == "spin^7"
        assert row8.pin_structure == "pin^{7+}"
        row12 = certify.guaranteed_structures(12)  # k = 10 = 2 mod 4
        assert row12.pin_structure == "pin^{11+}"
        row16 = certify.guaranteed_structures(16)  # k = 15 = 3 mod 4
        assert row16.pin_structure == "pin^{15+}"
        row17 = certify.guaranteed_structures(17)  # k = 15
        assert row17.pin_structure == "pin^{15+}"
        row20 = certify.guaranteed_structures(20)  # k = 18 = 2 mod 4
        assert row20.pin_structure == "pin^{19+}"
        row21 = certify.guaranteed_structures(21)  # k = 18
        assert row21.pin_structure == "pin^{19+}"
        row24 = certify.guaranteed_structures(24)  # k = 22 = 2 mod 4
        assert row24.pin_structure == "pin^{23+}"
        row9 = certify.guaranteed_structures(9)  # k = 7 = 3 mod 4
        assert row9.pin_structure == "pin^{7+}"
        row11 = certify.guaranteed_structures(11)  # k = 8 = 0 mod 4
        assert row11.pin_structure == "pin^{9-}"
        row13 = certify.guaranteed_structures(13)  # k = 10 = 2 mod 4
        assert row13.pin_structure == "pin^{11+}"

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            certify.guaranteed_structures(1)


class TestKleinObstruction:
    def test_from_dimension8_family(self):
        base = certify.nonspinh8_certificate(0)
        cert = certify.klein_product_pin_obstruction(base)
        assert cert.verdict == "excluded"
        assert cert.claim == "not-pin^{3+}-and-not-pin^{3-}"
        assert cert.parameters["dimension"] == 10
        assert cert.witnesses["factor_certificate"].claim == "not-spin^h"

    def test_document_survives_json(self):
        base = certify.nonspinh8_certificate(0)
        doc = certify.klein_product_pin_obstruction(base).to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["witnesses"]["factor_certificate"] == base.to_dict()

    def test_from_wu_square(self):
        base = mod2.w5_verdict(mod2.kunneth(mod2.wu_manifold(), mod2.wu_manifold()))
        cert = certify.klein_product_pin_obstruction(base)
        assert cert.parameters["dimension"] == 12
        assert cert.claim == "not-pin^{3+}-and-not-pin^{3-}"

    def test_from_signature_bound(self):
        base = certify.signature_bound_verdict(4, 7, 1)
        cert = certify.klein_product_pin_obstruction(base)
        assert cert.claim == "not-pin^{7+}-and-not-pin^{7-}"
        assert cert.parameters["dimension"] == 34

    def test_rejects_inconclusive(self):
        base = certify.signature_bound_verdict(1, 1, 1)
        with pytest.raises(CertificateError):
            certify.klein_product_pin_obstruction(base)

    def test_rejects_an_established_input(self):
        base = genus.mayer_integrality_check(certify.RHCModel(1, 1, 1, 4, 7), 1)
        assert base.verdict == "established"
        with pytest.raises(CertificateError, match="does not carry the verdict 'excluded'"):
            certify.klein_product_pin_obstruction(base)

    def test_rejects_an_exclusion_of_another_claim(self):
        # the parameters carry k = 3 (spin^h), but the claim excludes spin^c
        base = rebuilt(certify.nonspinh8_certificate(0), claim="not-spin^c")
        with pytest.raises(CertificateError, match="does not exclude a spin\\^k structure"):
            certify.klein_product_pin_obstruction(base)

    @pytest.mark.parametrize("k", [True, 0, "3", None], ids=["bool", "zero", "string", "missing"])
    def test_an_exclusion_without_an_int_k_is_refused(self, k):
        base = with_parameter(certify.nonspinh8_certificate(0), "k", k)
        with pytest.raises(CertificateError, match="does not exclude a spin\\^k structure"):
            certify.klein_product_pin_obstruction(base)

    @pytest.mark.parametrize(
        "dimension",
        [None, True, -1, "8", Fraction(8)],
        ids=["missing", "bool", "negative", "string", "fraction"],
    )
    def test_an_exclusion_without_a_dimension_is_refused(self, dimension):
        base = with_parameter(certify.nonspinh8_certificate(0), "dimension", dimension)
        with pytest.raises(CertificateError, match="records no dimension"):
            certify.klein_product_pin_obstruction(base)

    def test_an_exclusion_with_a_failed_check_is_refused(self):
        # an inconclusive certificate relabelled as an exclusion past the freeze;
        # a rebuild through the constructor refuses the relabelling (TestCertificateType)
        base = certify.realization_conditions(1, 1, 1)
        assert base.verdict == "inconclusive"
        assert not all(c.passed for c in base.checks)
        base = rebuilt(base, parameters={**base.parameters, "k": 3, "orientable": True})
        object.__setattr__(base, "claim", "not-spin^h")
        object.__setattr__(base, "verdict", "excluded")
        with pytest.raises(CertificateError, match="failed checks"):
            certify.klein_product_pin_obstruction(base)


def _uncalled_public_functions(module, sources):
    """Public functions of ``module`` that no code in ``sources`` calls or uses.

    A use is a name read as a value: a call, or a reference such as
    ``set_defaults(handler=...)`` or a table entry.  A name that appears only
    in a docstring or a comment is not one.
    """
    public = {
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    }
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return public - used


def _unread_public_members(module, sources):
    """Public methods and properties of ``module``'s public classes that ``sources`` never read.

    A read is an attribute load, ``value.name``, anywhere in ``sources``.  The
    match is by name alone: a member that shares its name with another member
    read anywhere (``PontryaginPolynomial.is_zero`` with ``F2Poly.is_zero``) is
    not caught.
    """
    members = {
        (class_name, name)
        for class_name, cls in vars(module).items()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
        and not class_name.startswith("_")
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and isinstance(value, (types.FunctionType, staticmethod, classmethod, property))
    }
    read = {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {f"{class_name}.{name}" for class_name, name in members if name not in read}


class TestCallers:
    # ROADMAP items 6 and 17 give the Klein combinator its caller
    UNCALLED = {"klein_product_pin_obstruction"}
    SOURCES = [p.read_text() for p in Path(spincert.__file__).parent.glob("*.py")]
    ACCEPTANCE = (Path(__file__).parent / "test_acceptance.py").read_text()

    def test_every_public_certify_function_is_called_in_src(self):
        assert _uncalled_public_functions(certify, self.SOURCES) == self.UNCALLED

    @pytest.mark.parametrize("module", [mod2, genus], ids=["mod2", "genus"])
    def test_every_public_function_is_called_in_src_or_the_acceptance_suite(self, module):
        # the acceptance suite is the fixed behaviour, so a call there counts
        assert _uncalled_public_functions(module, [*self.SOURCES, self.ACCEPTANCE]) == set()

    @pytest.mark.parametrize(
        "module, unread",
        [
            (certify, set()),
            (mod2, set()),
            # bench/spans.py reads terms; ROADMAP item 1 moves it onto numerators
            (genus, {"PontryaginPolynomial.terms"}),
            (certificates, set()),
        ],
        ids=["certify", "mod2", "genus", "certificates"],
    )
    def test_every_public_member_is_read_in_src_or_the_acceptance_suite(self, module, unread):
        assert _unread_public_members(module, [*self.SOURCES, self.ACCEPTANCE]) == unread

    def test_a_member_is_matched_by_name_alone(self):
        source = (
            "class Kept:\n"
            "    def shared(self):\n"
            '        """Unlike self.unread(), this one is read."""\n'
            "    def unread(self):\n"
            "        pass\n"
            "class Other:\n"
            "    def shared(self):\n"
            "        pass\n"
            "Kept().shared()\n"
        )
        module = types.ModuleType("members_example")
        exec(source, module.__dict__)
        assert _unread_public_members(module, [source]) == {"Kept.unread"}

    def test_a_name_in_a_docstring_is_not_a_call(self):
        # product_w5_verdict's docstring writes "w5_verdict(kunneth(a, b))",
        # but only the acceptance suite calls w5_verdict
        assert any("w5_verdict(" in source for source in self.SOURCES)
        assert "w5_verdict" in _uncalled_public_functions(mod2, self.SOURCES)

    def test_calls_and_value_references_count(self):
        source = (
            "def called():\n"
            '    """Unlike documented(), this one is called."""\n'
            "def referenced():\n"
            "    pass\n"
            "def documented():\n"
            "    pass\n"
            "TABLE = {'r': referenced}\n"
            "called()  # documented() is not called here\n"
        )
        module = types.ModuleType("callers_example")
        exec(source, module.__dict__)
        assert _uncalled_public_functions(module, [source]) == {"documented"}


class TestRHCModel:
    def test_betti_bound(self):
        with pytest.raises(ValueError):
            certify.RHCModel(1, 0, 1, 4, 7)

    def test_notation_bridge_on_dim8_family(self):
        # theorem notation: x = P2, y = Q; the dimension-8 section's x has P2 = x^2
        cert = certify.nonspinh8_certificate(2)
        x = cert.parameters["x"]
        assert cert.parameters["P2"] == x * x
        assert cert.parameters["Q"] == cert.parameters["y"]


class TestCertificateType:
    def test_verdict_requires_passing_checks(self):
        with pytest.raises(CertificateError):
            Certificate(
                claim="x",
                parameters={},
                checks=[Check("failing", 1, 2, "=", False)],
                verdict="established",
            )

    def test_inconclusive_may_fail(self):
        cert = Certificate(
            claim="x",
            parameters={},
            checks=[Check("failing", 1, 2, "=", False)],
            verdict="inconclusive",
        )
        assert not cert.checks[0].passed

    def test_json_round_trip(self):
        cert = certify.nonspinh8_certificate(0)
        doc = json.loads(json.dumps(cert.to_dict()))
        assert doc["claim"] == "not-spin^h"
        assert doc["verdict"] == "excluded"
        assert doc["parameters"]["P2"] == 57600
        assert doc["checks"][0]["lhs"] == 45

    def test_rationals_serialize_as_strings(self):
        cert = genus.mayer_integrality_check(
            certify.RHCModel(1, 1, 1, 57600, 8235), 1
        )
        doc = json.loads(json.dumps(cert.to_dict()))
        assert doc["parameters"]["integral(ahat)"] == "2057/32"

    def test_floats_rejected(self):
        with pytest.raises(CertificateError):
            exact_to_json(0.5)

    def test_sets_rejected(self):
        with pytest.raises(CertificateError, match="cannot serialize value of type set"):
            exact_to_json({1})

    def test_unknown_verdict_refused(self):
        with pytest.raises(CertificateError, match="unknown verdict 'maybe'"):
            Certificate(claim="x", parameters={}, checks=[], verdict="maybe")

    def test_replace_applies_the_checks_rule_again(self):
        base = certify.realization_conditions(1, 1, 1)
        with pytest.raises(CertificateError, match="requires all checks to pass"):
            rebuilt(base, claim="not-spin^h", verdict="excluded")

    @pytest.mark.parametrize(
        "write",
        [
            lambda cert: setattr(cert, "claim", "not-spin^c"),
            lambda cert: setattr(cert, "verdict", "inconclusive"),
            lambda cert: setattr(cert, "checks", ()),
            lambda cert: setattr(cert.checks[0], "passed", False),
        ],
        ids=["claim", "verdict", "checks", "check-passed"],
    )
    def test_fields_cannot_be_assigned(self, write):
        cert = certify.nonspinh8_certificate(0)
        with pytest.raises(AttributeError, match="is read-only: cannot assign"):
            write(cert)
        assert cert == certify.nonspinh8_certificate(0)

    def test_collections_are_read_only_copies(self):
        checks = [Check("passing", 1, 1, "=", True)]
        parameters = {"k": 3}
        witnesses = {"x": [1, 2]}
        cert = Certificate("x", parameters, checks, "established", witnesses)
        checks.append(Check("failing", 1, 2, "=", False))
        parameters["k"] = 1
        witnesses["y"] = 0
        assert cert.checks == (Check("passing", 1, 1, "=", True),)
        assert dict(cert.parameters) == {"k": 3}
        assert dict(cert.witnesses) == {"x": [1, 2]}
        for mapping in (cert.parameters, cert.witnesses):
            with pytest.raises(TypeError):
                mapping["k"] = 1
        assert cert.to_dict()["witnesses"] == {"x": [1, 2]}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: certify.realization_conditions(1, 4, 7),
            lambda: certify.signature_bound_verdict(4, 7, 1),
            lambda: certify.nonspinh8_certificate(0),
            lambda: genus.mayer_integrality_check(certify.RHCModel(2, 33, 33, 45, 1230), 3),
            lambda: mod2.w5_verdict(mod2.kunneth(mod2.wu_manifold(), mod2.wu_manifold())),
            lambda: certify.klein_product_pin_obstruction(certify.nonspinh8_certificate(0)),
        ],
        ids=["realization", "bound", "non-spinh8", "mayer", "w5", "klein"],
    )
    def test_nothing_mutable_inside_a_certificate(self, build):
        assert list(_mutable_paths(build(), "certificate")) == []

    def test_every_spincert_class_is_read_only(self):
        # every class a spincert module defines, except exceptions and the argparse subclass
        found = {}
        for info in pkgutil.iter_modules(spincert.__path__):
            module = importlib.import_module(f"spincert.{info.name}")
            for value in vars(module).values():
                if (
                    isinstance(value, type)
                    and value.__module__ == module.__name__
                    and not issubclass(value, BaseException)
                    and value is not cli._Parser
                ):
                    found[value.__qualname__] = value
        assert {"Check", "Certificate", "F2Algebra", "F2Ring", "PontryaginPolynomial"} <= set(found)
        for cls in found.values():
            assert issubclass(cls, ReadOnly), cls
            assert "__slots__" in vars(cls), cls
            value = cls.__new__(cls)
            assert not hasattr(value, "__dict__"), cls
            for name in [*cls.__slots__, "unknown"]:
                with pytest.raises(AttributeError, match="is read-only: cannot assign"):
                    setattr(value, name, 0)
                with pytest.raises(AttributeError, match="is read-only: cannot delete"):
                    delattr(value, name)

    @pytest.mark.parametrize(
        "call, message",
        [(lambda: spin_label(0), "k must be >= 1"), (lambda: pin_label(1, "x"), "sign must be")],
        ids=["spin-k-zero", "pin-sign"],
    )
    def test_label_arguments_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
