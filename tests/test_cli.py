import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from math import factorial, lcm
from pathlib import Path

import pytest

from spincert import cli, mod2
from spincert.cli import load_model, run
from spincert.exact import bernoulli

GOLDEN = Path(__file__).parent / "golden"


def _json_leaves(value, acc):
    if isinstance(value, dict):
        for v in value.values():
            _json_leaves(v, acc)
    elif isinstance(value, list):
        for v in value:
            _json_leaves(v, acc)
    elif isinstance(value, bool) or value is None:
        pass
    elif isinstance(value, int):
        acc.append(str(value))
    elif isinstance(value, str) and "/" in value:
        acc.append(value)  # rationals rendered as numerator/denominator
    return acc


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "name, argv, code",
        [
            ("non-spinh8-a0.json", ["non-spinh8", "--a", "0", "--json"], 1),
            ("non-spinh8-a0.txt", ["non-spinh8", "--a", "0"], 1),
            ("wu-product.json", ["wu-product", "--json"], 1),
            ("bound-m4-k7.json", ["bound", "--m", "4", "--k", "7", "--sigma", "1", "--json"], 1),
            ("pin-table.json", ["pin-table", "--max-dim", "7", "--json"], 0),
            ("realize-m1.json", ["realize", "--m", "1", "--json"], 0),
            ("genus-L-12.txt", ["genus", "--series", "L", "--degree", "12"], 0),
            (
                "genus-ahat-12.json",
                ["genus", "--series", "ahat", "--degree", "12", "--json"],
                0,
            ),
            ("genus-mayer-12.txt", ["genus", "--series", "mayer", "--degree", "12"], 0),
        ],
    )
    def test_byte_for_byte(self, name, argv, code):
        got_code, document = run(argv)
        assert got_code == code
        assert (document + "\n").encode() == (GOLDEN / name).read_bytes()

    def test_byte_stable_across_runs(self):
        first = run(["non-spinh8", "--a", "0", "--json"])
        second = run(["non-spinh8", "--a", "0", "--json"])
        assert first == second


class TestExitCodes:
    def test_established_is_zero(self):
        assert run(["s-coeffs", "--m", "1"])[0] == 0
        assert run(["realize", "--m", "1", "--p2", "4", "--q", "7"])[0] == 0

    def test_excluded_is_one(self):
        assert run(["non-spinh8", "--a", "0"])[0] == 1
        assert run(["wu-product"])[0] == 1
        assert run(["bound", "--m", "4", "--k", "7", "--sigma", "1"])[0] == 1
        assert run(["mayer-check", "--m", "1", "--k", "1", "--p2", "57600", "--q", "8235"])[0] == 1

    def test_inconclusive_is_zero(self):
        assert run(["bound", "--m", "1", "--k", "1", "--sigma", "1"])[0] == 0

    def test_usage_errors_are_two(self):
        assert run(["non-spinh8"])[0] == 2  # missing --a
        assert run(["non-spinh8", "--a", "0", "--unknown"])[0] == 2
        assert run(["no-such-command"])[0] == 2
        assert run([])[0] == 2
        assert run(["realize", "--m", "1", "--p2", "4"])[0] == 2
        assert run(["bound", "--k", "1"])[0] == 2
        assert run(["realize", "--m", "3"])[0] == 2  # not a power of two
        assert run(["mayer-check", "--m", "1", "--k", "3", "--p2", "4", "--q", "7"])[0] == 2

    @pytest.mark.parametrize("series", ["L", "ahat", "mayer"])
    def test_nonpositive_degree_is_two(self, series):
        code, document = run(["genus", "--series", series, "--degree", "-1"])
        assert code == 2
        assert "degree must be >= 1" in document

    def test_degree_budget_is_two(self, monkeypatch):
        def build(degree):
            raise AssertionError("a series was built past the budget")

        monkeypatch.setitem(cli._SERIES, "L", build)
        code, document = run(["genus", "--series", "L", "--degree", "25"])
        assert code == 2
        assert document == "genus: --degree must be <= 24"

    def test_unexpected_exception_is_three(self, monkeypatch, capsys):
        def crash(argv):
            raise RuntimeError("broken\ninvariant")

        monkeypatch.setattr(cli, "run", crash)
        monkeypatch.setattr(sys, "argv", ["spincert", "s-coeffs", "--m", "1"])
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert exit_info.value.code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "spincert: internal error: RuntimeError: broken invariant\n"

    def test_closed_stdout_is_141(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # nobody is left to read when the child writes
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from spincert.cli import main; main()", "pin-table"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""

    def test_usage_message_names_problem(self):
        code, document = run(["non-spinh8"])
        assert code == 2
        assert "--a" in document


class TestDocuments:
    def test_s_coeffs_text(self):
        code, document = run(["s-coeffs", "--m", "1"])
        assert document == "s_m = 1/3, s_mm = -1/45, s_2m = 7/45"

    def test_json_and_text_carry_same_numbers(self):
        for argv in (
            ["non-spinh8", "--a", "3"],
            ["bound", "--m", "4", "--k", "7", "--sigma", "1"],
            ["s-coeffs", "--m", "2"],
            ["mayer-check", "--m", "1", "--k", "1", "--p2", "57600", "--q", "8235"],
            ["pin-table", "--max-dim", "7"],
            ["realize", "--m", "1"],
            ["w4-lift", "--p1-m", "-48", "--p1-e", "0"],
            ["genus", "--series", "L", "--degree", "2"],
        ):
            _, text = run(argv)
            _, as_json = run(argv + ["--json"])
            for leaf in _json_leaves(json.loads(as_json), []):
                assert leaf in text, f"{leaf!r} missing from text output of {argv}"

    def test_genus_output(self):
        code, document = run(["genus", "--series", "L", "--degree", "2", "--json"])
        doc = json.loads(document)
        assert doc["polynomials"]["K1"] == "1/3*p1"
        assert doc["polynomials"]["K2"] == "-1/45*p1^2 + 7/45*p2"

    def test_w4_lift_inconsistent(self):
        code, document = run(["w4-lift", "--p1-m", "3", "--p1-e", "0", "--json"])
        assert code == 1
        doc = json.loads(document)
        assert doc["verdict"] == "excluded"
        assert "no spin^h structure" in doc["error"]

    def test_pin_table_rows(self):
        code, document = run(["pin-table", "--max-dim", "4", "--json"])
        rows = json.loads(document)["rows"]
        assert [r["dimension"] for r in rows] == [2, 3, 4]
        assert rows[-1]["pin_structure"] == "pin^{3+}"

    def test_help(self):
        code, document = run(["--help"])
        assert code == 0


def _bernoulli_s_coeffs(m):
    """(s_m, s_mm, s_2m) from Bernoulli numbers (unsigned, B_1 = 1/6)."""

    def power_sum_coeff(n):
        return Fraction(4**n * (2 ** (2 * n - 1) - 1), factorial(2 * n)) * bernoulli(n)

    s_m, s_2m = power_sum_coeff(m), power_sum_coeff(2 * m)
    return s_m, (s_m * s_m - s_2m) / 2, s_2m


class TestLargeM:
    def test_s_coeffs_m32(self):
        code, document = run(["s-coeffs", "--m", "32", "--json"])
        assert code == 0
        doc = json.loads(document)
        got = tuple(Fraction(doc[key]) for key in ("s_m", "s_mm", "s_2m"))
        assert got == _bernoulli_s_coeffs(32)

    def test_realize_conditions_m16(self):
        s_m, s_mm, s_2m = _bernoulli_s_coeffs(16)
        step = lcm(s_mm.denominator, s_2m.denominator)
        P2, Q = 3 * step, -5 * step
        code, document = run(
            ["realize", "--m", "16", "--p2", str(P2), "--q", str(Q), "--json"]
        )
        assert code == 0
        doc = json.loads(document)
        sigma = s_mm * P2 + s_2m * Q
        assert sigma.denominator == 1
        assert doc["parameters"]["sigma"] == int(sigma)
        assert Fraction(doc["parameters"]["s_m"]) == s_m
        assert doc["checks"][0]["passed"]


class TestModelLoading:
    def test_shipped_wu_model(self, tmp_path):
        path = resources.files("spincert").joinpath("data/wu.json")
        model = load_model(str(path))
        assert model == mod2.wu_manifold()

    def test_shipped_rhc_model(self):
        path = resources.files("spincert").joinpath("data/rhc8-a0.json")
        model = load_model(str(path))
        assert (model.m, model.sigma, model.P2, model.Q) == (1, 1, 57600, 8235)

    def test_wu_product_with_model_file_matches_builtin(self):
        path = resources.files("spincert").joinpath("data/wu.json")
        assert run(["wu-product", "--model", str(path), "--json"]) == run(
            ["wu-product", "--json"]
        )

    def test_wu_product_on_a_million_dimensional_sphere(self, tmp_path):
        # Kunneth sums and model checks visit declared degrees only, not every degree
        sphere = mod2.sphere_model(10**6)
        path = tmp_path / "sphere.json"
        path.write_text(mod2.space_model_to_json(sphere))
        code, document = run(["wu-product", "--model", str(path), "--json"])
        assert code == 0
        assert json.loads(document)["parameters"]["H4_integral"] == "0"
        groups = mod2.kunneth(sphere, sphere).int_profile.groups
        assert groups == {0: (1, ()), 10**6: (2, ()), 2 * 10**6: (1, ())}

    def test_mayer_check_with_model_file(self):
        path = resources.files("spincert").joinpath("data/rhc8-a0.json")
        code, document = run(["mayer-check", "--model", str(path), "--k", "1", "--json"])
        assert code == 1
        assert json.loads(document)["parameters"]["integral(ahat)"] == "2057/32"

    def test_missing_field_exit_two(self, tmp_path):
        doc = json.loads(mod2.space_model_to_json(mod2.wu_manifold()))
        del doc["sw"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, document = run(["wu-product", "--model", str(path)])
        assert code == 2
        assert "'sw'" in document

    def test_non_associative_table_exit_two(self, tmp_path):
        doc = {
            "name": "broken",
            "dimension": 6,
            "basis": [["1", 0], ["a", 2], ["b", 2], ["c", 4], ["d", 6]],
            "unit": "1",
            "products": [["a", "a", ["c"]], ["b", "b", ["c"]], ["a", "c", ["d"]]],
            "sw": {},
            "int_profile": {
                "0": {"free": 1, "torsion": []},
                "2": {"free": 2, "torsion": []},
                "4": {"free": 1, "torsion": []},
                "6": {"free": 1, "torsion": []},
            },
        }
        path = tmp_path / "nonassoc.json"
        path.write_text(json.dumps(doc))
        code, document = run(["wu-product", "--model", str(path)])
        assert code == 2
        assert "associative" in document and "(" in document

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["sw"].update({"2": [["z2"]]}),
            lambda doc: doc["products"][0].__setitem__(2, [["z5"]]),
            lambda doc: doc["sw"].update({"+3": doc["sw"].pop("3")}),
            lambda doc: doc.update(dimension=1000),
        ],
        ids=["sw-nested-list", "products-nested-list", "degree-key-plus", "dimension-1000"],
    )
    def test_malformed_model_exit_two(self, tmp_path, edit):
        doc = json.loads(mod2.space_model_to_json(mod2.wu_manifold()))
        edit(doc)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, document = run(["wu-product", "--model", str(path)])
        assert code == 2
        assert document.startswith("spincert wu-product: error:")

    def test_invalid_json_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, document = run(["wu-product", "--model", str(path)])
        assert code == 2

    def test_missing_file_exit_two(self):
        code, document = run(["wu-product", "--model", "/no/such/file.json"])
        assert code == 2

    def test_rhc_field_type_checked(self, tmp_path):
        path = tmp_path / "rhc.json"
        path.write_text(json.dumps({"m": 1, "middle_betti": 1, "sigma": "x", "P2": 0, "Q": 0}))
        code, document = run(["mayer-check", "--model", str(path), "--k", "1"])
        assert code == 2
        assert "'sigma'" in document

    def test_model_kind_mismatch(self, tmp_path):
        space = resources.files("spincert").joinpath("data/wu.json")
        code, _ = run(["mayer-check", "--model", str(space), "--k", "1"])
        assert code == 2
        rhc = resources.files("spincert").joinpath("data/rhc8-a0.json")
        code, _ = run(["wu-product", "--model", str(rhc)])
        assert code == 2


class TestMayerCheckFlags:
    def test_sigma_computed_from_l_genus(self):
        code, document = run(
            ["mayer-check", "--m", "1", "--k", "1", "--p2", "4", "--q", "7", "--json"]
        )
        assert code == 0
        doc = json.loads(document)
        assert doc["claim"] == "mayer-integrality-consistent"
        assert doc["parameters"]["integral(ahat)"] == 0

    def test_inconsistent_numbers_rejected(self):
        code, document = run(["mayer-check", "--m", "1", "--k", "1", "--p2", "1", "--q", "1"])
        assert code == 2
        assert "signature" in document
