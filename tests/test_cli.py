import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from math import factorial, isqrt, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import space_model_to_json
from spincert import certify, cli, genus, mod2
from spincert.cli import load_model, run
from spincert.exact import bernoulli, odd_part

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"
RHC8 = str(resources.files("spincert").joinpath("data/rhc8-a0.json"))
WU_TEXT = resources.files("spincert").joinpath("data/wu.json").read_text()


class _Twin(str):
    """A dict key equal only to itself: json.dumps writes it beside the key it spells."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other


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


GOLDEN_RUNS = [
    ("non-spinh8-a0.json", ["non-spinh8", "--a", "0", "--json"], 1),
    ("non-spinh8-a0.txt", ["non-spinh8", "--a", "0"], 1),
    ("wu-product.json", ["wu-product", "--json"], 1),
    ("bound-m4-k7.json", ["bound", "--m", "4", "--k", "7", "--sigma", "1", "--json"], 1),
    ("pin-table.json", ["pin-table", "--max-dim", "7", "--json"], 0),
    ("realize-m1.json", ["realize", "--m", "1", "--json"], 0),
    ("genus-L-12.txt", ["genus", "--series", "L", "--degree", "12"], 0),
    ("genus-ahat-12.json", ["genus", "--series", "ahat", "--degree", "12", "--json"], 0),
    ("genus-mayer-12.txt", ["genus", "--series", "mayer", "--degree", "12"], 0),
    ("mayer-check-rhc8-a0.json", ["mayer-check", "--model", RHC8, "--k", "1", "--json"], 1),
    ("mayer-check-m2-k3.txt", ["mayer-check", "--m", "2", "--k", "3", "--p2", "45", "--q", "1230"], 1),
    ("realize-m8.txt", ["realize", "--m", "8"], 0),
]


def _truncated_ring_document(n):
    """Model document with the ring and integral profile of CP^n (n + 1 basis elements), w = 1."""
    names = [f"x{2 * i}" for i in range(n + 1)]
    return {
        "name": f"CP{n}",
        "dimension": 2 * n,
        "basis": [[name, 2 * i] for i, name in enumerate(names)],
        "unit": names[0],
        "products": [
            [names[i], names[j], [names[i + j]]] for i in range(1, n + 1) for j in range(i, n + 1 - i)
        ],
        "sw": {},
        "int_profile": {str(2 * i): {"free": 1, "torsion": []} for i in range(n + 1)},
    }


def _readme_examples():
    """argv of every example in the README's subcommand table."""
    rows = [line.split("|")[3] for line in README.read_text().splitlines() if line.startswith("| `")]
    return [example.split() for row in rows for example in re.findall(r"`spincert ([^`]+)`", row)]


class TestGoldenFiles:
    @pytest.mark.parametrize("name, argv, code", GOLDEN_RUNS)
    def test_byte_for_byte(self, name, argv, code):
        got_code, document = run(argv)
        assert got_code == code
        assert (document + "\n").encode() == (GOLDEN / name).read_bytes()

    def test_genus_prints_from_the_buckets(self, monkeypatch):
        # the CLI prints each K_j from its integer numerators and never
        # builds the Fraction terms
        def refuse(poly):
            raise AssertionError("the genus command read PontryaginPolynomial.terms")

        monkeypatch.setattr(genus.PontryaginPolynomial, "terms", property(refuse))
        code, document = run(["genus", "--series", "L", "--degree", "12"])
        assert code == 0
        assert (document + "\n").encode() == (GOLDEN / "genus-L-12.txt").read_bytes()

    def test_realize_m8_witness_reads_back(self):
        # the printed witness, read back without the library: four squares in
        # descending order summing to P2, the largest a first, and re-validated
        lines = (GOLDEN / "realize-m8.txt").read_text().splitlines()
        P2 = int(re.search(r"P2 = (\d+),", lines[0]).group(1))
        squares = json.loads(lines[1].removeprefix("four-square decomposition of P2: "))
        assert sum(s * s for s in squares) == P2
        assert squares == sorted(squares, reverse=True) and squares[-1] >= 0
        assert squares[0] == isqrt(P2)
        assert "  verdict: established" in lines

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["s-coeffs", "--m", "65"], "s-coeffs: --m must be <= 64"),
            (["realize", "--m", "65", "--p2", "4", "--q", "7"], "realize: --m must be <= 64"),
            (["realize", "--m", "128"], "realize: --m must be <= 64"),
            (["realize", "--m", "16"], "realize: --m must be <= 8 without --p2 and --q"),
            (
                ["mayer-check", "--m", "65", "--k", "1", "--p2", "0", "--q", "0"],
                "mayer-check: --m must be <= 64",
            ),
            (["pin-table", "--max-dim", "100001"], "pin-table: --max-dim must be <= 100000"),
        ],
        ids=[
            "s-coeffs",
            "realize-conditions",
            "realize-search",
            "realize-search-m16",
            "mayer-check",
            "pin-table",
        ],
    )
    def test_budgets_are_two(self, monkeypatch, argv, message):
        def build(*args):
            raise AssertionError("work was done past the budget")

        for name in ("signature_series", "ahat_series"):
            monkeypatch.setattr(genus, name, build)
        monkeypatch.setattr(certify, "guaranteed_structures", build)
        monkeypatch.setattr(certify, "realization_search", build)
        assert run(argv) == (2, message)
        assert run(argv + ["--json"]) == (2, message)

    def test_model_m_budget_is_two(self, monkeypatch, tmp_path):
        def evaluate(*args):
            raise AssertionError("a model past the budget was evaluated")

        monkeypatch.setattr(genus, "l_signature", evaluate)
        path = tmp_path / "rhc.json"
        path.write_text(json.dumps({"m": 65, "middle_betti": 0, "sigma": 0, "P2": 0, "Q": 0}))
        code, document = run(["mayer-check", "--model", str(path), "--k", "1"])
        assert (code, document) == (2, "mayer-check: the model's m must be <= 64")

    @pytest.mark.parametrize(
        "command, flags", [("wu-product", []), ("mayer-check", ["--k", "1"])]
    )
    def test_model_basis_budget_is_two(self, monkeypatch, tmp_path, command, flags):
        def build(*args):
            raise AssertionError("a product table past the budget was validated")

        monkeypatch.setattr(mod2, "build_algebra", build)
        cap = mod2.MODEL_MAX_BASIS
        path = tmp_path / "over-cap.json"
        path.write_text(json.dumps(_truncated_ring_document(cap)))
        message = f"spincert {command}: error: field 'basis': at most {cap} elements, got {cap + 1}"
        assert run([command, "--model", str(path), *flags]) == (2, message)
        assert run([command, "--model", str(path), *flags, "--json"]) == (2, message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["s-coeffs", "--m", "64"],
            ["realize", "--m", "64", "--p2", "0", "--q", "0"],
            ["mayer-check", "--m", "64", "--k", "1", "--p2", "0", "--q", "0"],
            ["pin-table", "--max-dim", "100000"],
        ],
        ids=["s-coeffs", "realize-conditions", "mayer-check", "pin-table"],
    )
    def test_at_the_budget(self, argv):
        assert run(argv)[0] == 0

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

    @pytest.mark.parametrize(
        "argv, message, usage",
        [
            (
                ["mayer-check", "--k", "1", "--sigma", "5"],
                "spincert mayer-check: error: unrecognized arguments: --sigma 5",
                "usage: spincert mayer-check [-h] [--json]",
            ),
            (
                ["non-spinh8", "--a", "0", "--unknown"],
                "spincert non-spinh8: error: unrecognized arguments: --unknown",
                "usage: spincert non-spinh8 [-h] [--json]",
            ),
            (
                ["wu-product", "--json", "extra"],
                "spincert wu-product: error: unrecognized arguments: extra",
                "usage: spincert wu-product [-h] [--json]",
            ),
            # errors of the command line as a whole keep the top-level usage
            ([], "spincert: error: ", "usage: spincert [-h]"),
            (["no-such-command"], "spincert: error: ", "usage: spincert [-h]"),
            (["--unknown", "pin-table"], "spincert: error: ", "usage: spincert [-h]"),
        ],
        ids=["mayer-check", "non-spinh8", "wu-product", "empty", "unknown-command", "root-flag"],
    )
    def test_usage_error_names_its_parser(self, argv, message, usage):
        code, document = run(argv)
        assert code == 2
        first, second = document.split("\n")[:2]
        assert first.startswith(message)
        assert second.startswith(usage)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["mayer-check", "--model", RHC8, "--k", "1", "--m", "2", "--p2", "4", "--q", "7"],
                "mayer-check: --m, --p2, --q cannot be combined with --model",
            ),
            (
                ["mayer-check", "--model", RHC8, "--k", "1", "--q", "7"],
                "mayer-check: --q cannot be combined with --model",
            ),
            (
                ["bound", "--k", "7", "--first-dim", "--m", "4", "--sigma", "1"],
                "bound: --m, --sigma cannot be combined with --first-dim",
            ),
            (
                ["bound", "--k", "7", "--first-dim", "--sigma", "1"],
                "bound: --sigma cannot be combined with --first-dim",
            ),
            (
                ["realize", "--m", "1", "--p2", "4", "--q", "7", "--sigma-min", "99"],
                "realize: --sigma-min cannot be combined with --p2 and --q",
            ),
            (
                ["realize", "--m", "1", "--p2", "4", "--q", "7", "--sigma-min", "1"],
                "realize: --sigma-min cannot be combined with --p2 and --q",
            ),
        ],
        ids=[
            "mayer-check-model-all",
            "mayer-check-model-q",
            "bound-first-dim-both",
            "bound-first-dim-sigma",
            "realize-conditions-sigma-min",
            "realize-conditions-sigma-min-one",
        ],
    )
    def test_flags_of_the_other_mode_are_refused(self, argv, message):
        assert run(argv) == (2, message)
        assert run(argv + ["--json"]) == (2, message)


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

    def test_the_parser_is_built_once(self, monkeypatch, capsys):
        argvs = [["non-spinh8", "--a", "0"], ["bound", "--k", "x"], ["--help"]]
        before = [(run(argv), capsys.readouterr().out) for argv in argvs]

        def rebuild():
            raise AssertionError("run built a parser")

        monkeypatch.setattr(cli, "build_parser", rebuild)
        assert [(run(argv), capsys.readouterr().out) for argv in argvs] == before
        (certificate, _), (usage, _), (help_exit, help_text) = before
        assert (certificate[0], usage[0], help_exit) == (1, 2, (0, ""))
        assert help_text.startswith("usage: spincert")


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
        path.write_text(space_model_to_json(sphere))
        code, document = run(["wu-product", "--model", str(path), "--json"])
        assert code == 0
        assert json.loads(document)["parameters"]["H4_integral"] == "0"
        groups = mod2.kunneth(sphere, sphere).int_profile.groups
        assert groups == {0: (1, ()), 10**6: (2, ()), 2 * 10**6: (1, ())}

    def test_wu_product_builds_no_product_table(self, monkeypatch, tmp_path):
        golden = (GOLDEN / "wu-product.json").read_text()

        def refuse(*args):
            raise AssertionError("wu-product built the product's table")

        monkeypatch.setattr(mod2, "kunneth", refuse)
        n = mod2.MODEL_MAX_BASIS - 1
        path = tmp_path / "at-cap.json"
        path.write_text(json.dumps(_truncated_ring_document(n)))
        code, document = run(["wu-product", "--model", str(path), "--json"])
        parameters = json.loads(document)["parameters"]
        assert (code, parameters["model"], parameters["H4_integral"]) == (0, f"CP{n} x CP{n}", "Z^3")
        assert run(["wu-product", "--json"]) == (1, golden.removesuffix("\n"))

    def test_mayer_check_with_model_file(self):
        path = resources.files("spincert").joinpath("data/rhc8-a0.json")
        code, document = run(["mayer-check", "--model", str(path), "--k", "1", "--json"])
        assert code == 1
        assert json.loads(document)["parameters"]["integral(ahat)"] == "2057/32"

    @pytest.mark.parametrize("torsion", [[2], [3]])
    def test_degree_zero_torsion_exit_two(self, tmp_path, torsion):
        # H^0(X; Z) is free; before the parser refused this, Z/2 failed later
        # with a universal-coefficient message about degree 1 and Z/3 loaded
        doc = json.loads(space_model_to_json(mod2.sphere_model(2)))
        doc["int_profile"]["0"]["torsion"] = torsion
        path = tmp_path / "s2.json"
        path.write_text(json.dumps(doc))
        code, document = run(["wu-product", "--model", str(path)])
        assert code == 2
        assert "int_profile[0]" in document

    def test_missing_field_exit_two(self, tmp_path):
        doc = json.loads(WU_TEXT)
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

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                # data/wu.json with every product set to zero: z5 pairs with nothing
                {
                    **json.loads(WU_TEXT),
                    "products": [],
                },
                "field 'products': cup pairing degenerate in degree 2 (H^2 x H^3 -> H^5)",
            ),
            (
                # RP^2 declared with w1 = 0
                {
                    "name": "RP2",
                    "dimension": 2,
                    "basis": [["1", 0], ["x1", 1], ["x2", 2]],
                    "unit": "1",
                    "products": [["x1", "x1", ["x2"]]],
                    "sw": {},
                    "int_profile": {
                        "0": {"free": 1, "torsion": []},
                        "2": {"free": 0, "torsion": [2]},
                    },
                },
                "field 'int_profile[2]': H^2(M; Z) has free rank 0 but w1 = 0; "
                "a closed manifold has free rank 1 in its top degree exactly when w1 = 0",
            ),
        ],
        ids=["poincare-duality", "orientability"],
    )
    def test_no_closed_manifold_exit_two(self, tmp_path, doc, message, flags):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        argv = ["wu-product", "--model", str(path), *flags]
        assert run(argv) == (2, f"spincert wu-product: error: {message}")

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_product_name_collision_exit_two(self, tmp_path, flags):
        # T^3 on generators a, c, a⊗b: its square names both (a⊗b)⊗c and a⊗(b⊗c) 'a⊗b⊗c'
        doc = {
            "name": "T3",
            "dimension": 3,
            "basis": [
                ["1", 0], ["a", 1], ["c", 1], ["a⊗b", 1], ["b⊗c", 2], ["u", 2], ["v", 2], ["t", 3]
            ],
            "unit": "1",
            "products": [
                ["a", "c", ["b⊗c"]],
                ["a", "a⊗b", ["u"]],
                ["c", "a⊗b", ["v"]],
                ["a", "v", ["t"]],
                ["c", "u", ["t"]],
                ["a⊗b", "b⊗c", ["t"]],
            ],
            "sw": {},
            "int_profile": {
                "0": {"free": 1, "torsion": []},
                "1": {"free": 3, "torsion": []},
                "2": {"free": 3, "torsion": []},
                "3": {"free": 1, "torsion": []},
            },
        }
        assert mod2.space_model_from_dict(doc).dimension == 3
        path = tmp_path / "t3.json"
        path.write_text(json.dumps(doc))
        argv = ["wu-product", "--model", str(path), *flags]
        assert run(argv) == (2, "spincert wu-product: error: duplicate basis element 'a⊗b⊗c'")

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (lambda doc: doc["sw"].update({"2": [["z2"]]}), "field 'sw[2]'"),
            (lambda doc: doc["products"][0].__setitem__(2, [["z5"]]), "field 'products[0]'"),
            (
                lambda doc: doc["sw"].update({"+3": doc["sw"].pop("3")}),
                "degree key '+3' is not a canonical integer",
            ),
            (lambda doc: doc.update(dimension=1000), "differs from the dimension 1000"),
            (
                lambda doc: doc["basis"].append(["z2", 2]),
                "field 'basis': duplicate basis element 'z2'",
            ),
            (
                lambda doc: doc["basis"][1].__setitem__(1, -2),
                "field 'basis': negative degree for 'z2'",
            ),
            (lambda doc: doc.update(unit="u"), "field 'unit': unit 'u' is not a basis element"),
            (lambda doc: doc.update(unit="z2"), "field 'unit': unit 'z2' must have degree 0"),
            (
                lambda doc: doc["products"][0].__setitem__(2, ["zz"]),
                "field 'products': product table mentions unknown element 'zz'",
            ),
            (
                lambda doc: doc["products"].append(["z2", "z3", []]),
                "field 'products[6]': duplicate pair ('z2', 'z3')",
            ),
            (
                lambda doc: doc["sw"].update({"2": ["z3"]}),
                "sw component in degree 2 contains 'z3' of degree 3",
            ),
            # read as a set, w2 = z2 + z2 = 0 would load as z2 and exit 1
            (
                lambda doc: doc["sw"].update({"2": ["z2", "z2"]}),
                "field 'sw[2]': 'z2' is listed twice; a name list is a sum over F2",
            ),
            (
                lambda doc: doc.update(products=[[a, b, names * 2] for a, b, names in doc["products"]]),
                "field 'products[1]': 'z5' is listed twice; a name list is a sum over F2",
            ),
            (
                lambda doc: doc["int_profile"].update({"7": {"free": 1, "torsion": []}}),
                "integral data above the dimension, in degree 7",
            ),
            # json.loads alone keeps the second "sw", and the verdict flips to established
            (lambda doc: doc.update({_Twin("sw"): {}}), "duplicate key 'sw'"),
            (
                lambda doc: doc["int_profile"].update({3: {"free": 0, "torsion": []}}),
                "duplicate key '3'",
            ),
        ],
        ids=[
            "sw-nested-list",
            "products-nested-list",
            "degree-key-plus",
            "dimension-1000",
            "basis-duplicate",
            "basis-negative-degree",
            "unit-not-in-basis",
            "unit-nonzero-degree",
            "products-unknown-element",
            "products-duplicate-pair",
            "sw-wrong-degree",
            "sw-repeated-name",
            "products-repeated-names",
            "int-profile-above-dimension",
            "duplicate-key-top-level",
            "duplicate-key-int-profile",
        ],
    )
    def test_malformed_model_exit_two(self, tmp_path, edit, fragment):
        doc = json.loads(WU_TEXT)
        edit(doc)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, document = run(["wu-product", "--model", str(path)])
        assert code == 2
        assert document.startswith("spincert wu-product: error:")
        assert fragment in document

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"m": 0}, "m must be >= 1"),
            ({"middle_betti": -1}, "middle Betti number must be >= 0"),
            ({"middle_betti": 0}, "|sigma| = 1 exceeds the middle Betti number 0"),
            (
                {"middle_betti": 2},
                "sigma = 1 and the middle Betti number 2 differ in parity; "
                "sigma = b+ - b- and b+ + b- agree mod 2",
            ),
        ],
        ids=["m-zero", "betti-negative", "sigma-above-betti", "betti-sigma-parity"],
    )
    def test_malformed_rhc_model_exit_two(self, tmp_path, fields, message):
        doc = {**json.loads(Path(RHC8).read_text()), **fields}
        path = tmp_path / "rhc.json"
        path.write_text(json.dumps(doc))
        code, document = run(["mayer-check", "--model", str(path), "--k", "1"])
        assert code == 2
        assert document == f"spincert mayer-check: error: {message}"

    @pytest.mark.parametrize("command", [["wu-product"], ["mayer-check", "--k", "1"]])
    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "model document must be a JSON object"),
            ({"name": "x"}, "unrecognized model document: expected 'basis' (space model) or 'P2'"),
        ],
        ids=["array", "neither-basis-nor-p2"],
    )
    def test_unrecognized_document_exit_two(self, tmp_path, command, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, document = run([*command, "--model", str(path)])
        assert code == 2
        assert document.startswith(f"spincert {command[0]}: error: {message}")

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_unit_law_violation_exit_two(self, tmp_path, as_json):
        doc = json.loads(resources.files("spincert").joinpath("data/wu.json").read_text())
        doc["products"].append(["1", "z2", []])
        path = tmp_path / "wu.json"
        path.write_text(json.dumps(doc))
        argv = ["wu-product", "--model", str(path), *(["--json"] if as_json else [])]
        code, document = run(argv)
        assert code == 2
        assert document == "spincert wu-product: error: field 'products': unit law fails on 'z2'"

    def test_invalid_json_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, document = run(["wu-product", "--model", str(path)])
        assert code == 2

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("command", [["wu-product"], ["mayer-check", "--k", "1"]])
    @pytest.mark.parametrize(
        "content, message",
        [
            (b"[" * 100000 + b"]" * 100000, "nests too deeply to parse"),
            ('{"name": "caf\xe9"}'.encode("latin-1"), "is not UTF-8: 'utf-8' codec can't decode"),
        ],
        ids=["nested-100000-deep", "latin-1"],
    )
    def test_unparsable_file_is_refused_by_name(self, tmp_path, command, as_json, content, message):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        argv = [*command, "--model", str(path), *(["--json"] if as_json else [])]
        code, document = run(argv)
        assert code == 2
        assert document.startswith(f"spincert {command[0]}: error: model file {str(path)!r} {message}")

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

    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_ahat_is_expanded_once(self, monkeypatch, m):
        # twists 0 and 2 both read the one A-hat series of 2m + 1 terms
        calls = []
        build = genus.ahat_series

        def counting(max_degree):
            calls.append(max_degree)
            return build(max_degree)

        monkeypatch.setattr(genus, "ahat_series", counting)
        q = genus.l_coefficients(m).s_2m.denominator
        code, _ = run(["mayer-check", "--m", str(m), "--k", "1", "--p2", "0", "--q", str(q)])
        assert code in (0, 1)
        assert calls == [2 * m]

    def test_inconsistent_numbers_rejected(self):
        code, document = run(["mayer-check", "--m", "1", "--k", "1", "--p2", "1", "--q", "1"])
        assert code == 2
        assert "signature" in document

    @pytest.mark.parametrize(
        "k, message",
        [
            ("0", "k must be >= 1"),
            ("2", "k = 2 is not below 2m = 2: the normal-bundle factor need not be rationally trivial"),
        ],
        ids=["k-zero", "k-at-2m"],
    )
    def test_rank_out_of_range(self, k, message):
        argv = ["mayer-check", "--m", "1", "--k", k, "--p2", "4", "--q", "7"]
        assert run(argv) == (2, f"spincert mayer-check: error: {message}")

    def test_sigma_flag_is_gone(self):
        # sigma = 5 does not fit (57600, 8235), whose L-evaluation gives 1
        argv = ["mayer-check", "--m", "1", "--k", "1", "--p2", "57600", "--q", "8235"]
        assert run(argv + ["--sigma", "5"])[0] == 2
        assert run(argv + ["--betti", "5"])[0] == 2

    def test_help_lists_no_sigma_or_betti(self, capsys):
        assert run(["mayer-check", "--help"]) == (0, "")
        out = capsys.readouterr().out
        assert "--p2" in out and "--sigma" not in out and "--betti" not in out

    def test_model_sigma_must_match_l_evaluation(self, tmp_path):
        path = tmp_path / "rhc.json"
        path.write_text(json.dumps({"m": 1, "middle_betti": 5, "sigma": 5, "P2": 57600, "Q": 8235}))
        code, document = run(["mayer-check", "--model", str(path), "--k", "1"])
        assert code == 2
        assert document == (
            "spincert mayer-check: error: the L-evaluation gives the signature 1, "
            "but the model declares sigma = 5"
        )

    def test_model_with_non_integer_signature(self, tmp_path):
        path = tmp_path / "rhc.json"
        path.write_text(json.dumps({"m": 1, "middle_betti": 0, "sigma": 0, "P2": 1, "Q": 1}))
        code, document = run(["mayer-check", "--model", str(path), "--k", "1"])
        assert code == 2
        assert "non-integer signature 2/15" in document


class TestWitnessSearchFlags:
    def test_sigma_min_of_a_billion(self):
        code, document = run(["realize", "--m", "1", "--sigma-min", "1000000000", "--json"])
        assert code == 0
        witness = json.loads(document)["witness"]
        assert (witness["sigma"], witness["P2"], witness["Q"]) == (1000000013, 90, 6428571525)

    def test_sigma_min_of_ten_to_the_forty_is_minimal(self):
        target = 10**40
        code, document = run(["realize", "--m", "4", "--sigma-min", str(target), "--json"])
        assert code == 0
        witness = json.loads(document)["witness"]
        sigma, P2, Q = witness["sigma"], witness["P2"], witness["Q"]
        assert sigma % 2 == 1 and sigma >= target
        # Q = y0 * t for the odd multiplier t; t - 2 on the same side misses
        coeffs = genus.l_coefficients(4)
        y0 = lcm(coeffs.s_2m.denominator, odd_part(factorial(15)))
        t, rest = divmod(Q, y0)
        assert rest == 0 and t % 2 == 1
        smaller = t - 2 if t > 0 else t + 2
        assert certify.realization_conditions(4, P2, smaller * y0).parameters["sigma"] < target


SHIPPED = [
    str(resources.files("spincert").joinpath(f"data/{name}"))
    for name in ("wu.json", "rhc8-a0.json")
]
INTS = st.integers(-(10**12), 10**12)
RANKS = st.integers(-3, 33) | INTS  # k, mostly near the 1 <= k < 2m window


def _flags(**options):
    """argv fragments: each flag is present or absent, with a drawn value."""
    return st.tuples(
        *(
            st.one_of(st.none(), value).map(
                lambda v, flag=flag: [] if v is None else [flag, str(v)]
            )
            for flag, value in options.items()
        )
    ).map(lambda parts: [word for part in parts for word in part])


# sizes stay below the known limits: no witness search for m >= 8, no
# genus degree above 10, no s-coeffs --m above 16, no pin table above 64
SUBCOMMANDS = st.one_of(
    st.tuples(
        st.just(["genus", "--series"]),
        st.sampled_from(["L", "ahat", "mayer"]).map(lambda s: [s]),
        st.integers(-3, 10).map(lambda d: ["--degree", str(d)]),
    ),
    st.tuples(st.just(["s-coeffs", "--m"]), st.integers(-3, 16).map(lambda m: [str(m)])),
    st.tuples(
        st.just(["realize"]),
        st.integers(-3, 7).map(lambda m: ["--m", str(m)]),
        _flags(**{"--sigma-min": st.integers(-(10**40), 10**40)}),
    ),
    # without --p2 and --q this is a witness search: m = 8 takes a second and
    # m >= 16 exits 2, so m >= 8 needs a flag
    st.tuples(
        st.just(["realize"]),
        st.integers(-3, 16).map(lambda m: ["--m", str(m)]),
        _flags(**{"--p2": INTS, "--q": INTS}),
    ).filter(lambda parts: parts[2] or int(parts[1][1]) < 8),
    st.tuples(
        st.just(["bound"]),
        RANKS.map(lambda k: ["--k", str(k)]),
        _flags(**{"--m": INTS, "--sigma": INTS}),
        st.sampled_from([[], ["--first-dim"]]),
    ),
    st.tuples(st.just(["non-spinh8", "--a"]), INTS.map(lambda a: [str(a)])),
    st.tuples(st.just(["wu-product"]), _flags(**{"--model": st.sampled_from(SHIPPED)})),
    st.tuples(st.just(["pin-table"]), _flags(**{"--max-dim": st.integers(-3, 64)})),
    st.tuples(
        st.just(["mayer-check"]),
        RANKS.map(lambda k: ["--k", str(k)]),
        _flags(
            **{
                "--model": st.sampled_from(SHIPPED),
                "--m": st.integers(-3, 16),
                "--p2": INTS,
                "--q": INTS,
            }
        ),
    ),
    st.tuples(
        st.just(["w4-lift"]),
        INTS.map(lambda p: ["--p1-m", str(p)]),
        INTS.map(lambda p: ["--p1-e", str(p)]),
        _flags(
            **{
                "--variant": st.sampled_from(["plain", "spin4-plus", "spin4-minus"]),
                "--euler": INTS,
            }
        ),
    ),
).map(lambda parts: [word for part in parts for word in part])


# argv that end in a usage error or --help, whatever the argv drawn after them
INTERRUPTIONS = st.sampled_from(
    [
        ["bound", "--k", "x"],
        ["--help"],
        ["realize", "--help"],
        ["no-such-command"],
        ["w4-lift", "--p1-m", "1"],
        ["genus", "--series", "L", "--degree", "3", "extra"],
    ]
)


class TestArgvProperties:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(SUBCOMMANDS, st.booleans())
    def test_exit_code_follows_the_verdict(self, argv, as_json):
        code, document = run(argv + ["--json"] * as_json)
        assert code in (0, 1, 2)
        if as_json and code != 2:
            doc = json.loads(document)
            verdict = doc.get("verdict", doc.get("certificate", {}).get("verdict"))
            assert (code == 1) == (verdict == "excluded")

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(SUBCOMMANDS | INTERRUPTIONS, SUBCOMMANDS, st.booleans())
    def test_the_shared_parser_keeps_no_state(self, before, argv, as_json):
        argv = argv + ["--json"] * as_json
        run(before)
        shared = run(argv)
        with mock.patch.object(cli, "_PARSER", cli.build_parser()):
            assert run(argv) == shared

    @pytest.mark.parametrize(
        "argv",
        [argv for _, argv, _ in GOLDEN_RUNS] + _readme_examples(),
        ids=lambda argv: " ".join(argv).replace(RHC8, "rhc8-a0.json"),
    )
    def test_text_and_json_exit_alike(self, argv):
        text_argv = [word for word in argv if word != "--json"]
        assert run(text_argv)[0] == run(text_argv + ["--json"])[0]
