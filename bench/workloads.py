"""Seeded workloads: the ops of each round and the check of each op's output.

A round is a fixed list of op kinds and sizes; the seed picks the
parameters that leave an op's size alone (text or --json, sphere
dimensions, basis names, numbers fed to the certificates, evaluation
points, op order).  Every run therefore attempts whole rounds of the
same operations, so per-op percentiles fall at the same place in every
run and the share of failed ops is exactly the same.

Each check recomputes the answer with oracle.py and raises CheckError
on any disagreement; it never compares against stored output.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, List

from oracle import (
    CheckError,
    check_genus_polynomials,
    expect,
    is_dyadic,
    mayer_values,
    nu2,
    realization_values,
    s_coefficients,
    square_w5,
    squares_mod,
)


@dataclass
class Op:
    argv: List[str]
    check: Callable[[int, str], None]


# -- reading the program's documents -------------------------------------------


def _scalar(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


def _key_values(lines) -> dict:
    out = {}
    for line in lines:
        key, sep, value = line.strip().partition(" = ")
        expect(bool(sep), f"malformed line {line!r}")
        out[key] = _scalar(value)
    return out


def _certificate_from_text(lines) -> dict:
    doc = {"parameters": {}, "checks": [], "witnesses": None}
    section = None
    for line in lines:
        if line.startswith("claim: "):
            doc["claim"] = line[len("claim: "):]
        elif line.startswith("verdict: "):
            doc["verdict"] = line[len("verdict: "):]
        elif line in ("parameters:", "checks:"):
            section = line[:-1]
        elif line.startswith("witnesses: "):
            doc["witnesses"] = json.loads(line[len("witnesses: "):])
        elif section == "parameters":
            key, _, value = line.strip().partition(" = ")
            doc["parameters"][key] = _scalar(value)
        elif section == "checks":
            status, _, text = line.strip().partition(" ")
            doc["checks"].append({"passed": status == "[pass]", "text": text})
        else:
            raise CheckError(f"unexpected certificate line {line!r}")
    return doc


def _relations(doc: dict) -> list:
    """'in' / 'not in' of each '... Z' check, from either output form."""
    out = []
    for check in doc["checks"]:
        if "relation" in check:
            out.append(check["relation"])
        else:
            out.append("not in" if check["text"].endswith(" not in Z") else "in")
    return out


def certificate(doc_text: str, as_json: bool) -> dict:
    if as_json:
        return json.loads(doc_text)
    return _certificate_from_text(doc_text.splitlines())


def expect_exit(code: int, verdict) -> None:
    expect(code == (1 if verdict == "excluded" else 0), f"exit {code} with verdict {verdict}")


def expect_all_passed(doc: dict) -> None:
    expect(all(c["passed"] for c in doc["checks"]), f"{doc.get('claim')}: a check failed")


# -- genus-cold ---------------------------------------------------------------


def _genus_check(series: str, degree: int, as_json: bool, root_sets):
    def check(code: int, doc_text: str) -> None:
        expect_exit(code, None)
        if as_json:
            doc = json.loads(doc_text)
            expect(doc["series"] == series and doc["degree"] == degree, "genus header")
            polys = doc["polynomials"]
        else:
            lines = doc_text.splitlines()
            expect(lines[0] == f"series: {series}", "genus header")
            polys = {}
            for line in lines[1:]:
                name, sep, poly = line.partition(" = ")
                expect(bool(sep), f"malformed line {line!r}")
                polys[name] = poly
        check_genus_polynomials(series, degree, polys, root_sets)

    return check


def genus_round(rng: random.Random, smoke: bool, files) -> List[Op]:
    ops = []
    for series in ("L", "ahat", "mayer"):
        for degree in (2, 3, 4) if smoke else (6, 7, 8, 9, 10):
            as_json = rng.random() < 0.5
            root_sets = [
                [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(degree)] for _ in range(2)
            ]
            argv = ["genus", "--series", series, "--degree", str(degree)]
            argv += ["--json"] if as_json else []
            ops.append(Op(argv, _genus_check(series, degree, as_json, root_sets)))
    rng.shuffle(ops)
    return ops


# -- certify-cold ---------------------------------------------------------------


def _s_coeffs_check(m: int, as_json: bool):
    def check(code: int, doc_text: str) -> None:
        expect_exit(code, None)
        if as_json:
            doc = json.loads(doc_text)
            got = (doc["s_m"], doc["s_mm"], doc["s_2m"])
        else:
            got = tuple(part.partition(" = ")[2] for part in doc_text.split(", "))
        want = s_coefficients(m)
        expect(tuple(map(Fraction, got)) == want, f"s-coeffs m={m}: {got} != {want}")

    return check


def check_conditions(doc: dict, m: int, P2: int, Q: int) -> None:
    """A realization-conditions certificate against the recomputed values."""
    want = realization_values(m, P2, Q)
    params = doc["parameters"]
    expect(doc["claim"] == "realizable", f"claim {doc['claim']}")
    expect(
        (params["m"], params["P2"], params["Q"], params["dimension"]) == (m, P2, Q, 8 * m),
        f"realize parameters {params}",
    )
    for key in ("sigma", "s_m", "s_mm", "s_2m"):
        expect(Fraction(params[key]) == want[key], f"realize m={m} {key}: {params[key]} != {want[key]}")
    passed = [
        want["sigma"].denominator == 1,
        is_dyadic(want["cond2"]),
        is_dyadic(want["cond3"]),
    ]
    expect([c["passed"] for c in doc["checks"]] == passed, f"realize m={m} conditions {passed}")
    expect(doc["verdict"] == ("established" if all(passed) else "inconclusive"), "realize verdict")


def _conditions_check(m: int, P2: int, Q: int, as_json: bool, sigma=None):
    def check(code: int, doc_text: str) -> None:
        doc = certificate(doc_text, as_json)
        expect_exit(code, doc["verdict"])
        check_conditions(doc, m, P2, Q)
        if sigma is not None:
            expect(Fraction(doc["parameters"]["sigma"]) == sigma, f"sigma != {sigma}")

    return check


def _search_check(m: int, sigma_min: int, as_json: bool):
    def check(code: int, doc_text: str) -> None:
        if as_json:
            doc = json.loads(doc_text)
            witness, cert = doc["witness"], doc["certificate"]
        else:
            lines = doc_text.splitlines()
            head = _key_values(lines[0][len("witness: "):].split(", "))
            prefix = "four-square decomposition of P2: "
            expect(lines[1].startswith(prefix) and lines[3] == "re-validation:", "witness text")
            witness = dict(head, four_square=json.loads(lines[1][len(prefix):]))
            cert = _certificate_from_text(line[2:] for line in lines[4:])
        expect_exit(code, cert["verdict"])
        sigma, P2, Q = witness["sigma"], witness["P2"], witness["Q"]
        quad = witness["four_square"]
        expect(sum(x * x for x in quad) == P2, f"four squares {quad} do not sum to {P2}")
        expect(list(quad) == sorted(quad, reverse=True) and quad[-1] >= 0, f"order {quad}")
        expect(sigma % 2 == 1 and sigma > 4 and sigma >= sigma_min, f"witness sigma {sigma}")
        check_conditions(cert, m, P2, Q)
        expect(cert["verdict"] == "established", "witness not re-validated")
        expect(Fraction(cert["parameters"]["sigma"]) == sigma, "witness sigma mismatch")

    return check


def _mayer_check(m: int, k: int, P2: int, Q: int, as_json: bool, ahat_zero: bool):
    def check(code: int, doc_text: str) -> None:
        doc = certificate(doc_text, as_json)
        expect_exit(code, doc["verdict"])
        expect_all_passed(doc)
        want_sigma = realization_values(m, P2, Q)["sigma"]
        expect(want_sigma.denominator == 1, "mayer input without an integral signature")
        ahat, twisted = mayer_values(m, P2, Q)
        params = doc["parameters"]
        expect(
            (params["m"], params["k"], params["P2"], params["Q"]) == (m, k, P2, Q),
            f"mayer parameters {params}",
        )
        expect(Fraction(params["integral(ahat)"]) == ahat, f"integral(ahat) {params['integral(ahat)']} != {ahat}")
        expect(Fraction(params["integral(e1^2*ahat)"]) == twisted, "integral(e1^2*ahat)")
        if ahat_zero:
            expect(ahat == 0, "integral(ahat) of a projective plane is not 0")
        scale = 2 ** (k // 2)
        integral = [(scale * v).denominator == 1 for v in (ahat, twisted)]
        expect(_relations(doc) == ["in" if i else "not in" for i in integral], "mayer relations")
        expect(doc["verdict"] == ("established" if all(integral) else "excluded"), "mayer verdict")

    return check


def _lattice_point(rng: random.Random, m: int):
    """(P2, Q) with an integral signature s_mm*P2 + s_2m*Q."""
    _, s_mm, s_2m = s_coefficients(m)
    return s_mm.denominator * rng.randint(1, 40), s_2m.denominator * rng.randint(-40, 40)


FAILING_SEARCH_M = 8


def certify_round(rng: random.Random, smoke: bool, files) -> List[Op]:
    """70 ops: 12 at m = 1, 45 light ones at m = 2 (s-coeffs, conditions,
    searches: 5-7 ms), 12 heavier ones at m = 2..5 and realize --m 8.  So
    p50 falls in the middle of the 45 light m = 2 ops and p90 among the
    three light m = 4 ops, both away from a gap in op size."""
    ops = []

    def add(argv, make):
        as_json = rng.random() < 0.5
        ops.append(Op(argv + (["--json"] if as_json else []), make(as_json)))

    def mayer(m, P2, Q, plane=False):
        k = rng.randint(1, 2 * m - 1)
        add(["mayer-check", "--m", str(m), "--k", str(k), "--p2", str(P2), "--q", str(Q)],
            lambda j: _mayer_check(m, k, P2, Q, j, plane))

    def conditions(m, P2, Q, sigma=None):
        add(["realize", "--m", str(m), "--p2", str(P2), "--q", str(Q)],
            lambda j: _conditions_check(m, P2, Q, j, sigma))

    def search(m, sigma_min):
        add(["realize", "--m", str(m)] + (["--sigma-min", str(sigma_min)] if sigma_min > 1 else []),
            lambda j: _search_check(m, sigma_min, j))

    # (m, s-coeffs ops, mayer-check ops, condition ops, search ops)
    mix = [(1, 1, 1, 1, 1), (2, 1, 1, 1, 1)] if smoke else [
        (1, 2, 2, 3, 3), (2, 5, 1, 19, 20), (3, 1, 1, 1, 0), (4, 1, 1, 1, 1), (5, 1, 1, 1, 0)]
    for m, n_s, n_mayer, n_conditions, n_search in mix:
        for _ in range(n_s):
            add(["s-coeffs", "--m", str(m)], lambda j: _s_coeffs_check(m, j))
        for _ in range(n_mayer):
            mayer(m, *_lattice_point(rng, m))
        for _ in range(n_conditions):
            conditions(m, *_lattice_point(rng, m))
        for _ in range(n_search):
            search(m, rng.randint(2, 300))
    # HP^2 and OP^2: signature 1 and integral(Ahat) = 0
    for m, P2, Q in ((1, 4, 7), (2, 36, 39)):
        mayer(m, P2, Q, plane=True)
        conditions(m, P2, Q, sigma=1)
    search(FAILING_SEARCH_M, 1)
    rng.shuffle(ops)
    return ops


# -- kunneth-w5 -------------------------------------------------------------------


def _names(rng: random.Random, count: int) -> List[str]:
    letters = "abcdefghkmnrstuvxyz"
    prefix = rng.choice(letters) + rng.choice(letters)
    return [f"{prefix}{i}" for i in range(count)]


def _model_doc(name: str, model: dict) -> dict:
    return {
        "name": name,
        "dimension": model["dimension"],
        "basis": [[n, d] for n, d in model["basis"]],
        "unit": model["unit"],
        "products": [[a, b, sorted(c)] for (a, b), c in model["products"].items()],
        "sw": {str(d): sorted(names) for d, names in model["sw"].items()},
        "int_profile": {
            str(d): {"free": f, "torsion": list(t)} for d, (f, t) in sorted(model["integral"].items())
        },
    }


def truncated_ring(rng, n: int, gen_degree: int) -> dict:
    """F2[x]/(x^(n+1)) with deg x = 1 (RP^n) or 2 (CP^n); w = (1+x)^(n+1)."""
    names = _names(rng, n + 1)
    basis = [(names[i], gen_degree * i) for i in range(n + 1)]
    products = {
        (names[i], names[j]): {names[i + j]} if i + j <= n else set()
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        if i + j <= n or rng.random() < 0.5  # unlisted pairs default to zero
    }
    sw = {gen_degree * i: {names[i]} for i in range(1, n + 1) if comb(n + 1, i) % 2}
    if gen_degree == 2:
        integral = {2 * i: (1, []) for i in range(n + 1)}
        label = f"CP{n}"
    else:
        integral = {0: (1, [])}
        for i in range(1, n + 1):
            if i == n and n % 2:
                integral[i] = (1, [])
            elif i % 2 == 0:
                integral[i] = (0, [2])
        label = f"RP{n}"
    return {"label": label, "basis": basis, "unit": names[0], "products": products, "sw": sw,
            "integral": integral, "dimension": gen_degree * n}


def sphere_product(rng, dims: List[int]) -> dict:
    """S^d1 x ... x S^dk: exterior-style ring on one class per factor, w = 1."""
    k = len(dims)
    names = _names(rng, 2 ** k)
    degree = [sum(d for i, d in enumerate(dims) if mask >> i & 1) for mask in range(2 ** k)]
    basis = [(names[mask], degree[mask]) for mask in range(2 ** k)]
    products = {
        (names[a], names[b]): {names[a | b]} if not a & b else set()
        for a in range(1, 2 ** k)
        for b in range(a, 2 ** k)
    }
    integral: dict = {}
    for d in degree:
        integral[d] = (integral.get(d, (0, []))[0] + 1, [])
    return {"label": "S" + "xS".join(map(str, dims)), "basis": basis, "unit": names[0],
            "products": products, "sw": {}, "integral": integral, "dimension": sum(dims)}


def wu_times_sphere(rng, k: int) -> dict:
    """Wu manifold SU(3)/SO(3), alone (k = 0) or times S^k."""
    wu = [(0, 0), (2, 1), (3, 2), (5, 3)]  # (degree, index) of 1, z2, z3, z5
    factors = [(0, 0)] + ([(k, 1)] if k else [])
    names = _names(rng, len(wu) * len(factors))

    def name(i, j):
        return names[i * len(factors) + j]

    basis = [(name(i, j), dw + ds) for i, (dw, _) in enumerate(wu) for j, (ds, _) in enumerate(factors)]
    wu_mul = {(1, 2): 3}  # z2 * z3 = z5; every other non-unit product vanishes
    products = {}
    for i1 in range(len(wu)):
        for j1 in range(len(factors)):
            for i2 in range(len(wu)):
                for j2 in range(len(factors)):
                    if (i1, j1) == (0, 0) or (i2, j2) == (0, 0) or (i2, j2) < (i1, j1):
                        continue
                    i = i1 + i2 if 0 in (i1, i2) else wu_mul.get((min(i1, i2), max(i1, i2)))
                    j = j1 + j2 if j1 + j2 < len(factors) else None
                    result = {name(i, j)} if i is not None and j is not None else set()
                    products[(name(i1, j1), name(i2, j2))] = result
    sw = {2: {name(1, 0)}, 3: {name(2, 0)}}
    base = {0: (1, []), 3: (0, [2]), 5: (1, [])}
    integral: dict = {}
    for d, (f, t) in base.items():
        for ds, _ in factors:
            old_f, old_t = integral.get(d + ds, (0, []))
            integral[d + ds] = (old_f + f, old_t + t)
    return {"label": f"Wu{'xS' + str(k) if k else ''}", "basis": basis, "unit": names[0],
            "products": products, "sw": sw, "integral": integral, "dimension": 5 + k}


# spincert's built-in wu_manifold(): the same ring with basis names 1, z2, z3, z5
BUILTIN_WU = {"unit": "1", "sw": {2: {"z2"}, 3: {"z3"}},
              "integral": {0: (1, []), 3: (0, [2]), 5: (1, [])}, "dimension": 5}


def _w5_check(model: dict, name: str, as_json: bool):
    want = square_w5(model)

    def check(code: int, doc_text: str) -> None:
        doc = certificate(doc_text, as_json)
        expect_exit(code, doc["verdict"])
        expect_all_passed(doc)
        params = doc["parameters"]
        expect(doc["verdict"] == want["verdict"], f"{name}: verdict {doc['verdict']} != {want['verdict']}")
        expect(str(params["w4"]) == want["w4"], f"{name}: w4 {params['w4']} != {want['w4']}")
        expect(str(params["H4_integral"]) == want["H4_integral"], f"{name}: H4 {params['H4_integral']}")
        expect(params["dimension"] == 2 * model["dimension"], f"{name}: dimension")
        expect(params["model"] == f"{name} x {name}", f"{name}: model name")

    return check


def kunneth_round(rng: random.Random, smoke: bool, files) -> List[Op]:
    g = lambda: rng.choice((1, 2))  # noqa: E731 - RP^n or CP^n, same basis size
    d = lambda: rng.randint(1, 9)  # noqa: E731
    factors = [
        sphere_product(rng, [d()]),
        sphere_product(rng, [d()]),
        truncated_ring(rng, 2, g()),
        truncated_ring(rng, 2, g()),
        sphere_product(rng, [d(), d()]),
        truncated_ring(rng, 3, g()),
        wu_times_sphere(rng, 0),
        None,  # the built-in Wu manifold, no --model
    ]
    if not smoke:
        factors += [
            truncated_ring(rng, 3, g()),
            truncated_ring(rng, 4, g()),
            truncated_ring(rng, 5, 1),  # RP^5: inconclusive
            truncated_ring(rng, 6, g()),
            truncated_ring(rng, 7, 1),  # RP^7: established
            sphere_product(rng, [d(), d(), d()]),
            wu_times_sphere(rng, rng.randint(5, 9)),  # excluded
        ]
    ops = []
    for slot, model in enumerate(factors):
        as_json = rng.random() < 0.5
        fmt = ["--json"] if as_json else []
        if model is None:
            ops.append(Op(["wu-product"] + fmt, _w5_check(BUILTIN_WU, "wu-manifold", as_json)))
            continue
        name = f"{model['label']}-{rng.randrange(10**6)}"
        doc = _model_doc(name, model)
        path = files(f"model-{slot:02d}.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        ops.append(Op(["wu-product", "--model", path] + fmt, _w5_check(model, name, as_json)))
    rng.shuffle(ops)
    return ops


# -- cert-scan ----------------------------------------------------------------------


def _nonspinh8_check(a: int, as_json: bool):
    def check(code: int, doc_text: str) -> None:
        doc = certificate(doc_text, as_json)
        expect_exit(code, doc["verdict"])
        expect_all_passed(doc)
        x, y = -168 * a + 240, 4032 * a * a - 11520 * a + 8235
        expect(7 * y - x * x == 45 and (y - 6) % 48 == 21, f"family member {a}")
        expect(21 not in squares_mod(48), "21 is a square mod 48")
        params = doc["parameters"]
        expect((params["a"], params["x"], params["y"], params["P2"], params["Q"]) == (a, x, y, x * x, y),
               f"non-spinh8 parameters {params}")
        expect(doc["verdict"] == "excluded" and doc["claim"] == "not-spin^h", "non-spinh8 verdict")

    return check


def _bound_check(m: int, k: int, sigma: int, as_json: bool):
    def check(code: int, doc_text: str) -> None:
        doc = certificate(doc_text, as_json)
        expect_exit(code, doc["verdict"])
        expect_all_passed(doc)
        bound = 4 * m - 5 - 2 * nu2(m) - k // 2
        excluded = nu2(2 * sigma) < bound
        expect(doc["parameters"]["bound"] == bound, f"bound m={m} k={k}")
        expect(doc["verdict"] == ("excluded" if excluded else "inconclusive"), "bound verdict")

    return check


def _first_dim_check(k: int, as_json: bool):
    def check(code: int, doc_text: str) -> None:
        expect_exit(code, None)
        doc = json.loads(doc_text) if as_json else _key_values(doc_text.splitlines())
        m = 1
        while not (k < 2 * m and 4 * m - 5 - 2 * nu2(m) - k // 2 > 1):
            m *= 2
        expect((doc["k"], doc["dimension"]) == (k, 8 * m), f"first dimension for k={k}")

    return check


def _w4_lift_check(p1_m: int, p1_e: int, variant: str, euler: int, as_json: bool):
    def check(code: int, doc_text: str) -> None:
        shift = {"plain": 0, "spin4-plus": -2 * euler, "spin4-minus": 2 * euler}[variant]
        diff = p1_m - p1_e + shift
        if diff % 2:
            doc = certificate(doc_text, as_json)
            expect_exit(code, doc["verdict"])
            expect(doc["verdict"] == "excluded", f"odd p1 difference {diff} not excluded")
            return
        expect_exit(code, None)
        doc = json.loads(doc_text) if as_json else _key_values(doc_text.splitlines())
        expect(doc["lift"] == diff // 2 and doc["lift_mod_2"] == (diff // 2) % 2, f"w4 lift of {diff}")

    return check


def _pin_table_check(max_dim: int, as_json: bool):
    def check(code: int, doc_text: str) -> None:
        expect_exit(code, None)
        if as_json:
            rows = [(r["dimension"], r["cohen_k"], r["pin_structure"]) for r in json.loads(doc_text)["rows"]]
        else:
            lines = doc_text.splitlines()
            rows = [(int(f[0]), int(f[1]), f[3]) for f in (line.split() for line in lines[1:])]
        expect([r[0] for r in rows] == list(range(2, max_dim + 1)), "pin-table dimensions")
        for n, k, pin in rows:
            expect(k == n - bin(n).count("1"), f"cohen_k({n}) = {k}")
            pin_k, sign = {1: (k, "-"), 3: (k, "+"), 0: (k + 1, "-"), 2: (k + 1, "+")}[k % 4]
            expect(pin == (f"pin^{sign}" if pin_k == 1 else f"pin^{{{pin_k}{sign}}}"), f"pin({n})")

    return check


SCAN_OPS_PER_ROUND = 400


def scan_round(rng: random.Random, smoke: bool, files) -> List[Op]:
    ops = []
    count = 20 if smoke else SCAN_OPS_PER_ROUND
    kinds = ["nonspinh8", "nonspinh8", "bound", "bound", "first-dim",
             "realize", "realize", "w4-lift", "w4-lift", "pin-table"]
    for i in range(count):
        kind = kinds[i % len(kinds)]
        as_json = rng.random() < 0.5
        fmt = ["--json"] if as_json else []
        if kind == "nonspinh8":
            a = rng.randint(-1000, 1000)
            ops.append(Op(["non-spinh8", "--a", str(a)] + fmt, _nonspinh8_check(a, as_json)))
        elif kind == "bound":
            m = rng.randint(1, 16)
            k = rng.randint(1, 2 * m - 1)
            sigma = rng.choice((-1, 1)) * rng.randint(1, 10**6)
            argv = ["bound", "--m", str(m), "--k", str(k), "--sigma", str(sigma)]
            ops.append(Op(argv + fmt, _bound_check(m, k, sigma, as_json)))
        elif kind == "first-dim":
            k = rng.randint(1, 64)
            ops.append(Op(["bound", "--k", str(k), "--first-dim"] + fmt, _first_dim_check(k, as_json)))
        elif kind == "realize":
            m = 1 + (i // len(kinds) + (i % len(kinds) == 6)) % 4
            P2, Q = _lattice_point(rng, m)
            argv = ["realize", "--m", str(m), "--p2", str(P2), "--q", str(Q)]
            ops.append(Op(argv + fmt, _conditions_check(m, P2, Q, as_json)))
        elif kind == "w4-lift":
            p1_m, p1_e = rng.randint(-200, 200), rng.randint(-200, 200)
            variant = rng.choice(("plain", "spin4-plus", "spin4-minus"))
            euler = rng.randint(-50, 50)
            argv = ["w4-lift", "--p1-m", str(p1_m), "--p1-e", str(p1_e),
                    "--variant", variant, "--euler", str(euler)]
            ops.append(Op(argv + fmt, _w4_lift_check(p1_m, p1_e, variant, euler, as_json)))
        else:
            max_dim = rng.randint(2, 24)
            ops.append(Op(["pin-table", "--max-dim", str(max_dim)] + fmt, _pin_table_check(max_dim, as_json)))
    rng.shuffle(ops)
    return ops


@dataclass
class Workload:
    name: str
    cold: bool  # True: caches are cleared before every op
    make_round: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("genus-cold", True, genus_round),
        Workload("certify-cold", True, certify_round),
        Workload("kunneth-w5", True, kunneth_round),
        Workload("cert-scan", False, scan_round),
    )
}


def files_in(directory: str):
    os.makedirs(directory, exist_ok=True)
    return lambda name: os.path.join(directory, name)
