"""Independent computations that the benchmark checks spincert's outputs against.

Nothing here imports spincert.  The formulas come from the mathematics,
not from the program's code paths:

* Bernoulli numbers by the Akiyama-Tanigawa recurrence (the program uses
  the binomial recurrence);
* characteristic series from their Bernoulli-number closed forms (the
  program divides factorial series);
* genus polynomials checked by evaluation on explicit root sets: with
  p_i = e_i(z_1..z_r), K_j(p) must equal the degree-j part of prod Q(z_i);
* the coefficients a certificate reads from the logarithm of the series
  and Waring's formula, which keeps only p_m and p_2m;
* mod-2 Kunneth data by the Whitney product formula over the tensor
  basis and the Kunneth formula with Tor terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- numbers -------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple:
    """B_0..B_n by Akiyama-Tanigawa (this recurrence gives B_1 = +1/2)."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return tuple(out)


def nu2(n: int) -> int:
    n = abs(n)
    count = 0
    while n % 2 == 0:
        n //= 2
        count += 1
    return count


def is_dyadic(value: Fraction) -> bool:
    den = value.denominator
    return den & (den - 1) == 0


def squares_mod(modulus: int) -> set:
    return {(c * c) % modulus for c in range(modulus)}


# -- characteristic series in z = x^2 -------------------------------------


@lru_cache(maxsize=None)
def series(name: str, n: int) -> tuple:
    """z-coefficients q_0..q_n of the named characteristic series.

    L: x/tanh x = sum 4^k B_2k x^2k/(2k)!;  ahat: (x/2)/sinh(x/2) with
    x/sinh x = sum (2 - 4^k) B_2k x^2k/(2k)!;  mayer: cosh(x/2).
    """
    b = bernoulli_numbers(2 * n)
    if name == "L":
        return tuple(Fraction(4**k) * b[2 * k] / factorial(2 * k) for k in range(n + 1))
    if name == "ahat":
        return tuple(
            Fraction(2 - 4**k) * b[2 * k] / (factorial(2 * k) * 4**k) for k in range(n + 1)
        )
    if name == "mayer":
        return tuple(Fraction(1, 4**k * factorial(2 * k)) for k in range(n + 1))
    raise ValueError(f"unknown series {name!r}")


def series_log(q: tuple) -> list:
    """l_1..l_n (index 0 unused) with log(sum q_k z^k) = sum l_k z^k."""
    n = len(q) - 1
    out = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        acc = k * q[k]
        for i in range(1, k):
            acc -= i * out[i] * q[k - i]
        out[k] = acc / k
    return out


def truncated_product(q: tuple, roots: list) -> list:
    """[t^j] prod_i Q(t z_i) for j = 0..n."""
    n = len(q) - 1
    prod = [Fraction(1)] + [Fraction(0)] * n
    for z in roots:
        factor = [q[k] * z**k for k in range(n + 1)]
        prod = [sum(prod[i] * factor[j - i] for i in range(j + 1)) for j in range(n + 1)]
    return prod


def elementary(roots: list, n: int) -> list:
    """e_0..e_n of the roots."""
    e = [1] + [0] * n
    for z in roots:
        for j in range(n, 0, -1):
            e[j] += e[j - 1] * z
    return e


def hp_pontryagin(k: int) -> list:
    """p_0..p_k of HP^k as multiples of u^i: (1+u)^(2k+2) / (1+4u)."""
    num = [comb(2 * k + 2, i) for i in range(k + 1)]
    inv = [(-4) ** i for i in range(k + 1)]
    return [sum(num[i] * inv[j - i] for i in range(j + 1)) for j in range(k + 1)]


# -- genus polynomials -------------------------------------------------------


def parse_polynomial(text: str) -> dict:
    """'-1/45*p1^2 + 7/45*p2' -> {((1, 2),): -1/45, ((2, 1),): 7/45}."""
    if text == "0":
        return {}
    tokens = text.split(" ")
    pieces = [(1, tokens[0])]
    for i in range(1, len(tokens), 2):
        expect(tokens[i] in ("+", "-"), f"malformed polynomial {text!r}")
        pieces.append((1 if tokens[i] == "+" else -1, tokens[i + 1]))
    terms: dict = {}
    for sign, piece in pieces:
        if piece.startswith("-"):
            sign, piece = -sign, piece[1:]
        factors = piece.split("*")
        coeff = Fraction(1)
        if factors[0][0].isdigit():
            coeff = Fraction(factors.pop(0))
        mono: dict = {}
        for factor in factors:
            name, _, exp = factor.partition("^")
            expect(name.startswith("p") and name[1:].isdigit(), f"unknown class {name!r}")
            index = int(name[1:])
            mono[index] = mono.get(index, 0) + int(exp or 1)
        key = tuple(sorted(mono.items()))
        expect(key not in terms, f"repeated monomial in {text!r}")
        terms[key] = sign * coeff
    return terms


def evaluate(terms: dict, p: list) -> Fraction:
    total = Fraction(0)
    for mono, coeff in terms.items():
        value = coeff
        for index, exp in mono:
            value *= p[index] ** exp if index < len(p) else 0
        total += value
    return total


def check_genus_polynomials(series_name: str, degree: int, polys: dict, root_sets: list) -> None:
    expect(
        list(polys) == [f"K{j}" for j in range(1, degree + 1)],
        f"expected K1..K{degree}, got {list(polys)}",
    )
    q = series(series_name, degree)
    parsed = [None] + [parse_polynomial(polys[f"K{j}"]) for j in range(1, degree + 1)]
    for j in range(1, degree + 1):
        for mono in parsed[j]:
            weight = sum(index * exp for index, exp in mono)
            expect(weight == j, f"K{j} has a monomial of weight {weight}")
    for roots in root_sets:
        want = truncated_product(q, roots)
        p = elementary(roots, degree)
        for j in range(1, degree + 1):
            got = evaluate(parsed[j], p)
            expect(got == want[j], f"{series_name} K{j} at roots {roots}: {got} != {want[j]}")
    for k in range(1, degree + 1):
        hp = hp_pontryagin(k)
        if series_name == "L":
            cp = [comb(2 * k + 1, i) for i in range(k + 1)]
            expect(evaluate(parsed[k], cp) == 1, f"L[CP^{2 * k}] != 1")
            # HP^k has middle cohomology (so signature 1) only for even k
            expect(evaluate(parsed[k], hp) == (1 - k % 2), f"L[HP^{k}] is not the signature")
        elif series_name == "ahat":
            expect(evaluate(parsed[k], hp) == 0, f"Ahat[HP^{k}] != 0")


# -- coefficients read by certificates ---------------------------------------


def genus_power_coefficient(j: int) -> Fraction:
    """Coefficient of p_j in L_j: 2^2j (2^(2j-1) - 1) |B_2j| / (2j)!."""
    b = bernoulli_numbers(2 * j)[2 * j]
    return Fraction(4**j * (2 ** (2 * j - 1) - 1)) * abs(b) / factorial(2 * j)


@lru_cache(maxsize=None)
def waring_coefficients(series_name: str, m: int) -> tuple:
    """(coeff of p_m in K_m, of p_m^2 in K_2m, of p_2m in K_2m).

    Under p_i -> 0 for i not in {m, 2m}, Waring's formula gives the power
    sums s_m = (-1)^(m-1) m p_m and s_2m = -2m p_2m + m p_m^2, so with
    l = log Q: K = exp(l_m s_m + l_2m s_2m + ...).
    """
    log = series_log(series(series_name, 2 * m))
    c_m = (-1) ** (m - 1) * m * log[m]
    return c_m, m * log[2 * m] + c_m * c_m / 2, -2 * m * log[2 * m]


def s_coefficients(m: int) -> tuple:
    s_m, s_mm, s_2m = waring_coefficients("L", m)
    expect(s_m == genus_power_coefficient(m), f"oracle disagrees with itself on s_{m}")
    expect(s_2m == genus_power_coefficient(2 * m), f"oracle disagrees with itself on s_{2 * m}")
    return s_m, s_mm, s_2m


def realization_values(m: int, P2: int, Q: int) -> dict:
    s_m, s_mm, s_2m = s_coefficients(m)
    f1, f3 = factorial(2 * m - 1), factorial(4 * m - 1)
    c1 = Fraction((-1) ** (m + 1), f1) * s_m + Fraction(1, 2 * f3)
    return {
        "sigma": s_mm * P2 + s_2m * Q,
        "cond2": c1 * P2 - Fraction(Q, f3),
        "cond3": Fraction(P2, f1 * f1),
        "s_m": s_m,
        "s_mm": s_mm,
        "s_2m": s_2m,
    }


def mayer_values(m: int, P2: int, Q: int) -> tuple:
    """(integral(Ahat), integral(e1^2 Ahat)) on the 8m-dimensional model.

    e1 = 2 sum_r ps_r/(2r)! reduces to (2/(2m)!) s_m + higher terms, so
    in degree 2m only its square term survives: 4 m^2 / ((2m)!)^2 * P2.
    """
    _, a, b = waring_coefficients("ahat", m)
    return a * P2 + b * Q, Fraction(4 * m * m, factorial(2 * m) ** 2) * P2


# -- mod-2 Kunneth squares ------------------------------------------------------


def pair(u: str, v: str) -> str:
    return f"{u}⊗{v}"


def group_text(free: int, torsion: list) -> str:
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{t}" for t in sorted(torsion))
    return " + ".join(parts) if parts else "0"


def square_w5(model: dict) -> dict:
    """w4, H^4 and the verdict for M x M from the factor's own data.

    model: {"unit", "sw": {degree: set of basis names},
            "integral": {degree: (free, [torsion orders])}}.
    """
    def w(i):
        return {model["unit"]} if i == 0 else set(model["sw"].get(i, ()))

    w4: set = set()
    for i in range(5):
        w4 ^= {pair(u, v) for u in w(i) for v in w(4 - i)}

    def group(i):
        return model["integral"].get(i, (0, []))

    free, torsion = 0, []
    for i in range(5):
        (fa, ta), (fb, tb) = group(i), group(4 - i)
        free += fa * fb
        torsion += list(tb) * fa + list(ta) * fb
        torsion += [gcd(s, t) for s in ta for t in tb if gcd(s, t) > 1]
    for i in range(6):
        (_, ta), (_, tb) = group(i), group(5 - i)
        torsion += [gcd(s, t) for s in ta for t in tb if gcd(s, t) > 1]
    if not w4:
        verdict = "established"
    elif free == 0 and not torsion:
        verdict = "excluded"
    else:
        verdict = "inconclusive"
    return {
        "w4": " + ".join(sorted(w4)) if w4 else "0",
        "H4_integral": group_text(free, torsion),
        "verdict": verdict,
    }
