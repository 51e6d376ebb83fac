"""Exact rational arithmetic and the small number-theory toolkit.

Everything here works over arbitrary-precision integers and
``fractions.Fraction``; no floating point is used anywhere in the
package.  ``Fraction`` already maintains the canonical form needed
(lowest terms, positive denominator).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt
from typing import Set, Tuple


def _nu2_int(n: int) -> int:
    # n odd after stripping trailing zero bits
    if n == 0:
        raise ZeroDivisionError("2-adic valuation of zero is infinite")
    n = abs(n)
    return (n & -n).bit_length() - 1


def nu2(r: int | Fraction) -> int:
    """2-adic valuation of a nonzero rational.

    nu2(a/b) = nu2(a) - nu2(b).  Raises ``ZeroDivisionError`` on zero.
    """
    r = Fraction(r)
    if r == 0:
        raise ZeroDivisionError("2-adic valuation of zero is infinite")
    return _nu2_int(r.numerator) - _nu2_int(r.denominator)


def nu2_factorial(n: int) -> int:
    """nu2(n!) computed as n - alpha(n) (Legendre's formula at p = 2)."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    return n - n.bit_count()


def odd_part(n: int) -> int:
    """Largest odd divisor of a nonzero integer (sign discarded)."""
    if n == 0:
        raise ValueError("zero has no odd part")
    n = abs(n)
    return n >> _nu2_int(n)


def is_dyadic(r: int | Fraction) -> bool:
    """True iff r lies in Z[1/2], i.e. the reduced denominator is a power of two."""
    r = Fraction(r)
    return odd_part(r.denominator) == 1


def bernoulli(j: int) -> Fraction:
    """j-th Bernoulli number in the classical unsigned indexing.

    This is the convention with B_1 = 1/6, B_2 = 1/30, B_3 = 1/42, i.e.
    the absolute value of the modern B_{2j}.  The modern values come from
    the binomial recurrence sum_{r=0}^{n} C(n+1, r) B_r = 0 with B_0 = 1
    and B_1 = -1/2; odd-index values above 1 vanish, so only even indices
    are carried.  The indexing is translated only here at the boundary.
    """
    if j < 1:
        raise ValueError(f"bernoulli index must be >= 1, got {j}")
    evens = [Fraction(1)]  # modern-convention B_0, B_2, B_4, ... (signed)
    for i in range(1, j + 1):
        n = 2 * i
        s = sum(Fraction(comb(n + 1, 2 * r)) * evens[r] for r in range(i))
        s += Fraction(n + 1) * Fraction(-1, 2)  # the B_1 term
        evens.append(-s / (n + 1))
    return abs(evens[j])


def alpha(n: int) -> int:
    """Number of ones in the binary expansion of a positive integer."""
    if n < 1:
        raise ValueError(f"alpha is defined for positive integers, got {n}")
    return n.bit_count()


def quadratic_residues(modulus: int) -> Set[int]:
    """The set {c^2 mod modulus : 0 <= c < modulus}."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    return {c * c % modulus for c in range(modulus)}


def _least_root(n: int, k: int) -> int:
    """Least r >= 0 with k * r^2 >= n, for n >= 0 and k >= 1: ceil(sqrt(n / k))."""
    r = isqrt(n // k)
    return r if k * r * r >= n else r + 1


def four_squares(x: int) -> Tuple[int, int, int, int]:
    """A deterministic quadruple a >= b >= c >= d >= 0 with a^2+b^2+c^2+d^2 = x.

    Tie-break: a is taken as large as possible, then (b, c, d) is the
    lexicographically smallest valid tail.  E.g. 45 -> (6, 2, 2, 1).
    Existence for every x >= 0 is Lagrange's theorem, so the search
    always terminates.

    b starts at ceil(sqrt(rest_a / 3)) and c at ceil(sqrt(rest_b / 2)),
    where rest_a = x - a^2 and rest_b = rest_a - b^2: b >= c >= d forces
    3 b^2 >= rest_a and 2 c^2 >= rest_b, so the skipped values hold no
    valid tail, and the first tail found is still the smallest.

    A multiple of 8 is searched as x / 4 and the quadruple doubled: odd
    squares are 1 mod 8, so a sum of four squares that is 0 mod 8 has all
    four even, and halving keeps the tie-break.  Without this, x = 2^(2k+1)
    walks every a from sqrt(x) down to sqrt(x / 2), each with a full b, c scan.
    """
    if x < 0:
        raise ValueError(f"four_squares needs a non-negative integer, got {x}")
    scale = 1
    while x and x % 8 == 0:
        x //= 4
        scale *= 2
    for a in range(isqrt(x), -1, -1):
        rest_a = x - a * a
        if rest_a > 3 * a * a:
            break  # a too small to dominate the remaining three squares
        for b in range(_least_root(rest_a, 3), min(a, isqrt(rest_a)) + 1):
            rest_b = rest_a - b * b
            for c in range(_least_root(rest_b, 2), min(b, isqrt(rest_b)) + 1):
                rest_c = rest_b - c * c
                d = isqrt(rest_c)
                if d * d == rest_c and d <= c:
                    return (scale * a, scale * b, scale * c, scale * d)
    raise AssertionError(f"unreachable: no four-square decomposition found for {x}")
