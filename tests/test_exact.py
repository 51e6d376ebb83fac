import math
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from spincert import certify, exact


def _four_squares_exhaustive(x):
    """The enumerator as it was before its b and c loops got lower bounds: the slow oracle."""
    if x < 0:
        raise ValueError(f"four_squares needs a non-negative integer, got {x}")
    for a in range(isqrt(x), -1, -1):
        rest_a = x - a * a
        if rest_a > 3 * a * a:
            break  # a too small to dominate the remaining three squares
        for b in range(0, min(a, isqrt(rest_a)) + 1):
            rest_b = rest_a - b * b
            for c in range(0, min(b, isqrt(rest_b)) + 1):
                rest_c = rest_b - c * c
                d = isqrt(rest_c)
                if d * d == rest_c and d <= c:
                    return (a, b, c, d)
    raise AssertionError(f"unreachable: no four-square decomposition found for {x}")


def _four_squares_halving(x):
    """The slow oracle on x / 4, doubled, for a multiple of 8, whose four squares are all even.

    The plain oracle scans every a down to sqrt(x / 2) on x = 2^(2k+1), which
    does not finish for x near 10^12.
    """
    if x and x % 8 == 0:
        return tuple(2 * v for v in _four_squares_halving(x // 4))
    return _four_squares_exhaustive(x)


class TestNu2:
    def test_examples(self):
        assert exact.nu2(2) == 1
        assert exact.nu2(Fraction(7, 45)) == 0
        assert exact.nu2(Fraction(1, 30)) == -1
        assert exact.nu2(Fraction(-12, 5)) == 2

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact.nu2(0)
        with pytest.raises(ZeroDivisionError):
            exact.nu2(Fraction(0))

    def test_multiplicativity_and_ultrametric(self):
        rng = random.Random(9021)
        for _ in range(300):
            a = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
            b = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
            assert exact.nu2(a * b) == exact.nu2(a) + exact.nu2(b)
            if a + b != 0:
                assert exact.nu2(a + b) >= min(exact.nu2(a), exact.nu2(b))

    def test_factorial_valuation_legendre(self):
        for n in range(0, 60):
            direct = exact.nu2(math.factorial(n)) if n > 1 else 0
            assert exact.nu2_factorial(n) == direct
        for m in (1, 2, 4, 8):
            assert exact.nu2_factorial(4 * m) == 4 * m - 1

    def test_factorial_of_a_negative_integer(self):
        with pytest.raises(ValueError, match="factorial of a negative integer"):
            exact.nu2_factorial(-1)


class TestDyadic:
    def test_examples(self):
        assert exact.is_dyadic(Fraction(3, 8))
        assert not exact.is_dyadic(Fraction(1, 6))
        assert exact.is_dyadic(45)
        assert exact.is_dyadic(0)
        assert exact.is_dyadic(Fraction(-7, 1024))

    def test_odd_part(self):
        assert exact.odd_part(48) == 3
        assert exact.odd_part(-40) == 5
        assert exact.odd_part(1) == 1
        with pytest.raises(ValueError):
            exact.odd_part(0)


def _bernoulli_akiyama_tanigawa(n):
    # independent oracle: triangular Akiyama-Tanigawa recurrence
    # (gives the B_1 = +1/2 convention; even-index values agree)
    A = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(A[0])
    return out


class TestBernoulli:
    def test_anchor_values(self):
        assert exact.bernoulli(1) == Fraction(1, 6)
        assert exact.bernoulli(2) == Fraction(1, 30)
        assert exact.bernoulli(3) == Fraction(1, 42)
        assert exact.bernoulli(4) == Fraction(1, 30)

    def test_against_akiyama_tanigawa(self):
        oracle = _bernoulli_akiyama_tanigawa(64)
        for j in range(32, 0, -1):
            assert exact.bernoulli(j) == abs(oracle[2 * j])

    def test_von_staudt_clausen_valuation(self):
        for j in range(1, 17):
            assert exact.nu2(exact.bernoulli(j)) == -1

    def test_bad_index(self):
        with pytest.raises(ValueError):
            exact.bernoulli(0)
        with pytest.raises(ValueError):
            exact.bernoulli(-3)


class TestAlpha:
    def test_examples(self):
        assert exact.alpha(5) == 2
        assert exact.alpha(4) == 1
        assert exact.alpha(7) == 3

    def test_against_bin(self):
        for n in range(1, 512):
            assert exact.alpha(n) == bin(n).count("1")

    def test_bad_input(self):
        with pytest.raises(ValueError):
            exact.alpha(0)


class TestQuadraticResidues:
    def test_mod_48(self):
        assert exact.quadratic_residues(48) == {0, 1, 4, 9, 16, 25, 33, 36}

    def test_mod_2(self):
        assert exact.quadratic_residues(2) == {0, 1}

    def test_negation_symmetry(self):
        for m in range(2, 60):
            residues = exact.quadratic_residues(m)
            assert residues == {(m - c) ** 2 % m for c in range(m)}

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            exact.quadratic_residues(1)


class TestFourSquares:
    def test_zero(self):
        assert exact.four_squares(0) == (0, 0, 0, 0)

    def test_frozen_45(self):
        assert exact.four_squares(45) == (6, 2, 2, 1)

    def test_240(self):
        quad = exact.four_squares(240)
        assert sum(a * a for a in quad) == 240

    def test_verification_up_to_1000(self):
        for x in range(1001):
            a, b, c, d = exact.four_squares(x)
            assert a * a + b * b + c * c + d * d == x
            assert a >= b >= c >= d >= 0

    def test_deterministic(self):
        for x in (7, 45, 240, 999):
            assert exact.four_squares(x) == exact.four_squares(x)

    def test_negative(self):
        with pytest.raises(ValueError):
            exact.four_squares(-1)

    def test_matches_the_exhaustive_oracle_up_to_10000(self):
        for x in range(10001):
            assert exact.four_squares(x) == _four_squares_exhaustive(x), x

    def test_halving_matches_the_exhaustive_oracle_up_to_10000(self):
        for x in range(0, 10001, 8):
            assert _four_squares_halving(x) == _four_squares_exhaustive(x), x

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**12 - 1))
    def test_matches_the_exhaustive_oracle_below_10_to_12(self, x):
        assert exact.four_squares(x) == _four_squares_halving(x)

    def test_powers_of_two(self):
        # 2^(2k) = (2^k)^2 and 2^(2k+1) = 2 (2^k)^2; odd exponents once walked sqrt(x) / 4 values of a
        for n in range(100):
            k = n // 2
            expected = (2**k, 0, 0, 0) if n % 2 == 0 else (2**k, 2**k, 0, 0)
            assert exact.four_squares(2**n) == expected, n

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_matches_the_exhaustive_oracle_on_search_p2(self, m):
        P2 = certify.realization_search(m).P2
        assert exact.four_squares(P2) == _four_squares_exhaustive(P2)


class TestCanonicalForm:
    def test_arithmetic_stays_canonical(self):
        rng = random.Random(5150)
        for _ in range(300):
            a = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            b = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
            for value in (a + b, a - b, a * b, a / b):
                assert value.denominator > 0
                assert math.gcd(abs(value.numerator), value.denominator) == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)
