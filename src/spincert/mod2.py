"""Finite graded-commutative algebras over F2 and Stiefel-Whitney calculus.

Two carriers live here: finite algebras with an explicit multiplication
table (cohomology rings of concrete manifold models, with Kunneth
products and the degree-4 integral-lift test), and free polynomial
algebras over F2 on w_1..w_k, where a bundle's total Stiefel-Whitney
class is one polynomial, so a Whitney sum with a line bundle is one
product and a line-bundle twist one sum.  Integral cohomology is always
declared input data, never computed.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from functools import cache
from math import gcd
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from .certificates import Certificate, Check, ESTABLISHED, EXCLUDED, INCONCLUSIVE, ReadOnly


class AlgebraError(ValueError):
    """An invalid algebra; ``field`` names the document field at fault."""

    def __init__(self, message: str, field: str = "products"):
        super().__init__(message)
        self.field = field


class ModelError(ValueError):
    pass


# -- finite F2 algebras --------------------------------------------------


class F2Algebra(ReadOnly):
    """Graded-commutative unital algebra over F2 with a finite basis.

    Elements are int bitmasks over the basis (bit i is ``names[i]``); there
    is no element type.  ``mul[i][j]`` is the product of basis elements i
    and j, held as a tuple of tuples.  Construction indexes the basis and
    trusts the table: a declared table goes through :func:`build_algebra`,
    which checks the axioms, and :func:`kunneth` builds tables that satisfy
    them by construction.  An algebra is read-only once built, as a shared
    :class:`SpaceModel` needs.
    """

    __slots__ = ("names", "degrees", "unit", "mul", "_index")

    def __init__(
        self,
        names: Tuple[str, ...],
        degrees: Tuple[int, ...],
        unit: str,
        mul: Tuple[Tuple[int, ...], ...],
    ) -> None:
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "_index", MappingProxyType(_basis_index(names, degrees, unit)))

    def product(self, x: int, y: int) -> int:
        """Product of two elements given as masks."""
        acc = 0
        for i in _bits(x):
            for j in _bits(y):
                acc ^= self.mul[i][j]
        return acc

    # -- elements ------------------------------------------------------

    def mask(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            if name not in self._index:
                raise AlgebraError(f"unknown basis element {name!r}")
            mask |= 1 << self._index[name]
        return mask

    def dim(self, degree: int) -> int:
        return self.degrees.count(degree)

    @property
    def top_degree(self) -> int:
        return max(self.degrees)


def _check_axioms(algebra: F2Algebra) -> None:
    """Commutativity, unit law, degree-additivity and associativity of the table.

    Associativity is checked on the basis triples the other axioms leave
    open.  A violation raises :class:`AlgebraError` naming the offending
    pair or triple.
    """
    names, degrees, mul = algebra.names, algebra.degrees, algebra.mul
    n = len(names)
    for i in range(n):
        for j in range(i + 1, n):
            if mul[i][j] != mul[j][i]:
                raise AlgebraError(
                    f"product table is not commutative on the pair "
                    f"({names[i]}, {names[j]})"
                )
    u = algebra._index[algebra.unit]
    for i in range(n):
        if mul[u][i] != 1 << i or mul[i][u] != 1 << i:
            raise AlgebraError(f"unit law fails on {names[i]!r}")
    for i in range(n):
        for j in range(n):
            target = degrees[i] + degrees[j]
            for k in _bits(mul[i][j]):
                if degrees[k] != target:
                    raise AlgebraError(
                        f"product ({names[i]}, {names[j]}) is not degree-additive: "
                        f"{names[k]!r} has degree {degrees[k]}, expected {target}"
                    )
    # the unit law settles triples containing the unit, and degree-additivity
    # makes both sides zero when the degrees add up to more than the top degree
    top = algebra.top_degree
    others = [i for i in range(n) if i != u]
    for a in others:
        for b in others:
            room = top - degrees[a] - degrees[b]
            if room < 0:
                continue
            for c in others:
                if degrees[c] > room:
                    continue
                if algebra.product(mul[a][b], 1 << c) != algebra.product(1 << a, mul[b][c]):
                    raise AlgebraError(
                        f"product table is not associative on the triple "
                        f"({names[a]}, {names[b]}, {names[c]})"
                    )


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _basis_index(names: Sequence[str], degrees: Sequence[int], unit: str) -> Dict[str, int]:
    index: Dict[str, int] = {}
    for name, degree in zip(names, degrees):
        if name in index:
            raise AlgebraError(f"duplicate basis element {name!r}", "basis")
        if degree < 0:
            raise AlgebraError(f"negative degree for {name!r}", "basis")
        index[name] = len(index)
    if unit not in index:
        raise AlgebraError(f"unit {unit!r} is not a basis element", "unit")
    if degrees[index[unit]] != 0:
        raise AlgebraError(f"unit {unit!r} must have degree 0", "unit")
    return index


def build_algebra(
    basis: Sequence[Tuple[str, int]],
    products: Mapping[Tuple[str, str], Iterable[str]],
    unit: str = "1",
) -> F2Algebra:
    """Checked algebra from a basis and a (possibly partial) product table.

    Every declared table enters here, and this is the one place where the
    axioms are checked (:func:`_check_axioms`).  A pair listed in one order
    gets the same product in the other, pairs with the unit follow the unit
    law, and other unlisted pairs are zero.
    """
    names = tuple(name for name, _ in basis)
    degrees = tuple(degree for _, degree in basis)
    index = _basis_index(names, degrees, unit)
    table = {}
    for (left, right), result in products.items():
        for name in (left, right, *result):
            if name not in index:
                raise AlgebraError(f"product table mentions unknown element {name!r}")
        table[index[left], index[right]] = sum(1 << index[name] for name in set(result))
    n, u = len(index), index[unit]
    mul = [[0] * n for _ in range(n)]
    for i in range(n):
        mul[u][i] = mul[i][u] = 1 << i
    # mirrors first: a pair listed in both orders keeps both, and a conflict fails commutativity
    for (i, j), mask in table.items():
        mul[j][i] = mask
    for (i, j), mask in table.items():
        mul[i][j] = mask
    algebra = F2Algebra(names, degrees, unit, tuple(map(tuple, mul)))
    _check_axioms(algebra)
    return algebra


# -- declared integral cohomology ----------------------------------------


class IntProfile(ReadOnly):
    """Integral cohomology, declared: degree -> (free rank, torsion orders).

    ``groups`` is a read-only mapping that holds the non-zero degrees only,
    in ascending order.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: Mapping[int, Tuple[int, Tuple[int, ...]]]) -> None:
        object.__setattr__(self, "groups", groups)

    @staticmethod
    def from_mapping(data: Mapping[int, Tuple[int, Iterable[int]]]) -> "IntProfile":
        groups = {}
        for degree in sorted(data):
            free, torsion = data[degree]
            torsion = tuple(sorted(int(t) for t in torsion))
            if degree < 0 or free < 0 or any(t < 2 for t in torsion):
                raise ModelError(f"malformed integral data in degree {degree}")
            if free or torsion:
                groups[degree] = (int(free), torsion)
        return IntProfile(MappingProxyType(groups))

    def free(self, degree: int) -> int:
        return self.groups.get(degree, (0, ()))[0]

    def torsion(self, degree: int) -> Tuple[int, ...]:
        return self.groups.get(degree, (0, ()))[1]

    def mod2_dim(self, degree: int) -> int:
        # universal coefficients with F2: free part plus 2-torsion in this
        # degree and the next
        even_here = sum(1 for t in self.torsion(degree) if t % 2 == 0)
        even_next = sum(1 for t in self.torsion(degree + 1) if t % 2 == 0)
        return self.free(degree) + even_here + even_next

    def is_trivial(self, degree: int) -> bool:
        return degree not in self.groups

    def group_text(self, degree: int) -> str:
        free, torsion = self.free(degree), self.torsion(degree)
        parts = []
        if free == 1:
            parts.append("Z")
        elif free > 1:
            parts.append(f"Z^{free}")
        parts.extend(f"Z/{t}" for t in torsion)
        return " + ".join(parts) if parts else "0"


# -- manifold models -------------------------------------------------------


class SpaceModel(ReadOnly):
    """Mod-2 cohomology ring, tangent SW class and declared integral data.

    A read-only model: ``sw`` is the mask of the total class
    w = 1 + w_1 + w_2 + ..., unit included, so w_d is its degree-d part,
    and the algebra's table is tuples.  Classes are masks over the basis,
    like every element of an :class:`F2Algebra`.
    """

    __slots__ = ("name", "algebra", "sw", "int_profile", "dimension")

    def __init__(
        self, name: str, algebra: F2Algebra, sw: int, int_profile: IntProfile, dimension: int
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "sw", sw)
        object.__setattr__(self, "int_profile", int_profile)
        object.__setattr__(self, "dimension", dimension)
        # range first: a negative int never runs out of bits
        if sw < 0 or sw >> len(algebra.names):
            raise ModelError("the total SW class is not a mask over the basis")
        if self.w(0) != algebra.mask([algebra.unit]):
            raise ModelError("the total SW class must have the unit as its degree-0 part")
        # a closed n-manifold has H^n(M; F2) != 0 and nothing above degree n
        if algebra.top_degree != dimension:
            raise ModelError(
                f"top basis degree {algebra.top_degree} differs from the dimension {dimension}"
            )
        groups = int_profile.groups
        for degree in groups:
            if degree > dimension:
                raise ModelError(f"integral data above the dimension, in degree {degree}")
        # both sides vanish outside the basis degrees, the group degrees and
        # the degrees just below the groups (2-torsion counts one degree down)
        dims = Counter(algebra.degrees)
        for degree in sorted({*dims, *groups, *(d - 1 for d in groups if d)}):
            expected = int_profile.mod2_dim(degree)
            actual = dims[degree]
            if actual != expected:
                raise ModelError(
                    f"universal-coefficient mismatch in degree {degree}: "
                    f"mod-2 dimension {actual}, integral profile predicts {expected}"
                )

    def w(self, degree: int) -> int:
        """w_degree: the mask of the degree-``degree`` part of the total class."""
        degrees = self.algebra.degrees
        return sum(1 << i for i in _bits(self.sw) if degrees[i] == degree)


@cache
def wu_manifold() -> SpaceModel:
    """The five-dimensional homogeneous space SU(3)/SO(3), read from ``data/wu.json``.

    Read once per process; every call returns the same immutable model.

    Mod-2 cohomology has basis 1, z2, z3, z5 with z2*z3 = z5 and
    z2^2 = 0; the tangent SW class is 1 + z2 + z3; integrally there is a
    single order-2 class in degree 3 besides the free parts in degrees 0
    and 5.
    """
    path = os.path.join(os.path.dirname(__file__), "data", "wu.json")
    return space_model_from_dict(read_document(path))


def point_model() -> SpaceModel:
    algebra = build_algebra([("1", 0)], {})
    return SpaceModel(
        name="point",
        algebra=algebra,
        sw=algebra.mask([algebra.unit]),
        int_profile=IntProfile.from_mapping({0: (1, ())}),
        dimension=0,
    )


def sphere_model(n: int) -> SpaceModel:
    if n < 1:
        raise ModelError("sphere dimension must be >= 1")
    algebra = build_algebra([("1", 0), (f"v{n}", n)], {(f"v{n}", f"v{n}"): []})
    return SpaceModel(
        name=f"sphere-{n}",
        algebra=algebra,
        sw=algebra.mask([algebra.unit]),
        int_profile=IntProfile.from_mapping({0: (1, ()), n: (1, ())}),
        dimension=n,
    )


# -- Kunneth products -------------------------------------------------------


def _spread(x: int, width: int) -> int:
    """x with bit i moved to bit i * width."""
    acc = 0
    for i in _bits(x):
        acc |= 1 << (i * width)
    return acc


def _tensor(x: int, y: int, width: int) -> int:
    """Mask of x ⊗ y, where the basis pair (i, j) has index i * width + j.

    y < 2^width, so the copies y << (i * width) do not overlap, and their
    union is the product y * _spread(x, width).
    """
    return y * _spread(x, width)


def _product_basis(
    left: F2Algebra, right: F2Algebra
) -> Tuple[Tuple[str, ...], Tuple[int, ...], str]:
    """Names, degrees and unit of the tensor basis, in row-major pair order."""
    names = tuple(f"{x}⊗{y}" for x in left.names for y in right.names)
    degrees = tuple(dx + dy for dx in left.degrees for dy in right.degrees)
    return names, degrees, f"{left.unit}⊗{right.unit}"


def _kunneth_group(a: IntProfile, b: IntProfile, d: int) -> Tuple[int, List[int]]:
    """H^d(M x N; Z) as (free rank, torsion orders), by the Kunneth formula (Hatcher, Thm 3B.6).

    The sum over the degrees i of M's groups of H^i ⊗ H^(d-i) and of
    Tor(H^i, H^(d+1-i)); Z/s ⊗ Z/t and Tor(Z/s, Z/t) are both Z/gcd(s, t).
    """
    free, torsion = 0, []
    for i, (fa, ta) in a.groups.items():
        fb, tb = b.free(d - i), b.torsion(d - i)
        free += fa * fb
        torsion += [*tb] * fa + [*ta] * fb
        torsion += [gcd(s, t) for s in ta for t in (*tb, *b.torsion(d + 1 - i)) if gcd(s, t) > 1]
    return free, torsion


def kunneth(a: SpaceModel, b: SpaceModel) -> SpaceModel:
    """Product model: tensor algebra, product SW class, combined profile.

    This builds the product's whole table.  The CLI reads the W5 verdict of a
    product from its factors (:func:`product_w5_verdict`) with this function's
    own helpers; the independent oracle for both is
    ``dense_kunneth_sw_and_profile`` in ``tests/test_mod2.py``.
    """
    left, right = a.algebra, b.algebra
    width = len(right.names)
    # the tensor product of two algebras that satisfy the axioms satisfies them
    # too (over F2 graded commutativity has no signs), so the table is not checked;
    # each entry is _tensor(u, v, width), with u spread once per left entry
    spread = [[_spread(u, width) for u in row_a] for row_a in left.mul]
    mul = tuple(
        tuple(s * v for s in row_s for v in row_b) for row_s in spread for row_b in right.mul
    )
    algebra = F2Algebra(*_product_basis(left, right), mul)

    # a group of the product sits in a degree i + j or i + j - 1 of two factor groups
    pa, pb = a.int_profile, b.int_profile
    reached = {i + j - shift for i in pa.groups for j in pb.groups for shift in (0, 1)}
    profile = {d: _kunneth_group(pa, pb, d) for d in reached if d >= 0}

    return SpaceModel(
        name=f"{a.name} x {b.name}",
        algebra=algebra,
        # the Whitney product formula (Milnor-Stasheff, Sec. 4): w(M x N) = w(M) ⊗ w(N)
        sw=_tensor(a.sw, b.sw, width),
        int_profile=IntProfile.from_mapping(profile),
        dimension=a.dimension + b.dimension,
    )


# -- integral lifts and the degree-5 obstruction ----------------------------


def w5_verdict(model: SpaceModel) -> Certificate:
    """Primary spin^h obstruction: W5 = 0 exactly when w4 lifts integrally."""
    algebra = model.algebra
    return _w5_certificate(
        model.name, model.dimension, model.sw, algebra.names, algebra.degrees, model.int_profile
    )


def product_w5_verdict(a: SpaceModel, b: SpaceModel) -> Certificate:
    """``w5_verdict(kunneth(a, b))``, read from the factors without the product's table.

    The product's basis names are refused as ``kunneth`` refuses them, first
    duplicate first.  The total class is the tensor of the factors' (the
    Whitney product formula), and H^4 is the one Kunneth group it needs.
    """
    names, degrees, unit = _product_basis(a.algebra, b.algebra)
    _basis_index(names, degrees, unit)
    return _w5_certificate(
        f"{a.name} x {b.name}",
        a.dimension + b.dimension,
        _tensor(a.sw, b.sw, len(b.algebra.names)),
        names,
        degrees,
        IntProfile.from_mapping({4: _kunneth_group(a.int_profile, b.int_profile, 4)}),
    )


def _w5_certificate(
    name: str,
    dimension: int,
    sw: int,
    names: Sequence[str],
    degrees: Sequence[int],
    h4: IntProfile,
) -> Certificate:
    """The W5 certificate of a total SW class ``sw`` over a basis, and H^4(Z) from ``h4``.

    Orientability is w1 = 0.  The lift rule uses sufficient criteria only: a
    zero w4 always lifts, and a non-zero w4 cannot lift through a zero
    H^4(Z).  Anything else is reported as unknown, never guessed.
    """
    support = list(_bits(sw))
    w4 = sorted(names[i] for i in support if degrees[i] == 4)
    lift = "yes" if not w4 else "no" if h4.is_trivial(4) else "unknown"
    w4_text, h4_text = " + ".join(w4) or "0", h4.group_text(4)
    claim, verdict = {
        "yes": ("w5-obstruction-vanishes", ESTABLISHED),
        "no": ("not-spin^h", EXCLUDED),
        "unknown": ("w5-obstruction-undetermined", INCONCLUSIVE),
    }[lift]
    checks = [Check("w4 component", w4_text, "0", "=" if lift == "yes" else "!=", True)]
    if lift != "yes":
        relation = "=" if lift == "no" else "!="
        checks.append(Check("degree-4 integral cohomology", h4_text, "0", relation, True))
    return Certificate(
        claim=claim,
        parameters={
            "model": name,
            "dimension": dimension,
            "k": 3,
            "orientable": all(degrees[i] != 1 for i in support),
            "w4": w4_text,
            "H4_integral": h4_text,
        },
        checks=checks,
        verdict=verdict,
    )


# -- free F2 polynomial algebras and symbolic bundle identities -------------


class F2Ring(ReadOnly):
    """Free polynomial ring over F2 on graded generators."""

    __slots__ = ("gen_names", "gen_degrees")

    def __init__(self, gen_names: Tuple[str, ...], gen_degrees: Tuple[int, ...]) -> None:
        object.__setattr__(self, "gen_names", gen_names)
        object.__setattr__(self, "gen_degrees", gen_degrees)

    def mono_degree(self, exps: Tuple[int, ...]) -> int:
        return sum(e * d for e, d in zip(exps, self.gen_degrees))

    def zero(self) -> "F2Poly":
        return F2Poly(self, frozenset())

    def one(self) -> "F2Poly":
        return F2Poly(self, frozenset({(0,) * len(self.gen_names)}))

    def gen(self, name: str) -> "F2Poly":
        index = self.gen_names.index(name)
        exps = tuple(1 if i == index else 0 for i in range(len(self.gen_names)))
        return F2Poly(self, frozenset({exps}))


class F2Poly(ReadOnly):
    __slots__ = ("ring", "monos")

    def __init__(self, ring: F2Ring, monos: FrozenSet[Tuple[int, ...]]) -> None:
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "monos", monos)

    def __add__(self, other: "F2Poly") -> "F2Poly":
        self._require_same_ring(other)
        return F2Poly(self.ring, self.monos ^ other.monos)

    def __mul__(self, other: "F2Poly") -> "F2Poly":
        self._require_same_ring(other)
        acc: set = set()
        for ma in self.monos:
            for mb in other.monos:
                acc ^= {tuple(x + y for x, y in zip(ma, mb))}
        return F2Poly(self.ring, frozenset(acc))

    def is_zero(self) -> bool:
        return not self.monos

    def _require_same_ring(self, other: "F2Poly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials belong to different rings")


def sw_ring(k: int, extra_degree1: Tuple[str, ...] = ()) -> F2Ring:
    """Free SW algebra on w_1..w_k (deg w_i = i), plus degree-1 generators ``extra_degree1``."""
    if k < 1:
        raise ValueError("rank must be >= 1")
    names = tuple(f"w{i}" for i in range(1, k + 1)) + tuple(extra_degree1)
    degrees = tuple(range(1, k + 1)) + (1,) * len(extra_degree1)
    return F2Ring(names, degrees)


class SymbolicSW(ReadOnly):
    """Total SW class 1 + w_1 + ... of a rank-k bundle, as one polynomial."""

    __slots__ = ("rank", "total")

    def __init__(self, rank: int, total: F2Poly) -> None:
        ring = total.ring
        if any(ring.mono_degree(m) > rank for m in total.monos):
            raise ValueError(f"a rank-{rank} bundle has no SW class above degree {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "total", total)

    def component(self, degree: int) -> F2Poly:
        """w_degree: the degree-``degree`` part of the total, zero outside 0..rank."""
        ring = self.total.ring
        return F2Poly(
            ring, frozenset(m for m in self.total.monos if ring.mono_degree(m) == degree)
        )

    @property
    def ring(self) -> F2Ring:
        return self.total.ring


def generic_bundle(ring: F2Ring, k: int) -> SymbolicSW:
    total = ring.one()
    for i in range(1, k + 1):
        total = total + ring.gen(f"w{i}")
    return SymbolicSW(rank=k, total=total)


def line_twist(bundle: SymbolicSW, t: F2Poly) -> SymbolicSW:
    """Total SW class of E tensor L for a line class with w_1(L) = t.

    By the splitting principle, w(E ox L) = sum_i w_i(E) (1 + t)^(k - i): each
    monomial of w(E), of degree d, contributes itself times (1 + t)^(k - d).
    """
    ring, k = bundle.ring, bundle.rank
    powers = [ring.one()]  # (1 + t)^0 .. (1 + t)^k
    for _ in range(k):
        powers.append(powers[-1] * (ring.one() + t))
    terms = (
        F2Poly(ring, frozenset({m})) * powers[k - ring.mono_degree(m)]
        for m in bundle.total.monos
    )
    return SymbolicSW(rank=k, total=sum(terms, ring.zero()))


def _plus_det(bundle: SymbolicSW) -> SymbolicSW:
    """Whitney sum with det E, whose w_1 is the generator w1: w * (1 + w1)."""
    ring = bundle.ring
    return SymbolicSW(rank=bundle.rank + 1, total=bundle.total * (ring.one() + ring.gen("w1")))


def tensor_with_det(k: int) -> SymbolicSW:
    """w(E ox det E) for a generic rank-k bundle, in the free SW algebra."""
    ring = sw_ring(k)
    return line_twist(generic_bundle(ring, k), ring.gen("w1"))


def sum_with_det(k: int) -> SymbolicSW:
    """w(E + det E) = w(E) * (1 + w_1(E))."""
    return _plus_det(generic_bundle(sw_ring(k), k))


def twist_then_sum(k: int) -> SymbolicSW:
    """w((E ox det E) + det E) = w(E ox det E) * (1 + w_1(E))."""
    return _plus_det(tensor_with_det(k))


# -- document interface -----------------------------------------------------

# wu-product reads the square from the factor, so loading the document dominates, and
# its associativity check grows like N^4 on a dense table: the whole process took
# 0.13-0.22 / 0.49-0.53 s on RP^n documents and 0.34-0.58 / 4.8-5.0 s on a dimension-3
# document with dense degree-1 products, at 64 / 128 basis elements, peaking below 30 MB
# (Python 3.11.7, shared 2-vCPU host); the dense document keeps the cap at 64
MODEL_MAX_BASIS = 64


def _unique_keys(pairs: List[Tuple[str, object]]) -> Dict:
    # json.loads keeps the last of two equal keys, which could flip a verdict unseen
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ModelError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


def read_document(path: str) -> Dict:
    """The JSON object in the model file at ``path``; a repeated key is refused."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as err:
        raise ModelError(f"cannot read model file {path!r}: {err}") from err
    except UnicodeDecodeError as err:
        raise ModelError(f"model file {path!r} is not UTF-8: {err}") from err
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ModelError(f"model file {path!r} is not valid JSON: {err}") from err
    except RecursionError as err:
        raise ModelError(f"model file {path!r} nests too deeply to parse") from err
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    return doc


def _is(value, kind) -> bool:
    # JSON true and false load as bool, which Python counts as an int
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _is_row(entry, *kinds) -> bool:
    return (
        isinstance(entry, list)
        and len(entry) == len(kinds)
        and all(_is(value, kind) for value, kind in zip(entry, kinds))
    )


def _require(doc: Mapping, field: str, kind) -> object:
    if field not in doc:
        raise ModelError(f"field {field!r}: missing")
    value = doc[field]
    if not _is(value, kind):
        raise ModelError(f"field {field!r}: expected {kind.__name__}")
    return value


def _degree_key(field: str, key: str) -> int:
    # int() also reads "+4", " 4 ", "0_4", "04" and non-ASCII digits as 4
    try:
        degree = int(key)
    except ValueError:
        pass
    else:
        if str(degree) == key:
            return degree
    raise ModelError(f"field {field!r}: degree key {key!r} is not a canonical integer")


def _refuse_repeated(field: str, index: int | str, names: List[str]) -> None:
    # a name list is a sum over F2, read as a set of names: a repeated name
    # would be kept once where the sum cancels it
    if len(set(names)) < len(names):
        twice = next(name for name, count in Counter(names).items() if count > 1)
        raise ModelError(
            f"field '{field}[{index}]': {twice!r} is listed twice; a name list is a sum over F2"
        )


def space_model_from_dict(doc: Mapping) -> SpaceModel:
    name = _require(doc, "name", str)
    dimension = _require(doc, "dimension", int)
    raw_basis = _require(doc, "basis", list)
    basis = []
    for i, entry in enumerate(raw_basis):
        if not _is_row(entry, str, int):
            raise ModelError(f"field 'basis[{i}]': expected [name, degree]")
        basis.append((entry[0], entry[1]))
    if len(basis) > MODEL_MAX_BASIS:
        raise ModelError(f"field 'basis': at most {MODEL_MAX_BASIS} elements, got {len(basis)}")
    unit = _require(doc, "unit", str)
    products = {}
    for i, entry in enumerate(_require(doc, "products", list)):
        if not _is_row(entry, str, str, list) or not all(isinstance(n, str) for n in entry[2]):
            raise ModelError(f"field 'products[{i}]': expected [left, right, [names]]")
        _refuse_repeated("products", i, entry[2])
        pair = (entry[0], entry[1])
        value = frozenset(entry[2])
        if pair in products and products[pair] != value:
            raise ModelError(f"field 'products[{i}]': duplicate pair {pair}")
        products[pair] = value
    try:
        algebra = build_algebra(basis, products, unit)
    except AlgebraError as err:
        raise ModelError(f"field {err.field!r}: {err}") from err

    sw = algebra.mask([unit])
    for key, names in _require(doc, "sw", dict).items():
        degree = _degree_key("sw", key)
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ModelError(f"field 'sw[{key}]': expected a list of basis names")
        _refuse_repeated("sw", key, names)
        try:
            mask = algebra.mask(names)
        except AlgebraError as err:
            raise ModelError(f"field 'sw[{key}]': {err}") from err
        if mask and degree < 1:
            raise ModelError("positive-degree components only; w_0 is implicit")
        for i in _bits(mask):
            if algebra.degrees[i] != degree:
                raise ModelError(
                    f"sw component in degree {degree} contains {algebra.names[i]!r} "
                    f"of degree {algebra.degrees[i]}"
                )
        sw |= mask

    profile_data = {}
    for key, entry in _require(doc, "int_profile", dict).items():
        degree = _degree_key("int_profile", key)
        if (
            not isinstance(entry, dict)
            or not _is(entry.get("free"), int)
            or not _is(entry.get("torsion"), list)
            or not all(_is(t, int) for t in entry["torsion"])
        ):
            raise ModelError(
                f"field 'int_profile[{key}]': expected {{'free': int, 'torsion': [...]}}"
            )
        if degree == 0 and entry["torsion"]:
            raise ModelError("field 'int_profile[0]': H^0 is free, so its torsion must be empty")
        profile_data[degree] = (entry["free"], entry["torsion"])
    profile = IntProfile.from_mapping(profile_data)
    model = SpaceModel(name, algebra, sw, profile, dimension)
    _check_closed_manifold(model)
    return model


def _check_closed_manifold(model: SpaceModel) -> None:
    """Refuse a model whose data no closed manifold has.

    Poincaré duality over F2: H^n is one-dimensional and the cup pairing
    H^d x H^(n-d) -> H^n is non-degenerate.  Orientability: w1 = 0 exactly
    when H^n(M; Z) has free rank 1.  Products of models that pass pass too.
    """
    algebra, n = model.algebra, model.dimension
    by_degree: Dict[int, List[int]] = defaultdict(list)
    for i, degree in enumerate(algebra.degrees):
        by_degree[degree].append(i)
    if len(by_degree[n]) != 1:
        raise ModelError(
            f"field 'basis': H^{n} has dimension {len(by_degree[n])}, "
            f"a closed {n}-manifold has 1"
        )
    top = by_degree[n][0]
    for d in sorted(by_degree):
        rows, cols = by_degree[d], by_degree.get(n - d, [])
        # row i of the pairing matrix: the j with x_i x_j equal to the top class
        pairing = [
            sum(1 << k for k, j in enumerate(cols) if algebra.mul[i][j] >> top & 1)
            for i in rows
        ]
        if len(rows) != len(cols) or not _independent(pairing):
            raise ModelError(
                f"field 'products': cup pairing degenerate in degree {d} "
                f"(H^{d} x H^{n - d} -> H^{n})"
            )
    orientable = not model.w(1)
    free = model.int_profile.free(n)
    if orientable != (free == 1):
        raise ModelError(
            f"field 'int_profile[{n}]': H^{n}(M; Z) has free rank {free} but "
            f"w1 {'=' if orientable else '!='} 0; a closed manifold has free rank 1 "
            f"in its top degree exactly when w1 = 0"
        )


def _independent(vectors: Iterable[int]) -> bool:
    """Whether the F2 vectors, given as masks, are linearly independent."""
    reduced: List[int] = []  # distinct leading bits, highest first
    for v in vectors:
        for b in reduced:
            v = min(v, v ^ b)
        if not v:
            return False
        reduced = sorted([*reduced, v], reverse=True)
    return True


def rhc_fields_from_dict(doc: Mapping) -> Dict[str, int]:
    """The five int fields of an rhc-model document, by name; the model checks the rest."""
    fields = ("m", "middle_betti", "sigma", "P2", "Q")
    return {field: _require(doc, field, int) for field in fields}
