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
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from math import gcd
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from .certificates import Certificate, Check, ESTABLISHED, EXCLUDED, INCONCLUSIVE
from .certify import RHCModel


class AlgebraError(ValueError):
    """An invalid algebra; ``field`` names the document field at fault."""

    def __init__(self, message: str, field: str = "products"):
        super().__init__(message)
        self.field = field


class ModelError(ValueError):
    pass


# -- finite F2 algebras --------------------------------------------------


@dataclass(frozen=True)
class F2Algebra:
    """Graded-commutative unital algebra over F2 with a finite basis.

    Elements are int bitmasks over the basis (bit i is ``names[i]``), and
    ``mul[i][j]`` is the product of basis elements i and j, held as a tuple
    of tuples.  Construction indexes the basis and trusts the table: a
    declared table goes through :func:`build_algebra`, which checks the
    axioms, and :func:`kunneth` builds tables that satisfy them by
    construction.  An algebra is read-only once built, as a shared
    :class:`SpaceModel` needs.
    """

    names: Tuple[str, ...]
    degrees: Tuple[int, ...]
    unit: str
    mul: Tuple[Tuple[int, ...], ...] = field(repr=False)
    _index: Dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", _basis_index(self.names, self.degrees, self.unit))

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

    def element(self, names: Iterable[str]) -> "F2Element":
        return F2Element(self, self.mask(names))

    def one(self) -> "F2Element":
        return self.element([self.unit])

    def basis_of_degree(self, degree: int) -> List[str]:
        return [n for n, d in zip(self.names, self.degrees) if d == degree]

    def dim(self, degree: int) -> int:
        return len(self.basis_of_degree(degree))

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


@dataclass(frozen=True)
class F2Element:
    algebra: F2Algebra
    mask: int

    @property
    def support(self) -> FrozenSet[str]:
        return frozenset(self.algebra.names[i] for i in _bits(self.mask))

    def __mul__(self, other: "F2Element") -> "F2Element":
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraError("elements belong to different algebras")
        return F2Element(self.algebra, self.algebra.product(self.mask, other.mask))

    def is_zero(self) -> bool:
        return not self.mask

    def __hash__(self):
        return hash(self.mask)

    def __str__(self) -> str:
        if not self.mask:
            return "0"
        return " + ".join(sorted(self.support))


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


@dataclass(frozen=True)
class IntProfile:
    """Integral cohomology, declared: degree -> (free rank, torsion orders).

    ``groups`` is a read-only mapping that holds the non-zero degrees only,
    in ascending order.
    """

    groups: Mapping[int, Tuple[int, Tuple[int, ...]]]

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


@dataclass(frozen=True)
class SpaceModel:
    """Mod-2 cohomology ring, tangent SW class and declared integral data.

    A frozen model: ``sw`` is a read-only mapping from each degree d > 0
    with w_d != 0 to the mask of w_d, and the algebra's table is tuples.
    """

    name: str
    algebra: F2Algebra
    sw: Mapping[int, int]
    int_profile: IntProfile
    dimension: int

    def __post_init__(self):
        algebra, dimension = self.algebra, self.dimension
        components: Dict[int, int] = {}
        for degree, mask in self.sw.items():
            if not mask:
                continue
            if degree < 1:
                raise ModelError("positive-degree components only; w_0 is implicit")
            for i in _bits(mask):
                if algebra.degrees[i] != degree:
                    raise ModelError(
                        f"sw component in degree {degree} contains {algebra.names[i]!r} "
                        f"of degree {algebra.degrees[i]}"
                    )
            components[degree] = mask
        # a closed n-manifold has H^n(M; F2) != 0 and nothing above degree n
        if algebra.top_degree != dimension:
            raise ModelError(
                f"top basis degree {algebra.top_degree} differs from the dimension {dimension}"
            )
        groups = self.int_profile.groups
        for degree in groups:
            if degree > dimension:
                raise ModelError(f"integral data above the dimension, in degree {degree}")
        # both sides vanish outside the basis degrees, the group degrees and
        # the degrees just below the groups (2-torsion counts one degree down)
        dims = Counter(algebra.degrees)
        for degree in sorted({*dims, *groups, *(d - 1 for d in groups if d)}):
            expected = self.int_profile.mod2_dim(degree)
            actual = dims[degree]
            if actual != expected:
                raise ModelError(
                    f"universal-coefficient mismatch in degree {degree}: "
                    f"mod-2 dimension {actual}, integral profile predicts {expected}"
                )
        object.__setattr__(self, "sw", MappingProxyType(components))

    def w(self, degree: int) -> F2Element:
        if degree == 0:
            return self.algebra.one()
        return F2Element(self.algebra, self.sw.get(degree, 0))


@cache
def wu_manifold() -> SpaceModel:
    """The five-dimensional homogeneous space SU(3)/SO(3), read from ``data/wu.json``.

    Read once per process; every call returns the same immutable model.

    Mod-2 cohomology has basis 1, z2, z3, z5 with z2*z3 = z5 and
    z2^2 = 0; the tangent SW class is 1 + z2 + z3; integrally there is a
    single order-2 class in degree 3 besides the free parts in degrees 0
    and 5.
    """
    return space_model_from_dict(read_document(resources.files(__package__) / "data/wu.json"))


def point_model() -> SpaceModel:
    algebra = build_algebra([("1", 0)], {})
    return SpaceModel(
        name="point",
        algebra=algebra,
        sw={},
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
        sw={},
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


def kunneth(a: SpaceModel, b: SpaceModel) -> SpaceModel:
    """Product model: tensor algebra, product SW class, combined profile."""
    left, right = a.algebra, b.algebra
    width = len(right.names)
    names = tuple(f"{x}⊗{y}" for x in left.names for y in right.names)
    degrees = tuple(dx + dy for dx in left.degrees for dy in right.degrees)
    # the tensor product of two algebras that satisfy the axioms satisfies them
    # too (over F2 graded commutativity has no signs), so the table is not checked;
    # each entry is _tensor(u, v, width), with u spread once per left entry
    spread = [[_spread(u, width) for u in row_a] for row_a in left.mul]
    mul = tuple(
        tuple(s * v for s in row_s for v in row_b) for row_s in spread for row_b in right.mul
    )
    algebra = F2Algebra(names, degrees, f"{left.unit}⊗{right.unit}", mul)

    # the Kunneth formula (Hatcher, Thm 3B.6) as sums over pairs of non-zero groups
    sw: Dict[int, int] = {}
    for i, x in ((0, left.mask([left.unit])), *a.sw.items()):
        for j, y in ((0, right.mask([right.unit])), *b.sw.items()):
            sw[i + j] = sw.get(i + j, 0) ^ _tensor(x, y, width)
    del sw[0]

    free: Counter = Counter()
    torsion: Dict[int, List[int]] = defaultdict(list)
    for i, (fa, ta) in a.int_profile.groups.items():
        for j, (fb, tb) in b.int_profile.groups.items():
            tor = [gcd(s, t) for s in ta for t in tb if gcd(s, t) > 1]
            free[i + j] += fa * fb
            torsion[i + j] += [*tb] * fa + [*ta] * fb + tor
            if i + j:
                torsion[i + j - 1] += tor
    profile = {d: (free[d], tors) for d, tors in torsion.items()}

    return SpaceModel(
        name=f"{a.name} x {b.name}",
        algebra=algebra,
        sw=sw,
        int_profile=IntProfile.from_mapping(profile),
        dimension=a.dimension + b.dimension,
    )


# -- integral lifts and the degree-5 obstruction ----------------------------


def w4_integral_lift_exists(model: SpaceModel) -> str:
    """'yes', 'no' or 'unknown': does w4 admit an integral lift?

    Sufficient criteria only: a zero class always lifts, and a non-zero
    class cannot lift through a zero group.  Anything else is reported
    as unknown, never guessed.
    """
    if model.w(4).is_zero():
        return "yes"
    if model.int_profile.is_trivial(4):
        return "no"
    return "unknown"


def w5_verdict(model: SpaceModel) -> Certificate:
    """Primary spin^h obstruction: W5 = 0 exactly when w4 lifts integrally."""
    lift = w4_integral_lift_exists(model)
    w4 = model.w(4)
    h4 = model.int_profile.group_text(4)
    claim, verdict = {
        "yes": ("w5-obstruction-vanishes", ESTABLISHED),
        "no": ("not-spin^h", EXCLUDED),
        "unknown": ("w5-obstruction-undetermined", INCONCLUSIVE),
    }[lift]
    checks = [Check("w4 component", str(w4), "0", "=" if lift == "yes" else "!=", True)]
    if lift != "yes":
        relation = "=" if lift == "no" else "!="
        checks.append(Check("degree-4 integral cohomology", h4, "0", relation, True))
    return Certificate(
        claim=claim,
        parameters={
            "model": model.name,
            "dimension": model.dimension,
            "k": 3,
            "orientable": model.w(1).is_zero(),
            "w4": str(w4),
            "H4_integral": h4,
        },
        checks=checks,
        verdict=verdict,
    )


# -- free F2 polynomial algebras and symbolic bundle identities -------------


@dataclass(frozen=True)
class F2Ring:
    """Free polynomial ring over F2 on graded generators, degree-truncated."""

    gen_names: Tuple[str, ...]
    gen_degrees: Tuple[int, ...]
    max_degree: int

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


@dataclass(frozen=True)
class F2Poly:
    ring: F2Ring
    monos: FrozenSet[Tuple[int, ...]]

    def __add__(self, other: "F2Poly") -> "F2Poly":
        self._require_same_ring(other)
        return F2Poly(self.ring, self.monos ^ other.monos)

    def __mul__(self, other: "F2Poly") -> "F2Poly":
        self._require_same_ring(other)
        acc: set = set()
        for ma in self.monos:
            for mb in other.monos:
                m = tuple(x + y for x, y in zip(ma, mb))
                if self.ring.mono_degree(m) <= self.ring.max_degree:
                    acc ^= {m}
        return F2Poly(self.ring, frozenset(acc))

    def is_zero(self) -> bool:
        return not self.monos

    def _require_same_ring(self, other: "F2Poly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials belong to different rings")


def sw_ring(k: int, extra_degree1: Tuple[str, ...] = ()) -> F2Ring:
    """Free SW algebra on w_1..w_k (deg w_i = i), truncated at degree k + 2.

    The identities below read components of degree at most k + 1, and a
    product never feeds a dropped monomial back into a lower degree, so the
    truncation loses nothing they read.
    """
    if k < 1:
        raise ValueError("rank must be >= 1")
    names = tuple(f"w{i}" for i in range(1, k + 1)) + tuple(extra_degree1)
    degrees = tuple(range(1, k + 1)) + (1,) * len(extra_degree1)
    return F2Ring(names, degrees, k + 2)


@dataclass(frozen=True)
class SymbolicSW:
    """Total SW class 1 + w_1 + ... of a rank-k bundle, as one polynomial."""

    rank: int
    total: F2Poly

    def __post_init__(self):
        ring = self.total.ring
        if any(ring.mono_degree(m) > self.rank for m in self.total.monos):
            raise ValueError(f"a rank-{self.rank} bundle has no SW class above degree {self.rank}")

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

# wu-product squares a document's model, and building the square's N^2 x N^2 table
# dominates: on RP^n documents the whole process took 0.13-0.17 / 0.15-0.16 / 0.22 /
# 0.45-0.49 / 0.95-1.04 s and peaked at 19 / 26 / 58 / 152 / 377 MB at 16 / 24 / 32 /
# 40 / 48 basis elements (Python 3.11.7, shared 2-vCPU host); memory more than time
# keeps the cap at 32
MODEL_MAX_BASIS = 32


def _unique_keys(pairs: List[Tuple[str, object]]) -> Dict:
    # json.loads keeps the last of two equal keys, which could flip a verdict unseen
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ModelError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


def read_document(path) -> Dict:
    """The JSON object in a model file or package resource; a repeated key is refused."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ModelError(f"cannot read model file {str(path)!r}: {err}") from err
    except UnicodeDecodeError as err:
        raise ModelError(f"model file {str(path)!r} is not UTF-8: {err}") from err
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ModelError(f"model file {str(path)!r} is not valid JSON: {err}") from err
    except RecursionError as err:
        raise ModelError(f"model file {str(path)!r} nests too deeply to parse") from err
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
        pair = (entry[0], entry[1])
        value = frozenset(entry[2])
        if pair in products and products[pair] != value:
            raise ModelError(f"field 'products[{i}]': duplicate pair {pair}")
        products[pair] = value
    try:
        algebra = build_algebra(basis, products, unit)
    except AlgebraError as err:
        raise ModelError(f"field {err.field!r}: {err}") from err

    sw = {}
    for key, names in _require(doc, "sw", dict).items():
        degree = _degree_key("sw", key)
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ModelError(f"field 'sw[{key}]': expected a list of basis names")
        try:
            sw[degree] = algebra.mask(names)
        except AlgebraError as err:
            raise ModelError(f"field 'sw[{key}]': {err}") from err

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
    orientable = not model.sw.get(1)
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


def rhc_model_from_dict(doc: Mapping) -> RHCModel:
    fields = ("m", "middle_betti", "sigma", "P2", "Q")
    values = {field: _require(doc, field, int) for field in fields}
    try:
        return RHCModel(**values)
    except ValueError as err:
        raise ModelError(str(err)) from err
