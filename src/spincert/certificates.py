"""Structured verdicts with an exact evidence trail.

A :class:`Certificate` records a claim, the checks that were actually
computed (every value exact), a verdict, and optional witness data.  A
verdict of ``established`` or ``excluded`` is only legal when every
recorded check passed; inconclusive certificates may carry failed
checks as evidence of what went wrong.  Certificates and checks are
immutable (``checks`` is a tuple, ``parameters`` and ``witnesses`` are
read-only copies): assigning or deleting a field raises ``AttributeError``,
and a changed copy is rebuilt through the constructor, which applies the
rule again.

:class:`ReadOnly` is the base of every value type in spincert.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Dict, Iterable, Optional

ESTABLISHED = "established"
EXCLUDED = "excluded"
INCONCLUSIVE = "inconclusive"
VERDICTS = (ESTABLISHED, EXCLUDED, INCONCLUSIVE)


class CertificateError(ValueError):
    pass


class ReadOnly:
    """Base of spincert's read-only value types.

    A subclass names its fields in ``__slots__`` and sets them in its
    ``__init__`` with ``object.__setattr__``; after that, assigning or
    deleting any attribute raises ``AttributeError``.  Instances compare,
    hash and print by type and public field values.  A slot whose name
    starts with an underscore holds data derived from the public fields and
    is left out.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the public field names, and one getter that reads their values (a
        # single value, not a tuple, for a class with one public field)
        cls._names = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._values = attrgetter(*cls._names)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash((self.__class__, self._values(self)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{self.__class__.__name__} is read-only: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{self.__class__.__name__} is read-only: cannot delete {name!r}")


def spin_label(k: int) -> str:
    """Claim tag for the rank-k structure family: spin, spin^c, spin^h, spin^k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return {1: "spin", 2: "spin^c", 3: "spin^h"}.get(k, f"spin^{k}")


def pin_label(k: int, sign: str) -> str:
    """Claim tag for the non-orientable analogue: pin^-, pin^{3+}, ..."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if k == 1:
        return f"pin^{sign}"
    return f"pin^{{{k}{sign}}}"


def exact_to_json(value: Any) -> Any:
    """Convert exact values to their JSON form.

    Non-integral rationals become "numerator/denominator" strings;
    integral values stay JSON integers, and a nested certificate becomes
    its ``to_dict()``.  No floats are ever produced (or accepted).
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [exact_to_json(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): exact_to_json(v) for k, v in value.items()}
    if isinstance(value, Certificate):
        return value.to_dict()
    if isinstance(value, float):
        raise CertificateError("floating-point values are not allowed in certificates")
    raise CertificateError(f"cannot serialize value of type {type(value).__name__}")


class Check(ReadOnly):
    """One verified (or failed) fact: ``lhs relation rhs``."""

    __slots__ = ("name", "lhs", "rhs", "relation", "passed")

    def __init__(self, name: str, lhs: Any, rhs: Any, relation: str, passed: bool) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "passed", passed)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "lhs": exact_to_json(self.lhs),
            "rhs": exact_to_json(self.rhs),
            "relation": self.relation,
            "passed": self.passed,
        }


class Certificate(ReadOnly):
    __slots__ = ("claim", "parameters", "checks", "verdict", "witnesses")

    def __init__(
        self,
        claim: str,
        parameters: Mapping[str, Any],
        checks: Iterable[Check],
        verdict: str,
        witnesses: Optional[Mapping[str, Any]] = None,
    ) -> None:
        checks = tuple(checks)
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "parameters", MappingProxyType(dict(parameters)))
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "verdict", verdict)
        if witnesses is not None:
            witnesses = MappingProxyType(dict(witnesses))
        object.__setattr__(self, "witnesses", witnesses)
        if verdict not in VERDICTS:
            raise CertificateError(f"unknown verdict {verdict!r}")
        if verdict in (ESTABLISHED, EXCLUDED) and not all(c.passed for c in checks):
            failed = [c.name for c in checks if not c.passed]
            raise CertificateError(
                f"verdict {verdict!r} requires all checks to pass; failed: {failed}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "claim": self.claim,
            "parameters": exact_to_json(self.parameters),
            "checks": [c.to_dict() for c in self.checks],
            "verdict": self.verdict,
            "witnesses": exact_to_json(self.witnesses),
        }
