"""Structured verdicts with an exact evidence trail.

A :class:`Certificate` records a claim, the checks that were actually
computed (every value exact), a verdict, and optional witness data.  A
verdict of ``established`` or ``excluded`` is only legal when every
recorded check passed; inconclusive certificates may carry failed
checks as evidence of what went wrong.  Certificates and checks are
immutable (``checks`` is a tuple, ``parameters`` and ``witnesses`` are
read-only copies), and ``dataclasses.replace`` applies the rule again.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Dict, Optional, Tuple

ESTABLISHED = "established"
EXCLUDED = "excluded"
INCONCLUSIVE = "inconclusive"
VERDICTS = (ESTABLISHED, EXCLUDED, INCONCLUSIVE)


class CertificateError(ValueError):
    pass


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
    integral values stay JSON integers.  No floats are ever produced
    (or accepted).
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
    if isinstance(value, float):
        raise CertificateError("floating-point values are not allowed in certificates")
    raise CertificateError(f"cannot serialize value of type {type(value).__name__}")


@dataclass(frozen=True)
class Check:
    """One verified (or failed) fact: ``lhs relation rhs``."""

    name: str
    lhs: Any
    rhs: Any
    relation: str
    passed: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "lhs": exact_to_json(self.lhs),
            "rhs": exact_to_json(self.rhs),
            "relation": self.relation,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class Certificate:
    claim: str
    parameters: Mapping[str, Any]
    checks: Tuple[Check, ...]
    verdict: str
    witnesses: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "checks", tuple(self.checks))
        object.__setattr__(self, "parameters", MappingProxyType(dict(self.parameters)))
        if self.witnesses is not None:
            object.__setattr__(self, "witnesses", MappingProxyType(dict(self.witnesses)))
        if self.verdict not in VERDICTS:
            raise CertificateError(f"unknown verdict {self.verdict!r}")
        if self.verdict in (ESTABLISHED, EXCLUDED) and not all(
            c.passed for c in self.checks
        ):
            failed = [c.name for c in self.checks if not c.passed]
            raise CertificateError(
                f"verdict {self.verdict!r} requires all checks to pass; failed: {failed}"
            )

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "claim": self.claim,
            "parameters": exact_to_json(self.parameters),
            "checks": [c.to_dict() for c in self.checks],
            "verdict": self.verdict,
            "witnesses": exact_to_json(self.witnesses),
        }
