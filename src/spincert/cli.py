"""Command-line front end.

Every certificate and table is a subcommand with ``--json`` and plain
text output carrying identical numeric content.  Exit codes: 0 for
established or consistent results, 1 for excluded verdicts (so shell
pipelines can branch on obstructions), 2 for usage and input errors, 3
for an unexpected internal error and 141 when stdout is closed before the
document is written (both reported by :func:`main`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, Tuple, Union

from . import certify, genus, mod2
from .certificates import EXCLUDED, Certificate, Check, exact_to_json


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage().rstrip()}")

    def parse_known_args(self, args=None, namespace=None):
        # argparse hands a subcommand's leftovers up to the top-level parser;
        # refusing them here reports them with the subcommand's own usage
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def load_model(path: str):
    """Load a space model or an rhc model from a JSON document."""
    doc = mod2.read_document(Path(path))
    if "basis" in doc:
        return mod2.space_model_from_dict(doc)
    if "P2" in doc:
        return certify.RHCModel(**mod2.rhc_fields_from_dict(doc))
    raise mod2.ModelError(
        "unrecognized model document: expected 'basis' (space model) or 'P2' (rhc model)"
    )


# -- text rendering ------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _certificate_lines(doc: Dict, indent: str = "") -> list:
    lines = [f"{indent}claim: {doc['claim']}", f"{indent}verdict: {doc['verdict']}"]
    lines.append(f"{indent}parameters:")
    for key, value in doc["parameters"].items():
        lines.append(f"{indent}  {key} = {_fmt(value)}")
    lines.append(f"{indent}checks:")
    for check in doc["checks"]:
        status = "pass" if check["passed"] else "fail"
        lines.append(
            f"{indent}  [{status}] {check['name']}: "
            f"{_fmt(check['lhs'])} {check['relation']} {_fmt(check['rhs'])}"
        )
    if doc.get("witnesses"):
        lines.append(f"{indent}witnesses: {json.dumps(doc['witnesses'])}")
    return lines


def render_text(doc: Dict) -> str:
    if "claim" in doc:
        return "\n".join(_certificate_lines(doc))
    if "rows" in doc:
        lines = ["dimension  cohen_k  orientable  pin"]
        for row in doc["rows"]:
            lines.append(
                f"{row['dimension']:<9}  {row['cohen_k']:<7}  "
                f"{row['orientable_structure']:<10}  {row['pin_structure']}"
            )
        return "\n".join(lines)
    if "polynomials" in doc:
        lines = [f"series: {doc['series']}"]
        lines.extend(f"{name} = {poly}" for name, poly in doc["polynomials"].items())
        return "\n".join(lines)
    if "witness" in doc:
        w = doc["witness"]
        lines = [
            f"witness: sigma = {_fmt(w['sigma'])}, P2 = {_fmt(w['P2'])}, Q = {_fmt(w['Q'])}",
            f"four-square decomposition of P2: {_fmt(w['four_square'])}",
            f"algebra: {w['algebra_note']}",
            "re-validation:",
        ]
        lines.extend(_certificate_lines(doc["certificate"], indent="  "))
        return "\n".join(lines)
    if "s_m" in doc:
        return (
            f"s_m = {_fmt(doc['s_m'])}, s_mm = {_fmt(doc['s_mm'])}, "
            f"s_2m = {_fmt(doc['s_2m'])}"
        )
    return "\n".join(f"{key} = {_fmt(value)}" for key, value in doc.items())


# -- subcommand handlers ---------------------------------------------------


# degree 24 takes 0.11-0.13 s for the whole process (Python 3.11, shared 2-vCPU
# host), 47-57 ms of it in genus_polynomials and str; the engine's time grows
# about 1.8 times every two degrees
GENUS_MAX_DEGREE = 24
# s-coeffs --m 64 takes 0.12-0.16 s and mayer-check 0.16-0.23 s for the whole
# process; the series of 2m + 1 terms and its log-derivative cost four to nine
# times more per doubling of m
M_MAX = 64
# realize --m 8 without --p2/--q takes 0.9-1.2 s in-process, nearly all of it in
# exact.four_squares on a 29-digit P2 (about 6.6M inner steps); the steps grow
# like P2^(1/4), so m = 16's 74-digit P2 would take about 10^11 times longer
SEARCH_M_MAX = 8
# pin-table builds one row per dimension: 100000 rows take about 0.7 s and 5 MB
PIN_TABLE_MAX_DIM = 100000

_SERIES = {
    "L": genus.signature_series,
    "ahat": genus.ahat_series,
    "mayer": genus.mayer_series,
}


def _cmd_genus(args) -> Dict:
    if args.degree < 1:
        raise UsageError("genus: --degree must be >= 1")
    if args.degree > GENUS_MAX_DEGREE:
        raise UsageError(f"genus: --degree must be <= {GENUS_MAX_DEGREE}")
    series = _SERIES[args.series](args.degree)
    polys = genus.genus_polynomials(series, args.degree)
    return {
        "series": args.series,
        "degree": args.degree,
        "polynomials": {f"K{j}": str(p) for j, p in enumerate(polys, 1)},
    }


def _refuse_large_m(command: str, m: int, what: str = "--m") -> None:
    if m > M_MAX:
        raise UsageError(f"{command}: {what} must be <= {M_MAX}")


def _cmd_s_coeffs(args) -> Dict:
    _refuse_large_m("s-coeffs", args.m)
    coeffs = genus.l_coefficients(args.m)
    return {
        "m": args.m,
        "s_m": exact_to_json(coeffs.s_m),
        "s_mm": exact_to_json(coeffs.s_mm),
        "s_2m": exact_to_json(coeffs.s_2m),
    }


def _refuse_mixed(args, mode: str, *flags: str) -> None:
    """Refuse flags of the other mode, which a run in ``mode`` would ignore."""
    given = [f"--{flag.replace('_', '-')}" for flag in flags if getattr(args, flag) is not None]
    if given:
        raise UsageError(f"{args.command}: {', '.join(given)} cannot be combined with {mode}")


def _cmd_realize(args) -> Union[Certificate, Dict]:
    _refuse_large_m("realize", args.m)
    if (args.p2 is None) != (args.q is None):
        raise UsageError("realize: --p2 and --q must be given together")
    if args.p2 is not None:
        _refuse_mixed(args, "--p2 and --q", "sigma_min")
        return certify.realization_conditions(args.m, args.p2, args.q)
    if args.m > SEARCH_M_MAX:
        raise UsageError(f"realize: --m must be <= {SEARCH_M_MAX} without --p2 and --q")
    witness = certify.realization_search(args.m, 1 if args.sigma_min is None else args.sigma_min)
    cert = certify.realization_conditions(args.m, witness.P2, witness.Q)
    return {"witness": exact_to_json(witness.to_dict()), "certificate": cert.to_dict()}


def _cmd_bound(args) -> Union[Certificate, Dict]:
    if args.first_dim:
        _refuse_mixed(args, "--first-dim", "m", "sigma")
        return {
            "k": args.k,
            "dimension": certify.bound_exclusion_dimension(args.k),
            "note": "first dimension where the odd-signature criterion excludes "
            "the structure; not the minimal non-spin^k dimension",
        }
    if args.m is None or args.sigma is None:
        raise UsageError("bound: supply --m and --sigma, or use --first-dim")
    return certify.signature_bound_verdict(args.m, args.k, args.sigma)


def _cmd_wu_product(args) -> Certificate:
    if args.model:
        model = load_model(args.model)
        if not isinstance(model, mod2.SpaceModel):
            raise UsageError("wu-product needs a space model, not an rhc model")
    else:
        model = mod2.wu_manifold()
    return mod2.product_w5_verdict(model, model)


def _cmd_pin_table(args) -> Dict:
    if args.max_dim < 2:
        raise UsageError("pin-table: --max-dim must be >= 2")
    if args.max_dim > PIN_TABLE_MAX_DIM:
        raise UsageError(f"pin-table: --max-dim must be <= {PIN_TABLE_MAX_DIM}")
    rows = [certify.guaranteed_structures(n).to_dict() for n in range(2, args.max_dim + 1)]
    return {"rows": rows}


def _cmd_mayer_check(args) -> Certificate:
    if args.model:
        _refuse_mixed(args, "--model", "m", "p2", "q")
        model = load_model(args.model)
        if not isinstance(model, certify.RHCModel):
            raise UsageError("mayer-check needs an rhc model, not a space model")
        _refuse_large_m("mayer-check", model.m, "the model's m")
    elif args.m is None or args.p2 is None or args.q is None:
        raise UsageError("mayer-check: supply --model, or --m with --p2 and --q")
    else:
        _refuse_large_m("mayer-check", args.m)
        # sigma is the L-evaluation itself; mayer_integrality_check refuses a non-integer
        sigma = genus.l_signature(args.m, args.p2, args.q)
        model = certify.RHCModel(args.m, abs(sigma), sigma, args.p2, args.q)
    return genus.mayer_integrality_check(model, args.k)


def _cmd_w4_lift(args) -> Dict:
    variant = args.variant.replace("-", "_")
    inputs = {"p1_M": args.p1_m, "p1_E": args.p1_e, "variant": variant, "euler_E": args.euler}
    try:
        lift = certify.w4_lift(args.p1_m, args.p1_e, variant, args.euler)
    except certify.InconsistentLiftError as err:
        cert = Certificate(
            claim="w4-lift-inconsistent",
            parameters=inputs,
            checks=[Check("parity of the p1 difference", "odd", "even", "!=", True)],
            verdict=EXCLUDED,
        )
        return {**cert.to_dict(), "error": str(err)}
    return {**inputs, "lift": lift, "lift_mod_2": lift % 2}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="spincert",
        description="Exact certificates for spin^k and pin structures. "
        "Exit codes: 0 established/consistent, 1 excluded, 2 usage error, "
        "3 internal error.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genus", parents=[common], help="genus polynomials of a series")
    p.add_argument("--series", choices=sorted(_SERIES), required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(handler=_cmd_genus)

    p = sub.add_parser("s-coeffs", parents=[common], help="signature-sequence coefficients")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_s_coeffs)

    p = sub.add_parser(
        "realize",
        parents=[common],
        help="realization conditions (--p2/--q) or witness search (--sigma-min)",
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p2", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--sigma-min", type=int)
    p.set_defaults(handler=_cmd_realize)

    p = sub.add_parser("bound", parents=[common], help="2-adic signature-bound verdict")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--sigma", type=int)
    p.add_argument("--first-dim", action="store_true")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser(
        "non-spinh8", parents=[common], help="dimension-8 exclusion certificate"
    )
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(handler=lambda args: certify.nonspinh8_certificate(args.a))

    p = sub.add_parser(
        "wu-product", parents=[common], help="W5 verdict for a model times itself"
    )
    p.add_argument("--model", help="space-model JSON file (default: built-in Wu manifold)")
    p.set_defaults(handler=_cmd_wu_product)

    p = sub.add_parser("pin-table", parents=[common], help="guaranteed pin structures")
    p.add_argument("--max-dim", type=int, default=7)
    p.set_defaults(handler=_cmd_pin_table)

    p = sub.add_parser(
        "mayer-check", parents=[common], help="integrality check on an rhc model"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--model", help="rhc-model JSON file")
    p.add_argument("--m", type=int)
    p.add_argument("--p2", type=int)
    p.add_argument("--q", type=int)
    p.set_defaults(handler=_cmd_mayer_check)

    p = sub.add_parser("w4-lift", parents=[common], help="integral lift of w4")
    p.add_argument("--p1-m", type=int, required=True)
    p.add_argument("--p1-e", type=int, required=True)
    p.add_argument(
        "--variant",
        choices=[variant.replace("_", "-") for variant in certify.W4_LIFT_VARIANTS],
        default="plain",
    )
    p.add_argument("--euler", type=int, default=0)
    p.set_defaults(handler=_cmd_w4_lift)

    return parser


# built once per process: parse_args returns a new Namespace on every call,
# every default is an immutable int or string, and error and --help only raise
_PARSER = build_parser()


def run(argv) -> Tuple[int, str]:
    """Execute one invocation; returns (exit code, document)."""
    try:
        args = _PARSER.parse_args(argv)
    except UsageError as err:
        return 2, str(err)
    except SystemExit as err:  # --help
        return (err.code or 0), ""
    try:
        doc = args.handler(args)
        if isinstance(doc, Certificate):
            doc = doc.to_dict()
    except UsageError as err:
        return 2, str(err)
    except ValueError as err:  # ModelError included
        return 2, f"spincert {args.command}: error: {err}"
    document = json.dumps(doc, indent=2) if args.json else render_text(doc)
    # exit 1 exactly when the printed verdict, or a witness's certificate verdict, excludes
    verdict = doc.get("verdict", doc.get("certificate", {}).get("verdict"))
    return (1 if verdict == EXCLUDED else 0), document


def main() -> None:
    try:
        code, document = run(sys.argv[1:])
        if document:
            print(document)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone (`spincert pin-table | head -1`): end as a writer
        # killed by SIGPIPE would, and let the exit-time flush go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    except Exception as err:
        # exit 1 means "excluded", so a crash must not end with it
        message = " ".join(f"{type(err).__name__}: {err}".split())
        print(f"spincert: internal error: {message}", file=sys.stderr)
        sys.exit(3)
    sys.exit(code)


if __name__ == "__main__":
    main()
