"""Spans and counts recorded around spincert's layers, for traced runs only.

The tracer wraps the public functions of each layer by patching module
attributes, so a function another module imported by name
(``certify.four_squares``) and a function held in a module-level table
(``cli._SERIES``) are wrapped as well.  A span is (name, start, end,
parent); a call nested inside an open span of the same name records no
span of its own.  Counts come from the inputs and outputs of the wrapped
calls, not from inside the program.  Everything stays in memory and goes
to run.py with the op's reply.
"""

import functools
import json
import sys
import time

# layer -> functions wrapped in that layer (missing ones are skipped)
TIMED = {
    "exact": ["four_squares"],
    "genus": [
        "genus_polynomials",
        "l_coefficients",
        "rhc_ahat_twist_coeffs",
        "mayer_integrality_check",
        "spinh_integrand_coefficients",
        "signature_series",
        "ahat_series",
        "mayer_series",
    ],
    "mod2": ["space_model_from_dict", "kunneth", "w5_verdict", "wu_manifold"],
    "certify": [
        "realization_conditions",
        "realization_search",
        "poincare_witness",
        "signature_bound_verdict",
        "bound_exclusion_dimension",
        "nonspinh8_certificate",
        "w4_lift",
        "guaranteed_structures",
    ],
    "cli": ["run", "build_parser", "load_model", "render_text"],
}
RENAMED = {"cli.render_text": "cli.render"}


def _count_four_squares(counts, args, result):
    counts["four_squares_calls"] = counts.get("four_squares_calls", 0) + 1
    digits = len(str(abs(args[0])))
    counts["four_squares_digits"] = max(counts.get("four_squares_digits", 0), digits)


def _count_terms(counts, args, result):
    terms = sum(len(getattr(poly, "terms", ())) for poly in result)
    counts["terms_out"] = counts.get("terms_out", 0) + terms


def _count_product_basis(counts, args, result):
    counts["product_basis"] = counts.get("product_basis", 0) + len(result.algebra.names)


COUNTERS = {
    "exact.four_squares": _count_four_squares,
    "genus.genus_polynomials": _count_terms,
    "mod2.kunneth": _count_product_basis,
}


class _JsonProxy:
    """Stands in for ``cli.json`` so that JSON rendering is timed as cli.render."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.open = set()
        self.counts = {}
        self.cache = None
        self.cache_before = (0, 0)

    def wrap(self, name, fn):
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self.open:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            self.open.add(name)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
                self.open.discard(name)
            if counter:
                counter(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "spincert" or name.startswith("spincert.")
        }
        wrappers = {}
        for layer, names in TIMED.items():
            module = modules.get(f"spincert.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is not None:
                    span = f"{layer}.{fname}"
                    wrappers[id(fn)] = self.wrap(RENAMED.get(span, span), fn)
        genus = modules.get("spincert.genus")
        if hasattr(getattr(genus, "l_coefficients", None), "cache_info"):
            self.cache = genus.l_coefficients
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]
        cli = modules.get("spincert.cli")
        if getattr(cli, "json", None) is json:
            cli.json = _JsonProxy(self.wrap("cli.render", json.dumps))
        certificate = getattr(modules.get("spincert.certificates"), "Certificate", None)
        if certificate is not None:
            certificate.to_dict = self.wrap("certificates.to_dict", certificate.to_dict)
        algebra = getattr(modules.get("spincert.mod2"), "F2Algebra", None)
        if algebra is not None:
            init = algebra.__init__

            def counted_init(obj, basis, *args, **kwargs):
                self.counts["assoc_triples"] = self.counts.get("assoc_triples", 0) + len(basis) ** 3
                init(obj, basis, *args, **kwargs)

            algebra.__init__ = counted_init

    def _cache_state(self):
        if self.cache is None:
            return (0, 0)
        info = self.cache.cache_info()
        return (info.hits, info.misses)

    def begin(self) -> None:
        self.spans, self.stack, self.open, self.counts = [], [], set(), {}
        self.cache_before = self._cache_state()

    def end(self, origin: float) -> dict:
        hits, misses = self._cache_state()
        self.counts["cache_hits"] = hits - self.cache_before[0]
        self.counts["cache_misses"] = misses - self.cache_before[1]
        spans = [[n, s - origin, e - origin, p] for n, s, e, p in self.spans]
        return {"spans": spans, "counts": self.counts}
