"""One benchmark worker: a fresh interpreter that imports spincert and runs ops.

run.py starts it as ``python3 -I worker.py <src dir> <cold 0|1> <trace 0|1>``.
The worker imports spincert from <src dir>, writes one ready line, then
reads one op (a JSON argv list) per line from stdin and answers one JSON
line on stdout.  The op time is taken around ``spincert.cli.run`` alone.
With cold=1 every lru_cache in spincert is cleared before each op, so an
op starts as a fresh ``spincert`` invocation would, minus interpreter
start-up, which run.py reports separately as set-up time.
"""

import json
import os
import sys
import time


def spincert_caches() -> list:
    """Every object with a cache_clear() held by a spincert module or class."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "spincert" and not name.startswith("spincert."):
            continue
        for value in list(vars(module).values()):
            members = list(vars(value).values()) if isinstance(value, type) else []
            for obj in [value, *members]:
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def main() -> None:
    src, cold, trace = sys.argv[1], sys.argv[2] == "1", sys.argv[3] == "1"
    sys.path.insert(0, src)
    import spincert.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"spincert was imported from {cli.__file__}, not from {src}")
    caches = spincert_caches() if cold else []
    tracer = None
    if trace:
        sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.Tracer()
        tracer.install()
    out = sys.stdout
    out.write('{"ready": true}\n')
    out.flush()
    for line in sys.stdin:
        argv = json.loads(line)
        for cache in caches:
            cache.cache_clear()
        if tracer:
            tracer.begin()
        start = time.perf_counter()
        try:
            code, document = cli.run(argv)
            error = None
        except Exception as err:  # reported to run.py, which counts the op as failed
            code, document, error = None, None, f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
        reply = {"code": code, "doc": document, "s": elapsed, "error": error}
        if tracer:
            reply.update(tracer.end(start))
        out.write(json.dumps(reply) + "\n")
        out.flush()


if __name__ == "__main__":
    main()
