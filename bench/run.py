#!/usr/bin/env python3
"""spincert benchmark: cold invocations and a warm scan, with per-layer traces.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; spincert is imported from its src/.
Load comes from this one process, which runs one worker (bench/worker.py)
at a time.  A worker is a fresh interpreter that imports spincert; its
start-up is timed from here as set-up time, and each op is timed inside
it.  Each round of ops gets a fresh worker; an op that misses the
deadline kills its worker and counts as failed.  A run attempts whole
rounds until --seconds have passed and at least MIN_OPS ops were tried.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics from spans recorded around each layer (bench/spans.py); the
spans are also written to bench/out/.  Every output is checked against
bench/oracle.py.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --workload all, one
such object per workload, keyed by name.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

from workloads import WORKLOADS, files_in  # noqa: E402

DEADLINE_S = 3.0  # per op; realize --m 8 misses it
SMOKE_DEADLINE_S = 0.5
GRACE_S = 0.25  # extra wait for the reply of an op that finished just in time
STARTUP_TIMEOUT_S = 60.0
MIN_OPS = 100  # so that at least ten latencies lie beyond p90
COLD_OPS_PER_WORKER = 10  # cold ops do not depend on the worker; restarts sample set-up

END_TO_END = {
    "setup_s": "s",
    "throughput_ops": "ops/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# metric -> span whose inclusive time it reports, per completed op
SPAN_METRICS = {
    "exact.four_squares_ms": "exact.four_squares",
    "genus.genus_polynomials_ms": "genus.genus_polynomials",
    "genus.l_coefficients_ms": "genus.l_coefficients",
    "genus.rhc_ahat_twist_coeffs_ms": "genus.rhc_ahat_twist_coeffs",
    "mod2.space_model_from_dict_ms": "mod2.space_model_from_dict",
    "mod2.kunneth_ms": "mod2.kunneth",
    "mod2.w5_verdict_ms": "mod2.w5_verdict",
    "certify.realization_search_ms": "certify.realization_search",
    "certify.realization_conditions_ms": "certify.realization_conditions",
    "certificates.to_dict_ms": "certificates.to_dict",
    "cli.build_parser_ms": "cli.build_parser",
    "cli.render_ms": "cli.render",
    "cli.load_model_ms": "cli.load_model",
}
LAYERS = ("exact", "genus", "mod2", "certify", "certificates", "cli")
# metric -> count summed by the tracer, reported per completed op
COUNT_METRICS = {
    "exact.four_squares_calls": "four_squares_calls",
    "genus.terms_out": "terms_out",
    "mod2.product_basis": "product_basis",
    "mod2.assoc_triples": "assoc_triples",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a worker will not start)."""


class Worker:
    """One worker process; replies are read with a deadline."""

    def __init__(self, cold: bool, trace: bool):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-I", os.path.join(BENCH, "worker.py"), SRC,
             "1" if cold else "0", "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, bufsize=0,
        )
        self.buffer = b""
        try:
            ready = self._readline(STARTUP_TIMEOUT_S)
        except EOFError:
            ready = None
        if ready is None:
            self.close(kill=True)
            raise BenchError("the worker did not start (is spincert importable from src/?)")
        self.setup_s = time.perf_counter() - start

    def _readline(self, timeout: float):
        end = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            left = end - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise EOFError("worker exited")
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return line

    def call(self, argv, timeout: float):
        """The worker's reply, or None if it missed the deadline or died."""
        try:
            self.proc.stdin.write((json.dumps(argv) + "\n").encode())
            line = self._readline(timeout)
        except (EOFError, BrokenPipeError):
            return None
        return None if line is None else json.loads(line)

    def close(self, kill: bool = False) -> float:
        """Stop the worker, wait for it, and return its peak RSS in MB."""
        if kill:
            self.proc.kill()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        end = time.monotonic() + 10
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > end:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.002)
        self.proc.returncode = status  # reaped here, not by Popen
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024


class Run:
    """Everything one run measured."""

    def __init__(self):
        self.latencies = []  # seconds per attempted op, failed ones at the deadline
        self.busy_s = 0.0  # in-worker time, failed ops up to the deadline
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.setups = []
        self.rss = []
        self.errors = []
        self.records = []  # traced ops: argv, time, spans, counts


def run_round(ops, workload, trace: bool, deadline: float, run: Run) -> None:
    """Run one round; a warm workload keeps one worker for the whole round."""
    worker = None
    try:
        for index, op in enumerate(ops):
            if worker is not None and workload.cold and index % COLD_OPS_PER_WORKER == 0:
                run.rss.append(worker.close())
                worker = None
            if worker is None:
                worker = Worker(workload.cold, trace)
                run.setups.append(worker.setup_s)
            run.attempted += 1
            reply = worker.call(op.argv, deadline + GRACE_S)
            if reply is None:
                run.rss.append(worker.close(kill=True))
                worker = None
            if reply is None or reply["error"] or reply["s"] > deadline:
                if reply is not None and reply["error"]:
                    print(f"{' '.join(op.argv)}: {reply['error']}", file=sys.stderr)
                run.failed += 1
                run.latencies.append(deadline)
                run.busy_s += deadline if reply is None else min(reply["s"], deadline)
                continue
            try:
                op.check(reply["code"], reply["doc"])
            except Exception as err:  # a document the checks cannot read fails them too
                run.errors.append(f"{' '.join(op.argv)}: {type(err).__name__}: {err}")
            run.completed += 1
            run.latencies.append(reply["s"])
            run.busy_s += reply["s"]
            if trace:
                run.records.append({"argv": op.argv, "s": reply["s"],
                                    "spans": reply["spans"], "counts": reply["counts"]})
    finally:
        if worker is not None:
            run.rss.append(worker.close())


def end_to_end(run: Run) -> dict:
    return {
        "setup_s": statistics.median(run.setups),
        "throughput_ops": run.completed / run.busy_s,
        "latency_p50_ms": statistics.median(run.latencies) * 1e3,
        "peak_rss_mb": max(run.rss),
    }


def per_layer(run: Run) -> tuple:
    inclusive = defaultdict(float)
    own = defaultdict(float)
    counts = defaultdict(int)
    digits = 0
    for record in run.records:
        spans = record["spans"]
        self_s = [end - start for _, start, end, _ in spans]
        for name, start, end, parent in spans:
            inclusive[name] += end - start
            if parent >= 0:
                self_s[parent] -= end - start
        for (name, *_), seconds in zip(spans, self_s):
            own[name.split(".")[0]] += seconds
        for key, value in record["counts"].items():
            if key == "four_squares_digits":
                digits = max(digits, value)
            else:
                counts[key] += value
    n = max(run.completed, 1)
    lookups = counts["cache_hits"] + counts["cache_misses"]
    rows = [(metric, inclusive[span] * 1e3 / n, "ms/op") for metric, span in SPAN_METRICS.items()]
    rows += [(f"{layer}.self_ms", own[layer] * 1e3 / n, "ms/op") for layer in LAYERS]
    rows += [(metric, counts[key] / n, "count/op") for metric, key in COUNT_METRICS.items()]
    rows += [
        ("exact.four_squares_digits", digits, "digits"),
        ("genus.cache_hit_ratio", counts["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        ("trace.op_ms", sum(r["s"] for r in run.records) * 1e3 / n, "ms/op"),
        ("trace.throughput_ops", run.completed / run.busy_s, "ops/s"),
        # p90 drifts too much between runs on a shared host to carry a bound
        ("trace.latency_p90_ms", statistics.quantiles(run.latencies, n=10)[8] * 1e3, "ms"),
    ]
    return {name: value for name, value, _ in rows}, {name: unit for name, _, unit in rows}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name]
    deadline = SMOKE_DEADLINE_S if smoke else DEADLINE_S
    files = files_in(os.path.join(OUT, "models"))
    Worker(workload.cold, trace).close()  # first start compiles bytecode; not measured
    run = Run()
    started = time.perf_counter()
    index = 0
    while index == 0 or not (smoke or (
            run.attempted >= MIN_OPS and time.perf_counter() - started >= seconds)):
        ops = workload.make_round(random.Random(f"{seed}/{name}/{index}"), smoke, files)
        run_round(ops, workload, trace, deadline, run)
        index += 1
    for error in run.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    if trace:
        metrics, units = per_layer(run)
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{name}-seed{seed}.json"), "w") as handle:
            json.dump({"workload": name, "seed": seed, "ops": run.records}, handle)
    else:
        metrics, units = end_to_end(run), END_TO_END
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round at tiny sizes")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "spincert", "cli.py")):
        print(f"no spincert sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
            results[name] = result
            print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
