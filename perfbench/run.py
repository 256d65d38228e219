"""Benchmark of mapdelta's theorem checks: one workload per run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; mapdelta is imported from ./src.
With --trace 0 a run sets up (imports mapdelta and builds the workload's
inputs) five times, then repeats whole passes over the inputs, each pass in
an order drawn from --seed, until --seconds have gone by, and prints the
end-to-end metrics.  With --trace 1 it sets up once under the tracer, times
untraced passes by the same rule, then one traced pass, and prints the
per-layer metrics.  Either way it then checks every output with the
benchmark's own reference computations.  The last line of standard output
is the JSON result; result and span files go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUPS = 5  # a fixed count: every re-import leaves some memory behind, and peak_rss_mb sees it
MODULES = ("maps", "kernel", "selections", "families", "matroids", "rebuild",
           "formats", "report", "cli", "fixtures", "random_maps")

sys.path.insert(0, HERE)
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Program:
    """The imported mapdelta modules, as attributes."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "mapdelta" or n.startswith("mapdelta.")]:
            del sys.modules[name]
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        package = importlib.import_module("mapdelta")
        if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "mapdelta"):
            raise ImportError("mapdelta was not imported from %s" % SRC)
        self.modules = {n: importlib.import_module("mapdelta." + n) for n in MODULES}
        self.__dict__.update(self.modules)


def set_up(workload):
    """Import mapdelta afresh and build the inputs; returns (program, ops, seconds)."""
    t0 = time.perf_counter()
    md = Program()
    ops = workload.build(md)
    return md, ops, time.perf_counter() - t0


class Outputs:
    """Per op: the first output, the attempts, and the attempts that raised
    or whose output differed from the first.  Later outputs are compared and
    dropped, so memory does not grow with the number of passes."""

    def __init__(self, ops):
        self.first = [None] * len(ops)
        self.attempts = [0] * len(ops)
        self.raised = [0] * len(ops)
        self.differed = [0] * len(ops)
        self.errors = []

    def add(self, i, out):
        self.attempts[i] += 1
        if self.first[i] is None:
            self.first[i] = out
        elif out != self.first[i]:
            self.differed[i] += 1

    def add_error(self, i, message):
        self.attempts[i] += 1
        self.raised[i] += 1
        self.errors.append(message)

    def check(self, workload, ops):
        """(failed op attempts, problems).  An attempt fails when it raised,
        when its output differed from the op's first output, or when that
        first output fails the reference check."""
        failed, problems = 0, []
        for i, op in enumerate(ops):
            try:
                found = [] if self.first[i] is None else workload.check(op, self.first[i])
            except Exception as exc:  # output too malformed for the reference reader
                found = ["unreadable output: %s: %s" % (type(exc).__name__, exc)]
            if found:
                failed += self.attempts[i]
            else:
                failed += self.raised[i] + self.differed[i]
                found = ["output differs between passes"] if self.differed[i] else []
            problems += ["%s: %s" % (op.name, p) for p in found]
        return failed, problems


def run_pass(md, workload, ops, order, outputs, on_op=None):
    """One pass over every op; returns each op's time, by op index."""
    times = [0.0] * len(ops)
    for i in order:
        if on_op:
            on_op(ops[i].name)
        t0 = time.perf_counter()
        try:
            out = workload.run(md, ops[i])
        except Exception as exc:  # a failed op is counted, and the run goes on
            times[i] = time.perf_counter() - t0
            outputs.add_error(i, "%s: %s: %s" % (ops[i].name, type(exc).__name__, exc))
            continue
        times[i] = time.perf_counter() - t0
        outputs.add(i, out)
    return times


def run_passes(md, workload, ops, rng, seconds, outputs):
    """Whole passes until `seconds` have gone by.  Returns the per-pass op
    times and the peak resident set (KB) at the end of the first pass: later
    passes repeat the same work, and reading the peak after a fixed amount
    of work keeps it independent of how many passes fit in the run."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        order = list(range(len(ops)))
        rng.shuffle(order)
        passes.append(run_pass(md, workload, ops, order, outputs))
        if len(passes) == 1:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return passes, peak_kb


def environment(md):
    return {
        "kernel": md.kernel.scan.__name__,
        "kernel_compiled": bool(md.kernel.IS_COMPILED),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def central_mean(values, share=0.1):
    """The median, smoothed: the mean of the middle `share` of the values
    (just the median when that is fewer than three values).  Op times jump
    between input sizes, and a plain median of them jumps with the op that
    happens to land in the middle."""
    xs = sorted(values)
    k = int(len(xs) * share) // 2
    lo, hi = (len(xs) - 1) // 2 - k, len(xs) // 2 + k
    return sum(xs[lo:hi + 1]) / (hi - lo + 1)


def end_to_end(workload, ops, passes, setup_times, peak_rss_kb):
    flat = [t for p in passes for t in p]
    hardest = [i for i, op in enumerate(ops) if op.name == workload.hardest]
    if len(hardest) != 1:
        raise SystemExit("hardest op %r is not one of the inputs" % workload.hardest)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(flat) / sum(flat), "1/s"),
        "op_p50_ms": (central_mean(flat) * 1e3, "ms"),
        "hardest_op_s": (statistics.median(p[hardest[0]] for p in passes), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    try:
        md = Program()
    except ImportError as exc:
        print("error: cannot import mapdelta from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    extra = {}
    if not args.trace:
        setup_times = []
        for _ in range(SETUPS):
            md, ops, setup_s = set_up(workload)
            setup_times.append(setup_s)
        outputs = Outputs(ops)
        passes, peak_kb = run_passes(md, workload, ops, rng, args.seconds, outputs)
        metrics = end_to_end(workload, ops, passes, setup_times, peak_kb)
        extra["setup_times"] = setup_times
        extra["op_times"] = {op.name: [p[i] for p in passes] for i, op in enumerate(ops)}
    else:
        trace = tracer.Tracer(md.modules)
        trace.install()
        ops = workload.build(md)
        trace.remove()
        outputs = Outputs(ops)
        passes, _ = run_passes(md, workload, ops, rng, args.seconds, outputs)
        untraced = statistics.median(sum(p) for p in passes)
        order = list(range(len(ops)))
        rng.shuffle(order)
        trace.install()
        traced = sum(run_pass(md, workload, ops, order, outputs, on_op=trace.start_op))
        trace.remove()
        metrics, extra["self_s_by_layer"] = trace.layer_metrics(traced / untraced)
        extra["spans_file"] = write_json("%s-seed%d-spans.json" % (args.workload, args.seed),
                                         trace.span_records())

    failed, problems = outputs.check(workload, ops)
    result = {
        "correct": not problems,
        "attempted": sum(outputs.attempts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=outputs.attempts[0], ops_per_pass=len(ops),
                  environment=environment(md), problems=problems[:50], errors=outputs.errors[:50], **extra)
    write_json("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace), record, indent=1)
    for line in (problems + outputs.errors)[:20]:
        print("problem: %s" % line, file=sys.stderr)
    print(json.dumps(result))
    return 0


def write_json(filename, data, indent=None):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, filename)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=indent)
    return os.path.relpath(path, ROOT)


if __name__ == "__main__":
    sys.exit(main())
