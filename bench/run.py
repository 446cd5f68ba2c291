"""End-to-end benchmark of mvloewner, with an optional traced per-layer run.

Usage (from the repository root)::

    python3 bench/run.py --workload oracle8 --seed 1 --seconds 40 --trace 0

One caller in one process (a closed loop), BLAS limited to one thread.
Set-up (import of the package from ``src/``, the workload's source and
its JSON data file) is repeated and timed on its own.  Then whole
repetitions of fit, evaluations, verify, evaluations (see
:func:`repetition`) run until the next one would overrun ``--seconds``;
every output is checked, and an exception or a failed check counts as a
failed operation.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json`` (see :func:`figure` for the statistic); with
``--trace 1`` one repetition runs with spans recorded around every layer
(see ``tracing.py``) and the metrics are the per-layer ones, including
the tracing overhead on ``fit``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 15
EVAL_SHARE = 0.1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_package():
    """Fresh import of mvloewner from this checkout's ``src/``."""
    for key in [k for k in sys.modules if k == "mvloewner" or k.startswith("mvloewner.")]:
        del sys.modules[key]
    if not os.path.isdir(os.path.join(SRC, "mvloewner")):
        raise ImportError(f"no mvloewner package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    mvl = importlib.import_module("mvloewner")
    if not os.path.abspath(mvl.__file__).startswith(SRC + os.sep):
        raise ImportError(f"mvloewner imported from {mvl.__file__}, not from {SRC}")
    return mvl, importlib.import_module("mvloewner.cli")


class Recorder:
    """Timing samples, attempted operations and the failures among them."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failures = []

    def attempt(self, label, action):
        """Run one operation; ``action`` returns its list of check failures."""
        self.attempted += 1
        try:
            failures = action()
        except Exception as exc:  # an operation that raises is a failed operation
            failures = [f"raised {type(exc).__name__}: {exc}"]
        if failures:
            self.failures.append(f"{label}: {failures[0]}")
        return not failures


def timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def repetition(rec, ctx, workload, span, eval_share=EVAL_SHARE):
    """fit, evaluations, verify, evaluations; each timed and checked.

    After fit and after verify, batches of ``eval_model`` and
    ``eval_realization`` alternate until they have run ``eval_share``
    times as long as the call before them (one batch of each at least),
    so the short evaluation samples are spread over the whole run.
    """
    mvl = ctx.mvl
    state = {}

    def fit():
        with span("op.fit"):
            value, seconds = timed(workload.fit, mvl, ctx.source)
            state["fitted"] = fitted = workload.finish(mvl, value)
        rec.samples["fit_s"].append(seconds)
        return workload.check_fit(mvl, ctx, fitted)

    ok, seconds = timed(rec.attempt, "fit", fit)
    if not ok:
        return None
    fitted = state["fitted"]

    def evaluation(name, target, batch, check):
        def op():
            points = [tuple(p) for p in wl.draw_points(ctx.rng, workload.domain, batch)]
            evaluate = getattr(mvl, name)
            with span(f"op.{name}"):
                values, seconds = timed(lambda: [evaluate(target, p) for p in points])
            rec.samples[f"{name}_per_s"].append(len(points) / seconds)
            return check(mvl, fitted, points, values)

        return op

    def verify():
        paths = wl.write_fitted(ctx, fitted)
        with span("op.verify"):
            (code, output), seconds = timed(wl.run_verify, ctx, workload, *paths)
        rec.samples["verify_s"].append(seconds)
        return wl.check_verify(workload, code, output)

    eval_model = evaluation("eval_model", fitted.model, workload.model_batch,
                            wl.check_eval_model)
    eval_realization = evaluation("eval_realization", fitted.realization,
                                  workload.realization_batch, wl.check_eval_realization)

    def evaluations(seconds):
        end = time.perf_counter() + eval_share * seconds
        while True:
            rec.attempt("eval_model", eval_model)
            rec.attempt("eval_realization", eval_realization)
            if time.perf_counter() >= end:
                return

    evaluations(seconds)
    _, seconds = timed(rec.attempt, "verify", verify)
    evaluations(seconds)
    return fitted


def no_span(_name):
    return contextlib.nullcontext()


def repeat_until(seconds, start, body):
    """Call ``body`` once, then again while the next call should end by ``start + seconds``."""
    while True:
        began = time.perf_counter()
        body()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def run_traced(rec, ctx, workload, seconds, trace_path):
    """One traced repetition, the pinned-count self-check, then the overhead pairs.

    Returns the per-layer metrics and a report line on the tracing overhead.
    """
    start = time.perf_counter()
    tracer = Tracer()
    with tracer:
        fitted = repetition(rec, ctx, workload, tracer.span, eval_share=0)
        for name, action in workload.trace_extra:
            with tracer.span(f"op.{name}"):
                rec.attempt(name, lambda action=action: action(ctx.mvl, ctx))
    layers = tracer.summary()

    if workload.pinned_trace_counts:
        def self_check():
            counts = tracer.summary("op.fit")
            failures = [
                f"{key} = {counts.get(key, 0)}, pinned {expected}"
                for key, expected in workload.pinned_trace_counts.items()
                if counts.get(key, 0) != expected
            ]
            flops = fitted.result.report.cascaded_flops
            if counts.get("loewner.nullspace_vector.k3") != flops:
                failures.append(f"traced k3 {counts.get('loewner.nullspace_vector.k3')} != "
                                f"FlopReport.cascaded_flops {flops}")
            return failures

        rec.attempt("trace self-check", self_check)

    # tracing overhead: median over pairs of traced minus untraced fit time,
    # the order inside a pair alternating so that a drift in speed cancels
    plain, traced = [], []

    def pair():
        def traced_fit():
            with Tracer():
                traced.append(timed(workload.fit, ctx.mvl, ctx.source)[1])

        def plain_fit():
            plain.append(timed(workload.fit, ctx.mvl, ctx.source)[1])

        for fit in (plain_fit, traced_fit) if len(plain) % 2 == 0 else (traced_fit, plain_fit):
            fit()

    repeat_until(seconds, start, pair)
    base = statistics.median(plain)
    overhead = statistics.median(t - p for t, p in zip(traced, plain))
    layers["trace.fit_overhead_s"] = overhead
    tracer.dump(trace_path)
    return layers, (f"tracing overhead on fit: {overhead:+.4f} s ({overhead / base:+.2%} of "
                    f"{base:.4f} s untraced, {len(plain)} pairs)")


def figure(entry, values):
    """The run's value of an end-to-end metric: its slow quartile.

    That is the upper quartile of a time, the lower quartile of a rate;
    set-up reports the median of its repeats.  On a shared host single
    samples fall into a slow mode, which holds most of the time, and a
    fast mode up to 1.8x faster, which comes and goes for seconds to
    minutes.  The median and the mean of a run follow the share of fast
    samples; the slow quartile stays put while a quarter of them are slow.
    """
    if entry["name"] == "setup_s" or len(values) < 2:
        return statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 if entry["better"] == "lower" else q1


def describe(entry, values):
    """Figure, median, mean, sample count, quartiles, worst percentile with >= 10 samples beyond."""
    line = (f"{entry['name']}: {figure(entry, values):.6g} {entry['unit']}, "
            f"median {statistics.median(values):.6g}, mean {statistics.fmean(values):.6g}, "
            f"n={len(values)}")
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        line += f", q1 {q1:.6g}, q3 {q3:.6g}"
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            worst = pct if entry["better"] == "lower" else 100 - pct
            line += f", p{worst} {statistics.quantiles(values, n=100)[worst - 1]:.6g}"
            break
    return line


def run(workload_name, seed, seconds, trace):
    """Run one workload; returns the result document and the report lines."""
    spec = load_spec()
    workload = wl.WORKLOADS[workload_name]
    rec = Recorder()
    lines = []
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            mvl, cli = import_package()
            ctx = wl.set_up(mvl, cli, workload, seed, workdir)
            setup_times.append(time.perf_counter() - start)
        rec.samples["setup_s"] = setup_times
        if trace:
            trace_path = os.path.join(OUT_DIR, f"trace-{workload_name}-seed{seed}.json")
            layers, overhead_line = run_traced(rec, ctx, workload, seconds, trace_path)
            lines += [f"spans written to {os.path.relpath(trace_path, ROOT)}", overhead_line]
        else:
            repeat_until(seconds, time.perf_counter(),
                         lambda: repetition(rec, ctx, workload, no_span))
    rec.samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]

    metrics = {}
    if trace:
        for entry in spec["per_layer"]:
            value = layers.get(entry["name"], 0)
            if entry["unit"] in ("count", "bytes"):
                value = int(round(value))
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    else:
        for entry in spec["end_to_end"]:
            values = rec.samples.get(entry["name"])
            if values:
                metrics[entry["name"]] = {"value": figure(entry, values), "unit": entry["unit"]}
                lines.append(describe(entry, values))
    failed = len(rec.failures)
    attempted = max(rec.attempted, 1)
    lines.append(f"ops_failed: {failed}/{attempted} = {failed / attempted:.4g}")
    lines.extend(f"FAILED {message}" for message in rec.failures)
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    correct = failed == 0 and all(entry["name"] in metrics for entry in expected)
    document = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return document, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        document, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
