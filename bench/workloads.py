"""Workload definitions: inputs, the fit route, and the output checks.

Every workload runs the same four operations per repetition, through the
package's public API only:

* ``fit``: one fit call (``fit_direct`` or ``fit_adaptive``, per workload);
* ``eval_model``: ``eval_model`` over a seeded batch of off-grid points;
* ``eval_realization``: ``eval_realization`` over a seeded batch;
* ``verify``: one in-process ``cli.main(["verify", ...])`` on JSON files.

A check returns a list of failure messages; an empty list means the
operation's output is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

ORACLE8_NAMES = tuple(f"x{i}" for i in range(1, 9))
ORACLE8_TEXT = (
    "(3*x1^3+4*x2+x3*x4+x6+x8^2)"
    "/(x1^3+x2^3*x3^2+x4^2+x5^2+x6^2*x7^2+x8^2*pi+2)"
)
ORACLE8_DEGREES = (3, 3, 2, 2, 2, 2, 2, 2)
DENSE3D_TEXT = "1/(1+4*(a+b)^2+c^2)+a*c/(c+3)"
SYNTH2D_TEXT = "1/(1+25*(s+p)^2)+0.5/(1+25*(s-0.5)^2)+0.1/(p+25)"

RELATIVE_AGREEMENT = 1e-8  # model vs realization, model vs reference formula
REFERENCE_POINTS = 20  # points of each eval_model batch checked by the reference


@dataclass
class Fitted:
    model: object
    realization: object
    result: object  # what the fit returned, for the checks


@dataclass(frozen=True)
class Workload:
    make_source: object  # mvl -> DataSource
    fit: object  # (mvl, source) -> driver return value (the timed call)
    finish: object  # (mvl, value) -> Fitted (untimed)
    check_fit: object  # (mvl, ctx, fitted) -> [failure messages]
    domain: tuple  # per variable (lo, hi) of the seeded evaluation points
    # points per evaluation batch, a few tens of milliseconds of work
    model_batch: int
    realization_batch: int
    verify_realization: bool
    sweep_limit: float | None = None  # verify's sweep error must not exceed this
    trace_extra: tuple = ()  # (name, fn(mvl, ctx) -> [failures]) run in the traced pass only
    pinned_trace_counts: dict = field(default_factory=dict)  # traced counts of one fit


# --- sources ------------------------------------------------------------


def oracle8_source(mvl):
    """The 8-variable criterion-10 oracle: K = 11,664 support tuples."""
    grids = []
    for name, d in zip(ORACLE8_NAMES, ORACLE8_DEGREES):
        points = np.linspace(1.0, 2.0, 2 * (d + 1))
        grids.append(mvl.VariableGrid(name, points[0::2], points[1::2]))
    return mvl.OracleSource(mvl.parse(ORACLE8_TEXT, list(ORACLE8_NAMES)), grids)


def dense3d_source(mvl):
    """29 points per variable on [-1, 1], alternating columns and rows, densified."""
    points = np.linspace(-1.0, 1.0, 29)
    grids = [mvl.VariableGrid(v, points[0::2], points[1::2]) for v in "abc"]
    return mvl.OracleSource(mvl.parse(DENSE3D_TEXT, list("abc")), grids).densify()


def synth2d_source(mvl):
    """The criterion-8 two-bump model on 21 x 21 alternating grids, densified."""
    grids = [
        mvl.VariableGrid(
            "s",
            np.round(np.linspace(-1, 1, 11), 10),
            np.round(np.linspace(-0.9, 0.9, 10), 10),
        ),
        mvl.VariableGrid(
            "p",
            np.round(np.linspace(0, 1, 11), 10),
            np.round(np.linspace(0.05, 0.95, 10), 10),
        ),
    ]
    return mvl.OracleSource(mvl.parse(SYNTH2D_TEXT, ["s", "p"]), grids).densify()


# --- fit routes and their checks -----------------------------------------


def _direct_finish(mvl, result):
    return Fitted(result.model, result.realization, result)


def _check_oracle8_fit(mvl, ctx, fitted):
    failures = []
    result = fitted.result
    if result.degrees != ORACLE8_DEGREES:
        failures.append(f"degrees {result.degrees}")
    if result.report.cascaded_flops != 157_568:
        failures.append(f"cascaded_flops {result.report.cascaded_flops} != 157568")
    if fitted.realization.order != 305:
        failures.append(f"realization order {fitted.realization.order} != 305")
    expr = ctx.source.expression
    worst = 0.0
    for point in ctx.fit_check_points:
        reference = mvl.evaluate(expr, dict(zip(ORACLE8_NAMES, point)))
        worst = max(worst, abs(mvl.eval_model(fitted.model, tuple(point)) - reference))
    if not worst <= 1e-6:
        failures.append(f"model differs from the oracle by {worst:.3e} > 1e-6")
    return failures


def _check_dense3d_fit(mvl, ctx, fitted):
    failures = []
    if fitted.result.degrees != (3, 2, 3):
        failures.append(f"detected degrees {fitted.result.degrees} != (3, 2, 3)")
    if fitted.realization.order != 27:
        failures.append(f"realization order {fitted.realization.order} != 27")
    return failures


def _synth2d_both_routes(mvl, source):
    """fit_adaptive(1e-6) by the cascade, then by the full SVD: the paper's comparison."""
    cascade = mvl.fit_adaptive(source, 1e-6, mvl.FitOptions(nullspace_method="cascaded"))
    full = mvl.fit_adaptive(source, 1e-6, mvl.FitOptions(nullspace_method="full"))
    return cascade, full


def _adaptive_finish(mvl, value):
    """The cascade route's model goes on to evaluation and verify."""
    (model, _), _ = value
    degrees = [k - 1 for k in model.counts]
    return Fitted(model, mvl.build_realization(model, mvl.optimal_split(degrees)), value)


SYNTH2D_FLOPS = {"cascaded": [2, 10, 51, 172, 445], "full": [1, 8, 216, 1728, 8000]}


def _check_synth2d_fit(mvl, ctx, fitted):
    failures = []
    for _, log in fitted.result:
        flops = [it.flops for it in log.iterations]
        final = log.iterations[-1]
        if not log.converged:
            failures.append(f"{log.method}: adaptive fit did not converge")
        elif tuple(final.counts) != (5, 4):
            failures.append(f"{log.method}: final support counts {final.counts} != (5, 4)")
        elif flops != SYNTH2D_FLOPS[log.method]:
            failures.append(f"{log.method}: flop sequence {flops} != {SYNTH2D_FLOPS[log.method]}")
        elif not final.max_error <= 1e-6:
            failures.append(f"{log.method}: final sweep error {final.max_error:.3e} > 1e-6")
    return failures


def _dense3d_adaptive_attempt(mvl, ctx):
    """One fit_adaptive(1e-6) attempt; converging or a typed NotConvergedError are both correct."""
    try:
        _, log = mvl.fit_adaptive(ctx.source, 1e-6, mvl.FitOptions())
    except mvl.NotConvergedError as exc:
        return [] if exc.log is not None else ["NotConvergedError without its log"]
    final = log.iterations[-1]
    return [] if final.max_error <= 1e-6 else [f"converged with error {final.max_error:.3e}"]


WORKLOADS = {
    # the paper's many-variable case: oracle sampling and the cascade dominate the
    # fit, the realization (m = 305) is solve-bound, verify takes the sampled sweep
    "oracle8": Workload(
        make_source=oracle8_source,
        fit=lambda mvl, source: mvl.fit_direct(
            source,
            mvl.FitOptions(nullspace_method="cascaded", degrees=ORACLE8_DEGREES, split="auto"),
        ),
        finish=_direct_finish,
        check_fit=_check_oracle8_fit,
        domain=((1.0, 2.0),) * 8,
        model_batch=60,
        realization_batch=5,
        verify_realization=False,
        pinned_trace_counts={
            "grids.values_on_product.calls": 11_659,
            "loewner.build_loewner_1d.calls": 5_829,
            "loewner.nullspace_vector.calls": 5_829,
            "loewner.nullspace_vector.k3": 157_568,
            "cascade.node_yield": 1.0,
        },
    ),
    # dense lookups, order detection, the full verify sweep and the Sylvester check;
    # its fit_adaptive attempt runs in the traced pass (it does not converge here)
    "dense3d": Workload(
        make_source=dense3d_source,
        fit=lambda mvl, source: mvl.fit_direct(source),
        finish=_direct_finish,
        check_fit=_check_dense3d_fit,
        domain=((-1.0, 1.0),) * 3,
        model_batch=1000,
        realization_batch=200,
        verify_realization=True,
        sweep_limit=1e-9,
        trace_extra=(("adaptive_attempt", _dense3d_adaptive_attempt),),
    ),
    # many small fits inside the adaptive loop, by both null-space routes
    "synth2d": Workload(
        make_source=synth2d_source,
        fit=_synth2d_both_routes,
        finish=_adaptive_finish,
        check_fit=_check_synth2d_fit,
        domain=((-1.0, 1.0), (0.0, 1.0)),
        model_batch=1000,
        realization_batch=250,
        verify_realization=True,
        sweep_limit=1e-9,
    ),
}


# --- per-run context and the operations -----------------------------------


@dataclass
class Context:
    mvl: object
    cli: object
    source: object
    rng: np.random.Generator
    seed: int
    workdir: str
    data_path: str
    fit_check_points: np.ndarray


def set_up(mvl, cli, workload, seed, workdir):
    """Build the workload's source and write its JSON data file."""
    source = workload.make_source(mvl)
    data_path = os.path.join(workdir, "data.json")
    with open(data_path, "w", encoding="utf-8") as fh:
        json.dump(mvl.source_to_dict(source), fh)
    rng = np.random.default_rng(seed)
    return Context(mvl, cli, source, rng, seed, workdir, data_path, draw_points(rng, workload.domain, 50))


def draw_points(rng, domain, count):
    lo = np.array([a for a, _ in domain])
    hi = np.array([b for _, b in domain])
    return lo + (hi - lo) * rng.random((count, len(domain)))


def write_fitted(ctx, fitted):
    """Model (and realization) files for verify, written outside any timing."""
    mvl = ctx.mvl
    model_path = os.path.join(ctx.workdir, "model.json")
    with open(model_path, "w", encoding="utf-8") as fh:
        json.dump(mvl.model_to_dict(fitted.model), fh)
    realization_path = os.path.join(ctx.workdir, "realization.json")
    with open(realization_path, "w", encoding="utf-8") as fh:
        json.dump(mvl.realization_to_dict(fitted.realization), fh)
    return model_path, realization_path


def reference_model(model, point):
    """Barycentric quotient by the textbook formula, for off-support points."""
    numerator = model.weights_beta.reshape(model.counts)
    denominator = model.weights_c.reshape(model.counts)
    for l in reversed(range(model.n_vars)):
        factor = 1.0 / (complex(point[l]) - model.support_points[l])
        numerator = numerator @ factor
        denominator = denominator @ factor
    return complex(numerator / denominator)


def check_eval_model(mvl, fitted, points, values):
    failures = []
    for point, value in zip(points[:REFERENCE_POINTS], values):
        reference = reference_model(fitted.model, point)
        if not abs(value - reference) <= RELATIVE_AGREEMENT * max(1.0, abs(reference)):
            failures.append(f"eval_model {value} != reference {reference} at {tuple(point)}")
            break
    return failures


def check_eval_realization(mvl, fitted, points, values):
    for point, value in zip(points, values):
        expected = mvl.eval_model(fitted.model, tuple(point))
        if not abs(value - expected) <= RELATIVE_AGREEMENT * max(1.0, abs(expected)):
            return [f"realization {value} != model {expected} at {tuple(point)}"]
    return []


def run_verify(ctx, workload, model_path, realization_path):
    argv = ["verify", "--model", model_path, "--data", ctx.data_path, "--seed", str(ctx.seed)]
    if workload.verify_realization:
        argv += ["--realization", realization_path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ctx.cli.main(argv)
    return code, out.getvalue()


def check_verify(workload, code, output):
    if code != 0:
        return [f"verify exited {code}: {output.strip()[-300:]}"]
    document = json.loads(output.strip().splitlines()[-1])
    if document.get("ok") is not True:
        return [f"verify reported not ok: {output.strip()[-300:]}"]
    error = document["checks"]["sweep"]["max_error"]
    if workload.sweep_limit is not None and not error <= workload.sweep_limit:
        return [f"verify sweep error {error:.3e} > {workload.sweep_limit:.0e}"]
    return []
