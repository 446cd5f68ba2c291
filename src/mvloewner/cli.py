"""Command-line interface.

Subcommands mirror the library drivers: ``order-detect``, ``fit``,
``fit-adaptive``, ``eval``, ``realize``, ``verify``, ``flops`` and
``plot-data``.  All structured output is JSON (complex numbers as
``[re, im]`` pairs), printed complex scalars use ``re+imi`` with 12
significant digits, and files are written atomically.  Exit codes:
0 success, 2 input error, 3 non-convergence, 4 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .cascade import make_flop_report
from .driver import FitOptions, fit_adaptive, fit_direct
from .errors import DegenerateNullspaceError, MvLoewnerError, NotConvergedError, PoleError
from .grids import _complex_to_pairs, load_source
from .loewner import _guard_dense, detect_orders
from .model import _eval_on_grid, _sweep, eval_model, load_model, model_to_dict
from .realize import (
    build_realization,
    eval_realization,
    load_realization,
    make_split,
    realization_to_dict,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3
EXIT_DEGENERATE = 4


def format_complex(value):
    """``re+imi`` with 12 significant digits, sign always shown on the imaginary part."""
    value = complex(value)
    real = value.real + 0.0  # drop negative zero
    imag = value.imag + 0.0
    return f"{real:.12g}{imag:+.12g}i"


def write_json_atomic(document, path):
    write_text_atomic(json.dumps(document, indent=1) + "\n", path)


def write_text_atomic(text, path):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _parse_degrees(text):
    return tuple(int(part) for part in text.split(","))

def _parse_order(text, names):
    parts = [p.strip() for p in text.split(",")]
    if all(p in names for p in parts):
        return tuple(names.index(p) for p in parts)
    return tuple(int(p) - 1 for p in parts)


def _finite_complex(text):
    """A complex coordinate (``i`` or ``j`` as imaginary unit); NaN and infinity are refused."""
    value = complex(text.strip().replace("i", "j").replace("I", "j"))
    if not np.isfinite(value):
        raise MvLoewnerError(f"coordinate {text.strip()!r} is not finite")
    return value


def _parse_point(text):
    return tuple(_finite_complex(part) for part in text.split(","))


def _fit_options(args, names=None):
    method = getattr(args, "method", "cascade")
    order = getattr(args, "order", None)
    degrees = getattr(args, "degrees", None)
    return FitOptions(
        nullspace_method="cascaded" if method in ("cascade", "cascaded") else "full",
        variable_order="auto" if order is None else _parse_order(order, names or []),
        degrees=_parse_degrees(degrees) if degrees else None,
        order_sample_budget=getattr(args, "budget", 10),
        seed=getattr(args, "seed", 0),
    )


# --- subcommands --------------------------------------------------------


def cmd_order_detect(args):
    source = load_source(args.data)
    estimate = detect_orders(source, args.budget, args.tol, args.seed)
    document = {"degrees": list(estimate.degrees)}
    if any(estimate.saturated):
        document["saturated"] = [source.names[i] for i, s in enumerate(estimate.saturated) if s]
    print(json.dumps(document))
    return EXIT_OK


def cmd_fit(args):
    source = load_source(args.data)
    opts = _fit_options(args, source.names)
    result = fit_direct(source, opts)
    write_json_atomic(model_to_dict(result.model), args.out)
    report = result.report.to_dict()
    report["degrees"] = list(result.degrees)
    report["flops"] = (
        report["cascaded_flops"] if opts.nullspace_method == "cascaded" else report["full_flops"]
    )
    print(json.dumps(report))
    return EXIT_OK


def cmd_fit_adaptive(args):
    source = load_source(args.data)
    opts = _fit_options(args, source.names)
    try:
        model, log = fit_adaptive(source, args.tol, opts)
    except NotConvergedError as exc:
        if exc.best_model is not None:
            write_json_atomic(model_to_dict(exc.best_model), args.out)
        if args.log and exc.log is not None:
            write_json_atomic(exc.log.to_dict(), args.log)
        print(f"not converged: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    write_json_atomic(model_to_dict(model), args.out)
    if args.log:
        write_json_atomic(log.to_dict(), args.log)
    final = log.iterations[-1]
    print(
        json.dumps(
            {
                "converged": log.converged,
                "k": list(final.counts),
                "iterations": len(log.iterations),
                "max_error": final.max_error,
                "flops": [it.flops for it in log.iterations],
            }
        )
    )
    return EXIT_OK


def cmd_eval(args):
    model = load_model(args.model)
    point = _parse_point(args.point)
    with np.errstate(all="ignore"):  # an overflow is reported as a non-finite value
        value = eval_model(model, point)
    if not np.isfinite(value):
        print(f"error: the model value {format_complex(value)} is not finite", file=sys.stderr)
        return EXIT_DEGENERATE
    print(format_complex(value))
    return EXIT_OK


def _split_from_arg(text, model):
    """``auto``, right names, or ``right|left`` names, as a ``build_realization`` split."""
    if text == "auto":
        return text
    names = list(model.variable_names)
    if "|" in text:
        right_text, _, left_text = text.partition("|")
        right, left = _parse_order(right_text, names), _parse_order(left_text, names)
        return make_split(right, model.counts, left)
    return _parse_order(text, names)


def cmd_realize(args):
    model = load_model(args.model)
    realization = build_realization(model, _split_from_arg(args.split, model))
    write_json_atomic(realization_to_dict(realization), args.out)
    split = realization.split
    print(json.dumps({"m": realization.order, "kappa": split.kappa, "ell": split.ell}))
    return EXIT_OK


def _same_variables(label, names, other_label, other_names):
    """Refuse files whose variables differ in name or order: verify pairs them by position."""
    if list(names) != list(other_names):
        raise MvLoewnerError(
            f"the {label}'s variables {list(names)} are not the {other_label}'s {list(other_names)}"
        )


def cmd_verify(args):
    if not args.tol >= 0:
        raise MvLoewnerError(f"sweep tolerance must be a non-negative number, got {args.tol}")
    source = load_source(args.data)
    model = load_model(args.model)
    _same_variables("model", model.variable_names, "data", source.names)
    realization = load_realization(args.realization) if args.realization else None
    if realization is not None:
        _same_variables("realization", realization.variable_names, "model", model.variable_names)
    checks = {}

    support_values = source.values_on_product(model.support_points).reshape(-1)
    produced = _eval_on_grid(model, model.support_points).reshape(-1)
    mismatches = np.abs(produced - support_values) / np.maximum(1.0, np.abs(support_values))
    # tuples whose weight vanishes carry no interpolation condition
    weights = np.abs(model.weights_c)
    kept = mismatches[weights >= 1e-12 * np.max(weights)]
    interp_err = float(np.max(kept)) if kept.size else 0.0
    checks["interpolation"] = {"max_relative_error": interp_err, "ok": bool(interp_err <= 1e-9)}

    # the model's error on its own Loewner rows: (L c)_i = D(mu_i) (v_i - H(mu_i))
    rows = [g.with_supports(s).row_points for g, s in zip(source.grids, model.support_points)]
    pools = {"loewner_rows": rows, "sweep": [g.union_points for g in source.grids]}
    sweeps = {name: _sweep(model, source, lists, args.seed) for name, lists in pools.items()}
    # the data scale: one plus the largest |sample| that the union sweep read
    scale = 1.0 + sweeps["sweep"][3]
    for name, (error, location, sampled, _) in sweeps.items():
        checks[name] = {
            "max_error": float(error),
            "argmax": _complex_to_pairs(location),
            "sampled": sampled,
            "ok": bool(np.isfinite(error) and error <= args.tol * scale),
        }

    if realization is not None:
        rng = np.random.default_rng(args.seed)
        points = [
            [
                complex(rng.uniform(-1, 1), 0) * 0.3 + support[rng.integers(support.size)] * 0.7
                for support in model.support_points
            ]
            for _ in range(25)
        ]
        a = eval_model(model, points)
        b = eval_realization(realization, points)
        lost = np.isnan(a) | np.isnan(b)  # a value lost to overflow fails the check
        kept = np.isfinite(a) & np.isfinite(b)  # a pole of either form is skipped
        a, b = a[kept], b[kept]
        mismatch = np.abs(a - b) / np.maximum(1.0, np.abs(a))
        worst = np.inf if lost.any() else np.max(mismatch, initial=0.0)
        checks["realization"] = {"max_relative_mismatch": float(worst), "ok": bool(worst <= 1e-8)}

    ok = all(entry["ok"] for entry in checks.values())
    print(json.dumps({"ok": ok, "checks": checks}))
    return EXIT_OK if ok else EXIT_DEGENERATE


def cmd_flops(args):
    counts = [d + 1 for d in _parse_degrees(args.degrees)]
    order = _parse_order(args.order, []) if args.order else range(len(counts))
    document = make_flop_report(counts, order).to_dict()
    del document["variable_order"]
    print(json.dumps(document))
    return EXIT_OK


def _parse_sweep(text):
    name, _, spec = text.partition("=")
    lo, hi, count = spec.split(":")
    lo, hi = float(lo), float(hi)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise MvLoewnerError(f"sweep bounds {lo}:{hi} are not finite")
    return name.strip(), lo, hi, int(count)


def cmd_plot_data(args):
    model = load_model(args.model)
    names = list(model.variable_names)
    name, lo, hi, count = _parse_sweep(args.sweep)
    if count < 2:
        raise MvLoewnerError("sweep needs at least two samples")
    if name not in names:
        raise MvLoewnerError(f"unknown sweep variable {name!r}")
    frozen = {}
    if args.frozen:
        for item in args.frozen.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in names:
                raise MvLoewnerError(f"unknown frozen variable {key!r}")
            frozen[key] = _finite_complex(value)
    _guard_dense(count, len(names))  # the (count, n) sweep points
    sweep_index = names.index(name)
    sweep = np.linspace(lo, hi, count)
    columns = []
    for l, var in enumerate(names):
        if l == sweep_index:
            columns.append(sweep)
        elif var in frozen:
            columns.append(np.full(count, frozen[var]))
        else:
            raise MvLoewnerError(f"variable {var!r} is neither swept nor frozen")
    samples = eval_model(model, np.stack(columns, axis=1))
    lost = np.flatnonzero(np.isnan(samples))
    if lost.size:
        first = lost[0]
        print(
            f"error: the model value {format_complex(samples[first])} at {name}={sweep[first]:.12g}"
            " is not a number",
            file=sys.stderr,
        )
        return EXIT_DEGENERATE
    lines = ["point,re,im,abs"]
    for value, sample in zip(sweep, samples):
        if np.isinf(sample):
            lines.append(f"{value:.12g},inf,inf,inf")
        else:
            lines.append(f"{value:.12g},{sample.real:.12g},{sample.imag:.12g},{abs(sample):.12g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        write_text_atomic(text, args.out)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- argument parsing ---------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvloewner",
        description="Multivariate rational fitting in the Loewner framework.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order-detect", help="estimate per-variable rational degrees")
    p.add_argument("--data", required=True)
    p.add_argument("--budget", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_order_detect)

    p = sub.add_parser("fit", help="direct fit: detect orders, compute weights, save model")
    p.add_argument("--data", "--oracle", required=True)
    p.add_argument("--degrees")
    p.add_argument("--method", choices=["full", "cascade"], default="cascade")
    p.add_argument("--order", help="recursion order, variable names or 1-based indices")
    p.add_argument("--budget", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("fit-adaptive", help="greedy adaptive fit to a tolerance")
    p.add_argument("--data", "--oracle", required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--method", choices=["full", "cascade"], default="cascade")
    p.add_argument("--order")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.set_defaults(func=cmd_fit_adaptive)

    p = sub.add_parser("eval", help="evaluate a saved model at one point")
    p.add_argument("--model", required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("realize", help="export the generalized realization of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--split", default="auto", help="'auto', right names, or 'right|left'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("verify", help="consistency checks of model against data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", "--oracle", required=True)
    p.add_argument("--realization")
    p.add_argument("--tol", type=float, default=1e-8, help="sweep-error budget, relative to the data scale")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("flops", help="flop and memory accounting for given degrees")
    p.add_argument("--degrees", required=True)
    p.add_argument("--order")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("plot-data", help="CSV response sweep of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--sweep", required=True, help="var=lo:hi:count")
    p.add_argument("--frozen", help="comma-separated var=value pairs")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateNullspaceError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (MvLoewnerError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
