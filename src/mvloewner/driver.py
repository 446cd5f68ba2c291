"""End-to-end fitting drivers: direct order detection and greedy adaptation.

The direct driver estimates per-variable degrees from single-variable
matrix ranks, selects support points, computes the weight vector (full
SVD or cascade) and assembles the model and its realization.  The
adaptive driver starts from a single support tuple (the first column
point of each variable), then repeatedly promotes the coordinates of
the worst-error grid tuple into the support sets until the sweep error
drops below tolerance or no coordinate is promotable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .cascade import cascaded_nullspace, make_flop_report, resolve_order
from .errors import DegenerateNullspaceError, NotConvergedError
from .grids import _check_degrees, _complex_to_pairs
from .loewner import build_loewner_nd, detect_orders, nullspace_vector
from .model import make_model, max_error, sweep_is_sampled
from .realize import build_realization


@dataclass(frozen=True)
class FitOptions:
    """Knobs of the drivers; ``degrees``, ``order_sample_budget`` and ``split``
    are read only by :func:`fit_direct`, ``seed`` by both (orders, sampled sweeps)."""

    nullspace_method: str = "cascaded"  # "cascaded" | "full"
    variable_order: object = "auto"  # a cascade.resolve_order spec
    degrees: tuple | None = None
    order_sample_budget: int = 10
    seed: int = 0
    split: object = "first"  # a realize.resolve_split spec

    def __post_init__(self):
        if self.nullspace_method not in ("cascaded", "full"):
            raise ValueError(f"unknown null-space method {self.nullspace_method!r}")


@dataclass(eq=False)
class FitResult:
    model: object
    realization: object
    report: object
    degrees: tuple


@dataclass
class AdaptiveIteration:
    added: dict  # variable name -> promoted point (or absent)
    counts: tuple
    flops: int
    max_error: float
    argmax: tuple


@dataclass
class AdaptiveLog:
    method: str
    tolerance: float
    converged: bool = False
    iterations: list = field(default_factory=list)
    sampled: bool = False  # the error sweeps sampled the grid (model.sweep_is_sampled)

    def to_dict(self):
        return {
            "method": self.method,
            "tolerance": self.tolerance,
            "converged": self.converged,
            "iterations": [
                {
                    "added": dict(zip(it.added, _complex_to_pairs(list(it.added.values())))),
                    "k": list(it.counts),
                    "flops": it.flops,
                    "max_error": it.max_error,
                    "argmax": _complex_to_pairs(it.argmax),
                }
                for it in self.iterations
            ],
            **({"sampled": True} if self.sampled else {}),
        }


def _max_supports(grid):
    """Most support points ``grid`` can give: the other union points must supply k - 1 rows."""
    return (grid.union_points.size + 1) // 2


def _fit_selection(source, selection, opts):
    """Model on a selection (one grid per variable) by the configured method, and its flop report.

    The weights are normalized at the all-anchors entry (cascade) or the
    last entry (full SVD).
    """
    supports = [g.column_points for g in selection]
    counts = tuple(p.size for p in supports)
    order = resolve_order(opts.variable_order, counts)
    if opts.nullspace_method == "cascaded":
        result = cascaded_nullspace(source, selection=selection, order=order)
        weights, report = result.weights, result.report
    else:
        lm = build_loewner_nd(source, selection)
        result = nullspace_vector(lm)
        if result.rank < math.prod(counts) - 1:
            raise DegenerateNullspaceError(
                f"null space of the full matrix has dimension "
                f"{math.prod(counts) - result.rank}; the chosen degrees are too "
                "high, reduce them",
            )
        weights, report = result.vector, make_flop_report(counts, order)
    values = source.values_on_product(supports).reshape(-1)
    return make_model(supports, weights, values, names=source.names), report


def fit_direct(source, opts=None):
    """Order detection, weight computation, model and realization in one pass."""
    opts = opts or FitOptions()
    if opts.degrees is not None:
        degrees = _check_degrees(source, opts.degrees)
    else:
        degrees = detect_orders(source, opts.order_sample_budget, seed=opts.seed).degrees
    counts = []
    for grid, d in zip(source.grids, degrees):
        available = grid.union_points.size
        k = d + 1
        # supports come from the column list
        limit = min(_max_supports(grid), grid.column_points.size)
        if k > limit:
            warnings.warn(
                f"variable {grid.name!r}: degree {d} needs {k} support points but "
                f"only {grid.column_points.size} columns of {available} grid points "
                f"exist; clamping to {limit}",
                stacklevel=2,
            )
            k = limit
        counts.append(k)
    selection = [g.spread_columns(k) for g, k in zip(source.grids, counts)]
    model, report = _fit_selection(source, selection, opts)
    degrees_final = tuple(k - 1 for k in model.counts)
    realization = build_realization(model, opts.split)
    return FitResult(model, realization, report, degrees_final)


def fit_adaptive(source, tol, opts=None):
    """Greedy support enrichment until the grid sweep error meets ``tol``.

    Each sweep is :func:`model.max_error` seeded by ``opts.seed``, sampled on large grids.

    Returns ``(model, log)``; raises :class:`NotConvergedError` (carrying
    the best model and the log) when every coordinate of the worst tuple
    is already a support point, or when promoting would leave a variable
    with fewer row points than supports.
    """
    opts = opts or FitOptions()
    if not tol > 0:
        raise ValueError(f"tolerance must be a positive number, got {tol}")
    grids = source.grids
    chosen = [[complex(g.column_points[0])] for g in grids]
    log = AdaptiveLog(opts.nullspace_method, float(tol), sampled=sweep_is_sampled(source))
    added = {g.name: chosen[l][0] for l, g in enumerate(grids)}
    best = None

    while True:
        selection = [g.with_supports(c).nearest_rows() for g, c in zip(grids, chosen)]
        counts = tuple(g.column_points.size for g in selection)
        try:
            model, report = _fit_selection(source, selection, opts)
        except DegenerateNullspaceError as exc:
            raise NotConvergedError(
                f"weight computation became degenerate at supports {counts}: {exc}",
                best_model=None if best is None else best[1],
                log=log,
            ) from exc
        error, argmax = max_error(model, source, opts.seed)
        cascaded = opts.nullspace_method == "cascaded"
        flops = report.cascaded_flops if cascaded else report.full_flops
        log.iterations.append(
            AdaptiveIteration(dict(added), counts, flops, error, argmax)
        )
        if best is None or error < best[0]:
            best = (error, model)
        if error <= tol:
            log.converged = True
            return model, log

        added = {}
        for l, grid in enumerate(grids):
            coordinate = argmax[l]
            if any(coordinate == value for value in chosen[l]):
                continue
            if len(chosen[l]) + 1 > _max_supports(grid):
                continue
            chosen[l].append(complex(coordinate))
            added[grid.name] = complex(coordinate)
        if not added:
            raise NotConvergedError(
                f"no coordinate of the worst tuple is promotable; best error "
                f"{best[0]:.3e} exceeds tolerance {tol:.3e}",
                best_model=best[1],
                log=log,
            )
