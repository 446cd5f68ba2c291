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
from .errors import DegenerateNullspaceError, GridError, NotConvergedError
from .grids import Selection, _check_degrees, _complex_to_pairs, check_disjoint
from .loewner import DEFAULT_RANK_TOL, build_loewner_nd, detect_orders, nullspace_vector
from .model import make_model, max_error
from .realize import build_realization


@dataclass(frozen=True)
class FitOptions:
    """Knobs of the drivers; ``degrees``, ``order_sample_budget``, ``seed``
    and ``split`` are read only by :func:`fit_direct`."""

    nullspace_method: str = "cascaded"  # "cascaded" | "full"
    variable_order: object = "auto"  # a cascade.resolve_order spec
    rel_tol: float = DEFAULT_RANK_TOL
    degrees: tuple | None = None
    order_sample_budget: int = 10
    seed: int = 0
    split: object = "first"  # a realize.resolve_split spec

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.nullspace_method not in ("cascaded", "full"):
            raise ValueError(f"unknown null-space method {self.nullspace_method!r}")


@dataclass(eq=False)
class FitResult:
    model: object
    realization: object
    report: object
    degrees: tuple
    weights: np.ndarray


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
        }


def _require_disjoint(source):
    violations = check_disjoint(source)
    if violations:
        listing = ", ".join(f"{name}={value}" for name, value in violations[:5])
        raise GridError(f"interpolation points are not disjoint: {listing}")


def _fit_selection(source, selection, opts):
    """Model on a selection by the configured method, and its flop report.

    The weights are normalized at the all-anchors entry (cascade) or the
    last entry (full SVD).
    """
    counts = selection.counts
    order = resolve_order(opts.variable_order, counts)
    if opts.nullspace_method == "cascaded":
        result = cascaded_nullspace(
            source, selection=selection, order=order, rel_tol=opts.rel_tol
        )
        weights, report = result.weights, result.report
    else:
        lm = build_loewner_nd(source, selection)
        result = nullspace_vector(lm, opts.rel_tol)
        if result.rank < math.prod(counts) - 1:
            raise DegenerateNullspaceError(
                f"null space of the full matrix has dimension "
                f"{math.prod(counts) - result.rank}; the chosen degrees are too "
                "high, reduce them",
            )
        weights, report = result.vector, make_flop_report(counts, order)
    values = source.values_on_product(selection.col_points).reshape(-1)
    return make_model(selection.col_points, weights, values, names=source.names), report


def fit_direct(source, opts=None):
    """Order detection, weight computation, model and realization in one pass."""
    opts = opts or FitOptions()
    _require_disjoint(source)
    if opts.degrees is not None:
        degrees = _check_degrees(source, opts.degrees)
    else:
        estimate = detect_orders(
            source, opts.order_sample_budget, opts.rel_tol, opts.seed
        )
        degrees = estimate.degrees
    counts = []
    for grid, d in zip(source.grids, degrees):
        available = grid.union_points.size
        k = d + 1
        # rows must supply rank k-1, and supports come from the column list
        limit = min(max(1, math.ceil(available / 2)), grid.column_points.size)
        if k > limit:
            warnings.warn(
                f"variable {grid.name!r}: degree {d} needs {k} support points but "
                f"only {grid.column_points.size} columns of {available} grid points "
                f"exist; clamping to {limit}",
                stacklevel=2,
            )
            k = limit
        counts.append(k)
    model, report = _fit_selection(source, Selection.spread_columns(source, counts), opts)
    degrees_final = tuple(k - 1 for k in model.counts)
    realization = build_realization(model, opts.split)
    return FitResult(model, realization, report, degrees_final, model.weights_c)


def fit_adaptive(source, tol, opts=None):
    """Greedy support enrichment until the grid sweep error meets ``tol``.

    Returns ``(model, log)``; raises :class:`NotConvergedError` (carrying
    the best model and the log) when every coordinate of the worst tuple
    is already a support point, or when promoting would leave a variable
    with fewer row points than supports.
    """
    opts = opts or FitOptions()
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    _require_disjoint(source)
    grids = source.grids
    chosen = [[complex(g.column_points[0])] for g in grids]
    log = AdaptiveLog(method=opts.nullspace_method, tolerance=float(tol))
    added = {g.name: chosen[l][0] for l, g in enumerate(grids)}
    best = None

    while True:
        selection = Selection.from_supports(source, chosen).nearest_rows()
        counts = selection.counts
        try:
            model, report = _fit_selection(source, selection, opts)
        except DegenerateNullspaceError as exc:
            raise NotConvergedError(
                f"weight computation became degenerate at supports {counts}: {exc}",
                best_model=None if best is None else best[1],
                log=log,
            ) from exc
        error, argmax = max_error(model, source)
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
            # a variable needs at least k-1 leftover points as rows
            pool_size = grid.union_points.size
            if pool_size - (len(chosen[l]) + 1) < len(chosen[l]):
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
