"""Per-variable null-space cascade, level by level, and flop/memory accounting.

Instead of one SVD on the full Q-by-K Loewner matrix, the weight vector is
assembled from single-variable null spaces taken level by level along the
recursion order: level ``l`` solves one small SVD along variable
``order[l]`` for each support tuple of the earlier variables, with every
later variable frozen at its anchor support point (level 0 is a single
node).  The supports and rows come from one ``VariableGrid`` per variable,
its rows cut to the ones nearest its supports.
Every node vector is normalized to one at the anchor entry of its
variable and scaled by its parent coefficient, which makes the whole
weight vector factor into per-variable arrays (``DecoupledWeights``)
recombined by a Hadamard product of Kronecker-expanded factors.

Flop accounting follows the convention of charging ``k**3`` per k-column
null space, so a cascade over support counts ``(k_1, ..., k_n)`` costs

    sum_j k_j**3 * (k_1 * ... * k_{j-1}),

versus ``(k_1 * ... * k_n)**3`` for the full matrix.  Memory accounting
charges 16 bytes per complex entry; the cascade never stores more than
one ``k_max x k_max`` matrix at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNullspaceError, GridError
from .grids import _check_degrees
from .loewner import BYTES_PER_ENTRY, build_loewner_1d, nullspace_vector

_MAX_REANCHOR_PASSES = 8


# --- accounting ---------------------------------------------------------


def flop_cascade(counts):
    """Flop count of the cascade for support counts in recursion order."""
    counts = [int(k) for k in counts]
    if any(k < 1 for k in counts):
        raise ValueError("support counts must be >= 1")
    total = 0
    prefix = 1
    for k in counts:
        total += prefix * k**3
        prefix *= k
    return total


def flop_full(counts):
    """Flop count of one SVD on the full matrix: (prod k)**3."""
    counts = [int(k) for k in counts]
    if any(k < 1 for k in counts):
        raise ValueError("support counts must be >= 1")
    return math.prod(counts) ** 3


def memory_estimate(counts, method):
    """Peak bytes of the weight computation, at 16 bytes per complex entry.

    ``full`` stores the square N-by-N matrix with ``N = prod(counts)``;
    ``cascaded`` never holds more than one ``k_max`` by ``k_max`` block.
    """
    counts = [int(k) for k in counts]
    if not counts:
        raise ValueError("counts must be nonempty")
    if method == "full":
        n_total = math.prod(counts)
        return BYTES_PER_ENTRY * n_total * n_total
    if method == "cascaded":
        k_max = max(counts)
        return BYTES_PER_ENTRY * k_max * k_max
    raise ValueError(f"unknown method {method!r}")


def optimal_variable_order(counts):
    """Variable permutation minimizing the cascade flops.

    Stable sort by descending support count: larger counts must be solved
    early, while their prefix multiplier is still small.
    """
    counts = [int(k) for k in counts]
    return tuple(sorted(range(len(counts)), key=lambda i: -counts[i]))


@dataclass(frozen=True)
class FlopReport:
    """Flop and byte accounting for cascaded versus full computation."""

    cascaded_flops: int
    full_flops: int
    cascaded_bytes_max: int
    full_bytes: int
    variable_order: tuple

    def to_dict(self):
        return {
            "cascaded_flops": self.cascaded_flops,
            "full_flops": self.full_flops,
            "cascaded_bytes_max": self.cascaded_bytes_max,
            "full_bytes": self.full_bytes,
            "variable_order": list(self.variable_order),
        }


def resolve_order(spec, counts):
    """Recursion order: :func:`optimal_variable_order` for ``"auto"`` or ``None``, else
    ``spec`` itself, which must be a permutation of the variable indices."""
    if spec is None or isinstance(spec, str) and spec == "auto":
        return optimal_variable_order(counts)
    order = () if isinstance(spec, str) else tuple(int(i) for i in spec)
    if sorted(order) != list(range(len(counts))):
        raise ValueError(f"order {spec!r} is not 'auto' or a permutation of 0..{len(counts) - 1}")
    return order


def make_flop_report(counts, order):
    """Accounting for support counts in original variable order; ``order`` as in :func:`resolve_order`."""
    order = resolve_order(order, counts)
    ordered = [counts[i] for i in order]
    return FlopReport(
        cascaded_flops=flop_cascade(ordered),
        full_flops=flop_full(counts),
        cascaded_bytes_max=memory_estimate(counts, "cascaded"),
        full_bytes=memory_estimate(counts, "full"),
        variable_order=order,
    )


# --- decoupled weights --------------------------------------------------


@dataclass(frozen=True, eq=False)
class DecoupledWeights:
    """Per-variable weight factors produced by the cascade.

    ``order`` is the recursion order (a permutation of variable indices)
    and ``factors[l]`` the concatenated level-``l`` node vectors: length
    ``k_{o_1} * ... * k_{o_l}``, grouped as blocks of ``k_{o_l}`` in
    lexicographic order of the parent support indices.
    """

    order: tuple
    counts_in_order: tuple
    factors: tuple

    def __post_init__(self):
        expected = 1
        for level, k in enumerate(self.counts_in_order):
            expected *= k
            if self.factors[level].size != expected:
                raise GridError(
                    f"factor {level} has length {self.factors[level].size}, expected {expected}"
                )


def recombine(decoupled):
    """Reassemble the full weight vector from per-variable factors.

    Each factor is Kronecker-expanded with an all-ones vector to the full
    length and the expansions are multiplied entrywise; the result is
    returned flattened in original variable order (variable 0 slowest).
    """
    ks = decoupled.counts_in_order
    total = math.prod(ks)
    acc = np.ones(total, dtype=complex)
    for level, factor in enumerate(decoupled.factors):
        rest = math.prod(ks[level + 1 :])
        acc = acc * np.repeat(factor, rest)
    tensor = acc.reshape(ks)
    axes = [decoupled.order.index(v) for v in range(len(ks))]
    return np.transpose(tensor, axes).reshape(-1)


# --- the cascade --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CascadeResult:
    weights: np.ndarray
    decoupled: DecoupledWeights
    report: FlopReport
    anchors: tuple  # anchor support index per variable, original order


def cascaded_nullspace(source, degrees=None, selection=None, order=None):
    """Weight vector of the n-D Loewner matrix via the 1-D cascade.

    The 1-D null spaces are ranked at ``DEFAULT_RANK_TOL``.

    Parameters
    ----------
    source : DataSource
    degrees : sequence of int, optional
        Degrees per variable; support counts become ``degrees + 1`` over
        evenly spread column points.  Ignored when ``selection`` is given.
    selection : sequence of VariableGrid, optional
        One grid per variable: supports as columns, candidate rows as rows.
    order : sequence of int, optional
        Recursion order (a :func:`resolve_order` spec); defaults to
        descending support count (the flop-optimal order).

    Returns
    -------
    CascadeResult
        Assembled weights (flattened variable 0 slowest, anchor entries
        normalized so the all-anchor entry is one), the per-variable
        factors, the flop/byte report, and the anchors finally used.
        Each variable is first anchored at its last column point; a
        variable whose anchor weight vanishes is re-anchored at the
        largest entry and the cascade restarts.

    Raises
    ------
    DegenerateNullspaceError
        When a sub-problem has an ambiguous null space (dimension > 1),
        naming the frozen combination, or when re-anchoring cycles.
    """
    if selection is None:
        if degrees is None:
            raise ValueError("need either degrees or an explicit selection")
        degrees = _check_degrees(source, degrees)
        selection = [g.spread_columns(d + 1) for g, d in zip(source.grids, degrees)]
    counts = [g.column_points.size for g in selection]
    order = resolve_order(order, counts)
    selection = [g.nearest_rows() for g in selection]

    anchors = [k - 1 for k in counts]

    for _ in range(max(_MAX_REANCHOR_PASSES, 2 * sum(counts))):
        factors, reanchor = _level_pass(source, selection, order, anchors)
        if reanchor is None:
            break
        variable, index = reanchor
        anchors[variable] = index
    else:
        raise DegenerateNullspaceError(
            "re-anchoring did not stabilize; the weight vector appears to "
            "vanish on every probed anchor fiber"
        )

    decoupled = DecoupledWeights(
        order=order,
        counts_in_order=tuple(counts[i] for i in order),
        factors=tuple(factors),
    )
    weights = recombine(decoupled)
    report = make_flop_report(counts, order)
    return CascadeResult(weights, decoupled, report, tuple(anchors))


def _level_pass(source, selection, order, anchors):
    """One pass of the cascade over the levels of the recursion order.

    Level ``l`` solves one 1-D null space along ``order[l]`` per support
    tuple of the earlier variables, in lexicographic order, with every
    later variable frozen at its anchor.  Returns ``(factors, None)``, or
    ``(None, (variable, index))`` as soon as a node's anchor weight
    vanishes and ``variable`` must be re-anchored at ``index``.
    """
    cols = [g.column_points for g in selection]
    rows = [g.row_points for g in selection]
    frozen = [c[a : a + 1] for c, a in zip(cols, anchors)]
    factors = []
    for level, variable in enumerate(order):
        earlier = order[:level]
        k = cols[variable].size
        tuples = itertools.product(*(range(cols[v].size) for v in earlier))
        factor = np.empty((math.prod(cols[v].size for v in earlier), k), dtype=complex)
        for node, support in enumerate(tuples):
            per_var = list(frozen)
            for v, j in zip(earlier, support):
                per_var[v] = cols[v][j : j + 1]
            per_var[variable] = cols[variable]
            col_vals = source.values_on_product(per_var).reshape(-1)
            per_var[variable] = rows[variable]
            row_vals = source.values_on_product(per_var).reshape(-1)
            lm = build_loewner_1d(cols[variable], rows[variable], col_vals, row_vals)
            result = nullspace_vector(lm, anchor=anchors[variable])
            if result.rank < k - 1:
                frozen_desc = {
                    source.grids[l].name: p[0] for l, p in enumerate(per_var) if l != variable
                }
                raise DegenerateNullspaceError(
                    f"ambiguous 1-D null space along variable {source.grids[variable].name!r} "
                    f"(null space has dimension {k - result.rank})",
                    context=frozen_desc,
                )
            if result.anchor != anchors[variable]:
                return None, (variable, result.anchor)
            factor[node] = result.vector
        factors.append(factor.reshape(-1))
    return factors, None
