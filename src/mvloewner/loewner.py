"""Loewner matrices, their Sylvester characterization, and SVD null spaces.

The n-D Loewner matrix over a selection of column points ``lambda`` and
row points ``mu`` has entries

    L[i, j] = (v_i - w_j) / prod_l (mu_l[i_l] - lambda_l[j_l]),

where ``w``/``v`` are the samples at the column/row tuples and multi-
indices are flattened row-major with variable 0 slowest.  The same
flattening orders the diagonal Kronecker factors ``Lambda_l``/``M_l``,
the data row ``W`` and data column ``V`` of the coupled Sylvester
equations that the matrix satisfies, which :func:`sylvester_residual`
verifies numerically.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import GridError, MemoryGuardError
from .grids import Selection

DEFAULT_RANK_TOL = 1e-8
BYTES_PER_ENTRY = 16  # one complex double
DEFAULT_MEMORY_GUARD = 256 * 2**20


@dataclass(frozen=True, eq=False)
class LoewnerMatrix:
    """Dense Loewner matrix (or a stack of them) as its ``entries``."""

    entries: np.ndarray

    @property
    def shape(self):
        return self.entries.shape


@dataclass(frozen=True, eq=False)
class SylvesterOperands:
    """Diagonal Kronecker factors and data vectors of the Sylvester system.

    ``lambda_diags[l]`` / ``mu_diags[l]`` hold the diagonals of the K-by-K
    and Q-by-Q factors for variable ``l``; ``w`` (length K) and ``v``
    (length Q) are the flattened column/row samples.
    """

    lambda_diags: tuple
    mu_diags: tuple
    w: np.ndarray
    v: np.ndarray


def _check_disjoint_1d(col_pts, row_pts):
    cross = np.subtract.outer(np.asarray(row_pts, complex), np.asarray(col_pts, complex))
    if np.any(cross == 0):
        raise GridError("coincident column and row points")
    return cross


def build_loewner_1d(col_pts, row_pts, col_vals, row_vals):
    """Single-variable Loewner matrix with entries (v_i - w_j)/(mu_i - lambda_j).

    Value arrays with leading axes give a stack of matrices over the same
    points: ``col_vals`` of shape ``(..., k)`` and ``row_vals`` of shape
    ``(..., q)`` give entries of shape ``(..., q, k)``.
    """
    col_pts = np.asarray(col_pts, dtype=complex)
    row_pts = np.asarray(row_pts, dtype=complex)
    w = np.asarray(col_vals, dtype=complex)
    v = np.asarray(row_vals, dtype=complex)
    if col_pts.size != w.shape[-1] or row_pts.size != v.shape[-1]:
        raise GridError("point and value lists must have matching lengths")
    diffs = _check_disjoint_1d(col_pts, row_pts)
    entries = (v[..., :, None] - w[..., None, :]) / diffs
    return LoewnerMatrix(entries)


def _kron_of(vectors_or_matrices):
    """Kronecker product of a nonempty sequence, leftmost factor slowest."""
    return functools.reduce(np.kron, vectors_or_matrices)


def _guard_dense(rows, cols):
    """Refuse a dense ``rows``-by-``cols`` complex matrix past ``DEFAULT_MEMORY_GUARD`` bytes.

    The refusal carries the estimate.
    """
    estimate = BYTES_PER_ENTRY * rows * cols
    if estimate > DEFAULT_MEMORY_GUARD:
        raise MemoryGuardError(estimate, DEFAULT_MEMORY_GUARD)


def build_loewner_nd(source, selection=None):
    """Dense n-D Loewner matrix of ``source`` over a point selection.

    The matrix is filled in blocks of whole variable-0 row slabs of about
    ``model.SWEEP_CHUNK_BYTES`` each, so that no temporary is as large as
    the matrix; every entry is the one the unblocked formula gives.

    Parameters
    ----------
    source : DataSource
    selection : Selection, optional
        Defaults to all stored columns versus all stored rows.

    Raises
    ------
    MemoryGuardError
        If the matrix would exceed ``DEFAULT_MEMORY_GUARD`` bytes; it
        carries the estimate.
    """
    if selection is None:
        selection = Selection.full(source)
    rows, cols = math.prod(selection.row_counts), math.prod(selection.counts)
    _guard_dense(rows, cols)
    diff_mats = [
        _check_disjoint_1d(col_pts, row_pts)
        for col_pts, row_pts in zip(selection.col_points, selection.row_points)
    ]
    w = source.values_on_product(selection.col_points).reshape(-1)
    v = source.values_on_product(selection.row_points).reshape(-1)
    entries = np.empty((rows, cols), dtype=complex)
    # the rows of one variable-0 row point, and how many such slabs make a block
    per_slab = math.prod(selection.row_counts[1:])
    for slabs in model._blocks(selection.row_counts[0], BYTES_PER_ENTRY * per_slab * cols):
        block = slice(slabs.start * per_slab, slabs.stop * per_slab)
        np.subtract(v[block, None], w[None, :], out=entries[block])
        entries[block] /= _kron_of([diff_mats[0][slabs], *diff_mats[1:]])
    return LoewnerMatrix(entries)


def build_sylvester_operands(source, selection=None):
    """Kronecker-diagonal factors and data vectors matching build_loewner_nd."""
    if selection is None:
        selection = Selection.full(source)
    counts = selection.counts
    row_counts = selection.row_counts
    n = len(counts)
    lambda_diags = []
    mu_diags = []
    for l in range(n):
        lam_parts = [
            selection.col_points[i] if i == l else np.ones(counts[i], dtype=complex)
            for i in range(n)
        ]
        mu_parts = [
            selection.row_points[i] if i == l else np.ones(row_counts[i], dtype=complex)
            for i in range(n)
        ]
        lambda_diags.append(_kron_of(lam_parts))
        mu_diags.append(_kron_of(mu_parts))
    w = source.values_on_product(selection.col_points).reshape(-1)
    v = source.values_on_product(selection.row_points).reshape(-1)
    return SylvesterOperands(tuple(lambda_diags), tuple(mu_diags), w, v)


def sylvester_residual(lm, ops):
    """Relative residual of the coupled Sylvester chain.

    Starting from ``X = M_0 L - L Lambda_0`` the chain applies
    ``X <- M_l X - X Lambda_l`` for l = 1, ..., n-1; the result must equal
    ``V R - L W`` (outer difference of the data vectors).  Returns the
    Frobenius-norm residual relative to ``||V R - L W||``.  All factors
    are diagonal, so the chain runs on row blocks of ``L`` whose squared
    norms are summed; the block and its one temporary hold about
    ``model.SWEEP_CHUNK_BYTES`` together.
    """
    rows, cols = lm.shape
    blocks = model._blocks(rows, 2 * BYTES_PER_ENTRY * cols)
    x, t = np.empty((2, blocks[0].stop if blocks else 0, cols), dtype=complex)  # block, temporary
    num = denom = 0.0
    for block in blocks:
        entries = lm.entries[block]
        xb, tb = x[: len(entries)], t[: len(entries)]
        np.multiply(ops.mu_diags[0][block, None], entries, out=xb)
        xb -= np.multiply(entries, ops.lambda_diags[0][None, :], out=tb)
        for l in range(1, len(ops.lambda_diags)):
            np.multiply(xb, ops.lambda_diags[l][None, :], out=tb)
            np.multiply(ops.mu_diags[l][block, None], xb, out=xb)
            xb -= tb
        np.subtract(ops.v[block, None], ops.w[None, :], out=tb)
        denom += np.vdot(tb, tb).real
        xb -= tb
        num += np.vdot(xb, xb).real
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return math.sqrt(num) / math.sqrt(denom)


def numerical_rank(sigma, rel_tol=DEFAULT_RANK_TOL):
    """Count of singular values above ``rel_tol`` times the largest.

    ``sigma`` holds singular values in descending order along its last
    axis, one row per matrix of a stack; an all-zero or empty matrix has
    rank 0.
    """
    sigma = np.asarray(sigma)
    return (sigma > rel_tol * sigma[..., :1]).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class NullspaceResult:
    """Smallest right singular vector with rank and gap diagnostics.

    ``vector`` is normalized so its anchor entry equals one; if the
    requested anchor entry was negligible the vector is re-anchored at its
    largest entry and ``anchor`` reports the index actually used.  An
    all-zero matrix has rank 0.
    """

    vector: np.ndarray
    rank: int
    sigma_min: float
    sigma_next: float
    anchor: int


def nullspace_vector(matrix, anchor=-1):
    """Null-space direction of a dense matrix via its SVD, ranked at ``DEFAULT_RANK_TOL``.

    Only the right factor is kept whole: a tall matrix gets the thin SVD,
    so no ``q``-by-``q`` left factor is allocated.

    Parameters
    ----------
    matrix : (q, k) ndarray or LoewnerMatrix
    anchor : int
        Entry to normalize to one (negative indices allowed).  An anchor
        entry below ``1e-10`` times the largest entry triggers
        re-anchoring at the max-magnitude entry.
    """
    if isinstance(matrix, LoewnerMatrix):
        matrix = matrix.entries
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    q, k = matrix.shape
    if k == 0 or q == 0:
        raise GridError("empty matrix has no null-space direction")
    # a wide matrix's null space lies in the rows of V^H past q
    _, sigma, vh = np.linalg.svd(matrix, full_matrices=q < k)
    rank = int(numerical_rank(sigma))
    vector = np.conj(vh[-1])
    sigma_next = float(sigma[-2]) if sigma.size > 1 else math.inf

    anchor_idx = anchor % k
    peak = float(np.max(np.abs(vector)))
    if abs(vector[anchor_idx]) < 1e-10 * peak:
        anchor_idx = int(np.argmax(np.abs(vector)))
    vector = vector / vector[anchor_idx]
    return NullspaceResult(vector, rank, float(sigma[-1]), sigma_next, anchor_idx)


@dataclass(frozen=True)
class OrderEstimate:
    """Detected per-variable degrees plus saturation flags.

    ``saturated[l]`` means the rank hit the size of the probing matrices,
    so the true degree along variable ``l`` may be higher than reported.
    """

    degrees: tuple
    saturated: tuple


def detect_orders(source, sample_budget=10, rel_tol=DEFAULT_RANK_TOL, seed=0):
    """Estimate the rational degree along each variable.

    For each variable the single-variable Loewner matrix is built for the
    all-first-column frozen combination plus up to ``sample_budget``
    random frozen combinations of the other variables (drawn from their
    union grids, seeded, repeated combinations dropped); the degree is the
    maximum numerical rank seen.  All fibers of a variable are sampled in
    one call and ranked by one stacked SVD per variable.

    Raises
    ------
    ValueError
        If ``sample_budget`` is not a non-negative integer or ``rel_tol`` is not a positive number.
    MemoryGuardError
        If the fiber index array of ``sample_budget + 1`` combinations
        would exceed ``DEFAULT_MEMORY_GUARD``; checked before any draw.
    """
    integral = isinstance(sample_budget, numbers.Integral) and not isinstance(sample_budget, bool)
    if not integral or sample_budget < 0:
        raise ValueError(f"sample budget must be a non-negative integer, got {sample_budget!r}")
    if not rel_tol > 0:
        raise ValueError(f"rank tolerance must be a positive number, got {rel_tol}")
    rng = np.random.default_rng(seed)
    n = source.n_vars
    _guard_dense((sample_budget + 1) * max(g.union_points.size for g in source.grids), n)
    degrees = []
    saturated = []
    for l, grid in enumerate(source.grids):
        k, q = grid.column_points.size, grid.row_points.size
        if k + q < 2:
            raise GridError(f"variable {grid.name!r} needs at least two points to reveal a rank")
        if q == 0:
            degrees.append(0)
            saturated.append(True)
            continue
        others = [g for i, g in enumerate(source.grids) if i != l]
        # row-major fill: the same stream as one scalar draw per combination and variable
        drawn = rng.integers(0, [g.union_points.size for g in others], size=(sample_budget, n - 1))
        combos = np.unique(np.vstack([np.zeros((1, n - 1), dtype=int), drawn]), axis=0)
        free = np.arange(k + q)
        # one index row per fiber point: the combination with ``free`` spliced in at l
        fibers = np.insert(np.repeat(combos, free.size, axis=0), l, np.tile(free, len(combos)), 1)
        values = source.values_at_indices(fibers).reshape(-1, free.size)
        lm = build_loewner_1d(grid.column_points, grid.row_points, values[:, :k], values[:, k:])
        best = int(np.max(numerical_rank(np.linalg.svd(lm.entries, compute_uv=False), rel_tol)))
        degrees.append(best)
        saturated.append(best >= min(k, q))
    return OrderEstimate(tuple(degrees), tuple(saturated))
