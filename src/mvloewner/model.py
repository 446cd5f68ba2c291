"""The multivariate barycentric rational model and its error sweeps.

A model is determined by per-variable support points, denominator weights
``c`` and sampled values ``w`` on the support product grid (both
flattened variable 0 slowest); the numerator weights are ``beta = c * w``.
Evaluation uses the barycentric quotient

    H(x) = sum_J beta_J / prod_l (x_l - lambda_J)
         / sum_J c_J   / prod_l (x_l - lambda_J),

with the standard limit at support coordinates: whenever ``x_l`` equals a
support point of variable ``l`` exactly, both sums restrict to the
multi-indices matching that coordinate and the corresponding factor is
dropped, independently per variable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, PoleError
from .grids import _complex_to_pairs, _pairs_to_complex

POLE_THRESHOLD = 1e-300
SWEEP_CHUNK_BYTES = 2**20  # largest intermediate of a batched sweep (bounds its peak memory)


@dataclass(frozen=True)
class BarycentricModel:
    variable_names: tuple
    support_points: tuple
    weights: np.ndarray  # (2, K): denominator weights c, numerator weights beta = c * w
    values_w: np.ndarray

    @property
    def weights_c(self):
        return self.weights[0]

    @property
    def weights_beta(self):
        return self.weights[1]

    @property
    def n_vars(self):
        return len(self.support_points)

    @property
    def counts(self):
        return tuple(p.size for p in self.support_points)


def make_model(support, c, w, names=None):
    """Assemble a barycentric model from support points, weights and values.

    Parameters
    ----------
    support : sequence of per-variable point arrays
    c : array of denominator weights, length ``prod(k_l)``
    w : array of sample values at the support tuples, same length
    names : sequence of str, optional
        Variable names; defaults to x1, x2, ...
    """
    support = tuple(np.asarray(p, dtype=complex) for p in support)
    for l, points in enumerate(support):
        if np.unique(points).size != points.size:
            raise GridError(f"support points of variable {l} are not distinct")
    c = np.asarray(c, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    total = math.prod(p.size for p in support)
    if c.size != total or w.size != total:
        raise GridError(
            f"weights and values must have length {total}, got {c.size} and {w.size}"
        )
    if names is None:
        names = tuple(f"x{l + 1}" for l in range(len(support)))
    else:
        names = tuple(str(n) for n in names)
        if len(names) != len(support):
            raise GridError("one name per variable required")
    return BarycentricModel(names, support, np.stack([c, c * w]), w)


def _factor_matrix(support, coordinates):
    """``(P, k)`` Cauchy factors ``1/(x - lambda)`` of one variable.

    A row whose coordinate equals a support point exactly is instead the
    indicator of its first match, the interpolation limit.
    """
    diffs = np.asarray(coordinates, dtype=complex).reshape(-1, 1) - support
    if np.count_nonzero(diffs) == diffs.size:
        return 1.0 / diffs
    hits = diffs == 0
    factors = 1.0 / np.where(hits, 1.0, diffs)
    rows = np.nonzero(hits.any(axis=1))[0]
    factors[rows] = 0.0
    factors[rows, np.argmax(hits[rows], axis=1)] = 1.0
    return factors


def _quotient(denominator, numerator):
    poles = np.abs(denominator) < POLE_THRESHOLD
    with np.errstate(divide="ignore", invalid="ignore"):
        return numerator / denominator, poles


def _contract_points(model, points):
    """Denominator and numerator sums at ``(P, n)`` points, as ``(P, 2)``.

    Each point contracts the weight tensor with its own factor rows, last
    variable first.
    """
    factors = [_factor_matrix(s, points[:, l]) for l, s in enumerate(model.support_points)]
    counts = model.counts
    # layout (P, 2 * K_{<l}, k_l): one weight matrix per point
    tensor = factors[-1] @ model.weights.reshape(-1, counts[-1]).T
    for factor, k in zip(reversed(factors[:-1]), reversed(counts[:-1])):
        tensor = np.matmul(tensor.reshape(points.shape[0], -1, k), factor[:, :, None])
    return tensor.reshape(points.shape[0], 2)


def eval_model(model, point):
    """Evaluate the model at a point (any complex coordinates).

    Raises
    ------
    PoleError
        If the barycentric denominator vanishes at an off-support point.
    """
    if len(point) != model.n_vars:
        raise GridError(f"expected {model.n_vars} coordinates, got {len(point)}")
    row = np.asarray(point, dtype=complex).reshape(1, -1)
    denominator, numerator = _contract_points(model, row)[0].tolist()
    if abs(denominator) < POLE_THRESHOLD:
        raise PoleError(f"barycentric denominator vanishes at {tuple(point)}")
    return numerator / denominator


def _eval_on_grid(model, per_var_points):
    """Model values on the product of per-variable coordinate vectors.

    Returns ``(values, poles)``, both shaped ``tuple(len(p) for p in
    per_var_points)`` with variable 0 slowest; ``poles`` marks where the
    denominator vanishes (the value there is meaningless).  The weight
    tensor is contracted with one factor matrix per variable (a mode
    product), last variable first; values agree with :func:`eval_model`
    up to rounding.
    """
    factors = [_factor_matrix(s, p) for s, p in zip(model.support_points, per_var_points)]
    # layout (2, P_l..P_{n-1}, K_{<l}) with rows 0/1 = denominator/numerator
    tensor = model.weights
    swept, remaining = 1, tensor.shape[1]
    for factor, k in zip(reversed(factors), reversed(model.counts)):
        remaining //= k
        tensor = tensor.reshape(-1, k) @ factor.T
        tensor = tensor.reshape(2, swept, remaining, -1).transpose(0, 3, 1, 2)
        swept *= factor.shape[0]
    tensor = tensor.reshape(2, -1)
    values, poles = _quotient(tensor[0], tensor[1])
    shape = tuple(f.shape[0] for f in factors)
    return values.reshape(shape), poles.reshape(shape)


def _eval_at_points(model, points):
    """Model values at scattered ``(P, n)`` points, as ``(values, poles)``.

    Points are processed in chunks so that no intermediate holds more
    than about ``SWEEP_CHUNK_BYTES``.
    """
    points = np.asarray(points, dtype=complex).reshape(-1, model.n_vars)
    # each point's intermediate holds 2 * K / k_last complex sums
    chunk = max(1, SWEEP_CHUNK_BYTES // (model.weights.nbytes // model.counts[-1]))
    sums = np.empty((points.shape[0], 2), dtype=complex)
    for start in range(0, points.shape[0], chunk):
        sums[start : start + chunk] = _contract_points(model, points[start : start + chunk])
    return _quotient(sums[:, 0], sums[:, 1])


def _first_worst(mismatch, poles):
    """Flat index and value of the first largest mismatch.

    A pole counts as an infinite mismatch, and NaN never wins, as in a
    running ``mismatch > best`` comparison.
    """
    mismatch = np.where(poles, np.inf, mismatch)
    mismatch[np.isnan(mismatch)] = -np.inf
    index = int(np.argmax(mismatch))
    return index, float(mismatch[index])


def max_error(model, source):
    """Largest mismatch against a data source over its full union grids.

    Returns ``(error, point)`` where ``point`` is the first maximizing
    union-grid tuple in row-major order.  A pole on the sweep reports an
    infinite error at its location.  The grid is swept in slabs of
    variable 0 of about ``SWEEP_CHUNK_BYTES`` each.
    """
    pools = [g.union_points for g in source.grids]
    # one complex denominator and numerator per tuple of a variable-0 row
    per_row = 2 * 16 * math.prod(p.size for p in pools[1:])
    slab = max(1, SWEEP_CHUNK_BYTES // per_row)
    best = -1.0
    best_point = None
    for start in range(0, pools[0].size, slab):
        block = [pools[0][start : start + slab], *pools[1:]]
        values, poles = _eval_on_grid(model, block)
        mismatch = np.abs(values - source.values_on_product(block)).reshape(-1)
        index, worst = _first_worst(mismatch, poles.reshape(-1))
        if worst > best:
            best = worst
            idx = np.unravel_index(index, values.shape)
            best_point = tuple(p[i] for p, i in zip(block, idx))
    return float(best), best_point


# --- JSON interchange ---------------------------------------------------


def model_to_dict(model):
    return {
        "variables": list(model.variable_names),
        "support": [_complex_to_pairs(p) for p in model.support_points],
        "c": _complex_to_pairs(model.weights_c),
        "w": _complex_to_pairs(model.values_w),
    }


def model_from_dict(data):
    support = [_pairs_to_complex(p) for p in data["support"]]
    return make_model(
        support,
        _pairs_to_complex(data["c"]),
        _pairs_to_complex(data["w"]),
        names=data["variables"],
    )


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
