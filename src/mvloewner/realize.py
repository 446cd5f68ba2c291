"""Generalized state-space realizations of barycentric models.

A model with variables split into a right (column) group and a left (row)
group yields the triple ``(C, Phi, B)`` with ``H(x) = C Phi(x)^{-1} B``.
``Phi`` stacks three block rows over the unimodular Kronecker companions
``Gamma`` (right variables) and ``Delta`` (left variables):

    [ Gamma(1:kappa-1, :) |        0         |    0     ]
    [       A_lag         | Delta(1:ell-1)^T |    0     ]
    [       B_lag         |        0         | Delta^T  ]

with ``B = [0; last row of Delta ^T; 0]`` and ``C = [0 | 0 | -e_ell^T]``.
``A_lag``/``B_lag`` arrange the denominator/numerator weights by the
row/column multi-indices induced by the Kronecker ordering.  The overall
dimension is ``m = 2*ell + kappa - 1``; a Schur compression reduces it to
``kappa + ell - 1`` at the price of a variable-dependent output row.

The single-variable case degenerates to ``Phi = [X(1:k-1,:); -c^T]`` with
constant ``C = beta`` and ``B = -e_k``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, MemoryGuardError, PoleError
from .grids import _complex_to_pairs, _pairs_to_complex
from .loewner import (
    BYTES_PER_ENTRY,
    DEFAULT_MEMORY_GUARD,
    DEFAULT_RANK_TOL,
    _kron_of,
    numerical_rank,
)

LOG_PRODUCT_CUTOFF = 300


def _pairwise_differences(points):
    return points[:, None] - points[None, :]


def lagrange_inverse_weights(points):
    """Weights q with 1/q_i = prod_{k != i} (points_i - points_k).

    Computed in log magnitude/phase form beyond ``LOG_PRODUCT_CUTOFF``
    points to avoid overflow of the direct product.
    """
    points = np.asarray(points, dtype=complex)
    n = points.size
    if n == 1:
        return np.ones(1, dtype=complex)
    diffs = _pairwise_differences(points)
    if np.any(diffs[~np.eye(n, dtype=bool)] == 0):
        raise GridError("duplicate points have no Lagrange weights")
    np.fill_diagonal(diffs, 1.0)
    if n <= LOG_PRODUCT_CUTOFF:
        return 1.0 / np.prod(diffs, axis=1)
    return np.exp(-np.sum(np.log(diffs), axis=1))


@dataclass(frozen=True)
class PseudoCompanion:
    """Unimodular companion of one variable in the Lagrange basis.

    Rows pair the Lagrange monomials ``x_i = value - points_i`` as
    ``(x_1, -x_{i+1})``; the closing row holds the weights ``q`` that make
    the determinant identically one.
    """

    name: str
    points: np.ndarray
    q_weights: np.ndarray

    @property
    def size(self):
        return self.points.size

    def evaluate(self, value):
        monomials = complex(value) - self.points
        matrix = np.zeros((self.size, self.size), dtype=complex)
        matrix[:-1, 0] = monomials[0]
        matrix[:-1, 1:] = np.diag(-monomials[1:])
        matrix[-1] = self.q_weights
        return matrix

    def adjugate_last_row(self, value):
        """Last row of the transposed inverse: prod_{k != i} (value - points_k)."""
        monomials = complex(value) - self.points
        others = np.where(np.eye(self.size, dtype=bool), 1.0, monomials)
        return np.prod(others, axis=1)


def build_pseudo_companion(points, name=""):
    points = np.asarray(points, dtype=complex)
    return PseudoCompanion(name, points, lagrange_inverse_weights(points))


@dataclass(frozen=True)
class VariableSplit:
    """Partition of the variables into right (column) and left (row) groups."""

    right: tuple
    left: tuple
    counts: tuple

    def __post_init__(self):
        n = len(self.counts)
        merged = sorted(self.right + self.left)
        if merged != list(range(n)):
            raise GridError(f"split {self.right}|{self.left} is not a partition of 0..{n - 1}")
        if not self.right:
            raise GridError("the right (column) group must be nonempty")
        if n >= 2 and not self.left:
            raise GridError("the left (row) group must be nonempty for two or more variables")

    @property
    def kappa(self):
        return math.prod(self.counts[i] for i in self.right)

    @property
    def ell(self):
        return math.prod(self.counts[i] for i in self.left) if self.left else 1

    @property
    def order(self):
        """Realization dimension m."""
        if not self.left:
            return self.kappa
        return 2 * self.ell + self.kappa - 1


def make_split(right, counts, left=None):
    right = tuple(int(i) for i in right)
    if left is None:
        left = tuple(i for i in range(len(counts)) if i not in right)
    return VariableSplit(right, tuple(int(i) for i in left), tuple(int(k) for k in counts))


def multi_indices(split):
    """Row and column multi-indices (I, J) induced by the Kronecker order.

    ``I`` enumerates left-variable support indices (length ell), ``J``
    right-variable support indices (length kappa); in both, the leftmost
    factor of the Kronecker product varies slowest.  Indices are 0-based
    tuples ordered like ``split.left`` / ``split.right``.
    """
    j_list = list(itertools.product(*(range(split.counts[i]) for i in split.right)))
    i_list = list(itertools.product(*(range(split.counts[i]) for i in split.left)))
    return i_list, j_list


def arrange_coefficients(model, split):
    """Arrange model weights into the (A_lag, B_lag) coefficient blocks.

    Entry ``(q, r)`` of ``A_lag`` is the denominator weight at the full
    multi-index combining ``I_q`` and ``J_r`` (see :func:`multi_indices`);
    ``B_lag`` likewise from the numerator weights.  Both are unfoldings of
    the weight tensor with the left variables as rows and the right ones
    as columns.  With a single variable, ``A_lag`` is the row ``-c^T`` and
    ``B_lag`` is empty.
    """
    counts = model.counts
    if len(split.counts) != len(counts) or split.counts != counts:
        raise GridError("split counts do not match the model")
    if not split.left:
        return -model.weights[:1], np.zeros((0, split.kappa), dtype=complex)
    axes = [0, *(a + 1 for a in split.left + split.right)]
    unfolded = model.weights.reshape(2, *counts).transpose(axes)
    a_lag, b_lag = unfolded.reshape(2, split.ell, split.kappa).copy()
    return a_lag, b_lag


def _kron_eval(companions, values):
    return _kron_of([comp.evaluate(value) for comp, value in zip(companions, values)])


def _guard_dense(size):
    """Refuse a dense ``size``-by-``size`` complex matrix past the memory guard."""
    estimate = BYTES_PER_ENTRY * size * size
    if estimate > DEFAULT_MEMORY_GUARD:
        raise MemoryGuardError(estimate, DEFAULT_MEMORY_GUARD)


@dataclass(frozen=True)
class GeneralizedRealization:
    """Triple (C, Phi, B) with H(x) = C Phi(x)^{-1} B."""

    split: VariableSplit
    variable_names: tuple
    companions: tuple  # one per variable, original order
    a_lag: np.ndarray
    b_lag: np.ndarray
    c_vector: np.ndarray
    b_vector: np.ndarray

    @property
    def order(self):
        return self.split.order

    def _point_map(self, point):
        if len(point) != len(self.companions):
            raise GridError(f"expected {len(self.companions)} coordinates, got {len(point)}")
        return [complex(v) for v in point]

    def phi(self, point):
        """Numeric m-by-m resolvent basis matrix at a point tuple."""
        values = self._point_map(point)
        split = self.split
        kappa, ell, m = split.kappa, split.ell, split.order
        _guard_dense(m)
        gamma = _kron_eval([self.companions[i] for i in split.right], [values[i] for i in split.right])
        if not split.left:
            matrix = np.zeros((m, m), dtype=complex)
            matrix[: kappa - 1, :] = gamma[: kappa - 1, :]
            matrix[kappa - 1, :] = self.a_lag[0]
            return matrix
        delta = _kron_eval([self.companions[i] for i in split.left], [values[i] for i in split.left])
        matrix = np.zeros((m, m), dtype=complex)
        matrix[: kappa - 1, :kappa] = gamma[: kappa - 1, :]
        matrix[kappa - 1 : kappa - 1 + ell, :kappa] = self.a_lag
        matrix[kappa - 1 : kappa - 1 + ell, kappa : kappa + ell - 1] = delta[: ell - 1, :].T
        matrix[kappa - 1 + ell :, :kappa] = self.b_lag
        matrix[kappa - 1 + ell :, kappa + ell - 1 :] = delta.T
        return matrix


def build_realization(model, split=None):
    """Realization of a barycentric model for a left/right variable split.

    ``split`` defaults to variable 0 alone on the right (the frequency
    variable), every other variable on the left.
    """
    counts = model.counts
    if split is None:
        split = make_split((0,), counts)
    a_lag, b_lag = arrange_coefficients(model, split)
    companions = tuple(
        build_pseudo_companion(points, name)
        for points, name in zip(model.support_points, model.variable_names)
    )
    kappa, ell, m = split.kappa, split.ell, split.order
    if not split.left:
        c_vector = model.weights_beta.astype(complex)
        b_vector = np.zeros(m, dtype=complex)
        b_vector[-1] = -1.0
    else:
        delta_q_row = _kron_of([companions[i].q_weights for i in split.left])
        b_vector = np.zeros(m, dtype=complex)
        b_vector[kappa - 1 : kappa - 1 + ell] = delta_q_row
        c_vector = np.zeros(m, dtype=complex)
        c_vector[-1] = -1.0
    return GeneralizedRealization(
        split=split,
        variable_names=model.variable_names,
        companions=companions,
        a_lag=a_lag,
        b_lag=b_lag,
        c_vector=c_vector,
        b_vector=b_vector,
    )


def _solve_resolvent(phi, rhs, point, label):
    """``Phi^{-1} rhs``; a singular ``Phi`` means ``point`` is a pole."""
    try:
        return np.linalg.solve(phi, rhs)
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"{label} is singular at {tuple(point)}") from exc


def eval_realization(realization, point):
    """Evaluate C Phi(point)^{-1} B by one dense solve."""
    solution = _solve_resolvent(realization.phi(point), realization.b_vector, point, "resolvent")
    return complex(realization.c_vector @ solution)


@dataclass(frozen=True)
class CompressedRealization:
    """Schur-compressed triple of size kappa + ell - 1.

    The output row becomes variable-dependent: ``c_row(point)`` is the
    last adjugate row of ``Delta`` applied to ``[B_lag | 0]``.
    """

    parent: GeneralizedRealization

    @property
    def size(self):
        split = self.parent.split
        return split.kappa + split.ell - 1

    def phi(self, point):
        return self.parent.phi(point)[: self.size, : self.size]

    @property
    def b_vector(self):
        return self.parent.b_vector[: self.size]

    def c_row(self, point):
        parent = self.parent
        split = parent.split
        values = parent._point_map(point)
        adj_rows = [
            parent.companions[i].adjugate_last_row(values[i]) for i in split.left
        ]
        left_row = _kron_of(adj_rows)
        out = np.zeros(self.size, dtype=complex)
        out[: split.kappa] = left_row @ parent.b_lag
        return out

    def evaluate(self, point):
        solution = _solve_resolvent(self.phi(point), self.b_vector, point, "compressed resolvent")
        return complex(self.c_row(point) @ solution)


def compress_realization(realization):
    if not realization.split.left:
        raise GridError("a single-variable realization has nothing to compress")
    return CompressedRealization(realization)


def check_r_minimality(realization, sample_points, rel_tol=DEFAULT_RANK_TOL):
    """Rank check of [Phi B] and [C; Phi] at each sample point.

    Both must have full rank m everywhere; returns one report dict per
    point with the two ranks and an ``ok`` flag.
    """
    m = realization.order
    reports = []
    for point in sample_points:
        phi = realization.phi(point)
        controllable = np.hstack([phi, realization.b_vector[:, None]])
        observable = np.vstack([realization.c_vector[None, :], phi])
        rank_ctrl = int(numerical_rank(np.linalg.svd(controllable, compute_uv=False), rel_tol))
        rank_obs = int(numerical_rank(np.linalg.svd(observable, compute_uv=False), rel_tol))
        reports.append(
            {
                "point": tuple(complex(v) for v in point),
                "rank_phi_b": rank_ctrl,
                "rank_c_phi": rank_obs,
                "ok": rank_ctrl == m and rank_obs == m,
            }
        )
    return reports


def optimal_split(degrees):
    """Split minimizing the realization dimension m = 2*ell + kappa - 1.

    Searches all nonempty bipartitions up to 16 variables; beyond that a
    greedy pass assigns variables in decreasing count to whichever side
    currently yields the smaller objective.  Ties prefer fewer left
    variables, then the lexicographically first right group.
    """
    degrees = [int(d) for d in degrees]
    n = len(degrees)
    if n < 2:
        raise GridError("a split needs at least two variables")
    counts = tuple(d + 1 for d in degrees)
    if n <= 16:
        best = None
        for size in range(1, n):
            for right in itertools.combinations(range(n), size):
                split = make_split(right, counts)
                key = (split.order, len(split.left), right)
                if best is None or key < best[0]:
                    best = (key, split)
        return best[1]
    order = sorted(range(n), key=lambda i: -counts[i])
    right, left = [order[0]], []
    for i in order[1:]:
        kappa = math.prod(counts[j] for j in right)
        ell = math.prod(counts[j] for j in left) if left else 1
        cost_right = 2 * max(ell, 1) + kappa * counts[i] - 1
        cost_left = 2 * ell * counts[i] + kappa - 1
        if cost_right <= cost_left:
            right.append(i)
        else:
            left.append(i)
    if not left:
        left.append(right.pop())
    return make_split(tuple(sorted(right)), counts, tuple(sorted(left)))


def polynomial_determinant(coefficients, companions, form, point):
    """Determinant of the stacked-companion polynomial constructions.

    ``coefficients`` is the Lagrange coefficient matrix (rows indexed by
    the first variable; a 1-D array for a single variable).  ``form``
    selects the construction:

    * ``"M1"``: the Kronecker stack, all non-weight rows of the Kronecker
      product of the companions closed by the row-major vectorized
      coefficients (any number of variables).
    * ``"M2"``: the two-variable split form, first-variable rows over
      ``[coefficients^T | second-variable rows transposed]``.
    """
    coeffs = np.atleast_2d(np.asarray(coefficients, dtype=complex))
    values = [complex(v) for v in np.atleast_1d(point)]
    if form == "M1":
        _guard_dense(math.prod(comp.size for comp in companions))
        kron = _kron_eval(companions, values)
        size = kron.shape[0]
        stacked = np.vstack([kron[: size - 1, :], coeffs.reshape(1, -1)])
        if stacked.shape != (size, size):
            raise GridError("coefficient count does not match the companion sizes")
        return complex(np.linalg.det(stacked))
    if form == "M2":
        if len(companions) != 2:
            raise GridError("the split form needs exactly two companions")
        first, second = companions
        p1, p2 = first.size, second.size
        if coeffs.shape != (p1, p2):
            raise GridError(f"coefficient matrix must be {p1}x{p2}, got {coeffs.shape}")
        s_mat = first.evaluate(values[0])
        t_mat = second.evaluate(values[1])
        top = np.hstack([s_mat[: p1 - 1, :], np.zeros((p1 - 1, p2 - 1), dtype=complex)])
        bottom = np.hstack([coeffs.T, t_mat[: p2 - 1, :].T])
        # the transposed right block contributes a fixed column-permutation
        # parity of (-1)**(p2 - 1); normalize so both forms agree
        sign = -1.0 if (p2 - 1) % 2 else 1.0
        return complex(sign * np.linalg.det(np.vstack([top, bottom])))
    raise ValueError(f"unknown form {form!r}")


# --- JSON interchange ---------------------------------------------------


def realization_to_dict(realization):
    split = realization.split
    return {
        "variables": list(realization.variable_names),
        "split": {
            "right": [realization.variable_names[i] for i in split.right],
            "left": [realization.variable_names[i] for i in split.left],
        },
        "m": realization.order,
        "kappa": split.kappa,
        "ell": split.ell,
        "A_lag": [_complex_to_pairs(row) for row in realization.a_lag],
        "B_lag": [_complex_to_pairs(row) for row in realization.b_lag],
        "companions": [
            {
                "name": comp.name,
                "points": _complex_to_pairs(comp.points),
                "q": _complex_to_pairs(comp.q_weights),
            }
            for comp in realization.companions
        ],
        "C": _complex_to_pairs(realization.c_vector),
        "B": _complex_to_pairs(realization.b_vector),
    }


def realization_from_dict(data):
    names = [str(n) for n in data["variables"]]
    companions = tuple(
        PseudoCompanion(
            entry["name"],
            _pairs_to_complex(entry["points"]),
            _pairs_to_complex(entry["q"]),
        )
        for entry in data["companions"]
    )
    counts = tuple(comp.size for comp in companions)
    right = tuple(names.index(n) for n in data["split"]["right"])
    left = tuple(names.index(n) for n in data["split"]["left"])
    split = VariableSplit(right, left, counts)
    a_rows = [_pairs_to_complex(row) for row in data["A_lag"]]
    b_rows = [_pairs_to_complex(row) for row in data["B_lag"]]
    a_lag = np.vstack(a_rows) if a_rows else np.zeros((0, split.kappa), dtype=complex)
    b_lag = np.vstack(b_rows) if b_rows else np.zeros((0, split.kappa), dtype=complex)
    return GeneralizedRealization(
        split=split,
        variable_names=tuple(names),
        companions=companions,
        a_lag=a_lag,
        b_lag=b_lag,
        c_vector=_pairs_to_complex(data["C"]),
        b_vector=_pairs_to_complex(data["B"]),
    )


def save_realization(realization, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(realization_to_dict(realization), fh, indent=1)


def load_realization(path):
    with open(path, "r", encoding="utf-8") as fh:
        return realization_from_dict(json.load(fh))
