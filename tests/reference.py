"""Reference routes that only the tests read.

Each one restates something the package computes another way, so tests
can compare the two: the Kronecker multi-index enumeration behind the
``A_lag``/``B_lag`` layout, the rank check of a realization's
minimality, the determinant forms of the stacked companions, and the
closed form of the cascade's flop count for equal support counts.
"""

import itertools
import math

import numpy as np

from mvloewner import GridError
from mvloewner.loewner import _guard_dense, numerical_rank
from mvloewner.realize import _kron_eval


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


def check_r_minimality(realization, sample_points):
    """Rank check of [Phi B] and [C; Phi] at each sample point, at ``DEFAULT_RANK_TOL``.

    Both must have full rank m everywhere; returns one report dict per
    point with the two ranks and an ``ok`` flag.
    """
    m = realization.order
    reports = []
    for point in sample_points:
        phi = realization.phi(point)
        controllable = np.hstack([phi, realization.b_vector[:, None]])
        observable = np.vstack([realization.c_vector[None, :], phi])
        rank_ctrl = int(numerical_rank(np.linalg.svd(controllable, compute_uv=False)))
        rank_obs = int(numerical_rank(np.linalg.svd(observable, compute_uv=False)))
        reports.append(
            {
                "point": tuple(complex(v) for v in point),
                "rank_phi_b": rank_ctrl,
                "rank_c_phi": rank_obs,
                "ok": rank_ctrl == m and rank_obs == m,
            }
        )
    return reports


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
        size = math.prod(comp.size for comp in companions)
        _guard_dense(size, size)
        kron = _kron_eval(companions, values)
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


def flop_worst_case(k, n):
    """Cascade flops when all n variables share the same count k.

    Equals ``k**3 + k**4 + ... + k**(n+2)``; for ``k == 1`` the geometric
    sum degenerates to ``n``.
    """
    k = int(k)
    n = int(n)
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if k == 1:
        return n
    return k**3 * (k**n - 1) // (k - 1)
