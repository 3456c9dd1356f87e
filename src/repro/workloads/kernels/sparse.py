"""Conjugate gradient on a sparse SPD system (NPB CG / tealeaf's solver).

scipy is imported where a matrix is built, not with the module: the
workload models import this package, and a simulation never calls it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import scipy.sparse as sp


def poisson_matrix_2d(n: int) -> sp.csr_matrix:
    """The 5-point Laplacian on an n×n grid (SPD test matrix)."""
    import scipy.sparse as sp

    if n < 2:
        raise ConfigurationError("grid must be at least 2x2")
    main = 4.0 * np.ones(n * n)
    side = -1.0 * np.ones(n * n - 1)
    side[np.arange(1, n * n) % n == 0] = 0.0  # no wrap across rows
    updown = -1.0 * np.ones(n * n - n)
    return sp.diags(
        [main, side, side, updown, updown],
        [0, 1, -1, n, -n],
        format="csr",
    )


def cg_solve(
    a: sp.spmatrix,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iters: int | None = None,
) -> tuple[np.ndarray, int]:
    """Plain CG; returns (x, iterations).

    Each iteration performs one sparse matvec and two dot products — exactly
    the operations the CG/tealeaf workload models charge (the dots become
    allreduces in the distributed version).
    """
    n = b.shape[0]
    if a.shape != (n, n):
        raise ConfigurationError("matrix/vector size mismatch")
    max_iters = max_iters or 4 * n
    x = np.zeros(n)
    r = b - a @ x
    p = r.copy()
    rr = float(r @ r)
    b_norm = float(np.linalg.norm(b)) or 1.0
    for iteration in range(1, max_iters + 1):
        ap = a @ p
        alpha = rr / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rr_new = float(r @ r)
        if np.sqrt(rr_new) / b_norm < tol:
            return x, iteration
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x, max_iters
