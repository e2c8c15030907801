"""Dense two-phase simplex for the small LPs the polytope kernel needs.

Solves  max c.x  subject to  A x <= b  with free variables, via the split
x = u - w and slack/artificial variables.  Bland's rule is used for both
pivot choices, so the method cannot cycle; everything is double precision
with a single feasibility/optimality tolerance.

The scale here is a few hundred rows and a handful of true variables, so a
plain dense tableau is the simplest thing that is fast enough.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LPResult", "maximize", "OPTIMAL", "UNBOUNDED", "INFEASIBLE"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class LPResult:
    status: str
    value: float | None
    x: tuple[float, ...] | None


def maximize(c, A, b, tol: float = 1e-9) -> LPResult:
    """Maximize c.x over {x : A x <= b}, x unrestricted in sign.

    Returns an LPResult; for status "optimal" both the value and an optimal
    point are filled in, for "unbounded"/"infeasible" they are None.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = c.shape[0]
    if A.size == 0:
        if np.all(np.abs(c) <= tol):
            return LPResult(OPTIMAL, 0.0, (0.0,) * n)
        return LPResult(UNBOUNDED, None, None)
    if A.shape[1] != n:
        raise ValueError(f"objective has {n} entries, constraint matrix has {A.shape[1]} columns")
    m = A.shape[0]

    flip = b < 0
    sign = np.where(flip, -1.0, 1.0)
    # Equality system over z = [u, w, s, a]:  diag(sign) (A u - A w + s) = diag(sign) b
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.size
    ncols = 2 * n + m + n_art
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = sign[:, None] * A
    T[:m, n : 2 * n] = -sign[:, None] * A
    T[:m, 2 * n : 2 * n + m] = np.diag(sign)
    for k, i in enumerate(art_rows):
        T[i, 2 * n + m + k] = 1.0
    T[:m, -1] = sign * b

    basis = np.empty(m, dtype=int)
    basis[:] = 2 * n + np.arange(m)  # slacks
    for k, i in enumerate(art_rows):
        basis[i] = 2 * n + m + k

    if n_art:
        # Phase 1: minimize the sum of artificials.
        T[m, :] = 0.0
        T[m, 2 * n + m : 2 * n + m + n_art] = 1.0
        for i in range(m):
            if basis[i] >= 2 * n + m:
                T[m, :] -= T[i, :]
        _iterate(T, basis, tol, allow_unbounded=False)
        if -T[m, -1] > tol:  # leftover artificial mass
            return LPResult(INFEASIBLE, None, None)
        _evict_artificials(T, basis, 2 * n + m, tol)

    # Phase 2: minimize -c.x = -c.u + c.w; artificial columns are frozen out
    # by pricing them at +inf-like cost (simply exclude them from entering).
    T[m, :] = 0.0
    T[m, :n] = -c
    T[m, n : 2 * n] = c
    for i in range(m):
        col = basis[i]
        coef = T[m, col]
        if coef != 0.0:
            T[m, :] -= coef * T[i, :]
    status = _iterate(T, basis, tol, allow_unbounded=True, n_real=2 * n + m)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)

    x = np.zeros(n)
    for i in range(m):
        col = basis[i]
        if col < n:
            x[col] += T[i, -1]
        elif col < 2 * n:
            x[col - n] -= T[i, -1]
    value = float(c @ x)
    return LPResult(OPTIMAL, value, tuple(float(v) for v in x))


def _iterate(T, basis, tol, allow_unbounded, n_real=None):
    """Run simplex pivots until optimal (Bland's rule throughout)."""
    m = T.shape[0] - 1
    limit = n_real if n_real is not None else T.shape[1] - 1
    for _ in range(_MAX_PIVOTS):
        reduced = T[m, :limit]
        entering_candidates = np.flatnonzero(reduced < -tol)
        if entering_candidates.size == 0:
            return OPTIMAL
        j = int(entering_candidates[0])
        col = T[:m, j]
        rows = np.flatnonzero(col > tol)
        if rows.size == 0:
            if allow_unbounded:
                return UNBOUNDED
            raise RuntimeError("phase-1 objective unbounded; tableau corrupted")
        ratios = T[rows, -1] / col[rows]
        best = np.min(ratios)
        tied = rows[ratios <= best + tol]
        r = int(tied[np.argmin(basis[tied])])
        _pivot(T, basis, r, j)
    raise RuntimeError("simplex pivot limit exceeded")


def _pivot(T, basis, r, j):
    T[r, :] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r, :])
    T[r, j] = 1.0  # wash out roundoff on the pivot column
    basis[r] = j


def _evict_artificials(T, basis, first_art, tol):
    """Pivot any basic artificial out on a real column, or blank its row."""
    m = T.shape[0] - 1
    for i in range(m):
        if basis[i] < first_art:
            continue
        row = T[i, :first_art]
        cand = np.flatnonzero(np.abs(row) > tol)
        if cand.size:
            _pivot(T, basis, i, int(cand[0]))
        else:
            # Redundant constraint row; make it inert (basis keeps the
            # artificial, whose phase-2 cost is zero and never enters).
            T[i, :] = 0.0
