"""Condensed-tableau two-phase simplex for the small LPs the polytope kernel needs.

Solves  max c.x  subject to  A x <= b  with free variables, via the split
x = u - w and one slack per row.  The tableau keeps only the nonbasic
columns (u, w and one auxiliary t) and the right-hand side; the slacks start
basic and are never stored as columns, and a pivot exchanges a basic and a
nonbasic label.  When some b_i < 0, phase 1 pivots t into the most violated
row, then minimizes t over A x - t <= b (V. Chvatal, *Linear Programming*,
1983, ch. 3).  Bland's rule (smallest label, u and w before every slack)
picks both pivots, so the method cannot cycle; everything is double
precision with a single tolerance.  The LPs have up to a few thousand rows
and a handful of variables, so a dense tableau is fast enough.
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
    point are filled in, for "unbounded"/"infeasible" they are None.  The
    system is infeasible when the smallest t with A x - t <= b exceeds tol,
    so a system violated by at most tol everywhere counts as feasible.
    """
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A, b))
    n = c.shape[0]
    if A.size == 0:
        if np.all(np.abs(c) <= tol):
            return LPResult(OPTIMAL, 0.0, (0.0,) * n)
        return LPResult(UNBOUNDED, None, None)
    if A.shape[1] != n:
        raise ValueError(f"objective has {n} entries, constraint matrix has {A.shape[1]} columns")
    m = A.shape[0]

    # Labels: u = 0..n-1, w = n..2n-1, slacks 2n..2n+m-1, t = 2n+m.
    # Row i reads  x_basis[i] + sum_j T[i, j] x_nonbasic[j] = T[i, -1].
    aux = 2 * n + m
    T = np.zeros((m + 1, 2 * n + 2))
    T[:m, :n] = A
    T[:m, n : 2 * n] = -A
    T[:m, -1] = b
    basis = np.arange(2 * n, aux)
    nonbasic = np.array([*range(2 * n), aux])

    if b.min() < 0:
        T[:m, 2 * n] = -1.0
        _pivot(T, basis, nonbasic, int(b.argmin()), 2 * n)
        cost = np.zeros(aux + 1)
        cost[aux] = 1.0
        _price(T, basis, nonbasic, cost)
        _iterate(T, basis, nonbasic, tol, allow_unbounded=False)
        if -T[m, -1] > tol:  # smallest t
            return LPResult(INFEASIBLE, None, None)
        # t may stay basic at a level within tol.  Its row has nonbasic slack
        # entries summing to -1 (raising every slack and t by one keeps
        # A x + s - t = b), so a pivot entry of size >= 1/(2n+1) exists.
        r = (basis == aux).nonzero()[0]
        if r.size:
            _pivot(T, basis, nonbasic, int(r[0]), int(np.abs(T[r[0], :-1]).argmax()))
        T[:, (nonbasic == aux).nonzero()[0]] = 0.0  # t stays nonbasic at 0
        # Phase 2: minimize -c.x = -c.u + c.w.
        cost = np.zeros(aux + 1)
        cost[:n] = -c
        cost[n : 2 * n] = c
        _price(T, basis, nonbasic, cost)
    else:  # phase 2 from the slack basis, whose costs are all 0: the row is the costs
        T[m, :n] = -c
        T[m, n : 2 * n] = c
    if _iterate(T, basis, nonbasic, tol, allow_unbounded=True) == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)

    z = np.zeros(aux + 1)
    z[basis] = T[:m, -1]
    x = z[:n] - z[n : 2 * n]
    return LPResult(OPTIMAL, float(c @ x), tuple(x.tolist()))


def _price(T, basis, nonbasic, cost):
    """Objective row of min cost.z: reduced costs, and minus the value at the rhs."""
    T[-1] = np.append(cost[nonbasic], 0.0) - cost[basis] @ T[:-1]


def _iterate(T, basis, nonbasic, tol, allow_unbounded):
    """Run simplex pivots until optimal (Bland's rule throughout)."""
    obj, rhs = T[-1, :-1], T[:-1, -1]  # views, updated in place by each pivot
    unused = len(basis) + len(nonbasic)  # above every label
    for _ in range(_MAX_PIVOTS):
        neg = obj < -tol
        if not neg.any():
            return OPTIMAL
        j = int(np.where(neg, nonbasic, unused).argmin())
        col = T[:-1, j]
        rows = (col > tol).nonzero()[0]
        if not rows.size:
            if allow_unbounded:
                return UNBOUNDED
            raise RuntimeError("phase-1 objective unbounded; tableau corrupted")
        ratios = rhs[rows] / col[rows]
        tied = rows[ratios <= ratios.min() + tol]
        r = tied[0] if tied.size == 1 else tied[basis[tied].argmin()]
        _pivot(T, basis, nonbasic, int(r), j)
    raise RuntimeError("simplex pivot limit exceeded")


def _pivot(T, basis, nonbasic, r, j):
    """Exchange basic label basis[r] with nonbasic label nonbasic[j]."""
    p = T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T[:, j] = 0.0
    T[r, j] = 1.0
    T[r] /= p  # T[r, j] is now 1/p; the update sets column j to -col/p
    T -= col[:, None] * T[r]
    basis[r], nonbasic[j] = nonbasic[j], basis[r]
