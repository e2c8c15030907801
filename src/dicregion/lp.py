"""Condensed-tableau two-phase simplex for the small LPs the polytope kernel needs.

Every LP is posed as a `System`:  A x <= b  with free variables, via the
split x = u - w and one slack per row; x_j >= 0 may be given as a bound,
which drops w_j instead of adding a row.  The tableau keeps only the
nonbasic columns (u and w) and the right-hand side; the slacks start basic
and are never stored as columns.  A `System` is built once into a feasible
tableau: when some b_i < 0, phase 1 pivots an auxiliary t into the most
violated row and minimizes t over A x - t <= b (V. Chvatal, *Linear
Programming*, 1983, ch. 3).  Every pivot also updates n cost rows below the
objective row, row j the phase-2 row of c = e_j, so c @ those rows is the
phase-2 row of c at the current basis.  `maximize(c, system)` answers by the
first basis the System recorded whose phase-2 row for c has no entry below
-tol (phase 2's own stopping test), else by phase 2 from the starting
tableau, whose final basis is then recorded; the recorded maps are one
matrix, so the test is one product.  An objective equal to the previous
one gets the previous answer.  Bland's rule (smallest label,
u and w before every slack) picks every pivot, so the method cannot cycle;
everything is double precision with a single tolerance.  The LPs have up
to a few thousand rows and a handful of variables, so a dense tableau is
fast enough.  The private stacked solver `_maximize_stacks` takes packing
systems only, each at the greedy vertex its caller gives (J. Edmonds, 1970).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _is_int

__all__ = ["LPResult", "System", "maximize", "OPTIMAL", "UNBOUNDED", "INFEASIBLE"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

_MAX_PIVOTS = 200_000
# Tableau cells per _maximize_stacks stack: 2 MB of doubles.  2^16 and 2^20 ran
# within noise of it on the prune LPs of K=4 and K=10 channels.
_BATCH_CELLS = 2**18


@dataclass(frozen=True)
class LPResult:
    status: str
    value: float | None
    x: tuple[float, ...] | None


class System:
    """A x <= b with x_j >= 0 for every j in `nonneg`, built once at `tol`
    into a feasible starting tableau that `maximize` solves for any number
    of objectives.  A sign bound takes no row: x_j is u_j alone, with no w_j
    column.  `feasible` is False when the smallest t with A x - t <= b
    exceeds tol, a finite number >= 0 (ValueError otherwise).  T's rows: m
    constraints, the objective, the n cost rows P.  `recorded` is (maps,
    points) for the optimal bases queries ended at, in order: maps stacks
    each basis's P transposed without the rhs column, (bases * nonbasic
    columns) x n and C-contiguous, and points holds each basis's x.  `last` is the
    previous query's (objective bytes, LPResult), or None.  Each is replaced
    whole, never changed in place.  len() is m."""

    __slots__ = ("n", "tol", "feasible", "T", "labels", "recorded", "last")

    def __init__(self, A, b, nonneg=(), tol: float = 1e-9):
        if not 0 <= tol < np.inf:
            raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
        A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"constraint matrix must be 2-D, got shape {A.shape}")
        m, n = A.shape
        if b.shape != (m,):
            raise ValueError(f"constraint matrix has {m} rows, right-hand side has shape {b.shape}")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("constraint matrix and right-hand side must be finite")
        nonneg = list(nonneg)
        if not all(_is_int(j) and 0 <= j < n for j in nonneg):
            raise ValueError(f"sign bounds {nonneg} are not variable indices in 0..{n - 1}")
        free = np.ones(n, dtype=bool)
        free[nonneg] = False
        free = np.flatnonzero(free)
        # Labels: u = 0..n-1, w_j = n+j for each free j, slacks 2n..2n+m-1;
        # `labels` holds the basis, then the nonbasic labels.  Columns: u,
        # the w of the free variables, the rhs.  Row i reads
        # x_basis[i] + sum_j T[i, j] x_nonbasic[j] = T[i, -1].  Cost row j
        # (min -c.u + c.w for c = e_j) starts -1 at u_j and +1 at w_j.
        T = np.zeros((m + 1 + n, n + len(free) + 1))
        T[:m, :n] = A
        T[:m, n:-1] = -A[:, free]
        T[:m, -1] = b
        T[m + 1 + np.arange(n), np.arange(n)] = -1.0
        T[m + 1 + free, n + np.arange(len(free))] = 1.0
        labels = np.concatenate([np.arange(2 * n, 2 * n + m), np.arange(n), n + free])
        phase1 = _phase1(T, labels, m, n, tol) if m and b.min() < 0 else (T, labels)
        self.n, self.tol, self.feasible = n, tol, phase1 is not None
        self.T, self.labels = phase1 or (T, labels)
        self.recorded, self.last = (np.empty((0, n)), np.empty((0, n))), None

    def __len__(self):
        return len(self.T) - 1 - self.n


def _phase1(T, labels, m, n, tol):
    """Pivot t (label 2n+m, -1 in each of the m constraint rows) into the most
    violated row and minimize it.  Returns the tableau and labels of a feasible
    basis with t's column dropped, or None when the smallest t exceeds tol."""
    aux = 2 * n + m
    T, labels = np.insert(T, -1, -1.0, axis=1), np.append(labels, aux)
    T[m, -2], T[m + 1 :, -2] = 1.0, 0.0  # min t (pivoting t in prices it); no cost for t
    basis, nonbasic = labels[:m], labels[m:]
    _pivot(T, basis, nonbasic, int(T[:m, -1].argmin()), T.shape[1] - 2)
    if _iterate(T, basis, nonbasic, tol, aux + 1, m) == UNBOUNDED:
        raise RuntimeError("phase-1 objective unbounded; tableau corrupted")
    if -T[m, -1] > tol:  # smallest t
        return None
    # t may stay basic at a level within tol.  Its row has nonbasic slack
    # entries summing to -1 (raising every slack and t by one keeps
    # A x + s - t = b), so a pivot entry of size >= 1/(2n+1) exists.
    r = (basis == aux).nonzero()[0]
    if r.size:
        _pivot(T, basis, nonbasic, int(r[0]), int(np.abs(T[r[0], :-1]).argmax()))
    j = int((nonbasic == aux).nonzero()[0][0])  # t, nonbasic at 0
    return np.delete(T, j, axis=1), np.delete(labels, m + j)


def maximize(c, system: System) -> LPResult:
    """Maximize c.x over a `System`, whose tableau is copied, not changed.
    The objective of the previous query gets its answer again; any other
    is answered from the first recorded basis optimal for c, else by phase
    2, which records the basis it ends at, so which of tied optima returns
    depends on earlier queries.

    Returns an LPResult; for status "optimal" both the value and an optimal
    point are filled in, for "unbounded"/"infeasible" they are None.  A
    system violated by at most its tol everywhere counts as feasible.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (system.n,):
        raise ValueError(
            f"objective has {c.size} entries (shape {c.shape}), the system has {system.n} variables"
        )
    if not all(map(math.isfinite, c.tolist())):  # faster than np.isfinite at this n
        raise ValueError(f"objective must be {system.n} finite numbers, got {c.tolist()}")
    if not system.feasible:
        return LPResult(INFEASIBLE, None, None)
    # Exact: a hit leaves the state as it was, and after a miss every earlier
    # basis fails for c, so the answer would come from the basis just
    # recorded or from the same phase 2 again.
    key, last = c.tobytes(), system.last
    if last is not None and last[0] == key:
        return last[1]
    m, n, tol = len(system), system.n, system.tol
    maps, points = system.recorded  # read once: a miss replaces both
    if len(points):
        cols = system.T.shape[1] - 1  # 0 when n = 0: each empty block passes
        hit = (maps @ c).reshape(len(points), cols).min(1, initial=np.inf) >= -tol
        k = hit.argmax()
        if hit[k]:
            x = points[k]
            res = LPResult(OPTIMAL, float(c @ x), tuple(x.tolist()))
            system.last = key, res
            return res
    T, labels = system.T.copy(), system.labels.copy()
    T[m] = c @ T[m + 1 :]
    if _iterate(T, labels[:m], labels[m:], tol, 2 * n + m, m) == UNBOUNDED:
        res = LPResult(UNBOUNDED, None, None)
    else:
        z = np.zeros(2 * n + m)
        z[labels[:m]] = T[:m, -1]
        x = z[:n] - z[n : 2 * n]
        system.recorded = np.concatenate([maps, T[m + 1 :, :-1].T]), np.vstack([points, x])
        res = LPResult(OPTIMAL, float(c @ x), tuple(x.tolist()))
    system.last = key, res
    return res


def _maximize_stacks(C, A, tol, start):
    """Maximize C[i].x over {x : A[i] x <= b[i]} for each member i at once,
    paying numpy's per-call overhead per pivot step of a stack, not per LP.

    C is (B, n) and A is (B, m, n), float arrays the caller has checked:
    every entry finite, each member a packing system (every row nonnegative
    but one sign row -x_j <= 0 per coordinate) in which a row with a
    positive entry bounds each x_j that C[i] weighs positively, such as
    `polytope._capped`'s LPs; so no member is unbounded, and one that is
    raises RuntimeError, as the pivot limit does.  Each member starts at its
    vertex in `start`, (tight rows, x, slacks) as `_greedy` walks them from
    b[i] >= 0 (no phase 1), usually optimal already.  It ends at
    `maximize`'s value on its own System within tol, maybe at another of
    tied optima.  Stacks hold at most _BATCH_CELLS tableau cells.  Returns
    (values, X), a member's value C[i] @ x.
    """
    m, n = A.shape[1:]
    X = np.empty(C.shape)
    step = max(1, _stack_size(m, n))
    for s in (slice(lo, lo + step) for lo in range(0, len(C), step)):
        _solve_stack(C[s], A[s], tol, X[s], [v[s] for v in start])
    return (C[:, None, :] @ X[:, :, None])[:, 0, 0], X


def _stack_size(m, n) -> int:
    """How many members of m rows and n variables one `_maximize_stacks` stack
    holds: tableaus of (m + 1) x (2n + 1) cells within _BATCH_CELLS, maybe 0."""
    return _BATCH_CELLS // ((m + 1) * (2 * n + 1))


def _solve_stack(C, A, tol, X, start):
    """`maximize`'s phase 2 on a stack of tableaus started at the vertices in
    `start` (`_vertex_tableaus`), writing each member's point as it
    finishes; finished members leave the stack."""
    n, m = C.shape[1], A.shape[1]
    warm = _vertex_tableaus(C, A, tol, X, *start)
    if warm is None:
        return  # every member is optimal at its start
    T, basis, nonbasic, member = warm
    at = np.arange(len(T))
    for _ in range(_MAX_PIVOTS):
        neg = T[:, -1, :-1] < -tol
        j = np.where(neg, nonbasic, 2 * n + m).argmin(1)
        col = T[at, :-1, j]
        pos = col > tol
        done = ~neg.any(1)  # optimal
        if not (done | pos.any(1)).all():
            raise RuntimeError("stacked LP unbounded: its system is not a packing system")
        if done.any():
            z = np.zeros((done.sum(), 2 * n + m))
            z[np.arange(len(z))[:, None], basis[done]] = T[done, :-1, -1]
            X[member[done]] = z[:, :n] - z[:, n : 2 * n]
            if done.all():
                return
            T, basis, nonbasic, member, j, col, pos = (
                v[~done] for v in (T, basis, nonbasic, member, j, col, pos)
            )
            at = np.arange(len(T))
        ratios = np.divide(T[:, :-1, -1], col, out=np.full(col.shape, np.inf), where=pos)
        tied = pos & (ratios <= ratios.min(1, keepdims=True) + tol)
        _pivot_stack(T, basis, nonbasic, np.where(tied, basis, 2 * n + m).argmin(1), j, at)
    raise RuntimeError("simplex pivot limit exceeded")


def _pivot_stack(T, basis, nonbasic, r, j, at):
    """`_pivot` on every tableau of a stack: tableau i (at = arange(len(T)))
    exchanges basic label basis[i, r[i]] with nonbasic label nonbasic[i, j[i]]."""
    p, pcol = T[at, r, j], T[at, :, j]
    pcol[at, r] = 0.0
    T[at, :, j] = 0.0
    T[at, r, j] = 1.0
    T[at, r] = row = T[at, r] / p[:, None]
    T -= pcol[:, :, None] * row[:, None, :]
    basis[at, r], nonbasic[at, j] = nonbasic[at, j], basis[at, r]


def _vertex_tableaus(C, A, tol, X, tight, x, slack):
    """Tableaus at the vertices where the n rows `tight` of each member are
    tight, x its point and slack its row slacks.  With B the tight block,
    u is basic with the tight rows' slacks and w nonbasic: u's rows read
    B⁻¹ over the tight slacks and -1 at w, the other slacks' rows -A B⁻¹,
    and the objective row C B⁻¹.  A member whose objective row has no entry
    below -tol is optimal there, as the pivot loop's first test would
    find: X gets its x, and it gets no tableau.  Returns the others'
    tableaus, basis and nonbasic labels, and their rows in X, or None when
    every member is optimal."""
    size, m, n = A.shape
    inv = np.linalg.inv(A[np.arange(size)[:, None], tight])
    cost = (C[:, None] @ inv)[:, 0]
    done = (cost >= -tol).all(1)
    X[done] = x[done]
    member = np.flatnonzero(~done)
    if not len(member):
        return None
    C, A, tight, x, slack, inv, cost = (v[member] for v in (C, A, tight, x, slack, inv, cost))
    T = np.zeros((len(member), m + 1, 2 * n + 1))
    T[:, :m, :n], T[:, m, :n], T[:, :m, -1], T[:, m, -1] = -(A @ inv), cost, slack, (C * x).sum(1)
    i = np.arange(len(member))[:, None]  # row tight[i, k] holds u_k
    T[i, tight, :n], T[i, tight, n + np.arange(n)], T[i, tight, -1] = inv, -1.0, x
    basis = np.tile(np.arange(2 * n, 2 * n + m), (len(member), 1))
    basis[i, tight] = np.arange(n)
    nonbasic = np.concatenate([2 * n + tight, np.tile(np.arange(n, 2 * n), (len(member), 1))], 1)
    return T, basis, nonbasic, member


def _greedy(A, slack, C):
    """Edmonds' greedy walk (exact on one polymatroid) for each objective
    C[i] over A x <= slack[i], A of shape (m, n) shared or (len(C), m, n):
    from the origin, each x_e with C[i, e] > 0 rises in turn, largest
    C[i, e] first (ties by index), as far as every row allows; only rows
    with a positive entry in column e bound it, and with none x_e is inf.
    `slack` is updated in place.  A coordinate that rises by t > 0 leaves
    its blocking row (the first of smallest ratio) at slack exactly 0, so
    rounding cannot let a later coordinate rise through it.  Returns the
    points and, in the walk's order, each coordinate's tight row: its
    blocking row where it rose, else its sign row (the first row with a
    negative entry in its column).  Each blocking row is at slack 0 and has
    no entry in the columns that rise after it, so the n rows are distinct
    and their block is triangular up to order, hence nonsingular."""
    size, n = C.shape
    at = np.arange(size)
    order = np.argsort(-C, axis=1, kind="stable")
    rise = C[at[:, None], order] > 0
    X = np.zeros((size, n))
    tight = np.broadcast_to((A < 0).argmax(-2), C.shape)[at[:, None], order]
    with np.errstate(divide="ignore", invalid="ignore"):  # ratios where col > 0 only
        for k, e in enumerate(order.T[: rise.sum(1).max(initial=0)]):  # the rest stay 0
            col = A.T[e] if A.ndim == 2 else A[at, :, e]
            ratios = np.where(col > 0, slack / col, np.inf)
            r = ratios.argmin(1)
            t = ratios[at, r]
            up = rise[:, k] & (t > 0)
            X[at, e] = t = np.where(up, t, 0.0)
            slack -= t[:, None] * col
            slack[at[up], r[up]] = 0.0
            tight[up, k] = r[up]
    return X, tight


def _iterate(T, basis, nonbasic, tol, unused, m):
    """Pivot until objective row m is optimal (Bland's rule throughout); `unused`
    exceeds every label, including those of w columns a sign bound left out."""
    obj, rhs = T[m, :-1], T[:m, -1]  # views, updated in place by each pivot
    for _ in range(_MAX_PIVOTS):
        neg = obj < -tol
        if not neg.any():
            return OPTIMAL
        j = int(np.where(neg, nonbasic, unused).argmin())
        col = T[:m, j]
        rows = (col > tol).nonzero()[0]
        if not rows.size:
            return UNBOUNDED
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
