"""Half-space regions, Fourier-Motzkin projection, and LP-backed pruning.

A region is a system A x <= rhs with an exact integer matrix A and real
right-hand sides.  Variable elimination uses integer cross-multiplication,
so left-hand sides never accumulate floating error; only the right-hand
sides (entropy values downstream) are floats.  Elimination keeps raw
combined rows (no per-row rescaling); `canonicalize` divides rows by their
gcd for presentation-quality output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import lp
from .channel import (
    _building, _is_int, _is_real, _objects, _read_document, _save_document, _tuple,
)
from .errors import InfeasibleRegionError, UnboundedDirectionError

__all__ = [
    "LinearInequality",
    "Region",
    "nonneg_inequalities",
    "fm_eliminate",
    "prune_redundant",
    "is_subset",
    "find_subset_violation",
    "regions_equal",
    "compare",
    "support_value",
    "vertices",
    "contains_point",
    "canonicalize",
    "load_region",
    "save_region",
    "region_from_dict",
    "region_to_dict",
]


@dataclass(frozen=True, slots=True)
class LinearInequality:
    """coeffs . x <= rhs with integer coefficients."""

    coeffs: tuple[int, ...]
    rhs: float

    def __post_init__(self):
        # A tuple of exact ints is kept as given, so callers can share it.
        if type(self.coeffs) is not tuple or not set(map(type, self.coeffs)) <= {int}:
            coerced = []
            for c in self.coeffs:
                try:
                    ic = int(c)
                except (OverflowError, ValueError):  # inf, nan
                    ic = None
                if ic != c:
                    raise ValueError(f"coefficient {c!r} is not an exact integer")
                coerced.append(ic)
            object.__setattr__(self, "coeffs", tuple(coerced))
        object.__setattr__(self, "rhs", float(self.rhs))


class Region:
    """Polyhedron {x : A x <= rhs}.

    `A` is one C-contiguous, read-only int64 matrix of shape (rows, dim),
    kept as given, so regions built from one matrix share it, and `rhs` one
    read-only float array.  A coefficient beyond 2^53 in magnitude, past
    which a float no longer holds every integer, raises ValueError naming
    its row.  `lhs` (coefficient tuples) and `inequalities` (row objects)
    are built on each access.  Immutable; the LP form that support and
    containment queries build on first use is a cache, no part of equality,
    hashing, `copy` or `pickle`; a region with the same rows and rhs as
    another may hold that region's form (`find_subset_violation` shares it)
    and reuse the bases it recorded.  Labels are a list or tuple of distinct
    strings, one per dimension (TypeError otherwise); None or empty means
    x1..xn.
    """

    __slots__ = ("dim", "A", "rhs", "labels", "_lp")

    def __init__(self, dim: int, inequalities, labels=()):
        rows = tuple(inequalities)
        self._fill(dim, [q.coeffs for q in rows], [q.rhs for q in rows], labels)

    @classmethod
    def _from_rows(cls, dim: int, A, rhs, labels=()) -> "Region":
        """Package-private: build from an int64 matrix A, kept as given and made
        read-only, or from coefficient tuples, and the right-hand sides."""
        region = object.__new__(cls)
        region._fill(dim, A, rhs, labels)
        return region

    def _fill(self, dim, A, rhs, labels):
        # Before dim, so a region file with both wrong reads as malformed (TypeError).
        if labels is not None and not isinstance(labels, (list, tuple)):
            raise TypeError(f"labels must be a list of strings, got {labels!r}")
        if not _is_int(dim) or dim < 0:
            raise ValueError(f"dim must be an integer >= 0, got {dim!r}")
        labels = tuple(labels) if labels else tuple(f"x{i+1}" for i in range(dim))
        if len(labels) != dim:
            raise ValueError(f"{len(labels)} labels for dimension {dim}")
        if not all(isinstance(label, str) for label in labels):
            raise ValueError(f"labels must be strings, got {list(labels)}")
        if len(set(labels)) != dim:
            raise ValueError(f"duplicate labels in {list(labels)}")
        if not isinstance(A, np.ndarray):  # coefficient tuples
            for k, coeffs in enumerate(A, start=1):
                if len(coeffs) != dim:
                    raise ValueError(f"inequality {k}: coeffs {list(coeffs)} have arity "
                                     f"{len(coeffs)}, not dim {dim}")
                _exact(k, coeffs)
            A = np.array(A, dtype=np.int64).reshape(len(A), dim)
        elif A.size and (A.max() > 2**53 or A.min() < -(2**53)):
            k = int(((A > 2**53) | (A < -(2**53))).any(1).argmax())
            _exact(k + 1, A[k].tolist())
        A, rhs = np.ascontiguousarray(A, dtype=np.int64), np.array(rhs, dtype=float)
        finite = np.isfinite(rhs)
        if not finite.all():
            k = int(finite.argmin())
            raise ValueError(f"inequality {k + 1}: non-finite rhs {rhs[k].item()}")
        A.flags.writeable = rhs.flags.writeable = False
        fields = ("dim", int(dim)), ("A", A), ("rhs", rhs), ("labels", labels), ("_lp", None)
        for name, value in fields:
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Region")

    def __reduce__(self):  # copy and pickle rebuild through _fill
        return Region._from_rows, (self.dim, self.A, self.rhs, self.labels)

    def _lp_form(self, tol: float = 1e-9) -> lp.System:
        """The region as `_system` poses it at `tol`, kept until another tol is asked for."""
        if self._lp is None or self._lp.tol != tol:
            object.__setattr__(self, "_lp", _system(*self.matrix(), tol))
        return self._lp

    @property
    def lhs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.A.tolist()))

    @property
    def inequalities(self) -> tuple[LinearInequality, ...]:
        return tuple(map(LinearInequality, self.lhs, self.rhs.tolist()))

    def _key(self):  # + 0.0 reads -0.0 as 0.0, which it equals
        return self.dim, self.labels, self.A.tobytes(), (self.rhs + 0.0).tobytes()

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Region) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Region(dim={self.dim}, inequalities={self.inequalities!r}, labels={self.labels!r})"

    def matrix(self):
        """(A, b) as float arrays."""
        return self.A.astype(float), self.rhs.copy()

    def var_index(self, var) -> int:
        if isinstance(var, str):
            try:
                return self.labels.index(var)
            except ValueError:
                raise ValueError(f"no variable labeled {var!r}") from None
        if not _is_int(var):
            raise ValueError(f"variable must be a label or an integer index, got {var!r}")
        idx = int(var)
        if not 0 <= idx < self.dim:
            raise ValueError(f"variable index {idx} out of range for dim {self.dim}")
        return idx


def _exact(k, coeffs):
    """ValueError naming inequality k for a coefficient beyond 2^53 in magnitude."""
    for c in coeffs:
        if abs(c) > 2**53:
            shown = c if abs(c) < 2**64 else f"of {abs(c).bit_length()} bits"
            raise ValueError(f"inequality {k}: coefficient {shown} exceeds 2^53, beyond the "
                             "integers a float holds exactly")


def nonneg_inequalities(dim: int) -> list[LinearInequality]:
    """-x_i <= 0 for every variable."""
    return [LinearInequality(tuple(coeffs), 0.0) for coeffs in (-np.eye(dim, dtype=int)).tolist()]


def _sign_rows(A, b):
    """Mask of the sign rows -x_j <= 0 of (A, b), A integer: rhs 0, one nonzero entry, -1."""
    return (b == 0) & ((A != 0).sum(1) == 1) & (A.sum(1) == -1)


def _system(A, b, tol: float) -> lp.System:
    """Region rows (A, b) as an `lp.System` at `tol`, each sign row the bound x_j >= 0."""
    sign = _sign_rows(A, b)
    return lp.System(A[~sign], b[~sign], np.nonzero(A[sign])[1], tol)


def _tightest(A, b):
    """Indices of the rows of (A, b) with the tightest rhs of each left-hand
    side, the first of equal ones, in first-seen order: the head of each run
    of one stable sort by left-hand side, then b."""
    order = np.lexsort((b, *A.T[::-1]))
    s = A[order]
    start = np.ones(len(A), dtype=bool)
    start[1:] = (s[1:] != s[:-1]).any(1)
    first = np.minimum.reduceat(order, np.flatnonzero(start))
    return order[start][np.argsort(first)]


def _nonzero(A, b, tol: float):
    """Mask of the rows of (A, b) with a nonzero left-hand side.  A zero row
    0 <= b holds trivially when b >= -tol and is dropped; below that it
    proves the region empty and raises InfeasibleRegionError."""
    nonzero = A.any(1)
    low = ~nonzero & (b < -tol)
    if low.any():
        raise InfeasibleRegionError(f"the system implies 0 <= {b[low.argmax()].item()}")
    return nonzero


def fm_eliminate(region: Region, var, tol: float = 1e-9) -> Region:
    """Project out one variable by Fourier-Motzkin elimination.

    Rows not mentioning the variable carry over, then every (positive,
    negative) pair is combined by exact integer cross-multiplication
    (ValueError first when a coefficient could exceed 2^53 in magnitude).
    Zero rows follow `_nonzero`; each left-hand side keeps its tightest rhs.

    `var` may be a column index or a variable label.
    """
    idx = region.var_index(var)
    A, b, col = region.A, region.rhs, region.A[:, idx]
    rest = np.concatenate([A[:, :idx], A[:, idx + 1 :]], axis=1)
    zero, pos, neg = col == 0, col > 0, col < 0
    P, N, a, m = rest[pos], rest[neg], col[pos], -col[neg]
    top = [int(np.abs(v).max(initial=0)) for v in (m, P, a, N)]  # 0s when no pair forms
    reach = top[0] * top[1] + top[2] * top[3]  # at least every |m_q p + a_p q|
    if reach > 2**53:
        raise ValueError(f"eliminating {region.labels[idx]}: combined coefficients may reach "
                         f"{reach}, beyond 2^53, the integers a float holds exactly")
    pairs = (m[:, None] * P[:, None] + a[:, None, None] * N).reshape(len(a) * len(m), region.dim - 1)
    lhs = np.concatenate([rest[zero], pairs])
    rhs = np.concatenate([b[zero], (m * b[pos][:, None] + a[:, None] * b[neg]).ravel()])
    keep = np.flatnonzero(_nonzero(lhs, rhs, tol))
    keep = keep[_tightest(lhs[keep], rhs[keep])]
    labels = region.labels[:idx] + region.labels[idx + 1 :]
    return Region._from_rows(region.dim - 1, lhs[keep], rhs[keep], labels)


def prune_redundant(region: Region, tol: float = 1e-9, *, facets=frozenset()) -> Region:
    """Drop inequalities implied by the rest of the system.

    Rows take turns busy combinations first, so that simple facets survive;
    row k is dropped when the rows alive at its turn bound a_k.x by b_k + tol
    or admit no point.  Sign rows (-x_i <= 0, `_sign_rows`) and the (lhs, rhs)
    pairs in `facets`, which the caller has proven irredundant, are kept.
    Each certificate LP caps row k at b_k + 1, so `tol` must be at least 0
    and below 1.

    On a packing system (every b_i >= 0, every row but the sign rows
    nonnegative, a sign row for every coordinate), such as every prune of
    the projection, certificates decide most rows, each round of LPs in one
    `lp._maximize_stacks` call.  Kept rows (the above and certified keeps)
    are alive at every turn and the alive rows are among all others, so a
    value <= b_k + tol over kept rows drops k, and > b_k + tol over all others
    keeps it.  A greedy point above b_k + tol that violates no other row by
    over tol keeps k first, with no LP (`_witnessed`).  When the other open
    rows fit one `_maximize_stacks` stack, one round over all others decides
    them, each LP started at its greedy point's vertex.  Else, step A: over
    the kept rows, drop, or keep when the optimum violates no other row by
    over tol.  Step B: the LP over all others, output-sensitively (Clarkson,
    FOCS 1994): the working set gains the rows its optimum violates most,
    doubling by at least 5, until none is violated (keep) or the value is
    <= b_k + tol; a round that fits one stack takes all others instead, and
    so decides every row (`_capped`).  Step C: a row a round bounded is
    dropped when every working row tight at its optimum ends kept (by
    complementary slackness they bound a_k.x by the same value); the other
    bounded rows are tested over the kept rows again and dropped when
    bounded.  Rows left open (ties: scaled duplicates, two rows on one face
    of a lower-dimensional region), and all rows of any other system, take
    one LP over the rows alive at their turn, posed as region forms are
    (`_implied`).
    """
    if not 0 <= tol < 1:
        raise ValueError(f"prune tolerance must be at least 0 and below 1, got {tol}")
    keep = _tightest(region.A, region.rhs)
    lhs, b = region.A[keep], region.rhs[keep]
    A = lhs.astype(float)
    sign = _sign_rows(A, b)
    kept = sign | _among(lhs, b, facets)
    dropped = np.zeros(len(b), dtype=bool)
    packing = b.min(initial=0) >= 0 and ((A >= 0).all(1) | sign).all() and (A[sign] != 0).any(0).all()
    if not kept.all() and region.dim > 0 and packing:
        _certify(A, b, kept, dropped, tol)
    if (kept | dropped).all():  # no open row: no turn changes the mask
        alive = ~dropped
    else:
        alive = np.ones(len(b), dtype=bool)
        for k in np.lexsort((*lhs.T[::-1], -np.abs(lhs).sum(1), -(lhs != 0).sum(1))).tolist():
            if not kept[k]:
                alive[k] = False  # k is tested against the others
                alive[k] = not dropped[k] and not _implied(A, b, k, alive, tol)
    return Region._from_rows(region.dim, lhs[alive], b[alive], region.labels)


def _among(lhs, b, pairs):
    """Mask of the distinct rows (lhs, b) that are among the (coefficients, rhs) pairs."""
    pairs = list(pairs)
    if not pairs:
        return np.zeros(len(b), dtype=bool)
    F = np.array([coeffs for coeffs, _ in pairs], dtype=np.int64).reshape(len(pairs), lhs.shape[1])
    rhs = np.concatenate([[r for _, r in pairs], b]) + 0.0  # -0.0 reads 0.0, which it equals
    rows = np.column_stack([np.concatenate([F, lhs]), rhs.view(np.int64)])  # rhs joins as its bits
    heads = _tightest(rows, np.zeros(len(rows)))  # a pair equal to a row heads its run
    among = np.ones(len(b), dtype=bool)
    among[heads[heads >= len(F)] - len(F)] = False
    return among


def _capped(A, b, rows, tested, tol, start=None):
    """(values, points) of max a_k.x over the rows in mask `rows` (shared, or
    one per k) but k, plus a_k.x <= b_k + 1 (never unbounded), for each k.
    The rows come from `_certify`'s packing system and include its sign
    rows, so each LP is one `lp._maximize_stacks` takes: the capped row k
    bounds every coordinate a_k weighs.  Each starts at its greedy vertex
    over its own rows, row k last, or at `start`, `_witnessed`'s vertices,
    where `rows` holds every row but k, posed as the walk posed it."""
    others = rows & (np.arange(len(b)) != tested[:, None])  # equal counts per k
    if start is not None:  # every row in place, row k capped where it stands
        every = np.broadcast_to(A, (len(tested), *A.shape))
        return lp._maximize_stacks(A[tested], every, b + ~others, tol, start)
    idx = np.column_stack([np.nonzero(others)[1].reshape(len(tested), -1), tested])
    return lp._maximize_stacks(A[tested], A[idx], b[idx] + (idx == tested[:, None]), tol)


def _witnessed(A, b, tested, tol):
    """Greedy points for the rows in `tested` (b >= 0): for each k,
    `lp._greedy` walks from the origin in a_k's order over every row, row
    k capped at b_k + 1 as in `_capped`.  Returns the mask of the k it
    proves needed, whose point exceeds b_k by over tol and no other row by
    over tol (every round's keep test), and each k's vertex (tight rows,
    point, slacks) as `_capped` takes a start.  Only rows with a positive
    entry in column e bound x_e, so every point is feasible up to rounding
    and the test keeps only rows the LP over all other rows would keep."""
    slack = b + (np.arange(len(b)) == tested[:, None])
    x, tight = lp._greedy(A, slack, A[tested])
    excess = x @ A.T - b
    rows = np.arange(len(tested))
    over = excess[rows, tested] > tol
    excess[rows, tested] = -np.inf
    return over & (excess.max(1) <= tol), (tight, x, slack)


def _certify(A, b, kept, dropped, tol):
    """Steps A-C of `prune_redundant` on a packing system with a sign row per
    coordinate: mark certified keeps in `kept` and certified drops in
    `dropped`.  First the rows that `_witnessed` finds are kept.  Each round
    of LPs is one `_capped` call, which runs every member to its optimum; a
    round over all other rows decides every row it tests, and is the first,
    from the walk's vertices, when it fits one stack, else step A is."""
    tested = np.flatnonzero(~kept)
    hit, start = _witnessed(A, b, tested, tol)
    kept[tested[hit]] = True
    if kept.all():
        return
    tested = tested[~hit]
    fits = len(tested) <= lp._stack_size(len(b), A.shape[1])
    working = (kept | fits) & (np.arange(len(b)) != tested[:, None])  # all others, else step A's kept
    start = [v[~hit] for v in start] if fits else None
    bounded_rows, tight = [], []
    while tested.size:
        values, X = _capped(A, b, working, tested, tol, start)  # a start's round decides all
        bounded = values <= b[tested] + tol
        excess = X @ A.T - b
        bounded_rows.append(tested[bounded])
        tight.append(working[bounded] & (excess[bounded] >= -tol))
        excess[working] = -np.inf  # enforced by the LP: only new rows join
        excess[np.arange(len(tested)), tested] = -np.inf
        grow = ~bounded & (excess.max(1) > tol)
        kept[tested[~bounded & ~grow]] = True
        tested, working, excess = tested[grow], working[grow], excess[grow]
        # Step B: every other row joins when that round fits one
        # `_maximize_stacks` stack, since a larger one would pay for its
        # tableau cells far more than for the rounds it saves; else the most
        # violated rows join, at least 5 and as many as the set holds.
        size = working[:1].sum()  # 0 once no row is left
        rest = len(b) - 1 - size
        fits = len(tested) <= lp._stack_size(len(b), A.shape[1])
        top = np.argsort(-excess, axis=1, kind="stable")
        top = top[:, : rest if fits else min(max(5, size), rest)]
        working[np.arange(len(tested))[:, None], top] = True
    # A bounded row whose tight working rows all end kept is bounded by the
    # kept rows alone (complementary slackness); step C tests the others.
    tested, open_ = np.concatenate(bounded_rows), (np.concatenate(tight) & ~kept).any(1)
    dropped[tested[~open_]] = True
    tested = tested[open_]
    if tested.size:  # step C
        dropped[tested[_capped(A, b, kept, tested, tol)[0] <= b[tested] + tol]] = True


def _implied(A, b, k, others, tol) -> bool:
    """Whether the rows in mask `others` (`_system`) bound a_k.x by b_k + tol or admit no point."""
    res = lp.maximize(A[k], _system(A[others], b[others], tol))
    return res.status == lp.INFEASIBLE or res.status == lp.OPTIMAL and res.value <= b[k] + tol


def _support(region: Region, direction, tol: float):
    """max direction . x over the region, or None when unbounded; raises
    InfeasibleRegionError when the region admits no point."""
    res = lp.maximize(direction, region._lp_form(tol))
    if res.status == lp.INFEASIBLE:
        raise InfeasibleRegionError("support value of an empty region")
    return None if res.status == lp.UNBOUNDED else res.value


def find_subset_violation(a: Region, b: Region, tol: float = 1e-9):
    """First inequality of `b` that `a` can exceed, or None if a is a subset.

    Returns (inequality, attained_value) where attained_value is None when
    the direction is unbounded over `a`.  Raises InfeasibleRegionError when
    `a` is empty rather than reporting a containment that holds vacuously.

    Rows decide first: when every row of `b` is a row of `a` (same left-hand
    side) whose tightest rhs in `a` is at most b's rhs + tol, `a` is a subset
    and no LP runs.  Otherwise each row of `b` in turn takes one support LP
    over `a`.  When the two regions have the same rows and byte-identical
    right-hand sides, `a` is a subset, and `b` adopts `a`'s LP form at `tol`
    unless it has its own at that tol, so its later queries reuse the bases
    `a` recorded.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    form = a._lp_form(tol)
    if not form.feasible:  # also when `b` has no row to test
        raise InfeasibleRegionError("support value of an empty region")
    if np.array_equal(b.A, a.A) and b.rhs.tobytes() == a.rhs.tobytes():
        if b._lp is None or b._lp.tol != tol:
            object.__setattr__(b, "_lp", form)
        return None
    # A row of `a` with a rhs at most b's + tol sorts before that row of b, which
    # then heads no run: the tightest rows are all a's exactly when rows decide.
    heads = _tightest(np.concatenate([a.A, b.A]), np.concatenate([a.rhs, b.rhs + tol]))
    if (heads < len(a.rhs)).all():
        return None
    for coeffs, bound in zip(b.A, b.rhs.tolist()):
        value = _support(a, coeffs, tol)
        if value is None or value > bound + tol:
            return (LinearInequality(tuple(coeffs.tolist()), bound), value)
    return None


def is_subset(a: Region, b: Region, tol: float = 1e-9) -> bool:
    """True iff every point of `a` satisfies every inequality of `b`.

    Raises InfeasibleRegionError when `a` is empty.
    """
    return find_subset_violation(a, b, tol) is None


def regions_equal(a: Region, b: Region, tol: float = 1e-9) -> bool:
    """Mutual containment under the shared tolerance.

    Raises InfeasibleRegionError when `a` is empty; a non-empty `a` is never
    equal to an empty `b`.
    """
    return is_subset(a, b, tol) and is_subset(b, a, tol)


def compare(a: Region, b: Region, rng, tol: float = 1e-9, directions: int = 100):
    """None when a and b are the same set, else the first difference found:
    ("dim", a.dim, b.dim); ("row", side, inequality, value), a row of region
    `side` ("a" or "b") that the other region exceeds, attaining `value`; or
    ("support", direction, va, vb), support values that differ.  A value of
    None means unbounded.

    Containment is tested a in b, then b in a (`find_subset_violation`: rows
    shared within tol decide with no LP, and row-identical regions end up
    sharing one LP form); an empty `a` skips its test, and the test of an
    empty `b` raises InfeasibleRegionError.  Then each of
    `directions` spot checks draws one rng.uniform(-1, 1) per coordinate;
    va and vb differ when one is None or |va - vb| > tol * max(1, |va|).
    """
    if a.dim != b.dim:
        return "dim", a.dim, b.dim
    tests = ((a, b, "b"), (b, a, "a")) if a._lp_form(tol).feasible else ((b, a, "a"),)
    for left, right, side in tests:
        violation = find_subset_violation(left, right, tol)
        if violation is not None:
            return ("row", side, *violation)
    for _ in range(directions):
        direction = [rng.uniform(-1.0, 1.0) for _ in range(a.dim)]
        va, vb = _support(a, direction, tol), _support(b, direction, tol)
        if (va is None) != (vb is None) or (
            va is not None and abs(va - vb) > tol * max(1.0, abs(va))
        ):
            return "support", direction, va, vb
    return None


def support_value(region: Region, direction, tol: float = 1e-9) -> float:
    """max direction . x over the region.

    Raises UnboundedDirectionError when the objective is unbounded and
    InfeasibleRegionError when the region is empty.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape == (region.dim,):
        try:
            value = _support(region, d, tol)
        except ValueError:  # `lp.maximize` tests finiteness, so a hit pays it once
            if np.isfinite(d).all():
                raise
        else:
            if value is None:
                raise UnboundedDirectionError(direction)
            return value
    raise ValueError(f"direction must be {region.dim} finite numbers, got {d.tolist()}")


def contains_point(region: Region, point, tol: float = 1e-9) -> bool:
    """True iff the point satisfies every inequality within tol."""
    point = tuple(point)
    if len(point) != region.dim or not all(map(math.isfinite, point)):
        raise ValueError(f"point {point} is not {region.dim} finite numbers (region dimension)")
    return not any(
        sum(c * x for c, x in zip(coeffs, point)) > bound + tol
        for coeffs, bound in zip(region.A.tolist(), region.rhs.tolist())
    )


def vertices(region: Region, tol: float = 1e-9) -> list[tuple[float, ...]]:
    """All vertices of a bounded region of dimension <= 3; at dimension 0,
    the one point () unless a row 0 <= b fails (InfeasibleRegionError).

    Candidate points come from every dim-subset of inequality boundaries;
    points are kept when they satisfy the full system within tol and are
    deduplicated at tol, keeping the lexicographically smallest
    representative of each cluster.
    """
    if region.dim > 3:
        raise ValueError(f"vertex enumeration supports dim <= 3, got {region.dim}")
    if region.dim == 0:  # every row is 0 <= b, which `_nonzero` checks
        _nonzero(region.A, region.rhs, tol)
        return [()]
    for i in range(region.dim):
        for orient, name in ((1.0, "+"), (-1.0, "-")):
            direction = [0.0] * region.dim
            direction[i] = orient
            if _support(region, direction, tol) is None:
                raise UnboundedDirectionError(
                    direction, f"region is unbounded in direction {name}{region.labels[i]}"
                )

    A, b = region.matrix()
    candidates: list[tuple[float, ...]] = []
    for rows in combinations(range(len(region.rhs)), region.dim):
        sub = A[list(rows), :]
        rhs = b[list(rows)]
        try:
            x = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or np.max(np.abs(sub @ x - rhs)) > 1e-7:
            continue
        if np.all(A @ x <= b + tol):
            candidates.append(tuple(float(v) + 0.0 for v in x))  # -0.0 reads 0

    candidates.sort()
    result: list[tuple[float, ...]] = []
    for p in candidates:
        if all(max(abs(pi - qi) for pi, qi in zip(p, q)) > tol for q in result):
            result.append(p)
    return result


def canonicalize(region: Region, tol: float = 1e-9) -> Region:
    """Presentation cleanup: zero rows dropped (`_nonzero`), each row divided
    by the gcd of its coefficients, tightest rhs per row, rows sorted."""
    keep = _nonzero(region.A, region.rhs, tol)
    g = np.gcd.reduce(region.A[keep], axis=1)
    A, b = region.A[keep] // g[:, None], region.rhs[keep] / g
    keep = _tightest(A, b)
    keep = keep[np.lexsort((b[keep], *A[keep].T[::-1]))]  # rows in lexicographic order
    return Region._from_rows(region.dim, A[keep], b[keep], region.labels)


def region_to_dict(region: Region) -> dict:
    return {
        "dim": region.dim,
        "labels": list(region.labels),
        "inequalities": [
            {"coeffs": coeffs, "rhs": rhs}
            for coeffs, rhs in zip(region.A.tolist(), region.rhs.tolist())
        ],
    }


def region_from_dict(data: dict) -> Region:
    """A region from its JSON document.  As in channel and distribution files,
    a boolean or a string is not a number; a faulty row reads "inequality <k>:
    <fault>", with k from 1, and `Region` checks the labels."""
    with _building("region", data):
        items = _objects(data["inequalities"], "inequalities", "inequality", ("coeffs", "rhs"))
        ineqs = [_document_row(k, coeffs, rhs) for k, (coeffs, rhs) in items]
        return Region(data["dim"], ineqs, data.get("labels"))


def _document_row(k, coeffs, rhs) -> LinearInequality:
    """Row k of a region document: real numbers, and coefficients that are
    exact integers of at most 2^53 in magnitude, as a float holds them."""
    where = f"inequality {k}: "
    coeffs = _tuple(coeffs, f"{where}coeffs")
    for field, value in [*(("coefficient", c) for c in coeffs), ("rhs", rhs)]:
        if not _is_real(value):
            raise TypeError(f"{where}{field} {value!r} is not a real number")
    try:
        row = LinearInequality(coeffs, rhs)
    except OverflowError:  # an integer rhs beyond any float
        bits = abs(rhs).bit_length()
        raise ValueError(f"{where}rhs of {bits} bits is beyond the float range") from None
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from None
    _exact(k, row.coeffs)
    return row


def load_region(path) -> Region:
    return region_from_dict(_read_document(path))


def save_region(region: Region, path) -> None:
    _save_document(region_to_dict(region), path)
