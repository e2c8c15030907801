"""Half-space regions, Fourier-Motzkin projection, and LP-backed pruning.

A region is a finite list of inequalities coeffs . x <= rhs with exact
integer coefficients and real right-hand sides.  Variable elimination uses
integer cross-multiplication, so left-hand sides never accumulate floating
error; only the right-hand sides (entropy values downstream) are floats.

Elimination keeps raw combined rows (no per-row rescaling) so that callers
can recognize specific integer combinations verbatim; `canonicalize` divides
rows by their gcd for presentation-quality output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations, compress

import numpy as np

from . import lp
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
                ic = int(c)
                if ic != c:
                    raise ValueError(f"coefficient {c!r} is not an exact integer")
                coerced.append(ic)
            object.__setattr__(self, "coeffs", tuple(coerced))
        object.__setattr__(self, "rhs", float(self.rhs))


class Region:
    """Polyhedron {x : coeffs . x <= rhs for every inequality}.

    Stored compactly, since callers keep many regions: `lhs` holds each
    row's coefficient tuple as given (regions built from shared tuples
    share them) and `rhs` is one read-only float array.  `inequalities`
    builds the row objects on each access; the package itself reads these
    two fields and builds regions with `_from_rows`.  Immutable.
    """

    __slots__ = ("dim", "lhs", "rhs", "labels")

    def __init__(self, dim: int, inequalities, labels=()):
        rows = tuple(inequalities)
        self._fill(dim, tuple(q.coeffs for q in rows), [q.rhs for q in rows], labels)

    @classmethod
    def _from_rows(cls, dim: int, lhs, rhs, labels=()) -> "Region":
        """Package-private: build from coefficient tuples (kept as given, so a
        shared tuple stays shared) and their right-hand sides."""
        region = object.__new__(cls)
        region._fill(dim, tuple(lhs), rhs, labels)
        return region

    def _fill(self, dim, lhs, rhs, labels):
        labels = tuple(labels) if labels else tuple(f"x{i+1}" for i in range(dim))
        if len(labels) != dim:
            raise ValueError(f"{len(labels)} labels for dimension {dim}")
        for coeffs in lhs:
            if len(coeffs) != dim:
                raise ValueError(f"inequality arity {len(coeffs)} does not match dim {dim}")
        rhs = np.array(rhs, dtype=float)
        rhs.flags.writeable = False
        for name, value in (("dim", dim), ("lhs", lhs), ("rhs", rhs), ("labels", labels)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Region")

    def __reduce__(self):  # copy and pickle rebuild through _fill
        return Region._from_rows, (self.dim, self.lhs, self.rhs.tolist(), self.labels)

    @property
    def inequalities(self) -> tuple[LinearInequality, ...]:
        return tuple(map(LinearInequality, self.lhs, self.rhs.tolist()))

    def _key(self):
        return self.dim, self.labels, self.lhs, tuple(self.rhs.tolist())

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Region) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Region(dim={self.dim}, inequalities={self.inequalities!r}, labels={self.labels!r})"

    def matrix(self):
        """(A, b) as float arrays."""
        if not self.lhs:
            return np.zeros((0, self.dim)), np.zeros(0)
        return np.array(self.lhs, dtype=float), self.rhs.copy()

    def var_index(self, var) -> int:
        if isinstance(var, str):
            try:
                return self.labels.index(var)
            except ValueError:
                raise ValueError(f"no variable labeled {var!r}") from None
        idx = int(var)
        if not 0 <= idx < self.dim:
            raise ValueError(f"variable index {idx} out of range for dim {self.dim}")
        return idx


def _nonneg_lhs(dim: int) -> tuple[tuple[int, ...], ...]:
    """Left-hand sides of -x_i <= 0 for every variable."""
    return tuple(tuple(-1 if k == i else 0 for k in range(dim)) for i in range(dim))


def nonneg_inequalities(dim: int) -> list[LinearInequality]:
    """-x_i <= 0 for every variable."""
    return [LinearInequality(coeffs, 0.0) for coeffs in _nonneg_lhs(dim)]


def _is_nonneg_row(coeffs, rhs) -> bool:
    return rhs == 0.0 and sum(1 for c in coeffs if c != 0) == 1 and min(coeffs) == -1


def _tightest(rows) -> dict:
    """{lhs: rhs} over (lhs, rhs) pairs: the tightest rhs of each left-hand
    side, in first-seen order."""
    best = {}
    for coeffs, rhs in rows:
        if coeffs not in best or rhs < best[coeffs]:
            best[coeffs] = rhs
    return best


def _nonzero_rows(rows, tol: float):
    """The (lhs, rhs) pairs with a nonzero left-hand side.  A zero row
    0 <= rhs holds trivially when rhs >= -tol and is dropped; below that it
    proves the region empty and raises InfeasibleRegionError."""
    for coeffs, rhs in rows:
        if any(coeffs):
            yield coeffs, rhs
        elif rhs < -tol:
            raise InfeasibleRegionError(f"the system implies 0 <= {rhs}")


def fm_eliminate(region: Region, var, tol: float = 1e-9) -> Region:
    """Project out one variable by Fourier-Motzkin elimination.

    Every (positive, negative) coefficient pair is combined with exact
    integer cross-multiplication; rows not mentioning the variable carry
    over.  Zero rows follow `_nonzero_rows`: dropped when trivially true,
    InfeasibleRegionError when rhs < -tol.

    `var` may be a column index or a variable label.
    """
    idx = region.var_index(var)
    pos, neg, out = [], [], []
    for coeffs, rhs in zip(region.lhs, region.rhs.tolist()):
        c = coeffs[idx]
        if c:
            (pos if c > 0 else neg).append((coeffs, rhs))
        else:
            out.append((coeffs[:idx] + coeffs[idx + 1 :], rhs))
    for p, p_rhs in pos:
        a = p[idx]
        for q, q_rhs in neg:
            bmul = -q[idx]
            coeffs = tuple(bmul * pc + a * qc for k, (pc, qc) in enumerate(zip(p, q)) if k != idx)
            out.append((coeffs, bmul * p_rhs + a * q_rhs))

    best = _tightest(_nonzero_rows(out, tol))
    labels = region.labels[:idx] + region.labels[idx + 1 :]
    return Region._from_rows(region.dim - 1, best, list(best.values()), labels)


def prune_redundant(region: Region, tol: float = 1e-9, *, facets=frozenset()) -> Region:
    """Drop inequalities implied by the rest of the system.

    Row k is dropped when the surviving other rows bound a_k.x by b_k + tol
    or admit no point.  Unit nonnegativity rows (-x_i <= 0) and the (lhs, rhs)
    pairs in `facets`, which the caller has proven irredundant, are kept with no LP.
    Each LP is output-sensitive (Clarkson, FOCS 1994): it runs over a working
    set, seeded with the nonnegativity rows, plus the cap a_k.x <= b_k + 1.
    An optimum violating no other surviving row beyond tol witnesses that k
    is needed (k joins the set); otherwise the five most violated rows join
    and the LP runs again.  Decisions equal testing against all survivors.
    `tol` must be below 1, the cap's slack: at tol >= 1 every capped value
    is within tol of b_k, so every row would look redundant.
    """
    if not tol < 1:
        raise ValueError(f"prune tolerance must be below 1, got {tol}")
    best = _tightest(zip(region.lhs, region.rhs.tolist()))
    lhs = list(best)
    A = np.array(lhs, dtype=float).reshape(len(lhs), region.dim)
    b = np.array(list(best.values()), dtype=float)
    nonneg = [_is_nonneg_row(coeffs, rhs) for coeffs, rhs in best.items()]
    # Test busy combination rows first so that simple facets survive.
    test_order = sorted(
        range(len(lhs)),
        key=lambda k: (-sum(1 for c in lhs[k] if c != 0), -sum(map(abs, lhs[k])), lhs[k]),
    )
    alive = np.ones(len(lhs), dtype=bool)
    working = np.array(nonneg, dtype=bool)
    for k in test_order:
        if nonneg[k] or (lhs[k], b[k]) in facets:
            working[k] = True  # kept, as a kept row leaves the LP path below
            continue
        alive[k] = False  # k is tested against the others
        while True:
            rows = np.append(np.flatnonzero(working & alive), k)
            res = lp.maximize(A[k], A[rows], b[rows] + (rows == k), tol=tol)
            if res.status == lp.INFEASIBLE:
                # Others empty (drop k), or all violate row k by over 1 (keep).
                alive[k] = lp.maximize(A[k], A[alive], b[alive], tol=tol).status != lp.INFEASIBLE
                break
            if res.value <= b[k] + tol:
                break
            # The LP enforced the working rows, so each pass adds a new row.
            excess = A @ np.asarray(res.x) - b
            violated = np.flatnonzero(alive & ~working & (excess > tol))
            if violated.size == 0:
                alive[k] = working[k] = True
                break
            working[violated[np.argsort(-excess[violated], kind="stable")[:5]]] = True
    return Region._from_rows(region.dim, compress(lhs, alive), b[alive], region.labels)


def _support(A, b, direction, tol: float):
    """max direction . x over {x : A x <= b}, or None when unbounded.

    Raises InfeasibleRegionError when the system admits no point.
    """
    res = lp.maximize(direction, A, b, tol=tol)
    if res.status == lp.INFEASIBLE:
        raise InfeasibleRegionError("support value of an empty region")
    return None if res.status == lp.UNBOUNDED else res.value


def find_subset_violation(a: Region, b: Region, tol: float = 1e-9):
    """First inequality of `b` that `a` can exceed, or None if a is a subset.

    Returns (inequality, attained_value) where attained_value is None when
    the direction is unbounded over `a`.  Raises InfeasibleRegionError when
    `a` is empty rather than reporting a containment that holds vacuously.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    A, rhs = a.matrix()
    for coeffs, bound in zip(b.lhs, b.rhs.tolist()):
        value = _support(A, rhs, coeffs, tol)
        if value is None or value > bound + tol:
            return (LinearInequality(coeffs, bound), value)
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


def support_value(region: Region, direction, tol: float = 1e-9) -> float:
    """max direction . x over the region.

    Raises UnboundedDirectionError when the objective is unbounded and
    InfeasibleRegionError when the region is empty.
    """
    value = _support(*region.matrix(), np.asarray(direction, dtype=float), tol)
    if value is None:
        raise UnboundedDirectionError(direction)
    return value


def contains_point(region: Region, point, tol: float = 1e-9) -> bool:
    for coeffs, bound in zip(region.lhs, region.rhs.tolist()):
        if sum(c * x for c, x in zip(coeffs, point)) > bound + tol:
            return False
    return True


def vertices(region: Region, tol: float = 1e-9) -> list[tuple[float, ...]]:
    """All vertices of a bounded region of dimension <= 3.

    Candidate points come from every dim-subset of inequality boundaries;
    points are kept when they satisfy the full system within tol and are
    deduplicated at tol, keeping the lexicographically smallest
    representative of each cluster.
    """
    if region.dim > 3:
        raise ValueError(f"vertex enumeration supports dim <= 3, got {region.dim}")
    for i in range(region.dim):
        for orient, name in ((1.0, "+"), (-1.0, "-")):
            direction = [0.0] * region.dim
            direction[i] = orient
            try:
                support_value(region, direction, tol=tol)
            except UnboundedDirectionError:
                raise UnboundedDirectionError(
                    direction, f"region is unbounded in direction {name}{region.labels[i]}"
                ) from None

    A, b = region.matrix()
    candidates: list[tuple[float, ...]] = []
    for rows in combinations(range(len(region.lhs)), region.dim):
        sub = A[list(rows), :]
        rhs = b[list(rows)]
        try:
            x = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or np.max(np.abs(sub @ x - rhs)) > 1e-7:
            continue
        if np.all(A @ x <= b + tol):
            candidates.append(tuple(float(v) for v in x))

    candidates.sort()
    result: list[tuple[float, ...]] = []
    for p in candidates:
        if all(max(abs(pi - qi) for pi, qi in zip(p, q)) > tol for q in result):
            result.append(p)
    return result


def canonicalize(region: Region, tol: float = 1e-9) -> Region:
    """Presentation cleanup: zero rows dropped (`_nonzero_rows`), each row
    divided by the gcd of its coefficients, tightest rhs per row, sorted."""
    def primitive(coeffs, rhs):
        g = math.gcd(*coeffs)
        return (tuple(c // g for c in coeffs), rhs / g) if g > 1 else (coeffs, rhs)

    rows = _nonzero_rows(zip(region.lhs, region.rhs.tolist()), tol)
    best = _tightest(primitive(coeffs, rhs) for coeffs, rhs in rows)
    lhs = sorted(best)
    return Region._from_rows(region.dim, lhs, [best[coeffs] for coeffs in lhs], region.labels)


def region_to_dict(region: Region) -> dict:
    return {
        "dim": region.dim,
        "labels": list(region.labels),
        "inequalities": [
            {"coeffs": list(coeffs), "rhs": rhs}
            for coeffs, rhs in zip(region.lhs, region.rhs.tolist())
        ],
    }


def region_from_dict(data: dict) -> Region:
    try:
        ineqs = tuple(
            LinearInequality(tuple(item["coeffs"]), item["rhs"])
            for item in data["inequalities"]
        )
        if not all(math.isfinite(q.rhs) for q in ineqs):
            raise ValueError("an inequality has a non-finite rhs")
        return Region(data["dim"], ineqs, tuple(data.get("labels") or ()))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed region document: {exc}") from exc


def load_region(path) -> Region:
    with open(path, "r", encoding="utf-8") as fh:
        return region_from_dict(json.load(fh))


def save_region(region: Region, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(region_to_dict(region), fh, indent=1)
        fh.write("\n")
