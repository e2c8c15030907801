"""Direct construction of the aggregate capacity region by facet enumeration.

A facet choice is an integer weight vector a = (a_1..a_K) together with a_i
user subsets per receiver i, subject to the counting constraint: across all
chosen subsets, user m must appear exactly a_m times.  Each valid choice
yields the inequality

    sum_i a_i R_i  <=  sum_i sum_j H(Y_i | V_{complement of S_ij}),

and the region is the intersection over all choices (plus nonnegativity).
Enumerating weights up to a cap reproduces the region; built-in presets give
the known irredundant facet families for K=2 (7 rows) and K=3 (28 rows).

`enumerate_facets` lists no choices: a meet-in-the-middle DP gives the
smallest right-hand side of every weight vector (one lattice of slot and
coverage counts per half of the receivers, then a (min,+) combine), and
rows implied by two others are skipped before the LP prune.

Facet choices convert losslessly to and from coefficient schemes: the
multiplicity of subset M at receiver i becomes the scheme weight, and a
balanced scheme unrolls back into a facet choice with a_i = d_i.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, _is_int, _read_document, _write_document
from .coeff_scheme import CoefficientScheme, de_of
from .entropy import EntropyTable, _user_subset, subset_rank
from .errors import EnumerationOverflowError
from .polytope import LinearInequality, Region, _nonneg_lhs, canonicalize, prune_redundant

__all__ = [
    "FacetSpec",
    "facet_inequality",
    "enumerate_facet_specs",
    "enumerate_facets",
    "enumerate_facets_bumped",
    "default_a_max",
    "presets",
    "preset_closure",
    "relabel_facet",
    "scheme_to_facet",
    "facet_to_scheme",
    "converse_complement_check",
    "load_facets",
    "save_facets",
    "facet_from_dict",
    "facet_to_dict",
]

# Cells of the larger half lattice, 16.8 MB of float64; the search peaks at
# 7-10 times the counted cells x 8 bytes (traced: 97 MB at K=5, a_max=5).
DEFAULT_FACET_GUARD = 2**21


@dataclass(frozen=True)
class FacetSpec:
    """One facet choice: weights a plus a_i subsets per receiver.

    Subset lists are canonicalized within each receiver (sorted by binary
    rank) so equal multisets compare equal.
    """

    a: tuple[int, ...]
    S: tuple[tuple[frozenset, ...], ...]

    def __post_init__(self):
        K = len(self.a)
        if len(self.S) != K:
            raise ValueError(f"{len(self.S)} subset lists for {K} receivers")
        canon = []
        for i, (count, subsets) in enumerate(zip(self.a, self.S), start=1):
            if not _is_int(count):
                raise ValueError(f"receiver {i}: weight {count!r} is not an integer")
            if count < 0:
                raise ValueError(f"receiver {i}: negative weight {count}")
            subsets = [_user_subset(K, i, M) for M in subsets]
            if len(subsets) != count:
                raise ValueError(f"receiver {i}: {len(subsets)} subsets for weight {count}")
            canon.append(tuple(sorted(subsets, key=subset_rank)))
        object.__setattr__(self, "a", tuple(int(v) for v in self.a))
        object.__setattr__(self, "S", tuple(canon))

    @property
    def K(self) -> int:
        return len(self.a)

    def counting_ok(self) -> bool:
        """Does user m appear exactly a_m times across all chosen subsets?"""
        counts = Counter(m for subsets in self.S for M in subsets for m in M)
        return tuple(counts[m] for m in range(1, self.K + 1)) == self.a


def facet_inequality(fs: FacetSpec, table: EntropyTable) -> LinearInequality:
    """Region inequality of one facet choice (aggregate-rate coordinates)."""
    if table.K != fs.K:
        raise ValueError(f"entropy table is for {table.K} users, facet has {fs.K}")
    if not fs.counting_ok():
        raise ValueError("facet choice violates its counting constraint")
    rhs = math.fsum(
        table.split_rhs[i, subset_rank(M)] for i, subsets in enumerate(fs.S) for M in subsets
    )
    return LinearInequality(fs.a, rhs)


def _assignments(K, a):
    """Yield every subset assignment for weight vector `a` that meets the
    counting constraint, as per-receiver subset tuples of non-decreasing
    rank, in lexicographic order of the ranks.

    Receiver i takes each multiset of a_i subsets whose users are all still
    owed coverage; the walk goes on to receiver i + 1 only when no user is
    covered beyond its weight and none is owed more than the slots left,
    as a slot covers each user at most once.
    """
    members = [frozenset(m + 1 for m in range(K) if mask >> m & 1) for mask in range(1 << K)]

    def walk(i, owed, slots_left):
        if i == K:
            yield ()
            return
        candidates = [M for M in members if all(owed[m - 1] for m in M)]
        slots_left -= a[i]
        for here in itertools.combinations_with_replacement(candidates, a[i]):
            rest = list(owed)
            for M in here:
                for m in M:
                    rest[m - 1] -= 1
            if min(rest) >= 0 and max(rest) <= slots_left:
                for tail in walk(i + 1, rest, slots_left):
                    yield (here, *tail)

    yield from walk(0, a, sum(a))


def _smallest_rhs(split_rhs, a_max: int):
    """(f, g) over the box {0..a_max}^K: f[a] is the smallest right-hand
    side over the facet choices with weight vector a, and g[a] the smallest
    f(b) + f(a - b) over 0 < b < a (inf when there is no such b).

    Choosing subset M at receiver i gives receiver i one more slot and each
    user in M one more coverage count, at cost split_rhs[i, M].  Meet in the
    middle: the receivers split into halves, the first K // 2 and the rest,
    and each half fills its own lattice of slot and coverage counts
    (`_half_lattice`).  A facet choice is one choice per half, so
    f(a) = min over b <= a of G_L[a_L, b] + G_R[a_R, a - b], a (min,+)
    combine over the coverage box (E. Horowitz and S. Sahni, JACM 1974);
    g is the same reduction over f.  Both read the (a, b) pairs of `_pairs`
    block by block, each block at most the larger half lattice's size.
    Every b <= a precedes a in C order, so f is complete where g reads it.
    """
    K, n = split_rhs.shape[0], a_max + 1
    h = K // 2
    left = _half_lattice(split_rhs[:h], n).ravel()
    right = _half_lattice(split_rhs[h:], n).ravel()
    f, g = np.empty(n**K), np.empty(n**K)
    for a, b, starts in _pairs(K, n, right.size):
        rows, d = slice(a[0], a[-1] + 1), a - b
        costs = left.take(a // n ** (K - h) * n**K + b)
        costs += right.take(a % n ** (K - h) * n**K + d)
        f[rows] = np.minimum.reduceat(costs, starts)
        split = np.add(f.take(b), f.take(d), out=costs)
        split[(b == 0) | (d == 0)] = np.inf
        g[rows] = np.minimum.reduceat(split, starts)
        del a, b, d, costs, split  # before the next block is built
    return f.reshape((n,) * K), g.reshape((n,) * K)


def _half_lattice(costs, n):
    """G[p, c] of the receivers whose subset costs are the rows of `costs`,
    as an (n^r, n^K) array: the smallest cost of giving p_j slots to the
    j-th of the r receivers with coverage counts c.  Layer p_j = s comes from
    layer s - 1 by one in-place minimum per subset, so no stack of 2^K
    shifted copies is built; receivers after j have no slots yet, so only
    the face where their p is 0 (a view) is touched.  Counts never
    decrease, so cutting every axis at n - 1 is exact."""
    r, K = costs.shape[0], costs.shape[1].bit_length() - 1
    G = np.full((n,) * (r + K), np.inf)
    G[(0,) * (r + K)] = 0.0
    shifts = [  # (dst, src) slices of the coverage axes: one more count for each m in M
        tuple((..., *(slice(lo, hi) if mask >> m & 1 else slice(None) for m in range(K)))
              for lo, hi in ((1, None), (None, -1)))
        for mask in range(1 << K)
    ]
    for j in range(r):
        face = G[(slice(None),) * (j + 1) + (0,) * (r - 1 - j)]  # p of receivers 0..j, then c
        for s in range(1, n):
            dst, src = face[(slice(None),) * j + (s,)], face[(slice(None),) * j + (s - 1,)]
            for (up, down), cost in zip(shifts, costs[j]):
                out = dst[up]
                np.minimum(out, src[down] + cost, out=out)
    return G.reshape(n**r, n**K)


def _pairs(K, n, budget):
    """The pairs (a, b) with b <= a in {0..n-1}^K as flat C-order indices,
    in blocks of whole segments (every b of one a, in no fixed order) with a
    ascending.  Each block holds at most `budget` >= n^K pairs and comes
    with the offset of each of its segments."""
    place = n ** np.arange(K - 1, -1, -1)
    radix = np.arange(n**K)[:, None] // place % n + 1  # a_m + 1
    sizes = radix.prod(axis=1)
    ends = np.cumsum(sizes)
    lo = 0
    while lo < n**K:
        hi = int(np.searchsorted(ends, ends[lo] - sizes[lo] + budget, side="right"))
        counts = sizes[lo:hi]
        starts = np.cumsum(counts) - counts
        a = np.repeat(np.arange(lo, hi), counts)
        rest = np.arange(len(a)) - np.repeat(starts, counts)  # rank within the segment
        b, digit = np.zeros_like(a), np.empty_like(a)
        for m in range(K - 1, -1, -1):  # b's digits are the rank's in mixed radix a + 1
            np.divmod(rest, np.repeat(radix[lo:hi, m], counts), out=(rest, digit))
            digit *= place[m]
            b += digit
        del rest, digit
        yield a, b, starts
        lo = hi


def enumerate_facet_specs(K: int, a_max: int, max_facets: int = DEFAULT_FACET_GUARD):
    """All valid facet choices with 0 <= a_i <= a_max, a not all zero.

    Raises EnumerationOverflowError when more than `max_facets` valid
    choices are produced (nothing is silently truncated).
    """
    if not _is_int(K) or K < 1:
        raise ValueError(f"K must be an integer >= 1, got {K!r}")
    _check_limits(a_max, max_facets)
    choices = (
        FacetSpec(a, assignment)
        for a in itertools.product(range(a_max + 1), repeat=K) if any(a)
        for assignment in _assignments(K, a)
    )
    for count, fs in enumerate(choices, start=1):
        if count > max_facets:
            raise EnumerationOverflowError(
                f"facet enumeration exceeded the size guard of {max_facets} "
                f"facets; raise the guard to continue"
            )
        yield fs


def default_a_max(K: int) -> int:
    """Weight cap that reproduces the projection region on the tested sizes."""
    return {2: 2, 3: 4, 5: 7}.get(K, K + 1)


def enumerate_facets(
    spec: ChannelSpec,
    table: EntropyTable,
    a_max: int | None = None,
    max_facets: int = DEFAULT_FACET_GUARD,
    tol: float = 1e-9,
) -> Region:
    """Aggregate region from facet enumeration, pruned to an irredundant form.

    For a fixed weight vector `a` every facet choice shares the left-hand
    side sum_i a_i R_i, so only the smallest right-hand side f(a) binds; one
    meet-in-the-middle DP (`_smallest_rhs`) gives f for every weight vector
    without listing the choices.  A facet choice for b followed by one for
    a - b is a choice for a, so f(a) <= f(b) + f(a - b); when that holds
    with equality within tol for some 0 < b < a, row a is implied by rows b
    and a - b and is skipped without an LP.  The survivors go to
    `prune_redundant`.  `max_facets` caps the cells of the larger half
    lattice, (a_max + 1)^(2K - K // 2), which no array of the search
    exceeds; EnumerationOverflowError is raised before allocating beyond it.
    """
    return _facet_region(*_lattice(spec, table, a_max, 0, max_facets), tol)


def enumerate_facets_bumped(
    spec, table, a_max=None, max_facets=DEFAULT_FACET_GUARD, tol=1e-9
) -> tuple[Region, Region]:
    """`enumerate_facets` at a_max and at a_max + 1, from one search at
    a_max + 1 (`max_facets` caps its cells): the a_max results are its
    sub-box, where every value is computed as a search at a_max computes it."""
    f, g = _lattice(spec, table, a_max, 1, max_facets)
    box = (slice(f.shape[0] - 1),) * f.ndim
    return _facet_region(f[box], g[box], tol), _facet_region(f, g, tol)


def _lattice(spec, table, a_max, bump, max_facets):
    """(f, g) from `_smallest_rhs` at a_max + bump, once the arguments and
    the size guard are checked."""
    if table.K != spec.K:
        raise ValueError(f"entropy table is for {table.K} users, channel has {spec.K}")
    K = spec.K
    if a_max is None:
        a_max = default_a_max(K)
    _check_limits(a_max, max_facets)
    cells = (a_max + bump + 1) ** (2 * K - K // 2)
    if cells > max_facets:
        raise EnumerationOverflowError(
            f"facet enumeration needs {cells} DP states (lattice cells), over the "
            f"size guard of {max_facets}; raise the guard to continue"
        )
    return _smallest_rhs(table.split_rhs, a_max + bump)


def _check_limits(a_max, max_facets):
    if not _is_int(a_max) or a_max < 1:
        raise ValueError(f"a_max must be an integer >= 1, got {a_max!r}")
    if not _is_int(max_facets):
        raise ValueError(f"max_facets must be an integer, got {max_facets!r}")


def _facet_region(f, g, tol):
    """The region of the rows a.R <= f(a) over f's box that the subadditivity
    filter of `enumerate_facets` keeps (f(a) < g(a) - tol, a != 0, in C
    order), plus nonnegativity, pruned."""
    K = f.ndim
    keep = f < g - tol
    keep.flat[0] = False
    lhs = [tuple(a) for a in np.argwhere(keep).tolist()] + list(_nonneg_lhs(K))
    rhs = f[keep].tolist() + [0.0] * K
    region = Region._from_rows(K, lhs, rhs, tuple(f"R{i}" for i in range(1, K + 1)))
    return canonicalize(prune_redundant(region, tol=tol), tol=tol)


def presets(K: int) -> list[FacetSpec]:
    """Built-in irredundant facet families (7 rows for K=2, 28 for K=3)."""
    if K == 2:
        raw = _PRESETS_K2
    elif K == 3:
        raw = _PRESETS_K3
    else:
        raise ValueError(f"presets exist only for K=2 and K=3, got K={K}")
    return [FacetSpec(a, S) for a, S in raw]


_PRESETS_K2 = [
    ((1, 0), (({1},), ())),
    ((0, 1), ((), ({2},))),
    ((1, 1), ((frozenset(),), ({1, 2},))),
    ((1, 1), (({1, 2},), (frozenset(),))),
    ((1, 1), (({2},), ({1},))),
    ((2, 1), (({1, 2}, frozenset()), ({1},))),
    ((1, 2), (({2},), ({1, 2}, frozenset()))),
]

_PRESETS_K3 = [
    ((1, 0, 0), (({1},), (), ())),
    ((1, 1, 0), ((frozenset(),), ({1, 2},), ())),
    ((1, 1, 0), (({2},), ({1},), ())),
    ((2, 1, 0), (({1, 2}, frozenset()), ({1},), ())),
    ((1, 1, 1), (({2, 3},), ({1},), (frozenset(),))),
    ((1, 1, 1), (({2},), ({3},), ({1},))),
    ((1, 1, 1), ((frozenset(),), ({2, 3},), ({1},))),
    ((1, 1, 1), ((frozenset(),), (frozenset(),), ({1, 2, 3},))),
    ((2, 1, 1), (({1, 2, 3}, frozenset()), ({1},), (frozenset(),))),
    ((2, 1, 1), (({2, 3}, frozenset()), ({1},), ({1},))),
    ((2, 1, 1), (({2}, {1, 3}), (frozenset(),), ({1},))),
    ((2, 1, 1), ((frozenset(), {1, 2}), ({3},), ({1},))),
    ((2, 1, 1), ((frozenset(), {1, 2}), ({1, 3},), (frozenset(),))),
    ((2, 1, 1), ((frozenset(), {3}), ({1},), ({1, 2},))),
    ((2, 1, 1), ((frozenset(), frozenset()), ({1, 2, 3},), ({1},))),
    ((2, 1, 1), ((frozenset(), frozenset()), ({1, 3},), ({1, 2},))),
    ((3, 1, 1), ((frozenset(), frozenset(), {1, 2, 3}), ({1},), ({1},))),
    ((3, 1, 1), ((frozenset(), frozenset(), {1, 3}), ({1},), ({1, 2},))),
    ((2, 2, 1), (({1, 2, 3}, {2}), (frozenset(), frozenset()), ({1},))),
    ((2, 2, 1), (({1, 2, 3}, frozenset()), (frozenset(), {1}), ({2},))),
    ((2, 2, 1), (({1, 2, 3}, frozenset()), (frozenset(), frozenset()), ({1, 2},))),
    ((2, 2, 1), (({2, 3}, frozenset()), (frozenset(), {1}), ({1, 2},))),
    ((2, 2, 1), (({2}, {2}), (frozenset(), {1, 3}), ({1},))),
    ((3, 2, 1), ((frozenset(), frozenset(), {1, 2, 3}), (frozenset(), {1}), ({1, 2},))),
    ((3, 2, 1), ((frozenset(), frozenset(), {1, 2, 3}), ({1}, {1}), ({2},))),
    ((3, 2, 1), ((frozenset(), frozenset(), {2, 3}), ({1}, {1}), ({1, 2},))),
    ((3, 2, 1), ((frozenset(), frozenset(), frozenset()), ({1}, {1, 2, 3}), ({1, 2},))),
    ((4, 2, 1), ((frozenset(), frozenset(), frozenset(), {1, 2, 3}), ({1}, {1}), ({1, 2},))),
]


def relabel_facet(fs: FacetSpec, perm) -> FacetSpec:
    """Apply a user relabeling; perm[i-1] is the new name of user i."""
    K = fs.K
    if not all(map(_is_int, perm)) or sorted(perm) != list(range(1, K + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{K}")
    a = [0] * K
    S: list = [None] * K
    for i in range(1, K + 1):
        ni = perm[i - 1]
        a[ni - 1] = fs.a[i - 1]
        S[ni - 1] = tuple(frozenset(perm[m - 1] for m in M) for M in fs.S[i - 1])
    return FacetSpec(tuple(a), tuple(S))


def preset_closure(K: int) -> list[FacetSpec]:
    """Presets closed under user relabeling.

    The built-in K=3 table lists one representative per relabeling class
    (only user 1 gets a single-user row, for instance); the closure supplies
    the variants for the other users.  For generic channels it is the
    closure, not the bare table, that reproduces the enumerated region.
    The K=2 table is already closed, so its closure is the table itself.
    """
    out = {}
    for fs in presets(K):
        for perm in itertools.permutations(range(1, K + 1)):
            variant = relabel_facet(fs, perm)
            out[(variant.a, variant.S)] = variant
    return sorted(out.values(), key=lambda fs: (fs.a, [[subset_rank(M) for M in s] for s in fs.S]))


def scheme_to_facet(scheme: CoefficientScheme) -> FacetSpec:
    """Unroll a balanced scheme into a facet choice (a_i = d_i = e_i).

    Raises ValueError when the scheme's totals are unbalanced.
    """
    de = de_of(scheme)
    if not de.balanced():
        raise ValueError(f"scheme is not balanced: d={de.d}, e={de.e}")
    S = (tuple(M for j, M, w in scheme.entries if j == i for _ in range(w))
         for i in range(1, scheme.K + 1))
    return FacetSpec(de.d, tuple(S))


def facet_to_scheme(fs: FacetSpec) -> CoefficientScheme:
    """Multiplicity counts of a facet choice as a coefficient scheme."""
    weights = Counter((i, M) for i, subsets in enumerate(fs.S, start=1) for M in subsets)
    return CoefficientScheme.from_weights(fs.K, weights)


def converse_complement_check(fs: FacetSpec) -> bool:
    """Complement form of the counting constraint.

    With L = sum_i a_i, replacing each chosen subset by its complement must
    leave user m with exactly L - a_m appearances; this is the bookkeeping
    identity on which the matching outer bound rests, and it holds for every
    valid facet choice.
    """
    if not fs.counting_ok():
        raise ValueError("facet choice violates its counting constraint")
    L = sum(fs.a)
    full = frozenset(range(1, fs.K + 1))
    counts = Counter(m for subsets in fs.S for M in subsets for m in full - M)
    return all(counts[m] == L - a_m for m, a_m in enumerate(fs.a, start=1))


def facet_to_dict(fs: FacetSpec) -> dict:
    return {"a": list(fs.a), "S": [[sorted(M) for M in subsets] for subsets in fs.S]}


def facet_from_dict(data: dict) -> FacetSpec:
    try:
        return FacetSpec(
            tuple(data["a"]),
            tuple(tuple(frozenset(M) for M in subsets) for subsets in data["S"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed facet document: {exc}") from exc


def load_facets(path) -> list[FacetSpec]:
    data = _read_document(path)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError(f"malformed facet document: {type(data).__name__}, not a list or an object")
    return [facet_from_dict(item) for item in data]


def save_facets(specs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_document([facet_to_dict(fs) for fs in specs], fh)
