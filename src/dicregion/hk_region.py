"""Rate-splitting achievable region and its aggregate-rate projection.

The 2K-dimensional region lives in coordinates
(R_1p, R_1c, ..., R_Kp, R_Kc): a private and a common rate per user.  For
every receiver i and every user subset M (all 2^K of them) it contains

    R_ip + sum_{k in M} R_kc  <=  H(Y_i | V_{complement of M}),

plus nonnegativity for every coordinate.  Redundant subset choices are
harmless; the projection pipeline prunes them.

Aggregate rates are R_i = R_ip + R_ic.  Projection substitutes
R_ic = R_i - R_ip in exact integers (a unimodular change of coordinates, so
-R_ic <= 0 becomes R_ip - R_i <= 0) and eliminates only the private rates.
The (i, M = {}) row bounds R_ip by H(Y_i | V_1..V_K), which is exactly 0
when user i's interference reveals its input (every binary user, for one);
such a pinned rate is eliminated by dropping its column, an exact slice
that needs no LP.  The others go user by user, with redundancy pruning
before every elimination so the intermediate systems stay small.
"""

from __future__ import annotations

import functools

from .channel import ChannelSpec
from .entropy import EntropyTable
from .polytope import (
    Region,
    _nonneg_lhs,
    _nonzero_rows,
    canonicalize,
    fm_eliminate,
    prune_redundant,
)

__all__ = [
    "aggregate_projection_matrix",
    "split_labels",
    "aggregate_labels",
    "build_A1",
    "project_to_aggregate",
]


def aggregate_projection_matrix(K: int) -> tuple[tuple[int, ...], ...]:
    """K x 2K 0/1 matrix mapping split rates to aggregate rates.

    Row i has ones exactly in the two columns of user i's private and
    common rate, so (matrix @ split_vector)_i = R_ip + R_ic.
    """
    rows = []
    for i in range(K):
        row = [0] * (2 * K)
        row[2 * i] = 1
        row[2 * i + 1] = 1
        rows.append(tuple(row))
    return tuple(rows)


def split_labels(K: int) -> tuple[str, ...]:
    out = []
    for i in range(1, K + 1):
        out.append(f"R{i}p")
        out.append(f"R{i}c")
    return tuple(out)


def aggregate_labels(K: int) -> tuple[str, ...]:
    return tuple(f"R{i}" for i in range(1, K + 1))


@functools.cache
def _a1_lhs(K: int) -> tuple[tuple[int, ...], ...]:
    """Left-hand sides of `build_A1`, shared by every call with this K: the
    (receiver i, subset M) rows in i-major, M-ascending order, then the
    nonnegativity rows."""
    lhs = []
    for i in range(K):
        for M in range(1 << K):
            coeffs = [0] * (2 * K)
            coeffs[2 * i] = 1  # receiver's private rate
            for k in range(K):
                if M >> k & 1:
                    coeffs[2 * k + 1] = 1  # common rates decoded jointly
            lhs.append(tuple(coeffs))
    return tuple(lhs) + _nonneg_lhs(2 * K)


def build_A1(spec: ChannelSpec, table: EntropyTable) -> Region:
    """Rate-splitting region over (R_1p, R_1c, ..., R_Kp, R_Kc)."""
    if table.K != spec.K:
        raise ValueError(f"entropy table is for {table.K} users, channel has {spec.K}")
    K = spec.K
    # Row (i, M) reads h[i, full ^ M] = h[i, full - M]: row i of h reversed.
    rhs = table.h[:, ::-1].ravel().tolist() + [0.0] * (2 * K)
    return Region._from_rows(2 * K, _a1_lhs(K), rhs, split_labels(K))


def project_to_aggregate(a1: Region, tol: float = 1e-9) -> Region:
    """Project the rate-splitting region onto aggregate rates (R_1, ..., R_K).

    Substitutes R_ic = R_i - R_ip, drops the column of every pinned private
    rate (one with both unit rows R_ip <= 0 and -R_ip <= 0, right-hand side
    exactly 0), then eliminates the others with a prune before each; the
    result is irredundant, with explicit nonnegativity.
    """
    if a1.dim % 2 != 0:
        raise ValueError(f"split region must have even dimension, got {a1.dim}")
    K = a1.dim // 2
    expected = split_labels(K)
    if a1.labels != expected:
        raise ValueError(f"split region labels {a1.labels} != expected {expected}")

    # c_p R_p + c_c R_c = (c_p - c_c) R_p + c_c R for every user.
    rows = []
    zero_units = set()  # (column, sign) of the unit rows +-R_ip <= 0
    for coeffs, rhs in zip(a1.lhs, a1.rhs.tolist()):
        private, common = coeffs[0::2], coeffs[1::2]
        coeffs = tuple(p - c for p, c in zip(private, common)) + common
        rows.append((coeffs, rhs))
        if rhs == 0.0 and sum(map(abs, coeffs)) == 1:
            j = next(k for k, c in enumerate(coeffs) if c)
            zero_units.add((j, coeffs[j]))
    # R_ip <= 0 and -R_ip <= 0 pin R_ip to 0, so its projection is the
    # slice R_ip = 0: drop the column, with no prune and no cross rows.
    keep = [k for k in range(2 * K) if k >= K or not {(k, 1), (k, -1)} <= zero_units]
    sliced = list(_nonzero_rows(((tuple(c[k] for k in keep), b) for c, b in rows), tol))
    labels = expected[0::2] + aggregate_labels(K)
    lhs, rhs = [c for c, _ in sliced], [b for _, b in sliced]
    work = Region._from_rows(len(keep), lhs, rhs, tuple(labels[k] for k in keep))

    # A kept row free of the eliminated rate stays needed: its witness point meets every
    # other kept row, hence each row of the next system (a kept row or a sum of two).
    facets = set()
    for label in work.labels[:-K]:
        work = prune_redundant(work, tol=tol, facets=facets)
        j = work.var_index(label)
        facets = {(c[:j] + c[j + 1 :], b) for c, b in zip(work.lhs, work.rhs.tolist()) if not c[j]}
        work = fm_eliminate(work, label, tol=tol)

    lhs, rhs = work.lhs + _nonneg_lhs(K), work.rhs.tolist() + [0.0] * K
    work = Region._from_rows(K, lhs, rhs, work.labels)
    return canonicalize(prune_redundant(work, tol=tol), tol=tol)
