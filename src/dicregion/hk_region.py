"""Rate-splitting achievable region and its aggregate-rate projection.

The 2K-dimensional region lives in coordinates
(R_1p, R_1c, ..., R_Kp, R_Kc): a private and a common rate per user.  For
every receiver i and every user subset M (all 2^K of them) it contains

    R_ip + sum_{k in M} R_kc  <=  H(Y_i | V_{complement of M}),

plus nonnegativity for every coordinate.  Redundant subset choices are
harmless; the projection pipeline prunes them.

Aggregate rates are R_i = R_ip + R_ic.  The (i, M = {}) row bounds R_ip
by H(Y_i | V_1..V_K), which is exactly 0 when user i's interference reveals
its input (every binary user, for one); such a pinned rate is eliminated by
dropping its column, an exact slice that needs no LP, and its R_ic is R_i.
The others go user by user: a redundancy prune, the substitution
R_ic = R_i - R_ip in exact integers, and Fourier-Motzkin elimination of R_ip.
Substituted only then, every row the prune sees but -x_j <= 0 is nonnegative
(a packing system, whose rows greedy witnesses decide).
"""

from __future__ import annotations

import functools
from itertools import compress

import numpy as np

from .channel import ChannelSpec
from .entropy import EntropyTable
from .errors import InfeasibleRegionError
from .polytope import (
    Region,
    _nonneg_lhs,
    canonicalize,
    fm_eliminate,
    prune_redundant,
)

__all__ = [
    "split_labels",
    "build_A1",
    "project_to_aggregate",
]

_FORMS = 16  # slices of split rows kept for reuse


def split_labels(K: int) -> tuple[str, ...]:
    return tuple(f"R{i}{part}" for i in range(1, K + 1) for part in "pc")


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
    rhs = table.split_rhs.ravel().tolist() + [0.0] * (2 * K)
    return Region._from_rows(2 * K, _a1_lhs(K), rhs, split_labels(K))


@functools.lru_cache(maxsize=_FORMS)
def _sliced(lhs, keep: tuple[int, ...]):
    """The rows restricted to the columns `keep`: the nonzero restricted
    rows, their positions, and the positions of the zero ones."""
    rows = [tuple(coeffs[k] for k in keep) for coeffs in lhs]
    nonzero = np.array([any(coeffs) for coeffs in rows], dtype=bool)
    return tuple(compress(rows, nonzero)), np.flatnonzero(nonzero), np.flatnonzero(~nonzero)


@functools.cache
def _pins(K: int) -> tuple[frozenset, ...]:
    """For each user i, the rows R_ip and -R_ip of a split region with K users."""
    return tuple(frozenset({e, tuple(-c for c in e)}) for e in _nonneg_lhs(2 * K)[0::2])


def project_to_aggregate(a1: Region, tol: float = 1e-9) -> Region:
    """Project the rate-splitting region onto aggregate rates (R_1, ..., R_K).

    Drops the column of every pinned private rate (one with both unit rows
    R_ip <= 0 and -R_ip <= 0, right-hand side exactly 0), whose R_ic is then
    R_i.  Each other user in turn: a prune, the substitution R_ic = R_i - R_ip,
    and the elimination of R_ip.  The result is irredundant, with explicit
    nonnegativity.
    """
    if a1.dim % 2 != 0:
        raise ValueError(f"split region must have even dimension, got {a1.dim}")
    K = a1.dim // 2
    expected = split_labels(K)
    if a1.labels != expected:
        raise ValueError(f"split region labels {a1.labels} != expected {expected}")

    # R_ip <= 0 and -R_ip <= 0 pin R_ip to 0, so its projection is the
    # slice R_ip = 0: drop the column, with no prune and no cross rows.
    rhs = a1.rhs
    zero = {a1.lhs[r] for r in np.flatnonzero(rhs == 0.0).tolist()}
    free = [i for i, pin in enumerate(_pins(K), 1) if pin - zero]
    keep = tuple(2 * i - 2 for i in free) + tuple(range(1, 2 * K, 2))
    lhs, rows, zero_rows = _sliced(a1.lhs, keep)
    low = rhs[zero_rows] < -tol
    if low.any():
        raise InfeasibleRegionError(f"the system implies 0 <= {rhs[zero_rows][low][0].item()}")
    labels = [f"R{i}p" for i in free] + [f"R{i}c" if i in free else f"R{i}" for i in range(1, K + 1)]
    work = Region._from_rows(len(keep), lhs, rhs[rows], labels)

    # R_ip is column 0, and c_p R_ip + c_c R_ic = (c_p - c_c) R_ip + c_c R_i.  A kept
    # row free of R_ip stays needed: its witness point meets every other kept
    # row, hence each row of the next system (a kept row or a sum of two).
    facets = set()
    for i in free:
        work = prune_redundant(work, tol=tol, facets=facets)
        c = work.labels.index(f"R{i}c")
        lhs = [(coeffs[0] - coeffs[c],) + coeffs[1:] for coeffs in work.lhs]
        facets = {(coeffs[1:], b) for coeffs, b in zip(lhs, work.rhs.tolist()) if not coeffs[0]}
        labels = work.labels[:c] + (f"R{i}",) + work.labels[c + 1 :]
        work = fm_eliminate(Region._from_rows(work.dim, lhs, work.rhs, labels), 0, tol=tol)

    lhs, rhs = work.lhs + _nonneg_lhs(K), work.rhs.tolist() + [0.0] * K
    work = Region._from_rows(K, lhs, rhs, work.labels)
    return canonicalize(prune_redundant(work, tol=tol), tol=tol)
