"""Rate-splitting achievable region and its aggregate-rate projection.

The 2K-dimensional region lives in coordinates (R_1p, R_1c, ..., R_Kp,
R_Kc): a private and a common rate per user.  For every receiver i and every
user subset M (all 2^K of them) it contains

    R_ip + sum_{k in M} R_kc  <=  H(Y_i | V_{complement of M}),

plus nonnegativity for every coordinate.  Every split region of one K holds
the one read-only int64 matrix of these left-hand sides (`_a1_lhs`) and one
labels tuple; only the right-hand sides differ.  The projection prunes
redundant subset choices.

Aggregate rates are R_i = R_ip + R_ic.  The (i, M = {}) row bounds R_ip
by H(Y_i | V_1..V_K), which is exactly 0 when user i's interference reveals
its input (every binary user, for one); such a pinned rate is eliminated by
dropping its column, an exact slice that needs no LP, and its R_ic is R_i.
The others go user by user: a redundancy prune, the substitution
R_ic = R_i - R_ip (one integer column operation), and Fourier-Motzkin
elimination of R_ip, which raises ValueError before a coefficient could pass
2^53.  Substituted only then, every row the prune sees but -x_j <= 0 is
nonnegative (a packing system, whose rows greedy witnesses decide).
"""

from __future__ import annotations

import functools

import numpy as np

from .channel import ChannelSpec
from .entropy import EntropyTable
from .polytope import (
    Region,
    _nonzero,
    canonicalize,
    fm_eliminate,
    prune_redundant,
)

__all__ = [
    "split_labels",
    "build_A1",
    "project_to_aggregate",
]


@functools.cache
def split_labels(K: int) -> tuple[str, ...]:
    return tuple(f"R{i}{part}" for i in range(1, K + 1) for part in "pc")


@functools.cache
def _a1_lhs(K: int) -> np.ndarray:
    """Left-hand sides of `build_A1`, one read-only matrix that every call
    with this K shares: the (receiver i, subset M) rows in i-major,
    M-ascending order, then the nonnegativity rows."""
    A = np.zeros((K, 1 << K, 2 * K), dtype=np.int64)
    A[:, :, 1::2] = np.arange(1 << K)[:, None] >> np.arange(K) & 1  # common rates decoded jointly
    A[np.arange(K), :, 2 * np.arange(K)] = 1  # receiver's private rate
    A = np.concatenate([A.reshape(-1, 2 * K), -np.eye(2 * K, dtype=np.int64)])  # then -x <= 0
    A.flags.writeable = False
    return A


def build_A1(spec: ChannelSpec, table: EntropyTable) -> Region:
    """Rate-splitting region over (R_1p, R_1c, ..., R_Kp, R_Kc)."""
    if table.K != spec.K:
        raise ValueError(f"entropy table is for {table.K} users, channel has {spec.K}")
    K = spec.K
    rhs = np.concatenate([table.split_rhs.ravel(), np.zeros(2 * K)])
    return Region._from_rows(2 * K, _a1_lhs(K), rhs, split_labels(K))


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
    A, rhs = a1.A, a1.rhs
    units = A[(rhs == 0.0) & ((A != 0).sum(1) == 1), 0::2]  # private columns of unit rows at 0
    free = (np.flatnonzero(~((units == 1).any(0) & (units == -1).any(0))) + 1).tolist()
    A = A[:, [2 * i - 2 for i in free] + list(range(1, 2 * K, 2))]
    rows = _nonzero(A, rhs, tol)
    labels = [f"R{i}p" for i in free] + [f"R{i}c" if i in free else f"R{i}" for i in range(1, K + 1)]
    work = Region._from_rows(A.shape[1], A[rows], rhs[rows], labels)

    # R_ip is column 0, and c_p R_ip + c_c R_ic = (c_p - c_c) R_ip + c_c R_i.  A kept
    # row free of R_ip stays needed: its witness point meets every other kept
    # row, hence each row of the next system (a kept row or a sum of two).
    facets = ()
    for i in free:
        work = prune_redundant(work, tol=tol, facets=facets)
        c = work.labels.index(f"R{i}c")
        A = np.column_stack([work.A[:, 0] - work.A[:, c], work.A[:, 1:]])
        carried = A[:, 0] == 0
        facets = zip(A[carried, 1:], work.rhs[carried])
        labels = work.labels[:c] + (f"R{i}",) + work.labels[c + 1 :]
        work = fm_eliminate(Region._from_rows(work.dim, A, work.rhs, labels), 0, tol=tol)

    A = np.concatenate([work.A, -np.eye(K, dtype=np.int64)])  # then -R_i <= 0
    work = Region._from_rows(K, A, np.concatenate([work.rhs, np.zeros(K)]), work.labels)
    return canonicalize(prune_redundant(work, tol=tol), tol=tol)
