"""Rate-splitting achievable region and its aggregate-rate projection.

The 2K-dimensional region lives in coordinates
(R_1p, R_1c, ..., R_Kp, R_Kc): a private and a common rate per user.  For
every receiver i and every user subset M (all 2^K of them) it contains

    R_ip + sum_{k in M} R_kc  <=  H(Y_i | V_{complement of M}),

plus nonnegativity for every coordinate.  Redundant subset choices are
harmless; the projection pipeline prunes them.

Aggregate rates are R_i = R_ip + R_ic.  Projection substitutes
R_ic = R_i - R_ip in exact integers (a unimodular change of coordinates, so
-R_ic <= 0 becomes R_ip - R_i <= 0) and eliminates only the private rates,
user by user, with redundancy pruning before every elimination so the
intermediate systems stay small.
"""

from __future__ import annotations

from .channel import ChannelSpec
from .entropy import EntropyTable
from .polytope import (
    LinearInequality,
    Region,
    canonicalize,
    fm_eliminate,
    nonneg_inequalities,
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


def build_A1(spec: ChannelSpec, table: EntropyTable) -> Region:
    """Rate-splitting region over (R_1p, R_1c, ..., R_Kp, R_Kc)."""
    if table.K != spec.K:
        raise ValueError(f"entropy table is for {table.K} users, channel has {spec.K}")
    K = spec.K
    full = (1 << K) - 1
    h = table.h.tolist()
    rows = []
    for i in range(K):
        for M in range(1 << K):
            coeffs = [0] * (2 * K)
            coeffs[2 * i] = 1  # receiver's private rate
            for k in range(K):
                if M >> k & 1:
                    coeffs[2 * k + 1] = 1  # common rates decoded jointly
            rows.append(LinearInequality(tuple(coeffs), h[i][full ^ M]))
    rows.extend(nonneg_inequalities(2 * K))
    return Region(2 * K, tuple(rows), split_labels(K))


def project_to_aggregate(a1: Region, tol: float = 1e-9) -> Region:
    """Project the rate-splitting region onto aggregate rates (R_1, ..., R_K).

    Substitutes R_ic = R_i - R_ip, then eliminates R_1p..R_Kp with a prune
    before each; the result is irredundant, with explicit nonnegativity.
    """
    if a1.dim % 2 != 0:
        raise ValueError(f"split region must have even dimension, got {a1.dim}")
    K = a1.dim // 2
    expected = split_labels(K)
    if a1.labels != expected:
        raise ValueError(f"split region labels {a1.labels} != expected {expected}")

    # c_p R_p + c_c R_c = (c_p - c_c) R_p + c_c R for every user.
    rows = []
    for ineq in a1.inequalities:
        private, common = ineq.coeffs[0::2], ineq.coeffs[1::2]
        rows.append(LinearInequality(tuple(p - c for p, c in zip(private, common)) + common, ineq.rhs))
    work = Region(2 * K, tuple(rows), expected[0::2] + aggregate_labels(K))

    for i in range(1, K + 1):
        work = fm_eliminate(prune_redundant(work, tol=tol), f"R{i}p", tol=tol)

    work = Region(K, work.inequalities + tuple(nonneg_inequalities(K)), work.labels)
    return canonicalize(prune_redundant(work, tol=tol), tol=tol)
