"""Weighted combinations of the rate-splitting inequalities.

A coefficient scheme assigns a nonnegative integer weight to each pair
(receiver i, user subset M), standing for that many copies of the inequality

    R_ip + sum_{k in M} R_kc  <=  H(Y_i | V_{complement of M}).

Summing the weighted copies gives one combined inequality whose left-hand
side is  sum_m d_m R_mp + e_m R_mc, where

    d_m = total weight at receiver m,
    e_m = total weight of pairs whose subset contains m.

Projected to aggregate rates R_m = R_mp + R_mc, the combined inequality
tightens to  sum_m min(d_m, e_m) R_m <= rhs.  The two reduction steps below
rewrite a scheme so that d and e agree entrywise while the projected
left-hand side is untouched and the right-hand side never grows; schemes in
that balanced form generate every facet the aggregate region needs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .entropy import EntropyTable, subset_rank
from .errors import SchemeReductionError
from .polytope import LinearInequality

__all__ = [
    "CoefficientScheme",
    "DEVector",
    "ReductionCertificate",
    "subset_rank",
    "de_of",
    "scheme_rhs",
    "combined_inequality",
    "project_combined",
    "step1_reduce",
    "step2_reduce",
    "normalize",
    "load_scheme",
    "save_scheme",
    "scheme_from_dict",
    "scheme_to_dict",
]


@dataclass(frozen=True)
class CoefficientScheme:
    """Sparse nonnegative integer weights on (receiver, subset) pairs.

    Entries are kept in canonical order (receiver, then subset rank) with
    strictly positive weights; anything absent weighs zero.
    """

    K: int
    entries: tuple[tuple[int, frozenset, int], ...]

    def __post_init__(self):
        seen = set()
        canon = []
        for i, M, w in self.entries:
            M = frozenset(M)
            if not 1 <= i <= self.K:
                raise ValueError(f"receiver {i} out of range 1..{self.K}")
            if any(not 1 <= m <= self.K for m in M):
                raise ValueError(f"subset {sorted(M)} not within 1..{self.K}")
            if not isinstance(w, int) or w < 0:
                raise ValueError(f"weight {w!r} must be a nonnegative integer")
            if (i, M) in seen:
                raise ValueError(f"duplicate entry for receiver {i}, subset {sorted(M)}")
            seen.add((i, M))
            if w > 0:
                canon.append((i, M, w))
        canon.sort(key=lambda t: (t[0], subset_rank(t[1])))
        object.__setattr__(self, "entries", tuple(canon))

    @classmethod
    def from_weights(cls, K: int, weights: dict) -> "CoefficientScheme":
        """Build from a {(receiver, subset): weight} mapping."""
        return cls(K, tuple((i, frozenset(M), w) for (i, M), w in weights.items()))

    def weights(self) -> dict:
        return {(i, M): w for i, M, w in self.entries}


@dataclass(frozen=True)
class DEVector:
    """Per-user scheme totals: d (receiver weight) and e (subset-membership weight)."""

    d: tuple[int, ...]
    e: tuple[int, ...]

    def balanced(self) -> bool:
        return self.d == self.e

    def min_projection(self) -> tuple[int, ...]:
        return tuple(min(a, b) for a, b in zip(self.d, self.e))


def de_of(scheme: CoefficientScheme) -> DEVector:
    """Exact integer d/e totals of a scheme."""
    d = [0] * scheme.K
    e = [0] * scheme.K
    for i, M, w in scheme.entries:
        d[i - 1] += w
        for m in M:
            e[m - 1] += w
    return DEVector(tuple(d), tuple(e))


def scheme_rhs(scheme: CoefficientScheme, table: EntropyTable) -> float:
    """Right-hand side of the combined inequality on the given entropy table."""
    if table.K != scheme.K:
        raise ValueError(f"entropy table is for {table.K} users, scheme has {scheme.K}")
    rhs = table.split_rhs
    return math.fsum(w * float(rhs[i - 1, subset_rank(M)]) for i, M, w in scheme.entries)


def combined_inequality(scheme: CoefficientScheme, table: EntropyTable) -> LinearInequality:
    """Weighted sum of the scheme's inequalities over (R_1p, R_1c, ..., R_Kp, R_Kc)."""
    de = de_of(scheme)
    coeffs = [0] * (2 * scheme.K)
    for m in range(1, scheme.K + 1):
        coeffs[2 * (m - 1)] = de.d[m - 1]
        coeffs[2 * (m - 1) + 1] = de.e[m - 1]
    return LinearInequality(tuple(coeffs), scheme_rhs(scheme, table))


def project_combined(scheme: CoefficientScheme, table: EntropyTable) -> LinearInequality:
    """Aggregate-rate form of the combined inequality: min(d_m, e_m) per user."""
    de = de_of(scheme)
    return LinearInequality(de.min_projection(), scheme_rhs(scheme, table))


@dataclass(frozen=True)
class ReductionCertificate:
    """Before/after bookkeeping for one reduction step.

    `identities_hold` checks the exact integer conditions the step promises:
    only the adjusted user's deficient total moves (to min(d_m, e_m) after
    step 1, to the common value e_m after step 2) and every other total is
    untouched.  `rhs_non_increasing` checks the promised right-hand-side
    monotonicity on the entropy table the step was evaluated on.
    """

    step: int
    m: int
    d_before: tuple[int, ...]
    e_before: tuple[int, ...]
    d_after: tuple[int, ...]
    e_after: tuple[int, ...]
    rhs_before: float
    rhs_after: float

    def identities_hold(self) -> bool:
        K = len(self.d_before)
        idx = self.m - 1
        for k in range(K):
            if k == idx:
                continue
            if self.d_after[k] != self.d_before[k] or self.e_after[k] != self.e_before[k]:
                return False
        if self.step == 1:
            return (
                self.d_after[idx] == self.d_before[idx]
                and self.e_after[idx] == min(self.d_before[idx], self.e_before[idx])
            )
        return (
            self.d_after[idx] == self.e_before[idx]
            and self.e_after[idx] == self.e_before[idx]
        )

    def rhs_non_increasing(self, tol: float = 1e-9) -> bool:
        return self.rhs_after <= self.rhs_before + tol

    def min_projection_preserved(self) -> bool:
        before = tuple(min(a, b) for a, b in zip(self.d_before, self.e_before))
        after = tuple(min(a, b) for a, b in zip(self.d_after, self.e_after))
        return before == after


def _greedy_take(rows, need: int):
    """Assign min(weight, remaining) along canonically ordered rows.

    Returns {(i, M): amount} with total min(need, total weight available).
    """
    taken = {}
    remaining = need
    for i, M, w in rows:
        if remaining == 0:
            break
        amt = min(w, remaining)
        if amt > 0:
            taken[(i, M)] = amt
            remaining -= amt
    return taken, remaining


def step1_reduce(scheme: CoefficientScheme, m: int, table: EntropyTable):
    """Lower user m's subset-membership total e_m down to d_m.

    Applies when e_m > d_m.  The surplus e_m - d_m is peeled off pairs at
    other receivers whose subset contains m, moving each peeled unit onto
    the same receiver's subset with m removed.  Dropping m from a subset
    deepens the conditioning of that pair's entropy term, so the combined
    right-hand side cannot grow.  Returns (new_scheme, certificate).
    """
    de = de_of(scheme)
    if de.e[m - 1] <= de.d[m - 1]:
        raise ValueError(
            f"step 1 needs e_{m} > d_{m}, got e={de.e[m - 1]}, d={de.d[m - 1]}"
        )
    need = de.e[m - 1] - de.d[m - 1]
    donors = [(i, M, w) for i, M, w in scheme.entries if i != m and m in M]
    taken, shortfall = _greedy_take(donors, need)
    if shortfall:
        raise SchemeReductionError(
            f"step 1 at user {m}: could not place {shortfall} of {need} units"
        )
    weights = scheme.weights()
    for (i, M), amt in taken.items():
        weights[(i, M)] -= amt
        target = (i, M - {m})
        weights[target] = weights.get(target, 0) + amt
    new_scheme = CoefficientScheme.from_weights(scheme.K, weights)
    cert = _certify(1, m, scheme, new_scheme, de, table)
    return new_scheme, cert


def step2_reduce(scheme: CoefficientScheme, m: int, table: EntropyTable):
    """Lower user m's receiver total d_m down to e_m.

    Applies when d_m > e_m.  The surplus d_m - e_m is removed from receiver
    m's pairs whose subset omits m.  Each removed pair's subset members lose
    one unit of membership weight, which is restored at their own receivers
    by moving weight from a subset omitting the member onto the same subset
    with the member added.  That compensation is only guaranteed to exist
    when every other user m' already satisfies d_{m'} >= e_{m'} (i.e. after
    all step-1 passes); otherwise SchemeReductionError reports the user
    whose compensation ran short.  The greedy assignment below exhausts each
    donor class completely, so a shortfall means no assignment exists at all.
    """
    de = de_of(scheme)
    if de.d[m - 1] <= de.e[m - 1]:
        raise ValueError(
            f"step 2 needs d_{m} > e_{m}, got d={de.d[m - 1]}, e={de.e[m - 1]}"
        )
    need = de.d[m - 1] - de.e[m - 1]
    removable = [(i, M, w) for i, M, w in scheme.entries if i == m and m not in M]
    alpha, shortfall = _greedy_take(removable, need)
    if shortfall:
        raise SchemeReductionError(
            f"step 2 at user {m}: could not remove {shortfall} of {need} units"
        )

    gamma = [0] * (scheme.K + 1)
    for (_, M), amt in alpha.items():
        for mp in M:
            gamma[mp] += amt

    weights = scheme.weights()
    for key, amt in alpha.items():
        weights[key] -= amt

    for mp in range(1, scheme.K + 1):
        if mp == m or gamma[mp] == 0:
            continue
        donors = [
            (i, M, w) for i, M, w in scheme.entries if i == mp and mp not in M
        ]
        beta, shortfall = _greedy_take(donors, gamma[mp])
        if shortfall:
            raise SchemeReductionError(
                f"step 2 at user {m}: user {mp} lacks {shortfall} units of "
                f"compensation weight (run step-1 passes first)"
            )
        for (i, M), amt in beta.items():
            weights[(i, M)] -= amt
            target = (i, M | {i})
            weights[target] = weights.get(target, 0) + amt

    new_scheme = CoefficientScheme.from_weights(scheme.K, weights)
    cert = _certify(2, m, scheme, new_scheme, de, table)
    return new_scheme, cert


def _certify(step, m, old, new, de_before, table):
    de_after = de_of(new)
    cert = ReductionCertificate(
        step=step,
        m=m,
        d_before=de_before.d,
        e_before=de_before.e,
        d_after=de_after.d,
        e_after=de_after.e,
        rhs_before=scheme_rhs(old, table),
        rhs_after=scheme_rhs(new, table),
    )
    if not cert.identities_hold():
        raise SchemeReductionError(
            f"step {step} at user {m} broke its totals: "
            f"d {cert.d_before}->{cert.d_after}, e {cert.e_before}->{cert.e_after}"
        )
    return cert


def normalize(scheme: CoefficientScheme, table: EntropyTable) -> CoefficientScheme:
    """Rewrite a scheme into balanced form (d == e entrywise).

    Runs step-1 reductions for every user with e_m > d_m (ascending), then
    step-2 reductions for every user with d_m > e_m (ascending).  Each step
    leaves every other user's totals alone, so one sweep of each suffices.
    The projected coefficients min(d_m, e_m) are preserved exactly and the
    right-hand side never increases on the given table.
    """
    cur = scheme
    for m in range(1, scheme.K + 1):
        de = de_of(cur)
        if de.e[m - 1] > de.d[m - 1]:
            cur, _ = step1_reduce(cur, m, table)
    for m in range(1, scheme.K + 1):
        de = de_of(cur)
        if de.d[m - 1] > de.e[m - 1]:
            cur, _ = step2_reduce(cur, m, table)
    de = de_of(cur)
    if not de.balanced():
        raise SchemeReductionError(f"normalize left unbalanced totals d={de.d}, e={de.e}")
    return cur


def scheme_to_dict(scheme: CoefficientScheme) -> dict:
    return {
        "K": scheme.K,
        "c": [{"i": i, "M": sorted(M), "w": w} for i, M, w in scheme.entries],
    }


def scheme_from_dict(data: dict) -> CoefficientScheme:
    try:
        return CoefficientScheme(
            data["K"],
            tuple((item["i"], frozenset(item["M"]), item["w"]) for item in data["c"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scheme document: {exc}") from exc


def load_scheme(path) -> CoefficientScheme:
    with open(path, "r", encoding="utf-8") as fh:
        return scheme_from_dict(json.load(fh))


def save_scheme(scheme: CoefficientScheme, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scheme_to_dict(scheme), fh, indent=1)
        fh.write("\n")
