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

import math
from collections import Counter
from dataclasses import dataclass

from .channel import _is_int, _read_document, _write_document
from .entropy import EntropyTable, _user_subset, subset_rank
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
        if not _is_int(self.K) or self.K < 1:
            raise ValueError(f"K={self.K!r} must be a positive integer")
        seen = set()
        canon = []
        for i, M, w in self.entries:
            if not _is_int(i) or not 1 <= i <= self.K:
                raise ValueError(f"receiver {i} out of range 1..{self.K}")
            M = _user_subset(self.K, i, M)
            if not _is_int(w) or w < 0:
                raise ValueError(f"weight {w!r} must be a nonnegative integer")
            i, w = int(i), int(w)
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
    the after-totals equal the before-totals with user m's deficient entry
    replaced (e_m by min(d_m, e_m) after step 1, d_m by e_m after step 2),
    so every other total is untouched.  `min_projection_preserved` checks
    that min(d, e) did not move, and `rhs_non_increasing` the promised
    right-hand-side monotonicity on the entropy table the step was evaluated
    on.
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
        d, e = list(self.d_before), list(self.e_before)
        idx = self.m - 1
        if self.step == 1:
            e[idx] = min(d[idx], e[idx])
        else:
            d[idx] = e[idx]
        return (list(self.d_after), list(self.e_after)) == (d, e)

    def rhs_non_increasing(self, tol: float = 1e-9) -> bool:
        return self.rhs_after <= self.rhs_before + tol

    def min_projection_preserved(self) -> bool:
        before = DEVector(self.d_before, self.e_before).min_projection()
        return before == DEVector(self.d_after, self.e_after).min_projection()


def _shift(weights: dict, donors, need: int, target, error):
    """Move `need` units of weight off the donor pairs, greedily.

    Walks `donors` ((i, M, w) in canonical order), takes min(w, still
    needed) from each and adds it to pair target(i, M), or drops it when
    target is None.  Updates `weights` in place and returns {(i, M): amount
    taken}.  Raises SchemeReductionError(error(shortfall)) when the donors
    hold less than `need`; taking every donor's full weight before giving
    up means a shortfall leaves no other assignment either.
    """
    taken = {}
    for i, M, w in donors:
        if need == 0:
            break
        amt = min(w, need)
        taken[(i, M)] = amt
        need -= amt
        weights[(i, M)] -= amt
        if target is not None:
            dst = target(i, M)
            weights[dst] = weights.get(dst, 0) + amt
    if need:
        raise SchemeReductionError(error(need))
    return taken


def step1_reduce(scheme: CoefficientScheme, m: int, table: EntropyTable):
    """Lower user m's subset-membership total e_m down to d_m.

    Applies when e_m > d_m.  One greedy weight shift (`_shift`) peels the
    surplus e_m - d_m off pairs (i, M) at other receivers whose subset
    contains m, in canonical order, and moves each peeled unit onto
    (i, M - {m}).  Dropping m from a subset deepens the conditioning of that
    pair's entropy term, so the combined right-hand side cannot grow.
    Returns (new_scheme, certificate).
    """
    de = de_of(scheme)
    if de.e[m - 1] <= de.d[m - 1]:
        raise ValueError(
            f"step 1 needs e_{m} > d_{m}, got e={de.e[m - 1]}, d={de.d[m - 1]}"
        )
    need = de.e[m - 1] - de.d[m - 1]
    weights = scheme.weights()
    donors = ((i, M, w) for i, M, w in scheme.entries if i != m and m in M)
    _shift(weights, donors, need, lambda i, M: (i, M - {m}),
           lambda short: f"step 1 at user {m}: could not place {short} of {need} units")
    new_scheme = CoefficientScheme.from_weights(scheme.K, weights)
    return new_scheme, _certify(1, m, scheme, new_scheme, de, table)


def step2_reduce(scheme: CoefficientScheme, m: int, table: EntropyTable):
    """Lower user m's receiver total d_m down to e_m.

    Applies when d_m > e_m.  The surplus d_m - e_m is removed from receiver
    m's pairs whose subset omits m.  Each removed pair's subset members lose
    one unit of membership weight, which is restored at their own receivers
    by moving weight from (m', M) with m' not in M onto (m', M | {m'}).
    Removal and each compensation are the same greedy weight shift as step
    1 (`_shift`), so a shortfall means no assignment exists at all.  The
    compensation is only guaranteed to exist when every other user m'
    already satisfies d_{m'} >= e_{m'} (i.e. after all step-1 passes);
    otherwise SchemeReductionError reports the user whose compensation ran
    short.
    """
    de = de_of(scheme)
    if de.d[m - 1] <= de.e[m - 1]:
        raise ValueError(
            f"step 2 needs d_{m} > e_{m}, got d={de.d[m - 1]}, e={de.e[m - 1]}"
        )
    need = de.d[m - 1] - de.e[m - 1]
    weights = scheme.weights()
    removable = ((i, M, w) for i, M, w in scheme.entries if i == m and m not in M)
    removed = _shift(weights, removable, need, None,
                     lambda short: f"step 2 at user {m}: could not remove {short} of {need} units")
    gamma = Counter()
    for (_, M), amt in removed.items():
        for mp in M:
            gamma[mp] += amt
    for mp in sorted(gamma):
        donors = ((i, M, w) for i, M, w in scheme.entries if i == mp and mp not in M)
        _shift(weights, donors, gamma[mp], lambda i, M: (i, M | {i}),
               lambda short: f"step 2 at user {m}: user {mp} lacks {short} units of "
                             f"compensation weight (run step-1 passes first)")
    new_scheme = CoefficientScheme.from_weights(scheme.K, weights)
    return new_scheme, _certify(2, m, scheme, new_scheme, de, table)


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
    return scheme_from_dict(_read_document(path))


def save_scheme(scheme: CoefficientScheme, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_document(scheme_to_dict(scheme), fh)
