"""Exhaustive references the suite checks the package against.

Each lists or recomputes by brute force what the package obtains another
way: every facet choice of a weight box (the facet route's DP never lists
them), the injectivity identity from the channel and the pmf alone (no
entropy table), the matrix that maps split rates to aggregate rates (the
projection substitutes instead), and Fourier-Motzkin elimination, the
tightest rhs per row and `canonicalize` written over coefficient tuples
(the package works on one integer matrix).  None is reached from the CLI
or the routes, so they live here, with the tests.
"""

import itertools
import math

import numpy as np

from dicregion.entropy import _cell_weights, _entropy
from dicregion.errors import InfeasibleRegionError
from dicregion.polytope import Region
from dicregion.theorem_region import FacetSpec


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


def enumerate_facet_specs(K, a_max):
    """All valid facet choices with 0 <= a_i <= a_max, a not all zero:
    weight vectors in product order, then `_assignments` order."""
    for a in itertools.product(range(a_max + 1), repeat=K):
        if any(a):
            for assignment in _assignments(K, a):
                yield FacetSpec(a, assignment)


def check_injectivity_identity(spec, dist, tol=1e-9):
    """Entropy form of the injectivity condition.

    True iff |H(Y_i|X_i) - sum_{j != i} H(V_j)| <= tol for every receiver i.
    For an injective channel this holds under any product distribution; a
    failure under a full-support distribution exhibits a non-injective
    receiver map.  Both sides come from the channel and the pmf alone
    (`own_input_entropies`); no entropy table is built.
    """
    y_given_x, marginals = own_input_entropies(spec, dist)
    return all(
        abs(h - math.fsum(marginals[j - 1] for j in spec.other_users(i))) <= tol
        for i, h in enumerate(y_given_x, start=1)
    )


def own_input_entropies(spec, dist):
    """(H(Y_i | X_i) per receiver i, H(V_j) per user j), in bits, with
    H(Y_i | X_i) = H(X_i, Y_i) - H(X_i), clipped at 0, over the package's
    `_cell_weights`."""
    v_pmf, cell_weights = _cell_weights(spec, dist)
    y_given_x = []
    for p_i, table, weights in zip(dist.probs, spec.f_tables, cell_weights):
        y = np.unique(table, return_inverse=True)[1].reshape(len(p_i), -1)
        codes = y + (int(y.max()) + 1) * np.arange(len(p_i))[:, None]  # X_i major, then Y_i
        h = _entropy(np.bincount(codes.ravel(), weights=weights)) - _entropy(np.asarray(p_i))
        y_given_x.append(max(h, 0.0))
    return tuple(y_given_x), tuple(_entropy(p) for p in v_pmf)


def aggregate_projection_matrix(K):
    """K x 2K 0/1 matrix mapping split rates to aggregate rates.

    Row i has ones exactly in the two columns of user i's private and
    common rate, so (matrix @ split_vector)_i = R_ip + R_ic.
    """
    return tuple(tuple(int(k // 2 == i) for k in range(2 * K)) for i in range(K))


def tightest(rows) -> dict:
    """{lhs: rhs} over (lhs, rhs) pairs: the tightest rhs of each left-hand
    side, in first-seen order."""
    best = {}
    for coeffs, rhs in rows:
        if coeffs not in best or rhs < best[coeffs]:
            best[coeffs] = rhs
    return best


def nonzero_rows(rows, tol):
    """The (lhs, rhs) pairs with a nonzero left-hand side.  A zero row
    0 <= rhs holds trivially when rhs >= -tol and is dropped; below that it
    proves the region empty and raises InfeasibleRegionError."""
    for coeffs, rhs in rows:
        if any(coeffs):
            yield coeffs, rhs
        elif rhs < -tol:
            raise InfeasibleRegionError(f"the system implies 0 <= {rhs}")


def fm_eliminate(region, idx, tol=1e-9):
    """Fourier-Motzkin elimination of column idx: the rows free of it first,
    then every (positive, negative) pair by exact integer
    cross-multiplication, zero rows by `nonzero_rows`, then `tightest`."""
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
    best = tightest(nonzero_rows(out, tol))
    labels = region.labels[:idx] + region.labels[idx + 1 :]
    return Region._from_rows(region.dim - 1, tuple(best), list(best.values()), labels)


def canonicalize(region, tol=1e-9):
    """Zero rows dropped (`nonzero_rows`), each row divided by the gcd of its
    coefficients, tightest rhs per row, rows sorted."""
    def primitive(coeffs, rhs):
        g = math.gcd(*coeffs)
        return (tuple(c // g for c in coeffs), rhs / g) if g > 1 else (coeffs, rhs)

    rows = nonzero_rows(zip(region.lhs, region.rhs.tolist()), tol)
    best = tightest(primitive(coeffs, rhs) for coeffs, rhs in rows)
    lhs = sorted(best)
    return Region._from_rows(region.dim, lhs, [best[coeffs] for coeffs in lhs], region.labels)
