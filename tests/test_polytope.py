"""Polyhedral kernel: elimination, pruning, containment, vertices."""

import copy
import functools
import itertools
import math
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dicregion import (
    InputDistribution,
    build_A1,
    build_entropy_table,
    enumerate_facets,
    lp,
    polytope,
    project_to_aggregate,
)
from dicregion.errors import InfeasibleRegionError, UnboundedDirectionError
from dicregion.polytope import (
    LinearInequality,
    Region,
    canonicalize,
    contains_point,
    find_subset_violation,
    fm_eliminate,
    is_subset,
    load_region,
    nonneg_inequalities,
    prune_redundant,
    region_from_dict,
    region_to_dict,
    regions_equal,
    save_region,
    support_value,
    vertices,
)

import reference
from conftest import benchmark_pools, random_full_support, random_injective_channel, witnessing_nothing


def R(dim, rows, labels=()):
    return Region(dim, tuple(LinearInequality(tuple(c), r) for c, r in rows), labels)


def _plain_sign_row(coeffs, rhs):
    """-x_j <= 0 by its definition: rhs 0, and -1 the one nonzero coefficient."""
    return rhs == 0 and [c for c in coeffs if c != 0] == [-1]


UNIT_SIMPLEX = R(2, [((1, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)])
UNIT_SQUARE = R(2, [((1, 0), 1.0), ((0, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)])
EMPTY = R(2, [((1, 0), -1.0), ((-1, 0), 0.0), ((0, -1), 0.0)])


def test_eliminate_single_pair():
    region = R(2, [((1, 1), 3.0), ((0, -1), 0.0), ((0, 1), 2.0)])
    out = fm_eliminate(region, 1)
    assert out.dim == 1
    assert [(q.coeffs, q.rhs) for q in out.inequalities] == [((1,), 3.0)]


def test_eliminate_carries_unrelated_rows():
    region = R(2, [((1, 0), 1.0)])
    out = fm_eliminate(region, 1)
    assert [(q.coeffs, q.rhs) for q in out.inequalities] == [((1,), 1.0)]


def test_eliminate_detects_infeasibility():
    region = R(1, [((1,), -1.0), ((-1,), 0.0)])  # x <= -1 and x >= 0
    with pytest.raises(InfeasibleRegionError):
        fm_eliminate(region, 0)


def test_eliminate_by_label():
    region = R(2, [((1, 1), 3.0), ((0, -1), 0.0)], labels=("u", "v"))
    out = fm_eliminate(region, "v")
    assert out.labels == ("u",)


def test_prune_dominated_single_bounds():
    region = R(
        2,
        [((1, 0), 1.0), ((0, 1), 1.0), ((1, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)],
    )
    pruned = prune_redundant(region)
    kept = {(q.coeffs, q.rhs) for q in pruned.inequalities}
    assert kept == {((1, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)}
    # A facet pair matches only with its exact rhs: (1, 0) <= 1 is still tested.
    assert prune_redundant(region, facets={((1, 0), 2.0)}) == pruned
    # It matches by value, as a set of pairs does: rhs 0.0 names a row at -0.0.
    corner = R(2, [((1, 0), 0.0), ((0, 1), 0.0), ((1, 1), -0.0), ((-1, 0), 0.0), ((0, -1), 0.0)])
    assert prune_redundant(corner).lhs == ((1, 0), (0, 1), (-1, 0), (0, -1))
    carried = prune_redundant(corner, facets={((1, 1), 0.0)})
    assert (carried.lhs, carried.rhs.tobytes()) == (((1, 1), (-1, 0), (0, -1)), np.array([-0.0, 0.0, 0.0]).tobytes())


def test_prune_same_lhs_keeps_tightest():
    region = R(1, [((1,), 1.0), ((1,), 2.0), ((-1,), 0.0)])
    pruned = prune_redundant(region)
    assert {(q.coeffs, q.rhs) for q in pruned.inequalities} == {((1,), 1.0), ((-1,), 0.0)}


@pytest.mark.parametrize("rhs, kept", [(1.0, False), (0.0, False), (-1.0, True)],
                         ids=["slack", "tight", "violated"])
def test_prune_of_a_region_with_no_coordinate_keeps_only_a_violated_row(rhs, kept):
    # 0 <= rhs holds or fails for the one point of R^0; the certificate LPs
    # used to fail with numpy's "argmin of an empty sequence" when rhs >= 0.
    pruned = prune_redundant(R(0, [((), rhs)]))
    assert pruned.inequalities == ((LinearInequality((), rhs),) if kept else ())


_COEFF = st.one_of(st.integers(-2, 2), st.integers(-(2**53), 2**53))
_SIGN_CASES = st.integers(0, 4).flatmap(lambda dim: st.tuples(st.just(dim), st.lists(
    st.tuples(st.tuples(*[_COEFF] * dim), st.sampled_from([0.0, -0.0, 1.0, -1.0])), max_size=8)))


@settings(max_examples=300, deadline=None)
@given(_SIGN_CASES)
@example((1, [((-1,), -0.0), ((-2,), 0.0), ((1,), 0.0), ((-(2**53),), 0.0), ((2**53,), 0.0)]))
@example((2, [((-1, -1), 0.0), ((-1, 1), 0.0), ((0, -1), -0.0), ((0, -1), 1.0), ((0, 0), 0.0)]))
@example((3, [((2**53 - 1, 0, -1), 0.0), ((0, -1, 0), 0.0)]))
@example((0, [((), 0.0), ((), -0.0), ((), 1.0)]))
def test_the_sign_mask_is_the_plain_definition(case):
    dim, rows = case
    A = np.array([c for c, _ in rows], dtype=float).reshape(len(rows), dim)
    b = np.array([r for _, r in rows], dtype=float)
    assert polytope._sign_rows(A, b).tolist() == [_plain_sign_row(c, r) for c, r in rows]


def test_the_prune_poses_its_fallback_lps_as_region_forms(monkeypatch):
    # With some b_i < 0 every row takes `_implied`'s one LP over the rows
    # alive at its turn.  Its sign rows are bounds, as in a region's LP form:
    # the System has a row for each other alive row, and no w column for a
    # variable a sign row bounds.
    implied, maximize, alive, systems = polytope._implied, lp.maximize, [], []

    def recording_implied(A, b, k, others, tol):
        alive.append([(tuple(A[i].tolist()), b[i]) for i in np.flatnonzero(others)])
        return implied(A, b, k, others, tol)

    def recording_maximize(c, system):
        systems.append(system)
        return maximize(c, system)

    monkeypatch.setattr(polytope, "_implied", recording_implied)
    monkeypatch.setattr(lp, "maximize", recording_maximize)
    rng, bounded = random.Random(41), 0
    for _ in range(60):
        dim = rng.randint(1, 4)
        rows = [(tuple(rng.randint(-2, 3) for _ in range(dim)), float(rng.randint(-3, 6)))
                for _ in range(rng.randint(1, 8))]
        rows += [((1,) * dim, -1.0)] + [(q.coeffs, q.rhs) for q in nonneg_inequalities(dim)]
        rng.shuffle(rows)
        prune_redundant(R(dim, rows))
    assert len(systems) == len(alive) > 100
    for rows, system in zip(alive, systems):
        signs = {c.index(-1) for c, r in rows if _plain_sign_row(c, r)}
        assert len(system) == sum(not _plain_sign_row(c, r) for c, r in rows)
        assert system.T.shape[1] == 2 * system.n - len(signs) + 1  # u, the free w, rhs
        bounded += bool(signs)
    assert bounded > 100


def test_prune_preserves_feasible_set(monkeypatch):
    rng = random.Random(3)
    pruned_regions = []
    for _ in range(20):
        dim = rng.randint(1, 3)
        rows = [
            (tuple(rng.randint(-2, 3) for _ in range(dim)), float(rng.randint(0, 6)))
            for _ in range(rng.randint(2, 8))
        ]
        rows += [(q.coeffs, q.rhs) for q in nonneg_inequalities(dim)]
        region = R(dim, rows)
        pruned = prune_redundant(region)
        assert regions_equal(region, pruned, 1e-9)
        assert len(pruned.inequalities) <= len(region.inequalities)
        pruned_regions.append(pruned)
    # Every other row of an irredundant region passed as a facet: no LP runs
    # (maximize is unset, so one would raise) and the region comes back whole.
    monkeypatch.setattr(lp, "maximize", None)
    for pruned in pruned_regions:
        nonneg = {(q.coeffs, q.rhs) for q in nonneg_inequalities(pruned.dim)}
        facets = set(zip(pruned.lhs, pruned.rhs.tolist())) - nonneg
        assert prune_redundant(pruned, facets=facets) == pruned


def _prune_against_all_others(region, tol=1e-9):
    """The plain pruning rule: each row, in prune_redundant's order, is
    dropped iff the other surviving rows bound it or admit no point."""
    best = {}
    for q in region.inequalities:
        best[q.coeffs] = min(q.rhs, best.get(q.coeffs, q.rhs))
    rows = list(best.items())
    order = sorted(
        range(len(rows)),
        key=lambda k: (-sum(c != 0 for c in rows[k][0]), -sum(map(abs, rows[k][0])), rows[k][0]),
    )
    alive = [True] * len(rows)
    for k in order:
        coeffs, rhs = rows[k]
        if rhs == 0.0 and sum(c != 0 for c in coeffs) == 1 and min(coeffs) == -1:
            continue
        others = [rows[j] for j in range(len(rows)) if alive[j] and j != k]
        A = np.array([o[0] for o in others], dtype=float).reshape(len(others), region.dim)
        res = lp.maximize(coeffs, lp.System(A, [o[1] for o in others], tol=tol))
        if res.status == lp.INFEASIBLE or (res.status == lp.OPTIMAL and res.value <= rhs + tol):
            alive[k] = False
    return [rows[j] for j in range(len(rows)) if alive[j]]


def _packing_systems(rng, count, most=20):
    """Seeded packing systems of 2 to `most` drawn rows: nonnegative integer
    rows, b >= 0, with sign rows, exact and scaled duplicates, zero-rhs rows
    putting two rows on one face, and a coordinate that at most one row
    bounds."""
    systems = []
    for _ in range(count):
        dim = rng.randint(1, 4)
        free = rng.randrange(dim)  # no row but maybe rows[0] has a positive entry here
        rows = [
            (tuple(0 if j == free else rng.randint(0, 3) for j in range(dim)), float(rng.randint(0, 6)))
            for _ in range(rng.randint(2, most))
        ]
        if rng.random() < 0.5:
            rows[0] = (tuple(rng.randint(1, 3) if j == free else c for j, c in enumerate(rows[0][0])), rows[0][1])
        rows += [rows[1], (tuple(2 * c for c in rows[1][0]), 2 * rows[1][1])]
        if rng.random() < 0.5:
            # a.x <= 0 with a >= 0 pins supp(a) at 0 on the sign rows, which
            # puts row 2 and row 2 plus multiples of a on one face.
            a = tuple(rng.randint(0, 1) for _ in range(dim))
            rows += [(a, 0.0)] + [(tuple(c + m * ac for c, ac in zip(rows[2][0], a)), rows[2][1]) for m in (1, 2)]
        if rng.random() < 0.8:
            rows += [(q.coeffs, q.rhs) for q in nonneg_inequalities(dim)]
        rng.shuffle(rows)
        systems.append(R(dim, rows))
    return systems


def test_prune_matches_testing_against_all_others(monkeypatch):
    fixed = [
        R(1, [((1,), 1.0), ((2,), 2.0), ((-1,), 0.0)]),  # positive multiples of one row
        R(2, [((1, 0), 1.0), ((1, 1), 3.0), ((-1, 0), 0.0)]),  # unbounded in x2
        R(1, [((1,), -5.0), ((-1,), 0.0)]),  # others feasible, row k violated by more than 1
        R(2, [((1, 1), -1.0), ((1, 0), 2.0), ((-1, 0), 0.0), ((0, -1), 0.0)]),  # empty
        # x1 = 0 makes (0, 1) <= 1 and (1, 1) <= 1 one face: a tie.
        R(2, [((1, 0), 0.0), ((0, 1), 1.0), ((1, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)]),
    ]
    rng = random.Random(17)
    randoms = []
    for trial in range(600):
        # From trial 500 on, 17 rows or more in 2-4 variables.
        dim = rng.randint(1, 4) if trial < 500 else rng.randint(2, 4)
        low = -3 if trial < 300 else 0  # then every b >= 0, but rows of mixed signs
        rows = [
            (tuple(rng.randint(-2, 3) for _ in range(dim)), float(rng.randint(low, 6)))
            for _ in range(rng.randint(2, 12) if trial < 500 else rng.randint(17, 40))
        ]
        rows += [(tuple(m * c for c in coeffs), m * rhs) for coeffs, rhs in rows[:2] for m in (2, 3)]
        if trial >= 300 and rng.random() < 0.5:
            # Lower-dimensional: a.x = 0 for a random a, and rows sharing one face.
            a = tuple(rng.randint(-1, 1) for _ in range(dim))
            rows += [(a, 0.0), (tuple(-c for c in a), 0.0)]
            rows += [(tuple(c + m * ac for c, ac in zip(rows[0][0], a)), rows[0][1]) for m in (1, 2)]
        if rng.random() < 0.6:
            rows += [(q.coeffs, q.rhs) for q in nonneg_inequalities(dim)]
        rng.shuffle(rows)
        randoms.append(R(dim, rows))
    # Certificates decide rows of the packing systems only.
    packing = _packing_systems(rng, 200) + _packing_systems(rng, 100, most=40)
    implied, tested = polytope._implied, []
    witnessed, found = polytope._witnessed, []

    def recording(A, b, rows, tol):
        hit, start = witnessed(A, b, rows, tol)
        found.append(hit.any())
        return hit, start

    def counting(A, b, *args):
        sign = polytope._sign_rows(A, b)
        tested.append(b.min() >= 0 and (A[~sign] >= 0).all() and (A[sign] != 0).any(0).all())
        return implied(A, b, *args)

    monkeypatch.setattr(polytope, "_implied", counting)
    monkeypatch.setattr(polytope, "_witnessed", recording)
    statuses, plain = set(), []
    for region in fixed + randoms + packing:
        A, b = region.matrix()
        statuses.add(lp.maximize([1.0] * region.dim, lp.System(A, b)).status)
        pruned = prune_redundant(region)
        plain.append(_prune_against_all_others(region))
        assert [(q.coeffs, q.rhs) for q in pruned.inequalities] == plain[-1]
    # the random systems include empty, unbounded and bounded regions
    assert statuses == {lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE}
    # Certificates leave ties to the plain test: some rows of packing
    # systems with a sign row per coordinate reach it.
    assert any(tested) and not all(tested)
    # Greedy witnesses keep rows in some prunes and find none in others.
    assert any(found) and not all(found)
    # With stacks of 2^7 tableau cells, the first round of most packing
    # prunes does not fit one stack, so step A starts from the kept rows
    # and step B grows the working sets, taking every other row in the
    # rounds that fit.  The regions are the same, byte for byte.
    capped, rounds = polytope._capped, []

    def counting_rounds(A, b, rows, tested, tol, start=None):
        if rows.ndim == 2:  # not step C
            rounds.append("walk" if start is not None else "all" if rows[0].sum() == len(b) - 1 else "grow")
        return capped(A, b, rows, tested, tol, start)

    monkeypatch.setattr(lp, "_BATCH_CELLS", 2**7)
    monkeypatch.setattr(polytope, "_capped", counting_rounds)
    for region, rows in zip(packing, plain[-len(packing):]):
        pruned = prune_redundant(region)
        assert pruned.lhs == tuple(coeffs for coeffs, _ in rows)
        assert pruned.rhs.tobytes() == np.array([rhs for _, rhs in rows]).tobytes()
    # 85 first rounds still fit, 206 rounds are step A's or grow working
    # sets, and 38 take every other row.
    assert rounds.count("walk") > 40 and rounds.count("grow") > 100 and rounds.count("all") > 20


def test_only_packing_systems_with_a_sign_row_per_coordinate_take_certificates(monkeypatch):
    # Every b_i >= 0, but none of these is a packing system with a sign row
    # -x_j <= 0 for every coordinate: one has a row of mixed signs, one no
    # sign row for x2, and in one -2 x2 <= 0 is x2's only lower bound.
    # Each takes the plain rule, with no stacked LP (a call would raise).
    monkeypatch.setattr(lp, "_maximize_stacks", None)
    box = [((1, 0), 1.0), ((0, 1), 1.0), ((1, 1), 2.0), ((2, 1), 3.0)]
    for rows in (
        box + [((1, -1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)],
        box + [((-1, 0), 0.0)],
        box + [((-1, 0), 0.0), ((0, -2), 0.0)],
    ):
        region = R(2, rows)
        pruned = [(q.coeffs, q.rhs) for q in prune_redundant(region).inequalities]
        assert pruned == _prune_against_all_others(region)
        assert len(pruned) < len(rows)


def test_greedy_witnesses_are_rows_the_plain_rule_keeps():
    # A witness is a point that exceeds row k and no other row, so the LP
    # over all other rows keeps k too.  The pass runs on packing systems,
    # but the argument holds for any b >= 0, so mixed signs are tried too.
    rng = random.Random(29)
    mixed = [
        R(dim, [(tuple(rng.randint(-2, 3) for _ in range(dim)), float(rng.randint(0, 6))) for _ in range(12)])
        for dim in (rng.randint(1, 4) for _ in range(100))
    ]
    witnesses = 0
    for region in _packing_systems(rng, 300) + mixed:
        best = polytope._tightest(region.A, region.rhs)
        lhs, b = list(map(tuple, region.A[best].tolist())), region.rhs[best]
        A = region.A[best].astype(float)
        rows = np.array([not _plain_sign_row(*pair) for pair in zip(lhs, b.tolist())])
        tested = np.flatnonzero(rows)
        hit, _ = polytope._witnessed(A, b, tested, 1e-9)
        found = {(lhs[k], b[k]) for k in tested[hit].tolist()}
        assert found <= set(_prune_against_all_others(region))
        witnesses += len(found)
    assert witnesses > 300


def test_a_greedy_point_above_another_row_witnesses_nothing():
    # (3,3,1) . x <= 0.9 is implied by (3,3,3) . x <= 0.9 for x >= 0.  Its
    # greedy point rises to about (0.3, 0, 0), and rounding leaves it a hair
    # above both rows, so at tol 0 only the test on every other row keeps
    # (3,3,1) from being witnessed as needed.
    region = Region(3, [LinearInequality((3, 3, 3), 0.9), LinearInequality((3, 3, 1), 0.9)]
                    + list(nonneg_inequalities(3)))
    pruned = prune_redundant(region, tol=0.0)
    assert set(pruned.lhs) == {(3, 3, 3), (-1, 0, 0), (0, -1, 0), (0, 0, -1)}
    assert len(pruned.lhs) == 4


def _assert_walk_round_agrees(monkeypatch, A, b, tested, start, tol=1e-9):
    """`_certify`'s first round on (A, b), the open rows `tested` started at
    `start` = (tight rows, x, slacks).  Each start is a vertex: n distinct
    rows at slack exactly 0, with a nonsingular block B.  Each member agrees
    with `_capped`'s LP over every other row started at its own greedy
    vertex, row k last: a finite value within tol of it, at a point that
    violates no row (row k capped) by over 1e-9.  A member whose B is an
    optimal basis (every reduced cost a_k B⁻¹ at least -tol) builds no
    tableau and ends at its walk point.  Returns how many members were
    optimal at their walk vertex."""
    tight, x, slack = start
    n = A.shape[1]
    assert all(len(set(rows)) == n for rows in tight.tolist())
    assert (np.take_along_axis(slack, tight, 1) == 0).all()
    assert (np.linalg.matrix_rank(A[tight]) == n).all()
    every = np.arange(len(b)) != tested[:, None]
    vertex_tableaus, built = lp._vertex_tableaus, []

    def recording(*args):
        warm = vertex_tableaus(*args)
        built.extend([] if warm is None else warm[3].tolist())
        return warm

    assert len(tested) <= lp._stack_size(len(b), A.shape[1])  # one stack: `built` indexes tested
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_vertex_tableaus", recording)
        values, X = polytope._capped(A, b, every, tested, tol, start)
    assert np.isfinite(values).all()
    assert values == pytest.approx(polytope._capped(A, b, every, tested, tol)[0], abs=tol)
    assert (X @ A.T <= b + ~every + 1e-9).all()
    at_vertex = ((A[tested][:, None] @ np.linalg.inv(A[tight]))[:, 0] >= -tol).all(1)
    assert not set(np.flatnonzero(at_vertex).tolist()) & set(built)
    assert (X[at_vertex] == x[at_vertex]).all()
    return at_vertex.sum()


def test_walk_started_rounds_agree_with_the_lp_over_all_others(monkeypatch):
    # When the open rows of a packing prune fit one stack, `_certify`'s first
    # round starts each LP over every other row at the vertex `_witnessed`'s
    # walk reached, posed in place.  This checks that round on every prune
    # of the benchmark pools (both routes) and of seeded packing systems:
    # 3,444 members, 2,059 of them optimal at their walk vertex.  A start
    # with one tight row per member swapped for a row with slack fails the
    # check; value and feasibility alone catch 67 of the 253 such rounds.
    certify, rounds = polytope._certify, []

    def recording(A, b, kept, dropped, tol):
        rounds.append((A, b, kept.copy()))
        return certify(A, b, kept, dropped, tol)

    monkeypatch.setattr(polytope, "_certify", recording)
    projected, both = benchmark_pools()
    for spec, dist in projected + both:
        table = build_entropy_table(spec, dist)
        project_to_aggregate(build_A1(spec, table))
        if (spec, dist) in both:
            enumerate_facets(spec, table)
    for region in _packing_systems(random.Random(42), 200):
        prune_redundant(region)
    members = optimal = mutated = 0
    for A, b, kept in rounds:
        tested = np.flatnonzero(~kept)
        hit, start = polytope._witnessed(A, b, tested, 1e-9)
        tested, (tight, x, slack) = tested[~hit], [v[~hit] for v in start]
        if not tested.size or len(tested) > lp._stack_size(len(b), A.shape[1]):
            continue
        optimal += _assert_walk_round_agrees(monkeypatch, A, b, tested, (tight, x, slack))
        members += len(tested)
        # A mutant start: in each member, the first tight row swapped for a
        # row with slack, the block kept nonsingular.
        mutant = tight.copy()
        for i in range(len(tested)):
            for k in np.flatnonzero(slack[i] > 1e-6):
                swapped = np.concatenate([[k], tight[i, 1:]])
                if np.linalg.matrix_rank(A[swapped]) == A.shape[1]:
                    mutant[i] = swapped
                    break
        if (mutant != tight).any():
            mutated += 1
            with pytest.raises(AssertionError):
                _assert_walk_round_agrees(monkeypatch, A, b, tested, (mutant, x, slack))
    assert members > 3000 and optimal > 1500 and mutated > 200


def test_rows_bounded_at_kept_rows_skip_the_step_c_lp(monkeypatch):
    # In the box, x1 + x2 <= 2 is bounded at (1, 1), where only x1 <= 1 and
    # x2 <= 1 are tight, and both end kept: no step-C batch runs.
    # 2x1 + x2 <= 3 is tight there too but is dropped, so with it both
    # bounded rows take the step-C LP over the kept rows.
    # The box is a packing system.  With greedy witnesses that witness
    # nothing, every row reaches the LPs: one round over every other row
    # when the open rows fit one stack, else (a stack of one tableau cell)
    # steps A and B.
    maximize_stacks, members = lp._maximize_stacks, []

    def counting_batch(C, A, b, tol, start=None):
        members.append(len(C))
        return maximize_stacks(C, A, b, tol, start)

    monkeypatch.setattr(lp, "_maximize_stacks", counting_batch)
    box = [((1, 0), 1.0), ((0, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)]
    extras = [[((1, 1), 2.0)], [((1, 1), 2.0), ((2, 1), 3.0)]]

    def batches(cells):
        rounds = []
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_BATCH_CELLS", cells)
            for extra in extras:
                members.clear()
                pruned = prune_redundant(R(2, box + extra))
                assert [(q.coeffs, q.rhs) for q in pruned.inequalities] == box
                rounds.append(members[:])
        return rounds

    with monkeypatch.context() as patch:
        patch.setattr(polytope, "_witnessed", witnessing_nothing)
        assert batches(lp._BATCH_CELLS) == [[3], [4, 2]]
        assert batches(1) == [[3, 1], [4, 3, 2]]
    # With them, x1 <= 1 and x2 <= 1 are kept first.  Step A's round over
    # the kept rows bounds every other row at kept rows alone; the round
    # over every other row finds 2x1 + x2 <= 3 tight at x1 + x2 <= 2's
    # optimum, and the reverse, so both take the step-C LP.
    assert batches(lp._BATCH_CELLS) == [[1], [2, 2]]
    assert batches(1) == [[1], [2]]


def test_step_b_takes_every_other_row_once_that_round_fits_one_stack(monkeypatch):
    # 39 tangents to a disk in the positive quadrant, all facets, and the two
    # sign rows, the only rows kept before the LPs.  Over those, each
    # tangent's optimum violates others, so step A would leave all 39 open.
    # Their round over all other rows fits one stack, so it comes first, from
    # the witness walk's vertices; doubling from the 2 kept rows would have
    # added only 5.
    maximize_stacks, rows = lp._maximize_stacks, []

    def counting_batch(C, A, b, tol, start=None):
        rows.append((*A.shape[:2], start is not None))
        return maximize_stacks(C, A, b, tol, start)

    monkeypatch.setattr(lp, "_maximize_stacks", counting_batch)
    monkeypatch.setattr(polytope, "_witnessed", witnessing_nothing)
    tangents = [((k, 40 - k), 10 * math.hypot(k, 40 - k)) for k in range(1, 40)]
    region = R(2, tangents + [((-1, 0), 0.0), ((0, -1), 0.0)])
    assert prune_redundant(region) == region
    assert rows == [(39, 41, True)]  # each member's rows and its cap


def test_is_subset_examples():
    assert is_subset(UNIT_SIMPLEX, UNIT_SIMPLEX)
    assert is_subset(UNIT_SIMPLEX, UNIT_SQUARE)
    assert not is_subset(UNIT_SQUARE, UNIT_SIMPLEX)  # witness (1, 1)


def test_subset_test_needs_one_dimension():
    line = R(1, [((1,), 1.0)])
    for a, b in ((UNIT_SQUARE, line), (line, UNIT_SQUARE)):
        with pytest.raises(ValueError, match=f"^dimension mismatch: {a.dim} vs {b.dim}$"):
            find_subset_violation(a, b)


def test_regions_equal_examples():
    assert regions_equal(UNIT_SIMPLEX, UNIT_SIMPLEX)
    redundant = R(
        2,
        [((1, 1), 1.0), ((2, 2), 2.0), ((1, 0), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)],
    )
    assert regions_equal(UNIT_SIMPLEX, redundant)
    assert not regions_equal(UNIT_SIMPLEX, UNIT_SQUARE)


def test_subset_test_with_an_empty_left_region_raises():
    # Every row of the right region holds vacuously on an empty left region.
    with pytest.raises(InfeasibleRegionError, match="empty region"):
        is_subset(EMPTY, UNIT_SQUARE)
    with pytest.raises(InfeasibleRegionError, match="empty region"):
        is_subset(EMPTY, Region(2, ()))  # a right region with no row to test
    # A non-empty region is never inside an empty one.
    assert not is_subset(UNIT_SQUARE, EMPTY)


def test_equality_of_empty_regions_raises():
    with pytest.raises(InfeasibleRegionError, match="empty region"):
        regions_equal(EMPTY, EMPTY)
    assert not regions_equal(UNIT_SQUARE, EMPTY)


def test_phase1_pivots_happen_once_per_region_form(monkeypatch):
    # The slack basis violates -x1-x2 <= -1.  Phase 1 (two pivots) runs with
    # the first query only; the later queries pay phase 2 alone.
    region = R(2, [((-1, -1), -1.0), ((1, 0), 3.0), ((0, 1), 3.0)])
    pivot, made = lp._pivot, []
    monkeypatch.setattr(lp, "_pivot", lambda *a: made.append(1) or pivot(*a))
    pivots = []
    for direction, value in (((1.0, 0.0), 3.0), ((1.0, 1.0), 6.0), ((-1.0, 0.0), 2.0)):
        made.clear()
        assert support_value(region, direction) == value
        pivots.append(len(made))
    assert pivots == [3, 2, 2]


def test_one_region_gives_each_tol_its_own_phase1_verdict():
    # x <= 0 and x >= 5e-8: empty at tol 1e-9, a point within tol 1e-6.
    region = R(1, [((1,), 0.0), ((-1,), -5e-8)])
    for tol in (1e-9, 1e-6, 1e-9, 1e-6):
        if tol == 1e-9:
            with pytest.raises(InfeasibleRegionError, match="empty region"):
                support_value(region, (1.0,), tol=tol)
        else:
            assert support_value(region, (1.0,), tol=tol) == pytest.approx(0.0, abs=1e-6)
        assert region._lp_form(tol).tol == tol


def test_repeated_support_queries_reuse_recorded_bases(monkeypatch):
    # A 3-D aggregate region of a seeded K=3 channel, as `compare` queries
    # it: 100 random directions on one region take at most half the pivots
    # of a fresh region per direction, with the same values.
    rng = random.Random(0)
    spec = random_injective_channel(rng, 3, 4)
    table = build_entropy_table(spec, random_full_support(rng, spec))
    region = project_to_aggregate(build_A1(spec, table))
    assert region.dim == 3
    directions = [[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(100)]
    pivot, made = lp._pivot, []
    monkeypatch.setattr(lp, "_pivot", lambda *a: made.append(1) or pivot(*a))
    fresh = [support_value(copy.copy(region), d) for d in directions]
    cold = len(made)
    made.clear()
    assert [support_value(region, d) for d in directions] == pytest.approx(fresh, rel=1e-12)
    assert 2 * len(made) <= cold
    # The first row of a tighter region that the queried region exceeds is
    # the one an unqueried copy reports.
    tighter = R(3, [(c, r * 0.9 if i % 2 else r) for i, (c, r) in enumerate(zip(region.lhs, region.rhs))])
    ineq, value = find_subset_violation(region, tighter)
    expected = find_subset_violation(copy.copy(region), tighter)
    assert ineq == expected[0] and value == pytest.approx(expected[1], rel=1e-12)


def test_support_values_on_simplex():
    assert support_value(UNIT_SIMPLEX, (1.0, 1.0)) == pytest.approx(1.0, abs=1e-9)
    assert support_value(UNIT_SIMPLEX, (1.0, 0.0)) == pytest.approx(1.0, abs=1e-9)
    assert support_value(UNIT_SIMPLEX, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-9)


def test_support_value_unbounded_signaled():
    halfplane = R(2, [((-1, 0), 0.0), ((0, -1), 0.0)])
    with pytest.raises(UnboundedDirectionError):
        support_value(halfplane, (1.0, 0.0))


def assert_points(actual, expected, tol=1e-9):
    assert len(actual) == len(expected)
    for p, q in zip(actual, expected):
        assert max(abs(a - b) for a, b in zip(p, q)) <= tol, (actual, expected)


def test_vertices_simplex():
    assert_points(vertices(UNIT_SIMPLEX), [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])


def test_vertices_square():
    assert_points(
        vertices(UNIT_SQUARE), [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    )


def test_vertices_unbounded_names_direction():
    region = R(2, [((1, 0), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)], labels=("R1", "R2"))
    with pytest.raises(UnboundedDirectionError, match=r"\+R2"):
        vertices(region)


def test_vertices_dim_guard():
    region = R(4, [(q.coeffs, q.rhs) for q in nonneg_inequalities(4)])
    with pytest.raises(ValueError, match="dim <= 3"):
        vertices(region)


def test_vertices_of_a_zero_dimensional_region():
    # Every row is 0 <= b: the one point () when all hold, else empty.
    assert vertices(Region(0, [])) == [()]
    assert vertices(R(0, [((), 1.0), ((), 0.0)])) == [()]
    with pytest.raises(InfeasibleRegionError, match=r"^the system implies 0 <= -1\.0$"):
        vertices(R(0, [((), 1.0), ((), -1.0)]))


def test_vertices_degenerate_point():
    point = R(2, [((1, 0), 0.0), ((-1, 0), 0.0), ((0, 1), 0.0), ((0, -1), 0.0)])
    assert vertices(point) == [(0.0, 0.0)]


def test_vertices_have_no_negative_zero():
    # Solving on -x_j <= 0 rows gives -0.0, which a plot printed as "-0".
    cube = R(3, [((1, 0, 0), 1.0), ((0, 1, 0), 1.0), ((0, 0, 1), 1.0), ((1, 1, 1), 2.0)]
             + [(q.coeffs, q.rhs) for q in nonneg_inequalities(3)])
    for region in (UNIT_SIMPLEX, UNIT_SQUARE, cube):
        assert [v for p in vertices(region) for v in p if math.copysign(1.0, v) < 0] == []
    assert [tuple(map(repr, p)) for p in vertices(UNIT_SIMPLEX)] == [
        ("0.0", "0.0"), ("0.0", "1.0"), ("1.0", "0.0")]


def interval_feasible(region, idx, partial, tol=1e-9):
    """Oracle: is there a value t such that (partial with t at idx) is feasible?

    Exact for a single eliminated variable: each inequality bounds t by an
    interval; feasibility is a nonempty intersection.
    """
    lo, hi = -float("inf"), float("inf")
    for ineq in region.inequalities:
        a = ineq.coeffs[idx]
        rest = sum(c * x for k, (c, x) in enumerate(zip(ineq.coeffs, partial)) if k != idx)
        slack = ineq.rhs - rest
        if a > 0:
            hi = min(hi, slack / a)
        elif a < 0:
            lo = max(lo, slack / a)
        elif slack < -tol:
            return False
    return lo <= hi + tol


def test_projection_soundness_against_interval_oracle():
    rng = random.Random(4)
    for _ in range(40):
        dim = rng.randint(2, 4)
        rows = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), float(rng.randint(-5, 10)))
            for _ in range(rng.randint(2, 8))
        ]
        region = R(dim, rows)
        idx = rng.randrange(dim)
        try:
            projected = fm_eliminate(region, idx)
        except InfeasibleRegionError:
            # Oracle agrees: no partial point can be lifted.
            grid = itertools.product(range(-3, 4), repeat=dim - 1)
            assert not any(
                interval_feasible(region, idx, _insert(p, idx, 0.0)) for p in grid
            )
            continue
        for _ in range(30):
            p = tuple(rng.uniform(-4, 4) for _ in range(dim - 1))
            inside = contains_point(projected, p, 1e-9)
            liftable = interval_feasible(region, idx, _insert(p, idx, 0.0))
            assert inside == liftable, (rows, idx, p)


def _insert(partial, idx, value):
    out = list(partial)
    out.insert(idx, value)
    return tuple(out)


def test_elimination_order_does_not_change_set():
    rng = random.Random(5)
    for _ in range(15):
        dim = 3
        rows = [
            (tuple(rng.randint(-2, 3) for _ in range(dim)), float(rng.randint(0, 8)))
            for _ in range(rng.randint(3, 7))
        ]
        rows += [(q.coeffs, q.rhs) for q in nonneg_inequalities(dim)]
        region = R(dim, rows)
        a = fm_eliminate(fm_eliminate(region, 2), 1)  # drop x3 then x2
        b = fm_eliminate(fm_eliminate(region, 1), 1)  # drop x2 then x3 (shifted index)
        assert regions_equal(a, b, 1e-9)


def test_vertex_hull_round_trip():
    rng = random.Random(6)
    for region in (UNIT_SIMPLEX, UNIT_SQUARE):
        verts = vertices(region)
        for _ in range(100):
            direction = tuple(rng.uniform(-1, 1) for _ in range(region.dim))
            hull_val = max(sum(d * v for d, v in zip(direction, vert)) for vert in verts)
            assert support_value(region, direction) == pytest.approx(hull_val, abs=1e-8)


def test_canonicalize_scales_and_sorts():
    region = R(2, [((2, 2), 2.0), ((-3, 0), 0.0), ((0, -1), 0.0)])
    canon = canonicalize(region)
    assert [(q.coeffs, q.rhs) for q in canon.inequalities] == [
        ((-1, 0), 0.0),
        ((0, -1), 0.0),
        ((1, 1), 1.0),
    ]


def _zero_row_through_fm(b):
    # x <= 0 and -x <= b combine to 0 <= b.
    return fm_eliminate(R(1, [((1,), 0.0), ((-1,), b)]), 0), ()


def _zero_row_through_canonicalize(b):
    return canonicalize(R(1, [((0,), b), ((1,), 1.0)])), ((1,),)


def _zero_row_through_pinned_slice(b):
    from dicregion.hk_region import project_to_aggregate, split_labels

    # R1p <= 0 and -R1p <= 0 pin R1p, so dropping its column leaves R1p <= b as 0 <= b.
    rows = [((1, 0), 0.0), ((-1, 0), 0.0), ((1, 0), b), ((0, 1), 1.0), ((0, -1), 0.0)]
    return project_to_aggregate(R(2, rows, split_labels(1))), ((-1,), (1,))


@pytest.mark.parametrize(
    "through", [_zero_row_through_fm, _zero_row_through_canonicalize, _zero_row_through_pinned_slice]
)
def test_zero_rows_follow_one_rule(through):
    tol = 1e-9  # the default of every path
    with pytest.raises(InfeasibleRegionError, match=r"0 <= -1\.0"):
        through(-1.0)
    region, kept_lhs = through(-tol / 2)
    assert region.lhs == kept_lhs


def test_integer_coefficients_enforced():
    with pytest.raises(ValueError, match="integer"):
        LinearInequality((0.5, 1), 1.0)
    with pytest.raises(ValueError, match="integer"):
        LinearInequality((1.5,), 1.0)
    LinearInequality((2.0, 1), 1.0)  # exact integers in float form are fine


def test_exact_int_coefficients_are_kept_and_others_coerced():
    coeffs = (1, -2, 0)
    assert LinearInequality(coeffs, 1).coeffs is coeffs
    for given in ((True, 2), (np.int64(1), 2), [1.0, 2]):
        q = LinearInequality(given, 1)
        assert q.coeffs == (1, 2) and all(type(c) is int for c in q.coeffs)


def test_region_is_immutable_and_compares_by_rows():
    a = UNIT_SIMPLEX
    b = R(2, [((1, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)])
    assert a == b and hash(a) == hash(b)
    assert a != R(2, [((1, 1), 0.5), ((-1, 0), 0.0), ((0, -1), 0.0)])
    with pytest.raises(AttributeError):
        a.dim = 3
    with pytest.raises(ValueError):
        a.rhs[0] = 2.0
    A, rhs = a.matrix()
    A[0, 0] = rhs[0] = 9.0
    assert a.inequalities[0] == LinearInequality((1, 1), 1.0)


def test_region_survives_copy_and_pickle():
    region = R(2, [((1, 2), 0.1), ((-1, 0), 0.0), ((0, -1), -0.0)], labels=("u", "v"))
    for clone in (copy.copy(region), copy.deepcopy(region), pickle.loads(pickle.dumps(region))):
        assert clone == region and hash(clone) == hash(region)
        assert clone.labels == ("u", "v") and clone.rhs.tobytes() == region.rhs.tobytes()
        with pytest.raises(AttributeError):
            clone.dim = 3


def _highs_support(region, direction):
    """max direction . x over the region by scipy/HiGHS: a value, None when
    unbounded, "empty" when infeasible."""
    A, b = region.matrix()
    free = dict(A_ub=A, b_ub=b, bounds=(None, None), method="highs")
    ref = linprog(-np.asarray(direction, dtype=float), **free)
    if ref.status == 0:
        return -ref.fun
    if ref.status == 2:  # HiGHS says infeasible for some unbounded free-variable LPs
        feasible = linprog(np.zeros(region.dim), **free)
        return "empty" if feasible.status == 2 else None
    assert ref.status == 3
    return None


@functools.cache
def _seeded_regions():
    """Aggregate regions of seeded K=2 and K=3 channels (2-D and 3-D, bounded)."""
    regions = []
    for K, seed in ((2, 0), (2, 1), (3, 0), (3, 1)):
        rng = random.Random(f"oracle/{K}/{seed}")
        spec = random_injective_channel(rng, K, 3)
        table = build_entropy_table(spec, random_full_support(rng, spec))
        regions.append(project_to_aggregate(build_A1(spec, table)))
    return regions


# rhs shifts: within tol of a row, just beyond it, and far from it.
SHIFTS = (0.0, 0.5e-9, -0.5e-9, 2e-9, -2e-9, 1e-5, -1e-5, 1e-2, -1e-2, 0.3, -0.3)
BAND = 1e-7  # where HiGHS cannot tell a bound from a violation


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_containment_matches_highs_on_rows_dropped_shifted_and_added(data):
    # `a` is a seeded region, some rows doubled at a looser rhs; `b` keeps
    # some of its rows, shifts their rhs and adds rows of its own.  The
    # answer is None exactly when HiGHS bounds every row of b over a by its
    # rhs + tol, outside a band where the two solvers' rounding decides.
    base = data.draw(st.sampled_from(_seeded_regions()))
    rows = list(zip(base.lhs, base.rhs.tolist()))
    loose = [(c, r + 0.5) for c, r in rows if data.draw(st.booleans())]
    a = Region._from_rows(base.dim, *zip(*data.draw(st.permutations(rows + loose))))
    b_rows = [(c, r + data.draw(st.sampled_from(SHIFTS))) for c, r in rows if data.draw(st.booleans())]
    coeffs = st.lists(st.integers(-2, 2), min_size=base.dim, max_size=base.dim).map(tuple)
    for c in data.draw(st.lists(coeffs, max_size=3)):
        b_rows.append((c, _highs_support(base, c) + data.draw(st.sampled_from(SHIFTS))))
    b_rows = data.draw(st.permutations(b_rows))
    b = Region._from_rows(base.dim, [c for c, _ in b_rows], [r for _, r in b_rows])
    tol = 1e-9
    margins = [_highs_support(a, c) - (r + tol) for c, r in b_rows]
    result = find_subset_violation(a, b, tol)
    if result is None:
        assert all(m < BAND for m in margins)
    else:
        ineq, value = result
        k = b_rows.index((ineq.coeffs, ineq.rhs))
        assert margins[k] > -BAND and value > ineq.rhs + tol
        assert all(m < BAND for m in margins[:k])  # the first row exceeded
    if all(m < -BAND for m in margins):
        assert result is None
    if any(m > BAND for m in margins):
        assert result is not None


def _answer(region, direction):
    try:
        return support_value(region, direction)
    except UnboundedDirectionError:
        return None
    except InfeasibleRegionError:
        return "empty"


def test_region_repr_shows_its_rows_and_labels():
    region = R(2, [((1, 1), 1.0), ((-1, 0), 0.0)], ("a", "b"))
    assert repr(region) == (
        "Region(dim=2, inequalities=(LinearInequality(coeffs=(1, 1), rhs=1.0), "
        "LinearInequality(coeffs=(-1, 0), rhs=0.0)), labels=('a', 'b'))"
    )
    assert repr(Region(0, [])) == "Region(dim=0, inequalities=(), labels=())"


def test_region_lp_form_matches_highs_and_keeps_no_query_state():
    # Random regions: -x_j <= 0 rows (some duplicated) become bounds, some
    # rhs < 0 take phase 1, some directions are unbounded, some regions empty.
    rng = random.Random(12)
    seen = {"bounds": 0, "phase 1": 0, "unbounded": 0, "empty": 0, "subset": 0, "not subset": 0}
    for _ in range(100):
        dim = rng.randint(1, 4)
        rows = [(tuple(rng.randint(-3, 3) for _ in range(dim)), float(rng.randint(-2, 8)))
                for _ in range(rng.randint(0, 7))]
        for j in rng.sample(range(dim), rng.randint(0, dim)):
            rows += [(tuple(-1 if k == j else 0 for k in range(dim)), 0.0)] * rng.randint(1, 2)
        rng.shuffle(rows)
        region = R(dim, rows)
        bounds = sum(_plain_sign_row(c, r) for c, r in rows)
        assert len(region._lp_form()) == len(rows) - bounds  # bound rows are no rows
        seen["bounds"] += bounds > 0
        seen["phase 1"] += any(r < 0 for _, r in rows)
        directions = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(6)]
        answers = [_answer(region, d) for d in directions]
        for d, ours in zip(directions, answers):
            ref = _highs_support(region, d)
            if ours is None or ours == "empty":
                assert ours == ref
            else:
                assert ours == pytest.approx(ref, abs=1e-7)
            seen["unbounded"] += ours is None
        seen["empty"] += answers[0] == "empty"
        # Shuffled, so queries follow unbounded ones and other optima: the
        # bases the form recorded change no answer.
        order = rng.sample(range(len(directions)), len(directions))
        assert [_answer(region, directions[i]) for i in order] == [answers[i] for i in order]
        clone = pickle.loads(pickle.dumps(region))
        assert clone == region and hash(clone) == hash(region)
        assert pickle.dumps(region) == pickle.dumps(R(dim, rows))  # the LP form is not pickled
        for twin in (clone, copy.copy(region)):
            assert [_answer(twin, d) for d in directions] == answers
        # Containment of a region in its rows shifted by 0 or +-1/2.
        other = R(dim, [(c, r + rng.choice([0.0, 0.5, -0.5])) for c, r in rows])
        if answers[0] == "empty":
            if other.lhs:
                with pytest.raises(InfeasibleRegionError):
                    find_subset_violation(region, other)
            continue
        refs = [_highs_support(region, c) for c in other.lhs]
        if any(v is not None and abs(v - r) < 1e-6 for v, r in zip(refs, other.rhs)):
            continue  # a tie decided by the tolerance
        expected = all(v is not None and v <= r for v, r in zip(refs, other.rhs))
        assert is_subset(region, other) == expected
        seen["subset" if expected else "not subset"] += 1
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf])
def test_tolerance_must_be_a_finite_number_at_least_zero(tol):
    # A negative tol used to reach the simplex, where a ratio test found no
    # row (argmin of an empty sequence) or divided by zero.
    box = R(2, [(q.coeffs, q.rhs) for q in UNIT_SQUARE.inequalities] + [((1, 1), 1.5)])
    with pytest.raises(ValueError, match=r"^tolerance must be a finite number >= 0, got "):
        lp.System(*box.matrix(), tol=tol)
    with pytest.raises(ValueError, match=r"^tolerance must be a finite number >= 0, got "):
        support_value(box, [1, 1], tol=tol)
    with pytest.raises(ValueError, match=r"^prune tolerance must be at least 0 and below 1, got "):
        prune_redundant(box, tol=tol)


def test_prune_rejects_tolerance_of_one_or_more():
    # Each LP caps its row 1 above b_k, so at tol 1 every capped value is
    # within tol: x <= 1 would be dropped, leaving only x >= 0.
    region = R(1, [((1,), 1.0), ((-1,), 0.0)])
    for tol in (1.0, 1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="below 1"):
            prune_redundant(region, tol=tol)
    assert prune_redundant(region, tol=0.5) == region


def test_region_json_round_trip(tmp_path):
    path = tmp_path / "region.json"
    save_region(UNIT_SIMPLEX, path)
    again = load_region(path)
    assert again == UNIT_SIMPLEX
    assert region_from_dict(region_to_dict(UNIT_SQUARE)) == UNIT_SQUARE
    # A numpy dim used to be kept as given, and json could not write it.
    save_region(Region._from_rows(np.int64(2), UNIT_SIMPLEX.lhs, UNIT_SIMPLEX.rhs), path)
    assert load_region(path) == UNIT_SIMPLEX


def test_a_region_file_nested_deeper_than_the_recursion_limit_is_a_value_error(tmp_path):
    # json's RecursionError used to escape load_region.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="^JSON nested deeper than the recursion limit$"):
        load_region(path)


@pytest.mark.parametrize("rhs", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_region_document_rejects_non_finite_rhs(rhs):
    doc = region_to_dict(UNIT_SIMPLEX)
    doc["inequalities"][0]["rhs"] = rhs
    with pytest.raises(ValueError, match="non-finite"):
        region_from_dict(doc)


@pytest.mark.parametrize("rhs", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_every_region_rejects_non_finite_rhs(rhs):
    # A nan bound on x1 used to load: support_value in x1 then raised numpy's
    # "argmin of an empty sequence", contains_point((5, 0.5)) answered True
    # and prune_redundant kept the nan row.
    rows = [((1, 0), rhs), ((0, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)]
    with pytest.raises(ValueError, match="non-finite"):
        R(2, rows)
    with pytest.raises(ValueError, match="non-finite"):
        Region._from_rows(2, [c for c, _ in rows], [r for _, r in rows])


def test_region_labels_must_be_strings():
    # Integer labels used to load, and plotting the region then raised
    # AttributeError on int.replace.
    doc = region_to_dict(UNIT_SIMPLEX)
    doc["labels"] = [1, 2]
    with pytest.raises(ValueError, match="labels must be strings"):
        region_from_dict(doc)
    with pytest.raises(ValueError, match="labels must be strings"):
        Region._from_rows(2, UNIT_SIMPLEX.lhs, UNIT_SIMPLEX.rhs, ("x1", None))


def test_region_labels_and_rows_must_fit_the_dimension():
    with pytest.raises(ValueError, match="^3 labels for dimension 2$"):
        R(2, [((1, 1), 1.0)], labels=("u", "v", "w"))
    with pytest.raises(ValueError, match=r"^inequality 2: coeffs \[1, 0, 1\] have arity 3, not dim 2$"):
        R(2, [((1, 1), 1.0), ((1, 0, 1), 1.0)])
    with pytest.raises(ValueError, match=r"^inequality 1: coeffs \[1\] have arity 1, not dim 2$"):
        Region._from_rows(2, [(1,)], [1.0])


@pytest.mark.parametrize(
    "labels", ["ab", {"a": 0, "b": 1}, frozenset("ab"), iter("ab"), False],
    ids=["string", "dict", "set", "iterator", "false"],
)
def test_region_labels_are_a_list_or_a_tuple(labels):
    # A string, a dict, a set and an iterator used to give the labels
    # ('a', 'b'), the set in either order; False gave x1, x2.
    message = f"^labels must be a list of strings, got {re.escape(repr(labels))}$"
    with pytest.raises(TypeError, match=message):
        R(2, [((1, 1), 1.0)], labels=labels)
    with pytest.raises(TypeError, match=message):
        Region._from_rows(2, [(1, 1)], [1.0], labels)


def test_region_labels_none_or_empty_mean_x1_to_xn():
    for labels in (None, (), []):
        assert R(2, [((1, 1), 1.0)], labels=labels).labels == ("x1", "x2")
    assert Region._from_rows(2, [(1, 1)], [1.0], None).labels == ("x1", "x2")
    assert R(2, [((1, 1), 1.0)], labels=["u", "v"]).labels == ("u", "v")


def test_region_document_coefficients_stop_at_two_to_the_53():
    # Above 2^53 a float no longer holds every integer, so the LP would test
    # another row than the file's; 10^400 used to raise OverflowError.
    doc = region_to_dict(UNIT_SIMPLEX)
    doc["inequalities"][0]["coeffs"] = [2**53, 1]
    assert region_from_dict(doc).lhs[0] == (2**53, 1)
    for big in (2**53 + 1, -(2**53) - 1, 10**400):
        doc["inequalities"][0]["coeffs"] = [1, big]
        with pytest.raises(ValueError, match="exceeds 2\\^53"):
            region_from_dict(doc)


def test_every_region_stops_coefficients_at_two_to_the_53():
    # Python ints used to grow without bound, and the float LP then tested
    # another row than the region's.
    message = r"^inequality {}: coefficient {} exceeds 2\^53, beyond the integers a float holds exactly$"
    with pytest.raises(ValueError, match=message.format(1, 2**53 + 1)):
        Region(2, [LinearInequality((2**53 + 1, 0), 1.0)])
    with pytest.raises(ValueError, match=message.format(2, "of 1329 bits")):
        Region(2, [LinearInequality((1, 0), 1.0), LinearInequality((0, -(10**400)), 1.0)])
    with pytest.raises(ValueError, match=message.format(2, -(2**53) - 1)):
        Region._from_rows(2, np.array([[1, 0], [0, -(2**53) - 1]]), [1.0, 1.0])
    edge = ((2**53, -(2**53)),)
    assert Region(2, [LinearInequality(edge[0], 1.0)]).lhs == edge
    assert Region._from_rows(2, np.array(edge), [1.0]).lhs == edge


def test_elimination_stops_before_a_coefficient_beyond_two_to_the_53():
    # Each pair multiplies coefficients, so they outgrow int64 within a few
    # eliminations; the bound is tested before any product is taken.
    message = (r"^eliminating {}: combined coefficients may reach {}, beyond 2\^53, "
               r"the integers a float holds exactly$")
    for rows, label, reach in (
        ([((1, 2**52 + 1), 1.0), ((-1, 2**52), 1.0)], "x1", 2**53 + 1),
        ([((2**27, 2**27), 1.0), ((-(2**27), 1), 1.0)], "x1", 2**54 + 2**27),
        ([((1, 2**40), 1.0), ((2**40, -1), 1.0)], "x2", 2**80 + 1),
    ):
        with pytest.raises(ValueError, match=message.format(label, reach)):
            fm_eliminate(R(2, rows), label)
    # A combined coefficient of exactly 2^53 is still exact.
    out = fm_eliminate(R(2, [((1, 2**52), 1.0), ((-1, 2**52), 1.0)]), "x1")
    assert (out.lhs, out.rhs.tolist()) == (((2**53,),), [2.0])


# Rows of the kernel test: right-hand sides with -0.0 beside 0.0 and zero
# rows on both sides of -tol.
KERNEL_RHS = st.sampled_from([-1.0, -1e-10, -0.0, 0.0, 0.5, 1.0, 2.5]) | st.floats(-3, 3)


@st.composite
def kernel_regions(draw):
    """Regions with mixed-sign columns, rows repeated at their rhs or another,
    and zero rows at rhs -1, -1e-10, -0.0, 0.0 or 1, in any order."""
    dim = draw(st.integers(1, 4))
    coeffs = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    rows = draw(st.lists(st.tuples(coeffs, KERNEL_RHS), max_size=12))
    rows += [(c, draw(st.sampled_from([r, -r, r + 1.0, -0.0, 0.0]))) for c, r in rows if draw(st.booleans())]
    zeros = draw(st.lists(st.sampled_from([-1.0, -1e-10, -0.0, 0.0, 1.0]), max_size=2))
    rows = draw(st.permutations(rows + [((0,) * dim, r) for r in zeros]))
    return Region._from_rows(dim, [c for c, _ in rows], [r for _, r in rows])


def _same_bytes_or_error(run, reference_run):
    """run() gives reference_run()'s region byte for byte (lhs, rhs bytes,
    labels), or raises the InfeasibleRegionError it raises."""
    try:
        want = reference_run()
    except InfeasibleRegionError as exc:
        with pytest.raises(InfeasibleRegionError, match=f"^{re.escape(str(exc))}$"):
            run()
        return
    got = run()
    assert (got.lhs, got.rhs.tobytes(), got.labels) == (want.lhs, want.rhs.tobytes(), want.labels)


@settings(max_examples=300, deadline=None)
@given(kernel_regions())
@example(R(2, [((1, -1), 1.0), ((1, -1), 1.0), ((1, -1), 0.5), ((-1, 2), -0.0), ((-1, 2), 0.0),
               ((2, 1), 0.0), ((0, 0), 0.0), ((-1, 0), -0.0), ((0, -1), 0.0), ((0, -1), -0.0)]))
@example(R(2, [((1, 1), -0.0), ((-1, 1), -0.0), ((0, 2), 0.0), ((0, 0), -1e-10), ((2, -3), 1.0)]))
@example(R(2, [((1, 0), 1.0), ((-1, 0), -1.0), ((0, 1), 2.0), ((0, 0), 0.0)]))  # a pair sums to 0 <= 0
@example(R(2, [((1, 3), 1.0), ((-1, 0), -2.0), ((0, 0), -1e-10), ((0, 0), -1.0)]))  # 0 <= -1
def test_the_matrix_kernel_matches_the_tuple_reference_byte_for_byte(region):
    lhs = region.lhs
    best = reference.tightest(zip(lhs, region.rhs.tolist()))
    keep = polytope._tightest(region.A, region.rhs).tolist()
    assert [lhs[k] for k in keep] == list(best)
    assert region.rhs[keep].tobytes() == np.array(list(best.values()), dtype=float).tobytes()
    for idx in range(region.dim):
        _same_bytes_or_error(lambda: fm_eliminate(region, idx), lambda: reference.fm_eliminate(region, idx))
    _same_bytes_or_error(lambda: canonicalize(region), lambda: reference.canonicalize(region))


def test_variables_are_labels_or_integer_indices():
    # 1.7 and True were truncated to index 1 and eliminated x2.
    for var in (1.7, True, np.float64(1.0), None):
        with pytest.raises(ValueError, match="a label or an integer index"):
            fm_eliminate(UNIT_SQUARE, var)
    for var in (1, np.int64(1), "x2"):
        assert fm_eliminate(UNIT_SQUARE, var).labels == ("x1",)
    with pytest.raises(ValueError, match="^no variable labeled 'x3'$"):
        fm_eliminate(UNIT_SQUARE, "x3")
    for var in (2, -1):
        with pytest.raises(ValueError, match=f"^variable index {var} out of range for dim 2$"):
            fm_eliminate(UNIT_SQUARE, var)


def test_region_rejects_duplicate_labels():
    # A region file labelled R1, R1 used to load, and eliminating "R1" then
    # silently took the first column.
    doc = region_to_dict(R(2, [((1, 1), 1.0)], labels=("R1", "R2")))
    doc["labels"] = ["R1", "R1"]
    with pytest.raises(ValueError, match="duplicate labels"):
        region_from_dict(doc)
    with pytest.raises(ValueError, match="duplicate labels"):
        Region._from_rows(3, [(1, 0, 0)], [1.0], ("u", "v", "u"))


def test_support_value_rejects_a_non_finite_or_misshaped_direction():
    # A nan direction used to come back as a nan support value, and a
    # non-finite one read as the LP's "objective must be ..." message.
    for direction in ([math.nan, 1.0], [math.inf, 0.0], [1.0], [1.0, 1.0, 1.0],
                      1.0, [[1.0], [0.0]], [[1, 0], [0, 1]]):
        with pytest.raises(ValueError, match="^direction must be 2 finite numbers"):
            support_value(UNIT_SQUARE, direction)
    # A bad tolerance still reads as the LP form's own message.
    with pytest.raises(ValueError, match="tolerance must be"):
        support_value(copy.copy(UNIT_SQUARE), (1.0, 0.0), tol=-1.0)


def test_a_non_finite_direction_is_rejected_before_an_empty_region_is_reported():
    for direction in ([math.nan, 1.0], [math.inf, 0.0]):
        with pytest.raises(ValueError, match="^direction must be 2 finite numbers"):
            support_value(EMPTY, direction)


def test_a_seeded_compare_makes_a_pinned_number_of_pivots(monkeypatch):
    # What `dicregion compare` does on one K=3 channel: both containments,
    # then 100 seeded support directions on each region.  Bland's rule alone
    # sets the count, not how the objective map is kept.  The two routes
    # give the same rows and rhs bytes, so the rows decide containment and
    # the regions share one form: thm's queries reuse hk's bases, 21 pivots
    # in all (42 when each region posed its own LPs) and 10 recorded bases.
    # Each direction's second query repeats the first on the same form, so
    # it gets the first's LPResult from the form's slot: the form tests its
    # bases once per direction.
    spec = random_injective_channel(random.Random("pin/3"), 3, 3)
    table = build_entropy_table(spec, InputDistribution.uniform(spec))
    hk, thm = project_to_aggregate(build_A1(spec, table)), enumerate_facets(spec, table)
    pivot, made = lp._pivot, []
    monkeypatch.setattr(lp, "_pivot", lambda *a: made.append(a[3:]) or pivot(*a))
    maximize, answers = lp.maximize, []
    monkeypatch.setattr(lp, "maximize", lambda *a: answers.append(maximize(*a)) or answers[-1])
    assert polytope.compare(hk, thm, random.Random(0)) is None
    assert len(made) == 21
    assert hk._lp_form() is thm._lp_form()
    assert len(hk._lp_form().recorded[1]) == 10
    assert len(answers) == 200 and all(vb is va for va, vb in zip(answers[::2], answers[1::2]))
    assert len({id(va) for va in answers[::2]}) == 100


def _count_maximize(monkeypatch):
    calls, maximize = [], lp.maximize
    # Each objective as a tuple: a row of a region's matrix reads as its coefficients.
    monkeypatch.setattr(lp, "maximize", lambda *a: calls.append(tuple(np.asarray(a[0]).tolist())) or maximize(*a))
    return calls


def test_rows_of_the_left_region_decide_containment_with_no_lp(monkeypatch):
    calls = _count_maximize(monkeypatch)
    # Each row of b is a row of the square, at its rhs or looser, in any order.
    looser = R(2, [((0, 1), 1.5), ((-1, 0), 0.0), ((1, 0), 1.0)])
    assert find_subset_violation(UNIT_SQUARE, looser) is None
    assert find_subset_violation(UNIT_SQUARE, R(2, [])) is None
    # A duplicated left-hand side counts at its tightest rhs.
    doubled = R(2, [((1, 0), 3.0), *zip(UNIT_SQUARE.lhs, UNIT_SQUARE.rhs)])
    assert find_subset_violation(doubled, UNIT_SQUARE) is None
    assert calls == []
    # A row the square does not have takes the LPs, in b's order.
    assert find_subset_violation(UNIT_SQUARE, UNIT_SIMPLEX) == (LinearInequality((1, 1), 1.0), 2.0)
    assert calls and calls[0] == (1, 1)


def test_an_empty_left_region_raises_before_the_row_test(monkeypatch):
    calls = _count_maximize(monkeypatch)
    for right in (EMPTY, R(2, [((-1, 0), 0.0)]), R(2, [])):
        with pytest.raises(InfeasibleRegionError, match="empty region"):
            find_subset_violation(EMPTY, right)
    assert calls == []


def test_rows_that_match_within_tol_return_none(monkeypatch):
    calls = _count_maximize(monkeypatch)
    square = R(2, [((1, 0), 1.0 + 0.9e-9), *zip(UNIT_SQUARE.lhs[1:], UNIT_SQUARE.rhs[1:])])
    assert find_subset_violation(square, UNIT_SQUARE) is None
    assert calls == []
    # Beyond tol the LP runs and reports the row with its attained value.
    wider = R(2, [((1, 0), 1.0 + 2e-9), *zip(UNIT_SQUARE.lhs[1:], UNIT_SQUARE.rhs[1:])])
    ineq, value = find_subset_violation(wider, UNIT_SQUARE)
    assert ineq == LinearInequality((1, 0), 1.0) and value == pytest.approx(1.0 + 2e-9, abs=1e-15)
    assert calls == [(1, 0)]
    assert find_subset_violation(wider, UNIT_SQUARE, tol=1e-8) is None


def test_row_identical_regions_share_one_lp_form():
    a, b = copy.copy(UNIT_SIMPLEX), copy.copy(UNIT_SIMPLEX)
    assert find_subset_violation(a, b) is None
    assert b._lp_form() is a._lp_form()
    assert support_value(b, (1.0, 2.0)) == 2.0 and len(a._lp_form().recorded[1]) == 1
    assert support_value(a, (1.0, 2.0)) == 2.0 and len(a._lp_form().recorded[1]) == 1
    # The form is a cache: equality, copy and pickle do not see it.
    assert b == UNIT_SIMPLEX and copy.copy(b)._lp is None and pickle.loads(pickle.dumps(b))._lp is None
    # A form at another tol is replaced by the shared one; the left region
    # never adopts the right one's.
    c, d = copy.copy(UNIT_SIMPLEX), copy.copy(UNIT_SIMPLEX)
    own = d._lp_form(1e-6)
    assert find_subset_violation(c, d) is None
    assert d._lp_form() is c._lp_form() and d._lp_form() is not own
    e = copy.copy(UNIT_SIMPLEX)
    assert find_subset_violation(e, d) is None and e._lp_form() is not d._lp_form()


def test_a_one_ulp_rhs_difference_keeps_two_forms():
    a = copy.copy(UNIT_SQUARE)
    b = R(2, [((1, 0), math.nextafter(1.0, 2.0)), *zip(UNIT_SQUARE.lhs[1:], UNIT_SQUARE.rhs[1:])])
    assert find_subset_violation(a, b) is None and find_subset_violation(b, a) is None
    assert a._lp_form() is not b._lp_form()
    # -0.0 and 0.0 are equal values but not equal bytes.
    c = R(2, [*zip(UNIT_SQUARE.lhs[:3], UNIT_SQUARE.rhs[:3]), ((0, -1), -0.0)])
    assert find_subset_violation(a, c) is None and a._lp_form() is not c._lp_form()


def test_a_region_with_its_own_form_at_that_tol_keeps_it():
    a, b = copy.copy(UNIT_SQUARE), copy.copy(UNIT_SQUARE)
    own = b._lp_form()
    assert support_value(b, (1.0, 1.0)) == 2.0
    assert find_subset_violation(a, b) is None
    assert b._lp_form() is own and a._lp_form() is not own and len(own.recorded[1]) == 1


def test_compare_returns_the_first_difference_of_each_kind():
    small = R(2, [((1, 0), 0.1), ((0, 1), 0.1), ((-1, 0), 0.0), ((0, -1), 0.0)])
    raised = R(2, [((1, 0), 0.1 + 0.9e-9), ((0, 1), 0.1 + 0.9e-9),
                   ((-1, 0), 0.9e-9), ((0, -1), 0.9e-9)])
    half_plane = R(2, [((1, 1), 1.0)])
    x1_below_minus_1 = LinearInequality((1, 0), -1.0)
    x1_nonneg, x1_plus_x2 = LinearInequality((-1, 0), 0.0), LinearInequality((1, 1), 1.0)
    cases = [
        (UNIT_SQUARE, UNIT_SQUARE, None),
        (half_plane, half_plane, None),  # every spot direction is unbounded on both sides
        (UNIT_SQUARE, R(3, []), ("dim", 2, 3)),
        (UNIT_SQUARE, UNIT_SIMPLEX, ("row", "b", x1_plus_x2, 2.0)),
        (UNIT_SIMPLEX, UNIT_SQUARE, ("row", "a", x1_plus_x2, 2.0)),
        (UNIT_SIMPLEX, half_plane, ("row", "a", x1_nonneg, None)),
        (small, raised, ("support", [0.6888437030500962, 0.515908805880605],
                         0.12047525089307012, 0.12047525197734739)),
        # An empty b fails a's test; an empty a skips its own, and the
        # reverse test decides.
        (UNIT_SQUARE, EMPTY, ("row", "b", x1_below_minus_1, 1.0)),
        (EMPTY, UNIT_SQUARE, ("row", "a", x1_below_minus_1, 1.0)),
        (EMPTY, R(2, []), ("row", "a", x1_below_minus_1, None)),
    ]
    for a, b, difference in cases:
        assert polytope.compare(a, b, random.Random(0)) == difference
    # With a looser tol the support-only pair agrees, and with no spot
    # direction containment alone decides.
    assert polytope.compare(small, raised, random.Random(0), tol=1e-8) is None
    assert polytope.compare(small, raised, random.Random(0), directions=0) is None
    with pytest.raises(InfeasibleRegionError):  # both empty: b's own test raises
        polytope.compare(EMPTY, EMPTY, random.Random(0))


def test_contains_point_rejects_a_point_of_the_wrong_length_or_a_nan():
    # zip used to truncate (1.0,) against two-column rows and answer True,
    # and a nan coordinate compared false against every row: True again.
    for point in ([1.0], [0.5, 0.5, 9.0], [math.nan, 0.5]):
        with pytest.raises(ValueError, match="not 2 finite numbers"):
            contains_point(UNIT_SQUARE, point)
    assert contains_point(UNIT_SQUARE, [0.5, 0.5]) and not contains_point(UNIT_SQUARE, [2.0, 0.5])
