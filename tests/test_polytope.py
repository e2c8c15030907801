"""Polyhedral kernel: elimination, pruning, containment, vertices."""

import copy
import itertools
import math
import pickle
import random
import re

import numpy as np
import pytest
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

from conftest import random_full_support, random_injective_channel


def R(dim, rows, labels=()):
    return Region(dim, tuple(LinearInequality(tuple(c), r) for c, r in rows), labels)


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


def test_prune_same_lhs_keeps_tightest():
    region = R(1, [((1,), 1.0), ((1,), 2.0), ((-1,), 0.0)])
    pruned = prune_redundant(region)
    assert {(q.coeffs, q.rhs) for q in pruned.inequalities} == {((1,), 1.0), ((-1,), 0.0)}


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
        # From trial 500 on, 17 rows or more in 2-4 variables, so that step
        # B's working sets grow, then jump to all other rows at 1/16 of them.
        dim = rng.randint(1, 4) if trial < 500 else rng.randint(2, 4)
        low = -3 if trial < 300 else 0  # then every b >= 0, so certificates decide rows
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
    implied, tested = polytope._implied, []

    def counting(A, b, *args):
        tested.append(b.min() >= 0)
        return implied(A, b, *args)

    monkeypatch.setattr(polytope, "_implied", counting)
    statuses = set()
    for region in fixed + randoms:
        A, b = region.matrix()
        statuses.add(lp.maximize([1.0] * region.dim, lp.System(A, b)).status)
        pruned = prune_redundant(region)
        assert [(q.coeffs, q.rhs) for q in pruned.inequalities] == _prune_against_all_others(region)
    # the random systems include empty, unbounded and bounded regions
    assert statuses == {lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE}
    # Certificates leave ties to the plain test: some b >= 0 rows reach it.
    assert any(tested) and not all(tested)


def test_rows_bounded_at_kept_rows_skip_the_step_c_lp(monkeypatch):
    # In the box, x1 + x2 <= 2 is bounded in step B at (1, 1), where only
    # x1 <= 1 and x2 <= 1 are tight, and both end kept: no step-C batch runs.
    # 2x1 + x2 <= 3 is tight there too but is dropped, so with it both
    # bounded rows take the step-C LP over the kept rows.
    maximize_stacks, members = lp._maximize_stacks, []

    def counting_batch(C, A, b, tol=1e-9, stop=None):
        members.append(len(C))
        return maximize_stacks(C, A, b, tol=tol, stop=stop)

    monkeypatch.setattr(lp, "_maximize_stacks", counting_batch)
    box = [((1, 0), 1.0), ((0, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)]
    for extra, batches in [([((1, 1), 2.0)], [3, 1]), ([((1, 1), 2.0), ((2, 1), 3.0)], [4, 3, 2])]:
        members.clear()
        pruned = prune_redundant(R(2, box + extra))
        assert [(q.coeffs, q.rhs) for q in pruned.inequalities] == box
        assert members == batches


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


def test_vertices_degenerate_point():
    point = R(2, [((1, 0), 0.0), ((-1, 0), 0.0), ((0, 1), 0.0), ((0, -1), 0.0)])
    assert vertices(point) == [(0.0, 0.0)]


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


def _answer(region, direction):
    try:
        return support_value(region, direction)
    except UnboundedDirectionError:
        return None
    except InfeasibleRegionError:
        return "empty"


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
        bounds = sum(polytope._is_nonneg_row(c, r) for c, r in rows)
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
    with pytest.raises(ValueError, match="^inequality arity 3 does not match dim 2$"):
        R(2, [((1, 1), 1.0), ((1, 0, 1), 1.0)])
    with pytest.raises(ValueError, match="^inequality arity 1 does not match dim 2$"):
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
    # A nan direction used to come back as a nan support value.
    for direction in ([math.nan, 1.0], [math.inf, 0.0], [1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="2 finite numbers"):
            support_value(UNIT_SQUARE, direction)


def test_a_non_finite_direction_is_rejected_before_an_empty_region_is_reported():
    for direction in ([math.nan, 1.0], [math.inf, 0.0]):
        with pytest.raises(ValueError, match="2 finite numbers"):
            support_value(EMPTY, direction)


def test_a_seeded_compare_makes_a_pinned_number_of_pivots(monkeypatch):
    # What `dicregion compare` does on one K=3 channel: both containments,
    # then 100 seeded support directions on each region.  Bland's rule alone
    # sets the count, not how the objective map is kept: 42 pivots in all
    # and 10 recorded bases per region.
    spec = random_injective_channel(random.Random("pin/3"), 3, 3)
    table = build_entropy_table(spec, InputDistribution.uniform(spec))
    hk, thm = project_to_aggregate(build_A1(spec, table)), enumerate_facets(spec, table)
    pivot, made = lp._pivot, []
    monkeypatch.setattr(lp, "_pivot", lambda *a: made.append(a[3:]) or pivot(*a))
    assert polytope.compare(hk, thm, random.Random(0)) is None
    assert len(made) == 42
    assert len(hk._lp_form().bases) == len(thm._lp_form().bases) == 10


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
