"""Polyhedral kernel: elimination, pruning, containment, vertices."""

import copy
import itertools
import math
import pickle
import random

import numpy as np
import pytest

from dicregion import lp
from dicregion.errors import InfeasibleRegionError, UnboundedDirectionError
from dicregion.polytope import (
    LinearInequality,
    Region,
    canonicalize,
    contains_point,
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
        res = lp.maximize(coeffs, [o[0] for o in others], [o[1] for o in others], tol=tol)
        if res.status == lp.INFEASIBLE or (res.status == lp.OPTIMAL and res.value <= rhs + tol):
            alive[k] = False
    return [rows[j] for j in range(len(rows)) if alive[j]]


def test_prune_matches_testing_against_all_others():
    fixed = [
        R(1, [((1,), 1.0), ((2,), 2.0), ((-1,), 0.0)]),  # positive multiples of one row
        R(2, [((1, 0), 1.0), ((1, 1), 3.0), ((-1, 0), 0.0)]),  # unbounded in x2
        R(1, [((1,), -5.0), ((-1,), 0.0)]),  # others feasible, row k violated by more than 1
        R(2, [((1, 1), -1.0), ((1, 0), 2.0), ((-1, 0), 0.0), ((0, -1), 0.0)]),  # empty
    ]
    rng = random.Random(17)
    randoms = []
    for _ in range(300):
        dim = rng.randint(1, 4)
        rows = [
            (tuple(rng.randint(-2, 3) for _ in range(dim)), float(rng.randint(-3, 6)))
            for _ in range(rng.randint(2, 12))
        ]
        rows += [(tuple(m * c for c in coeffs), m * rhs) for coeffs, rhs in rows[:2] for m in (2, 3)]
        if rng.random() < 0.6:
            rows += [(q.coeffs, q.rhs) for q in nonneg_inequalities(dim)]
        rng.shuffle(rows)
        randoms.append(R(dim, rows))
    statuses = set()
    for region in fixed + randoms:
        A, b = region.matrix()
        statuses.add(lp.maximize([1.0] * region.dim, A, b).status)
        pruned = prune_redundant(region)
        assert [(q.coeffs, q.rhs) for q in pruned.inequalities] == _prune_against_all_others(region)
    # the random systems include empty, unbounded and bounded regions
    assert statuses == {lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE}


def test_is_subset_examples():
    assert is_subset(UNIT_SIMPLEX, UNIT_SIMPLEX)
    assert is_subset(UNIT_SIMPLEX, UNIT_SQUARE)
    assert not is_subset(UNIT_SQUARE, UNIT_SIMPLEX)  # witness (1, 1)


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
    # A non-empty region is never inside an empty one.
    assert not is_subset(UNIT_SQUARE, EMPTY)


def test_equality_of_empty_regions_raises():
    with pytest.raises(InfeasibleRegionError, match="empty region"):
        regions_equal(EMPTY, EMPTY)
    assert not regions_equal(UNIT_SQUARE, EMPTY)


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


@pytest.mark.parametrize("rhs", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_region_document_rejects_non_finite_rhs(rhs):
    doc = region_to_dict(UNIT_SIMPLEX)
    doc["inequalities"][0]["rhs"] = rhs
    with pytest.raises(ValueError, match="non-finite"):
        region_from_dict(doc)
