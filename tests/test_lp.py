"""Internal simplex solver, cross-checked against scipy's solver."""

import random
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from dicregion import lp


def test_box_maximum():
    res = lp.maximize([1.0, 1.0], [[1, 0], [0, 1]], [1.0, 2.0])
    assert res.status == lp.OPTIMAL
    assert res.value == pytest.approx(3.0, abs=1e-9)


def test_free_variables_negative_side():
    # max -x subject to -x <= 5  ->  optimum 5 at x = -5
    res = lp.maximize([-1.0], [[-1]], [5.0])
    assert res.status == lp.OPTIMAL
    assert res.value == pytest.approx(5.0, abs=1e-9)
    assert res.x[0] == pytest.approx(-5.0, abs=1e-9)


def test_unbounded():
    res = lp.maximize([1.0, 0.0], [[0, 1]], [1.0])
    assert res.status == lp.UNBOUNDED


def test_infeasible():
    res = lp.maximize([1.0], [[1], [-1]], [-2.0, 1.0])  # x <= -2 and x >= -1
    assert res.status == lp.INFEASIBLE


def test_phase1_infeasibility_follows_tol():
    # x <= 0 and x >= 5e-8: infeasible by 50 times the default tol.
    assert lp.maximize([1.0], [[1], [-1]], [0.0, -5e-8]).status == lp.INFEASIBLE
    # Infeasible by less than tol: accepted as feasible.
    res = lp.maximize([1.0], [[1], [-1]], [0.0, -5e-10])
    assert res.status == lp.OPTIMAL
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_no_constraints():
    assert lp.maximize([0.0, 0.0], [], []).value == 0.0
    assert lp.maximize([1.0, 0.0], [], []).status == lp.UNBOUNDED


def test_negative_rhs_feasible():
    # x >= 2 written as -x <= -2, maximize -x  ->  -2
    res = lp.maximize([-1.0], [[-1]], [-2.0])
    assert res.status == lp.OPTIMAL
    assert res.value == pytest.approx(-2.0, abs=1e-9)


def test_degenerate_vertex():
    # Three constraints through one point; Bland's rule must terminate.
    res = lp.maximize([1.0, 1.0], [[1, 0], [0, 1], [1, 1]], [1.0, 1.0, 2.0])
    assert res.status == lp.OPTIMAL
    assert res.value == pytest.approx(2.0, abs=1e-9)


# Beale's cycling example (E. M. L. Beale, 1955): max 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4
# over x >= 0 with two degenerate rows at the origin; the largest-coefficient
# rule cycles on it, Bland's rule does not.
BEALE = (
    [0.75, -20.0, 0.5, -6.0],
    [[0.25, -8, -1, 9], [0.5, -12, -0.5, 3], [0, 0, 1, 0],
     [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
)


@pytest.mark.parametrize(
    "problem, pivots, x",
    [
        (([1.0, 1.0], [[1, 0], [0, 1], [1, 1]], [1.0, 1.0, 2.0]), 2, (1.0, 1.0)),
        (BEALE, 8, (1.0000000000000002, 0.0, 1.0, 0.0)),
    ],
    ids=["degenerate-vertex", "beale"],
)
def test_blands_rule_pivots_are_pinned(monkeypatch, problem, pivots, x):
    # Recorded from the pivot loop before it was rewritten with fewer numpy
    # calls: the same pivots in the same order give these counts and points
    # to the last bit.
    pivot, made = lp._pivot, []

    def counting(T, basis, nonbasic, r, j):
        made.append((r, j))
        pivot(T, basis, nonbasic, r, j)

    monkeypatch.setattr(lp, "_pivot", counting)
    res = lp.maximize(*problem)
    assert res.status == lp.OPTIMAL
    assert len(made) == pivots
    assert res.x == x


def test_optimal_point_is_feasible():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 8)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-2, 8) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        res = lp.maximize(c, A, b)
        if res.status != lp.OPTIMAL:
            continue
        x = np.array(res.x)
        assert np.all(np.array(A, dtype=float) @ x <= np.array(b, dtype=float) + 1e-7)
        assert res.value == pytest.approx(float(np.dot(c, x)), abs=1e-7)


def test_against_scipy_on_random_problems():
    rng = random.Random(1)
    checked = 0
    # The first system pins x = -1.5 with two opposite rows (2x <= -3 and
    # -2x <= 3); phase 1 ends with its auxiliary still basic at level 0.
    problems = [([1], [[2], [-2]], [-3, 3])]
    for trial in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(1, 12)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-2, 10) for _ in range(m)]
        if trial >= 200:
            # Equalities: opposite-row pairs a.x <= -d and -a.x <= d, d > 0.
            for _ in range(rng.randint(1, 3)):
                a = [rng.randint(-3, 3) for _ in range(n)]
                d = rng.randint(1, 5)
                A += [a, [-v for v in a]]
                b += [-d, d]
        problems.append(([rng.randint(-3, 3) for _ in range(n)], A, b))
    for c, A, b in problems:
        n = len(c)
        ours = lp.maximize(c, A, b)
        ref = linprog(
            [-v for v in c], A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs"
        )
        if ref.status == 2:
            # With free variables HiGHS reports "infeasible" for some
            # feasible-but-unbounded problems; disambiguate with a
            # zero-objective probe.
            assert ours.status in (lp.INFEASIBLE, lp.UNBOUNDED)
            feasible = linprog(
                [0.0] * n, A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs"
            )
            if ours.status == lp.INFEASIBLE:
                assert feasible.status == 2
            else:
                assert feasible.status == 0
        elif ref.status == 3:
            assert ours.status == lp.UNBOUNDED
        else:
            assert ref.status == 0
            assert ours.status == lp.OPTIMAL
            assert ours.value == pytest.approx(-ref.fun, abs=1e-6)
            checked += 1
    assert lp.maximize(*problems[0]).x == pytest.approx((-1.5,), abs=1e-12)
    assert checked > 30  # sanity: the sample hit plenty of bounded problems


def test_unbounded_case_scipy_presolve_misreports():
    # Feasible (zero-objective LP solves) and the objective grows linearly
    # with any box bound, so unbounded is the right verdict.
    A = [
        [0, 0, -1, 0, -2, 1],
        [0, -1, 0, -1, 0, 1],
        [0, 0, 0, 0, -1, 0],
        [0, 1, 0, -1, 1, 0],
        [0, 0, 2, 1, -1, -2],
        [1, -1, 2, 0, 1, 0],
        [0, 0, 0, 2, 2, 0],
        [-1, 2, 0, 0, 0, 1],
    ]
    b = [0, -3, -1, 0, 5, 0, 5, 1]
    c = [-1, 1, 0, 2, 1, -3]
    assert lp.maximize(c, A, b).status == lp.UNBOUNDED
    feasible = linprog([0.0] * 6, A_ub=A, b_ub=b, bounds=[(None, None)] * 6, method="highs")
    assert feasible.status == 0


def test_tableau_holds_no_column_per_row():
    # 2,000 rows in 3 variables: a tableau with a column per row would
    # take 2001 x 4007 doubles (64 MB); the condensed one takes 128 kB.
    rng = np.random.default_rng(0)
    A = rng.normal(size=(2000, 3))
    c = [1.0, -2.0, 0.5]
    for x0 in (np.zeros(3), np.array([5.0, -5.0, 5.0])):  # b >= 0, then some b < 0
        b = 1.0 + A @ x0
        tracemalloc.start()
        try:
            res = lp.maximize(c, A, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        ref = linprog([-v for v in c], A_ub=A, b_ub=b, bounds=[(None, None)] * 3, method="highs")
        assert res.status == lp.OPTIMAL and ref.status == 0
        assert res.value == pytest.approx(-ref.fun, abs=1e-7)
        assert res.x == pytest.approx(tuple(ref.x), abs=1e-6)
    assert (b < 0).any()
