"""Internal simplex solver, cross-checked against scipy's solver."""

import copy
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from dicregion import lp
from dicregion.polytope import LinearInequality, Region, support_value


def _maximize(c, A, b, tol=1e-9):
    """`lp.maximize` over a fresh System of A x <= b; an empty A has no rows."""
    A = np.asarray(A, dtype=float)
    return lp.maximize(c, lp.System(A.reshape(0, len(c)) if A.size == 0 else A, b, tol=tol))


def test_box_maximum():
    res = _maximize([1.0, 1.0], [[1, 0], [0, 1]], [1.0, 2.0])
    assert res.status == lp.OPTIMAL
    assert res.value == pytest.approx(3.0, abs=1e-9)


def test_free_variables_negative_side():
    # max -x subject to -x <= 5  ->  optimum 5 at x = -5
    res = _maximize([-1.0], [[-1]], [5.0])
    assert res.status == lp.OPTIMAL
    assert res.value == pytest.approx(5.0, abs=1e-9)
    assert res.x[0] == pytest.approx(-5.0, abs=1e-9)


def test_unbounded():
    res = _maximize([1.0, 0.0], [[0, 1]], [1.0])
    assert res.status == lp.UNBOUNDED


def test_infeasible():
    res = _maximize([1.0], [[1], [-1]], [-2.0, 1.0])  # x <= -2 and x >= -1
    assert res.status == lp.INFEASIBLE


def test_phase1_infeasibility_follows_tol():
    # x <= 0 and x >= 5e-8: infeasible by 50 times the default tol.
    assert _maximize([1.0], [[1], [-1]], [0.0, -5e-8]).status == lp.INFEASIBLE
    # Infeasible by less than tol: accepted as feasible.
    res = _maximize([1.0], [[1], [-1]], [0.0, -5e-10])
    assert res.status == lp.OPTIMAL
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_no_constraints():
    assert _maximize([0.0, 0.0], [], []).value == 0.0
    assert _maximize([1.0, 0.0], [], []).status == lp.UNBOUNDED


def test_negative_rhs_feasible():
    # x >= 2 written as -x <= -2, maximize -x  ->  -2
    res = _maximize([-1.0], [[-1]], [-2.0])
    assert res.status == lp.OPTIMAL
    assert res.value == pytest.approx(-2.0, abs=1e-9)


def test_degenerate_vertex():
    # Three constraints through one point; Bland's rule must terminate.
    res = _maximize([1.0, 1.0], [[1, 0], [0, 1], [1, 1]], [1.0, 1.0, 2.0])
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
    res = _maximize(*problem)
    assert res.status == lp.OPTIMAL
    assert len(made) == pivots
    assert res.x == x


def test_beale_with_sign_bounds_pivots_are_pinned(monkeypatch):
    # The x >= 0 rows as bounds: three rows, no w columns, 6 pivots instead
    # of 8.  Labels then skip the w range, and a Bland sentinel taken from
    # the column count (5) ranks below every slack label and cycles; the
    # low pivot limit makes that fail at once.
    c, A, b = BEALE
    system = lp.System(A[:3], b[:3], nonneg=range(4))
    assert len(system) == 3
    pivot, made = lp._pivot, []

    def counting(T, basis, nonbasic, r, j):
        made.append((r, j))
        pivot(T, basis, nonbasic, r, j)

    monkeypatch.setattr(lp, "_pivot", counting)
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 50)
    res = lp.maximize(c, system)
    assert res.status == lp.OPTIMAL
    assert len(made) == 6
    assert res.x == (1.0000000000000002, 0.0, 1.0, 0.0)
    # The same objective again is answered by the recorded basis.
    made.clear()
    again = lp.maximize(c, system)
    assert made == [] and again == res
    assert np.array(again.x).tobytes() == np.array(res.x).tobytes()
    # Another objective (optimum x = (0, 0, 1, 1/9)) starts from the
    # System's own tableau, left as it was: a fresh System pivots alike.
    other = [-1.0, -30.0, 0.0, 1.0]
    made.clear()
    fresh = lp.maximize(other, lp.System(A[:3], b[:3], nonneg=range(4)))
    fresh_pivots = made[:]
    made.clear()
    assert lp.maximize(other, system) == fresh
    assert made == fresh_pivots == [(0, 3), (2, 2)]


def test_system_rejects_a_second_rhs_and_a_misshaped_objective():
    system = lp.System([[1.0, 1.0]], [1.0], nonneg=[1])  # x1 + x2 <= 1, x2 >= 0
    with pytest.raises(ValueError, match="objective has 3 entries"):
        lp.maximize([1.0, 0.0, 0.0], system)
    assert lp.maximize([1.0, 0.0], system).value == 1.0
    assert lp.maximize([0.0, -1.0], system).value == 0.0
    assert lp.maximize([-1.0, 0.0], system).status == lp.UNBOUNDED


def test_system_needs_a_two_dimensional_constraint_matrix():
    for A, shape in (([1.0, 1.0], "(2,)"), ([[[1.0]]], "(1, 1, 1)")):
        with pytest.raises(ValueError) as info:
            lp.System(A, [1.0])
        assert str(info.value) == f"constraint matrix must be 2-D, got shape {shape}"


def test_system_rejects_non_finite_data():
    # A nan rhs used to raise numpy's "argmin of an empty sequence" in phase
    # 1, and a nan coefficient answered "unbounded".
    for A, b in (([[1.0]], [np.nan]), ([[np.nan]], [1.0]), ([[1.0]], [np.inf]), ([[-np.inf]], [1.0])):
        with pytest.raises(ValueError, match="must be finite"):
            lp.System(A, b)


def test_non_finite_objectives_and_batch_data_are_rejected():
    # A nan objective used to come back "optimal" with value nan and record a
    # basis, and an inf one hit numpy's "invalid value encountered in matmul".
    # The stacked solver takes checked data; a nan or inf threshold is none.
    system = lp.System([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    for c in ([np.nan, 1.0], [np.inf, 0.0], [0.0, -np.inf]):
        with pytest.raises(ValueError, match="2 finite numbers"):
            lp.maximize(c, system)
    assert len(system.bases) == 0
    with pytest.raises(ValueError, match="1 finite numbers"):  # before feasibility
        lp.maximize([np.nan], lp.System([[1.0], [-1.0]], [-2.0, 1.0]))
    batch = np.ones((1, 2)), np.eye(2)[None], np.ones((1, 2))
    for stop in ([np.nan], [np.inf]):  # still no threshold
        assert _stacks(*batch, stop=stop)[1].tolist() == [2.0]


def _count_pivots(monkeypatch):
    pivot, made = lp._pivot, []
    monkeypatch.setattr(lp, "_pivot", lambda *a: made.append(a[3:]) or pivot(*a))
    return made


def test_phase1_runs_once_in_the_system_and_leaves_no_t_column(monkeypatch):
    # x1 + x2 >= 1, x1 <= 3, x2 <= 3: the slack basis violates the first row.
    made = _count_pivots(monkeypatch)
    system = lp.System([[-1, -1], [1, 0], [0, 1]], [-1.0, 3.0, 3.0], tol=1e-9)
    assert system.feasible and len(made) == 2
    # Rows: 3 constraints, the objective and 2 cost rows; columns u1, u2, w1, w2 and the rhs.
    assert system.T.shape == (6, 5)
    assert sorted(system.labels) == list(range(7))  # u, w and slack labels; no t
    values, pivots = [], []
    for c in ([1.0, 0.0], [1.0, 1.0], [-1.0, 0.0]):
        made.clear()
        values.append(lp.maximize(c, system).value)
        pivots.append(len(made))
    assert values == [3.0, 6.0, 2.0] and pivots == [1, 2, 2]


def test_an_infeasible_system_answers_infeasible_without_a_pivot(monkeypatch):
    system = lp.System([[1.0], [-1.0]], [-2.0, 1.0])  # x <= -2 and x >= -1
    assert not system.feasible and system.T.shape == (4, 3)  # 2 rows, objective, 1 cost row
    made = _count_pivots(monkeypatch)
    for c in ([1.0], [-1.0], [0.0]):
        assert lp.maximize(c, system).status == lp.INFEASIBLE
    assert made == []


def _record_final_bases(monkeypatch):
    """Patch `_iterate` to list the basis each run ends optimal at (a query
    runs phase 2 only; phase 1 runs when a System is built)."""
    iterate, ended = lp._iterate, []

    def recording(T, basis, nonbasic, *args):
        status = iterate(T, basis, nonbasic, *args)
        if status == lp.OPTIMAL:
            ended.append(frozenset(basis.tolist()))
        return status

    monkeypatch.setattr(lp, "_iterate", recording)
    return ended


def test_recorded_bases_answer_as_a_fresh_system_does(monkeypatch):
    # Integer systems, some with sign bounds, negative rhs (phase 1),
    # duplicated rows or many rows through the origin (degenerate), each
    # queried with 50 Gaussian directions, so optima are unique points.
    # Every answer equals that of a fresh System, which has no memo; a miss
    # records the one basis it ends at, never one already recorded, and an
    # unbounded or infeasible answer records nothing.
    rng = np.random.default_rng(31)
    ended = _record_final_bases(monkeypatch)
    seen = {"bounds": 0, "phase 1": 0, "degenerate": 0, "infeasible": 0,
            "unbounded": 0, "hit": 0, "miss": 0}
    for trial in range(110):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(-2, 8, size=m).astype(float)
        if trial % 3 == 1:
            A, b = np.vstack([A, A[:2]]), np.append(b, b[:2])
            b[rng.random(len(b)) < 0.6] = 0.0
        if trial == 0:  # x1 <= -2 and x1 >= -1
            A, b = np.vstack([A, np.eye(1, n), -np.eye(1, n)]), np.append(b, [-2.0, 1.0])
        nonneg = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        system = lp.System(A, b, nonneg)
        seen["bounds"] += len(nonneg) > 0
        seen["phase 1"] += bool((b < 0).any())
        seen["degenerate"] += trial % 3 == 1
        seen["infeasible"] += not system.feasible
        recorded = []
        for c in rng.normal(size=(50, n)):
            ref = lp.maximize(c, lp.System(A, b, nonneg))
            before = len(system.bases)
            ended.clear()
            ours = lp.maximize(c, system)
            assert ours.status == ref.status
            assert len(system.bases) - before == len(ended) <= (ours.status == lp.OPTIMAL)
            recorded += ended
            if ours.status == lp.UNBOUNDED:
                seen["unbounded"] += 1
            elif ours.status == lp.OPTIMAL:
                assert ours.value == pytest.approx(ref.value, rel=1e-12, abs=1e-12)
                assert ours.x == pytest.approx(ref.x, rel=1e-9, abs=1e-12)
                seen["miss" if ended else "hit"] += 1
        assert len(set(recorded)) == len(recorded) == len(system.bases)
        if not system.feasible:
            assert len(system.bases) == 0
    assert seen["infeasible"] >= 1 and seen["hit"] > 5 * seen["miss"]
    assert min(seen.values()) >= 1, seen


def test_carried_objective_map_equals_the_map_solved_from_the_basis(monkeypatch):
    # Each recorded map was carried through the pivots as n tableau rows.
    # Solved directly, the phase-2 row of c = e_j at basis B is each nonbasic
    # column's cost less y_j . a_k, with B^T y_j the basic costs.  Integer
    # systems with sign bounds, negative rhs (phase 1), duplicated rows and
    # rows through the origin (degenerate).
    iterate, ended = lp._iterate, []

    def recording(T, basis, nonbasic, *args):
        status = iterate(T, basis, nonbasic, *args)
        ended.append((basis.copy(), nonbasic.copy()))
        return status

    monkeypatch.setattr(lp, "_iterate", recording)
    rng = np.random.default_rng(43)
    seen = {"bounds": 0, "phase 1": 0, "duplicated": 0, "degenerate": 0}
    checked = 0
    for trial in range(90):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(-2, 8, size=m).astype(float)
        if trial % 3 == 1:
            A, b = np.vstack([A, A[:2]]), np.append(b, b[:2])
        if trial % 3 == 2:
            b[rng.random(m) < 0.6] = 0.0
        nonneg = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        system = lp.System(A, b, nonneg)
        # Column and cost (for each c = e_j) of every label: u, w, slacks.
        cols = np.hstack([A, -A, np.eye(len(b))])
        cost = np.hstack([-np.eye(n), np.eye(n), np.zeros((n, len(b)))])
        recorded = 0
        for c in rng.normal(size=(30, n)):
            ended.clear()
            res = lp.maximize(c, system)
            if len(system.bases) == recorded:
                continue
            recorded += 1
            (basis, nonbasic), entry = ended[-1], system.bases[-1]
            y = np.linalg.solve(cols[:, basis].T, cost[:, basis].T)
            direct = cost[:, nonbasic] - y.T @ cols[:, nonbasic]
            np.testing.assert_allclose(entry[:-1], direct.T, rtol=0, atol=1e-12)
            assert tuple(entry[-1].tolist()) == res.x
            z = np.zeros(len(cost[0]))
            z[basis] = np.linalg.solve(cols[:, basis], b)
            assert res.x == pytest.approx(tuple(z[:n] - z[n : 2 * n]), abs=1e-9)
            checked += 1
        seen["bounds"] += recorded and len(nonneg) > 0
        seen["phase 1"] += recorded and (b < 0).any()
        seen["duplicated"] += recorded and trial % 3 == 1
        seen["degenerate"] += recorded and trial % 3 == 2 and (b == 0).any()
    assert min(seen.values()) >= 5 and checked > 200, (seen, checked)


def test_a_region_gives_each_tol_a_fresh_memo_and_copies_carry_none(monkeypatch):
    # x1 + x2 >= 1, x1 <= 3, x2 <= 3, x >= 0 (bounds): phase 1, then phase 2.
    rows = (((-1, -1), -1.0), ((1, 0), 3.0), ((0, 1), 3.0), ((-1, 0), 0.0), ((0, -1), 0.0))
    region = Region(2, tuple(LinearInequality(c, r) for c, r in rows))
    made = _count_pivots(monkeypatch)

    def pivots(region, tol):
        made.clear()
        assert support_value(region, (1.0, 2.0), tol=tol) == 9.0
        return len(made)

    cold = pivots(copy.copy(region), 1e-9)
    assert cold > 0 and pivots(region, 1e-9) == cold and pivots(region, 1e-9) == 0
    assert len(region._lp_form(1e-9).bases) == 1
    # Another tol rebuilds the form: phase 1 and phase 2 again, one entry.
    assert pivots(region, 1e-6) == cold and pivots(region, 1e-6) == 0
    assert len(region._lp_form(1e-6).bases) == 1
    for clone in (copy.copy(region), copy.deepcopy(region), pickle.loads(pickle.dumps(region))):
        assert clone._lp is None and pivots(clone, 1e-6) == cold
    assert pickle.dumps(region) == pickle.dumps(Region(2, region.inequalities))


def test_optimal_point_is_feasible():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 8)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-2, 8) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        res = _maximize(c, A, b)
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
        ours = _maximize(c, A, b)
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
    assert _maximize(*problems[0]).x == pytest.approx((-1.5,), abs=1e-12)
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
    assert _maximize(c, A, b).status == lp.UNBOUNDED
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
            res = _maximize(c, A, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        ref = linprog([-v for v in c], A_ub=A, b_ub=b, bounds=[(None, None)] * 3, method="highs")
        assert res.status == lp.OPTIMAL and ref.status == 0
        assert res.value == pytest.approx(-ref.fun, abs=1e-7)
        assert res.x == pytest.approx(tuple(ref.x), abs=1e-6)
    assert (b < 0).any()


def test_right_hand_side_must_match_the_rows():
    # One rhs for two rows used to broadcast and report an optimum of 0.5.
    with pytest.raises(ValueError, match="right-hand side"):
        _maximize([1.0], [[1], [2]], [1.0])
    # No rows and two right-hand sides used to report "unbounded".
    with pytest.raises(ValueError, match="right-hand side"):
        _maximize([1.0], [], [1.0, 2.0])


def _stacks(C, A, b, stop=None):
    """`lp._maximize_stacks` on lists or arrays, with no threshold by default."""
    C, A, b = (np.asarray(v, dtype=float) for v in (C, A, b))
    stop = np.full(len(C), np.inf) if stop is None else np.asarray(stop, dtype=float)
    return lp._maximize_stacks(C, A, b, 1e-9, stop)


def _assert_batch_matches_maximize(C, A, b):
    unbounded, values, X = _stacks(C, A, b)
    for i in range(len(C)):
        res = _maximize(C[i], A[i], b[i])
        assert unbounded[i] == (res.status == lp.UNBOUNDED)
        if res.status == lp.OPTIMAL:
            assert np.array(res.x).tobytes() == X[i].tobytes()  # bit for bit
            assert values[i] == res.value
        else:
            assert values[i] == np.inf and np.isnan(X[i]).all()
    return unbounded


def test_batch_members_equal_maximize_on_their_own_systems():
    rng = np.random.default_rng(5)
    flags = []
    for trial in range(120):
        n, m, size = rng.integers(1, 6), rng.integers(1, 14), rng.integers(1, 12)
        shape = (m, n) if trial % 2 else (size, m, n)  # shared, then stacked
        A = rng.integers(-3, 4, shape) if trial % 3 else rng.normal(size=shape)
        A = np.broadcast_to(A, (size, m, n))  # a shared A is repeated per member
        b = rng.integers(0, 6, (size, m)).astype(float) if trial % 4 else rng.random((size, m))
        C = rng.integers(-3, 4, (size, n)).astype(float)
        flags.extend(_assert_batch_matches_maximize(C, A, b))
    assert any(flags) and not all(flags)


def test_batch_members_finish_apart_and_one_is_unbounded():
    # Beale's cycling LP (8 pivots), one member optimal at the slack basis,
    # one unbounded along x1 once Beale's first row is replaced by 0 <= 0,
    # and one optimal after a single pivot.
    c, A, b = (np.array(v, dtype=float) for v in BEALE)
    C = np.array([c, np.zeros(4), [1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
    A2 = np.stack([A, A, np.vstack([np.zeros(4), A[1:]]), A])
    unbounded = _assert_batch_matches_maximize(C, A2, np.tile(b, (4, 1)))
    assert unbounded.tolist() == [False, False, True, False]
    X = _stacks(C[:1], A[None], b[None])[2]
    assert X[0].tolist() == [1.0000000000000002, 0.0, 1.0, 0.0]


def test_batch_is_split_into_stacks_of_bounded_size(monkeypatch):
    monkeypatch.setattr(lp, "_BATCH_CELLS", 3 * 5 * 2)  # two members of 3 x 5 cells
    rng = np.random.default_rng(6)
    A = rng.integers(-2, 3, (5, 2, 2)).astype(float)
    b = rng.integers(0, 4, (5, 2)).astype(float)
    sizes = []
    solve = lp._solve_stack
    monkeypatch.setattr(lp, "_solve_stack", lambda C, *a: sizes.append(len(C)) or solve(C, *a))
    _assert_batch_matches_maximize(rng.integers(-2, 3, (5, 2)).astype(float), A, b)
    assert sizes == [2, 2, 1]


def test_stack_size_counts_the_members_whose_tableau_cells_fit(monkeypatch):
    # A member of m rows and n variables takes (m + 1) x (2n + 1) cells.
    monkeypatch.setattr(lp, "_BATCH_CELLS", 3 * 5 * 2)
    assert lp._stack_size(2, 2) == 2
    assert lp._stack_size(30, 2) == 0  # `_maximize_stacks` still stacks one
    for cells in range(1, 200):
        monkeypatch.setattr(lp, "_BATCH_CELLS", cells)
        for m, n, members in ((2, 2, 7), (0, 1, 70), (4, 3, 5)):
            fits = members * (m + 1) * (2 * n + 1) <= cells
            assert fits == (members <= lp._stack_size(m, n))


def test_batch_member_with_a_threshold_stops_at_its_first_point_above_it():
    # Over the unit box, max x1 + x2 pivots x1 in first, to (1, 0) of value 1,
    # then x2, to the optimum (1, 1).
    C, A, b = [[1.0, 1.0]] * 3, [[[1.0, 0.0], [0.0, 1.0]]] * 3, [[1.0, 1.0]] * 3
    unbounded, values, X = _stacks(C, A, b, stop=[0.5, 1.0, np.inf])
    assert not unbounded.any()
    assert X.tolist() == [[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]]  # 1.0 is not above 1.0
    assert values.tolist() == [1.0, 2.0, 2.0]


def test_batch_members_without_a_threshold_are_unchanged_by_those_with_one():
    rng = np.random.default_rng(7)
    stopped = 0
    for _ in range(60):
        n, m, size = rng.integers(1, 6), rng.integers(1, 14), rng.integers(2, 12)
        A = rng.integers(-3, 4, (size, m, n)).astype(float)
        b = rng.integers(0, 6, (size, m)).astype(float)
        C = rng.integers(-3, 4, (size, n)).astype(float)
        full = _stacks(C, A, b)
        stop = np.where(rng.random(size) < 0.5, rng.random(size) * 4, np.inf)
        stop[rng.random(size) < 0.2] = np.nan  # as no threshold
        unbounded, values, X = _stacks(C, A, b, stop=stop)
        same = ~(stop < full[1])  # no threshold, or the optimum is not above it
        assert X[same].tobytes() == full[2][same].tobytes()
        assert (unbounded[same] == full[0][same]).all()
        for i in np.flatnonzero(~same):
            if unbounded[i]:  # found unbounded before it passed stop[i]
                assert full[0][i]
                continue
            # Stopped at a feasible point above stop[i].
            assert values[i] > stop[i] and values[i] <= full[1][i]
            assert (A[i] @ X[i] <= b[i] + 1e-9).all()
            stopped += values[i] < full[1][i]
    assert stopped  # some stopped short of their optimum


@pytest.mark.parametrize("nonneg", [[-1], [2], [5], [0.5], [True], ["0"], [None]])
def test_system_rejects_sign_bounds_that_are_not_variable_indices(nonneg):
    # nonneg=[-1] used to bound x2 through numpy's negative indexing, so
    # maximizing -x2 returned 0 instead of "unbounded".
    with pytest.raises(ValueError, match="variable indices in 0..1"):
        lp.System([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], nonneg=nonneg)


def test_system_takes_numpy_integer_sign_bounds():
    system = lp.System([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], nonneg=np.array([1, 1]))
    assert lp.maximize([0.0, -1.0], system).value == 0.0
    assert lp.maximize([-1.0, 0.0], system).status == lp.UNBOUNDED
