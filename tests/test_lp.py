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
    # The same objective again gets the very same answer, and with the
    # last-answer slot emptied the recorded basis gives it with no pivot.
    made.clear()
    assert lp.maximize(c, system) is res
    system.last = None
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
    # A 0-d objective used to raise "len() of unsized object" and 2-D ones
    # reached numpy's matmul and broadcasting errors.
    for c in (1.0, [[1.0], [0.0]], [[1, 0], [0, 1]], [[1.0, 0.0]]):
        with pytest.raises(ValueError, match=r"objective has \d+ entries \(shape \("):
            lp.maximize(c, system)
    assert system.last is None and len(system.recorded[1]) == 0
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
    # The stacked solver takes only data its caller has checked.
    system = lp.System([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    for c in ([np.nan, 1.0], [np.inf, 0.0], [0.0, -np.inf]):
        with pytest.raises(ValueError, match="2 finite numbers"):
            lp.maximize(c, system)
    assert len(system.recorded[1]) == 0
    with pytest.raises(ValueError, match="1 finite numbers"):  # before feasibility
        lp.maximize([np.nan], lp.System([[1.0], [-1.0]], [-2.0, 1.0]))


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
            before = len(system.recorded[1])
            ended.clear()
            ours = lp.maximize(c, system)
            assert ours.status == ref.status
            assert len(system.recorded[1]) - before == len(ended) <= (ours.status == lp.OPTIMAL)
            recorded += ended
            if ours.status == lp.UNBOUNDED:
                seen["unbounded"] += 1
            elif ours.status == lp.OPTIMAL:
                assert ours.value == pytest.approx(ref.value, rel=1e-12, abs=1e-12)
                assert ours.x == pytest.approx(ref.x, rel=1e-9, abs=1e-12)
                seen["miss" if ended else "hit"] += 1
        assert len(set(recorded)) == len(recorded) == len(system.recorded[1])
        if not system.feasible:
            assert len(system.recorded[1]) == 0
    assert seen["infeasible"] >= 1 and seen["hit"] > 5 * seen["miss"]
    assert min(seen.values()) >= 1, seen


def _first_optimal_basis(system, c):
    """The recorded basis the earlier lookup took for c: the first whose
    phase-2 row has no entry below -tol, tested on the (bases, columns + 1, n)
    stack of maps with each point in place of the rhs row; None for none."""
    maps, points = system.recorded
    bases = np.concatenate([maps.reshape(len(points), system.T.shape[1] - 1, system.n), points[:, None]], axis=1)
    hit = ((bases[:, :-1] @ c) >= -system.tol).all(1)
    return int(hit.argmax()) if hit.any() else None


def test_the_lookup_takes_the_first_recorded_basis_the_earlier_rule_takes(monkeypatch):
    # Integer systems as above, queried with Gaussian and small-integer
    # objectives (ties, so several recorded bases can be optimal).  Before
    # each query the recorded points are swapped for their indices, so the
    # point a hit returns names the basis the lookup took; then the real
    # query runs on the real state.  A hit answers exactly from the basis
    # the reference takes, and a miss exactly as a fresh System does.
    rng = np.random.default_rng(37)
    made = _count_pivots(monkeypatch)
    seen = {"phase 1": 0, "degenerate": 0, "hit": 0, "miss": 0, "later hit": 0}
    for trial in range(90):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(-2, 8, size=m).astype(float)
        if trial % 2:
            A, b = np.vstack([A, A[:2]]), np.append(b, b[:2])
            b[rng.random(len(b)) < 0.6] = 0.0
        nonneg = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        system = lp.System(A, b, nonneg)
        if not system.feasible:
            continue
        seen["phase 1"] += bool((b < 0).any())
        seen["degenerate"] += trial % 2
        for q in range(40):
            c = rng.normal(size=n) if q % 2 else rng.integers(-2, 3, size=n).astype(float)
            ref = _first_optimal_basis(system, c)
            maps, points = system.recorded
            tags = maps, np.repeat(np.arange(len(points), dtype=float)[:, None], n, 1)
            system.recorded, system.last = tags, None
            made.clear()
            tagged = lp.maximize(c, system)
            missed = system.recorded is not tags or tagged.status == lp.UNBOUNDED
            system.recorded, system.last = (maps, points), None
            if ref is None:
                assert missed
            else:
                assert not missed and made == [] and tagged.x == (float(ref),) * n
            made.clear()
            ours = lp.maximize(c, system)
            if ref is not None:
                assert made == [] and ours.x == tuple(points[ref].tolist())
                assert ours.value.hex() == float(c @ points[ref]).hex()
                seen["hit"] += 1
                seen["later hit"] += ref > 0
            else:
                fresh = lp.maximize(c, lp.System(A, b, nonneg))
                assert (ours.status, ours.x) == (fresh.status, fresh.x)
                assert ours.status == lp.UNBOUNDED or ours.value.hex() == fresh.value.hex()
                seen["miss"] += 1
    assert min(seen.values()) >= 5, seen


def test_the_last_objective_is_answered_from_its_slot(monkeypatch):
    made = _count_pivots(monkeypatch)
    system = lp.System([[1.0, 1.0], [1.0, -1.0]], [1.0, 1.0], nonneg=[1])
    first = lp.maximize([1.0, 0.5], system)
    assert first.status == lp.OPTIMAL and made
    # The same objective again: the same LPResult, no pivot, and the
    # recorded bases are never read (emptied, they would fail to unpack).
    made.clear()
    recorded, system.recorded = system.recorded, None
    assert lp.maximize(np.array([1.0, 0.5]), system) is first and made == []
    system.recorded = recorded
    # Another objective is not served from the slot, not even one whose
    # values equal it with other bytes (-0.0); it then takes the slot.
    zero = lp.maximize([0.0, 1.0], system)
    negzero = lp.maximize([-0.0, 1.0], system)
    assert negzero == zero and negzero is not zero
    assert lp.maximize([-0.0, 1.0], system) is negzero
    assert lp.maximize([1.0, 0.5], system) == first
    # An unbounded answer repeats as unbounded, with no pivot.
    unbounded = lp.maximize([-1.0, 0.0], system)
    assert unbounded.status == lp.UNBOUNDED
    made.clear()
    assert lp.maximize([-1.0, 0.0], system) is unbounded and made == []
    # An infeasible System answers before the slot is read.
    empty = lp.System([[1.0], [-1.0]], [-2.0, 1.0])
    empty.last = (np.array([1.0]).tobytes(), lp.LPResult(lp.OPTIMAL, 5.0, (5.0,)))
    assert lp.maximize([1.0], empty) == lp.LPResult(lp.INFEASIBLE, None, None)


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
            if len(system.recorded[1]) == recorded:
                continue
            recorded += 1
            (basis, nonbasic), (maps, points) = ended[-1], system.recorded
            y = np.linalg.solve(cols[:, basis].T, cost[:, basis].T)
            direct = cost[:, nonbasic] - y.T @ cols[:, nonbasic]
            np.testing.assert_allclose(maps[-len(nonbasic) :], direct.T, rtol=0, atol=1e-12)
            assert tuple(points[-1].tolist()) == res.x
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
    assert len(region._lp_form(1e-9).recorded[1]) == 1
    # Another tol rebuilds the form: phase 1 and phase 2 again, one entry.
    assert pivots(region, 1e-6) == cold and pivots(region, 1e-6) == 0
    assert len(region._lp_form(1e-6).recorded[1]) == 1
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


def _packing_stack(rng, size, m, n, capped, power=0):
    """A seeded packing stack: m nonnegative rows per member with b >= 0 and
    zeros (scaled by uniform draws to `power`), and the sign rows -x_j <= 0
    shuffled in.  With `capped`, the objective is row 0 with b_0 raised by
    1, as `polytope._capped` poses its LPs; else it is mixed-sign under a
    bounding row 0 of ones."""
    rows = rng.integers(0, 4, (size, m, n)) * (rng.random((size, m, n)) < 0.6)
    b = rng.integers(0, 5, (size, m)) * rng.random((size, m)) ** power
    if capped:
        C = rows[:, 0].astype(float)
        b[:, 0] += 1
    else:
        C = rng.integers(-2, 4, (size, n)).astype(float)
        rows[:, 0], b[:, 0] = 1, 10
    A = np.concatenate([rows, np.tile(-np.eye(n, dtype=int), (size, 1, 1))], 1).astype(float)
    b = np.concatenate([b, np.zeros((size, n))], 1)
    for i in range(size):
        shuffle = rng.permutation(m + n)
        A[i], b[i] = A[i, shuffle], b[i, shuffle]
    return C, A, b


def _greedy_start(C, A, b):
    """Each member's greedy vertex over its own rows, as (tight rows, x,
    slacks): the start `polytope._capped` gives its gathered LPs."""
    slack = b.copy()
    x, tight = lp._greedy(A, slack, C)
    return tight, x, slack


def _assert_stacks_agree_with_maximize(C, A, b, tol=1e-9):
    """Each member of `lp._maximize_stacks`, started at its greedy vertex,
    ends where `maximize` on its own System does, up to ties among optima:
    optimal, the value within tol, and a point that violates no row by over
    1e-9.  Returns the points."""
    values, X = lp._maximize_stacks(C, A, tol, _greedy_start(C, A, b))
    for i in range(len(C)):
        res = _maximize(C[i], A[i], b[i], tol=tol)
        assert res.status == lp.OPTIMAL and np.isfinite(values[i])
        assert values[i] == pytest.approx(res.value, abs=max(tol, 1e-12))
        assert (A[i] @ X[i] <= b[i] + 1e-9).all()
    return X


def test_batch_members_finish_apart(monkeypatch):
    # One packing system under three objectives: (2, 3, 1) takes two
    # pivots from its greedy vertex, (1, 0, 1) one, and (1, 0, 0) none, so
    # it leaves before the first pivot step and the stack shrinks 2, 1.
    A = np.array([[3, 2, 2], [1, 3, 0], [2, 2, 3], [-1, 0, 0], [0, -1, 0], [0, 0, -1]], dtype=float)
    b = np.array([3.0, 2.0, 2.0, 0.0, 0.0, 0.0])
    C = np.array([[2.0, 3.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    pivot_stack, sizes = lp._pivot_stack, []
    monkeypatch.setattr(lp, "_pivot_stack", lambda T, *a: sizes.append(len(T)) or pivot_stack(T, *a))
    X = _assert_stacks_agree_with_maximize(C, np.stack([A] * 3), np.tile(b, (3, 1)))
    assert sizes == [2, 1]
    assert X == pytest.approx(np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), abs=1e-12)


def test_an_unbounded_stacked_member_breaks_the_contract_and_raises():
    # x1 - x2 <= 1 has a negative entry besides the sign rows, so it is not
    # a packing system: from the greedy vertex (1, 0) x1 rises with x2
    # without bound.  The packing member beside it alone comes back.
    sign = [[-1.0, 0.0], [0.0, -1.0]]
    A = np.array([sign + [[1.0, -1.0]], sign + [[1.0, 1.0]]])
    b, C = np.array([[0.0, 0.0, 1.0]] * 2), np.array([[1.0, 0.0]] * 2)
    with pytest.raises(RuntimeError, match="^stacked LP unbounded: its system is not a packing system$"):
        lp._maximize_stacks(C, A, 1e-9, _greedy_start(C, A, b))
    values, X = lp._maximize_stacks(C[1:], A[1:], 1e-9, _greedy_start(C[1:], A[1:], b[1:]))
    assert values.tolist() == [1.0] and X.tolist() == [[1.0, 0.0]]


def _assert_greedy_start(C, A, b):
    """`_greedy_start` on one stack: n distinct rows per member, each at
    slack exactly 0 at the start's feasible point, with a nonsingular block."""
    tight, x, slack = start = _greedy_start(C, A, b)
    size, m, n = A.shape
    assert tight.shape == (size, n)
    assert all(len(set(rows)) == n for rows in tight.tolist())  # one per coordinate
    assert (np.take_along_axis(slack, tight, 1) == 0).all()
    assert (A @ x[:, :, None] <= b[:, :, None] + 1e-12).all()
    assert (np.linalg.matrix_rank(A[np.arange(size)[:, None], tight]) == n).all()
    return start


def test_a_degenerate_greedy_start_is_nonsingular():
    # The capped LP of (3,3,1) . x <= 0.9 beside (3,3,3) . x <= 0.9 at tol 0,
    # as `polytope._capped` poses it.  x1 rises to about 0.3, blocked by the
    # first row, whose slack rounds to about 1e-16; unless that slack is set
    # to 0, x2 rises through it by about 4e-17, blocked by the same row, and
    # the tight block repeats a row and is singular.
    A = np.array([[[3, 3, 3], [-1, 0, 0], [0, -1, 0], [0, 0, -1], [3, 3, 1]]], dtype=float)
    b = np.array([[0.9, 0.0, 0.0, 0.0, 1.9]])
    C = np.array([[3.0, 3.0, 1.0]])
    assert 0.9 - 3 * (0.9 / 3) != 0  # the rounding this guards against
    tight, x, _ = start = _assert_greedy_start(C, A, b)
    assert tight.tolist() == [[0, 2, 3]] and x.tolist() == [[0.9 / 3, 0.0, 0.0]]
    values, X = lp._maximize_stacks(C, A, 0.0, start)
    res = _maximize(C[0], A[0], b[0], tol=0.0)
    assert res.status == lp.OPTIMAL and values[0] == pytest.approx(res.value, abs=1e-15)


def test_greedy_start_members_agree_with_maximize_on_packing_stacks():
    # Packing stacks start at their greedy vertices.  Each member then ends
    # where `maximize` on its own System does, up to ties among optima.
    # Half the stacks are `_capped`'s LPs, max a_k.x with row k capped at
    # b_k + 1; the others maximize mixed-sign objectives under a bounding
    # row of ones.
    rng = np.random.default_rng(38)
    warm = 0
    for trial in range(150):
        size, m, n = rng.integers(1, 9), rng.integers(1, 10), rng.integers(1, 6)
        C, A, b = _packing_stack(rng, size, m, n, trial % 2, trial % 3)
        _assert_greedy_start(C, A, b)
        _assert_stacks_agree_with_maximize(C, A, b, tol=(1e-9, 0.0)[trial % 5 == 0])
        warm += size
    assert warm > 500


def test_batch_is_split_into_stacks_of_bounded_size(monkeypatch):
    monkeypatch.setattr(lp, "_BATCH_CELLS", 5 * 5 * 2)  # two members of 5 x 5 cells
    C, A, b = _packing_stack(np.random.default_rng(6), 5, 2, 2, capped=True)
    sizes = []
    solve = lp._solve_stack
    monkeypatch.setattr(lp, "_solve_stack", lambda C, *a: sizes.append(len(C)) or solve(C, *a))
    _assert_stacks_agree_with_maximize(C, A, b)
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
