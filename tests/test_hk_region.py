"""Rate-splitting region construction and aggregate projection."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import dicregion.hk_region
import dicregion.lp
import dicregion.polytope
from dicregion.entropy import InputDistribution, build_entropy_table, subset_rank
from dicregion.errors import InfeasibleRegionError
from dicregion.hk_region import build_A1, project_to_aggregate, split_labels
from dicregion.polytope import (
    LinearInequality,
    Region,
    canonicalize,
    contains_point,
    fm_eliminate,
    is_subset,
    nonneg_inequalities,
    prune_redundant,
    regions_equal,
    support_value,
    vertices,
)
from dicregion.theorem_region import enumerate_facets

from conftest import (
    assert_support_values_match_highs,
    benchmark_pools,
    channels_with_distributions,
    injective_channel_of_sizes,
    product_channel,
    random_entropy_table,
    random_full_support,
    random_injective_channel,
    witnessing_nothing,
    xor_channel,
)
from reference import aggregate_projection_matrix
from test_entropy import with_zeros


def table_for(spec, dist=None):
    return build_entropy_table(spec, dist or InputDistribution.uniform(spec))


def test_projection_matrix_shape():
    m = aggregate_projection_matrix(3)
    assert len(m) == 3 and all(len(row) == 6 for row in m)
    for i, row in enumerate(m):
        assert [j for j, v in enumerate(row) if v == 1] == [2 * i, 2 * i + 1]
        assert sum(row) == 2


def test_a1_inequality_count_k2(xor):
    region = build_A1(xor, table_for(xor))
    # 2 receivers x 4 subsets, plus 4 nonnegativity rows.
    assert len(region.inequalities) == 12
    assert region.labels == ("R1p", "R1c", "R2p", "R2c")


def test_a1_specific_rows_xor(xor):
    region = build_A1(xor, table_for(xor))
    rows = {(q.coeffs, round(q.rhs, 12)) for q in region.inequalities}
    # receiver 1, both common rates decoded: R1p + R1c + R2c <= H(Y1) = 1
    assert ((1, 1, 0, 1), 1.0) in rows
    # receiver 1, nothing decoded jointly: R1p <= H(Y1 | V1 V2) = 0
    assert ((1, 0, 0, 0), 0.0) in rows


def test_a1_rows_read_the_complement_entry(parity3):
    # Distinct random entries, so a complement or bit-order slip shows.
    K = 3
    table = random_entropy_table(random.Random(4), K)
    region = build_A1(parity3, table)
    rhs_of = {q.coeffs: q.rhs for q in region.inequalities}
    assert len(region.inequalities) == K * (1 << K) + 2 * K
    full = frozenset(range(1, K + 1))
    for i in range(1, K + 1):
        for mask in range(1 << K):
            M = frozenset(m for m in range(1, K + 1) if mask >> (m - 1) & 1)
            coeffs = [0] * (2 * K)
            coeffs[2 * (i - 1)] = 1
            for m in M:
                coeffs[2 * (m - 1) + 1] = 1
            assert rhs_of[tuple(coeffs)] == table.h[i - 1, subset_rank(full - M)], (i, sorted(M))


@pytest.mark.parametrize("route,K,sizes", [
    ("hk-project", 5, [2] * 5),  # every private rate pinned
    ("hk-project", 3, [3, 4, 3]),  # Fourier-Motzkin steps as well
    ("theorem", 3, [3, 2, 4]),
])
def test_routes_build_no_row_objects_but_nonnegativity(monkeypatch, route, K, sizes):
    rng = random.Random(f"{route}/{K}")
    spec = injective_channel_of_sizes(rng, sizes)
    table = build_entropy_table(spec, random_full_support(rng, spec))
    built = []
    original = LinearInequality.__post_init__

    def counting(self):
        built.append(self.coeffs)
        original(self)

    monkeypatch.setattr(LinearInequality, "__post_init__", counting)
    if route == "hk-project":
        region = project_to_aggregate(build_A1(spec, table))
    else:
        region = enumerate_facets(spec, table)
    assert len(region.lhs) > K
    assert len(built) <= 3 * K, built


def test_routes_run_without_scipy():
    # numpy is the one runtime dependency; scipy is only the tests' oracle.
    code = textwrap.dedent("""
        import sys
        from dicregion import (ChannelSpec, InputDistribution, build_A1, build_entropy_table,
                               enumerate_facets, project_to_aggregate, regions_equal)
        flip = ((0, 1), (1, 0))
        spec = ChannelSpec(K=2, x_alphabet_sizes=(2, 2), g_tables=((0, 1),) * 2,
                           f_tables=(flip,) * 2)
        table = build_entropy_table(spec, InputDistribution.uniform(spec))
        hk = project_to_aggregate(build_A1(spec, table))
        assert regions_equal(hk, enumerate_facets(spec, table))
        print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(dicregion.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_project_xor_gives_simplex(xor):
    region = project_to_aggregate(build_A1(xor, table_for(xor)))
    assert region.labels == ("R1", "R2")
    assert [(q.coeffs, q.rhs) for q in region.inequalities] == [
        ((-1, 0), 0.0),
        ((0, -1), 0.0),
        ((1, 1), 1.0),
    ]


def test_project_point_mass_gives_origin(xor):
    table = table_for(xor, InputDistribution.point_mass(xor))
    region = project_to_aggregate(build_A1(xor, table))
    assert contains_point(region, (0.0, 0.0))
    verts = vertices(region)
    assert verts == [(0.0, 0.0)]


def test_project_product_channel_gives_unit_square(product):
    region = project_to_aggregate(build_A1(product, table_for(product)))
    assert {(q.coeffs, q.rhs) for q in region.inequalities} == {
        ((-1, 0), 0.0),
        ((0, -1), 0.0),
        ((1, 0), 1.0),
        ((0, 1), 1.0),
    }


def test_project_rejects_wrong_labels():
    region_bad = build_A1_like_with_labels(("a", "b", "c", "d"))
    with pytest.raises(ValueError, match="labels"):
        project_to_aggregate(region_bad)


def test_project_rejects_an_odd_dimension():
    with pytest.raises(ValueError, match="^split region must have even dimension, got 3$"):
        project_to_aggregate(Region(3, (LinearInequality((1, 0, 0), 1.0),)))


@pytest.mark.parametrize("K", [2, 4])
def test_a1_rejects_a_table_for_other_users(K):
    spec = random_injective_channel(random.Random(K), K, 2)
    with pytest.raises(ValueError, match=f"^entropy table is for 3 users, channel has {K}$"):
        build_A1(spec, random_entropy_table(random.Random(41), 3))


def build_A1_like_with_labels(labels):
    from dicregion.polytope import Region

    rows = (LinearInequality((1, 0, 0, 0), 1.0),)
    return Region(4, rows, labels)


def test_point_soundness_grid_lift():
    # Points sampled inside the projected region must admit a split-rate lift;
    # verified by grid search over (R_1p, R_2p) at resolution 1/64.
    rng = random.Random(3)
    from conftest import xor_channel

    channels = [xor_channel()] + [random_injective_channel(rng, 2, 4) for _ in range(3)]
    for spec in channels:
        table = table_for(spec)
        a1 = build_A1(spec, table)
        region = project_to_aggregate(a1)
        verts = vertices(region)
        for _ in range(50):
            w = [rng.random() for _ in verts]
            s = sum(w) or 1.0
            pt = tuple(
                0.8 * sum(wi * v[k] for wi, v in zip(w, verts)) / s for k in range(2)
            )
            assert contains_point(region, pt, 1e-9)
            assert grid_lift_exists(a1, pt), (spec, pt)


def grid_lift_exists(a1, pt, resolution=64):
    grids = []
    for r in pt:
        vals = sorted({k / resolution for k in range(int(r * resolution) + 1)} | {r})
        grids.append(vals)
    for r1p in grids[0]:
        for r2p in grids[1]:
            lift = (r1p, pt[0] - r1p, r2p, pt[1] - r2p)
            if contains_point(a1, lift, 1e-9):
                return True
    return False


def test_downward_closure():
    rng = random.Random(4)
    for _ in range(5):
        spec = random_injective_channel(rng, 2, 3)
        region = project_to_aggregate(build_A1(spec, table_for(spec)))
        verts = vertices(region)
        for _ in range(40):
            w = [rng.random() for _ in verts]
            s = sum(w) or 1.0
            pt = [sum(wi * v[k] for wi, v in zip(w, verts)) / s for k in range(2)]
            shrunk = tuple(v * rng.random() for v in pt)
            assert contains_point(region, shrunk, 1e-9)


def _k2_cases(rng):
    channels = [xor_channel(), product_channel()] + [
        random_injective_channel(rng, 2, 4) for _ in range(3)
    ]
    for spec in channels:
        for dist in (InputDistribution.uniform(spec), random_full_support(rng, spec)):
            yield spec, dist


def _k4_case(rng):
    spec = random_injective_channel(rng, 4, 3)
    yield spec, random_full_support(rng, spec)


@pytest.mark.parametrize(
    "cases,a_max",
    [(_k2_cases, 2), (_k4_case, 3), (_k4_case, None)],
    ids=["k2", "k4", "k4-default"],
)
def test_projection_equals_enumeration(cases, a_max):
    # The repo's central equivalence: both routes, same region.
    rng = random.Random(5)
    for spec, dist in cases(rng):
        table = build_entropy_table(spec, dist)
        projected = project_to_aggregate(build_A1(spec, table))
        enumerated = enumerate_facets(spec, table, a_max=a_max)
        assert regions_equal(projected, enumerated, 1e-9), spec
        # containment both ways is what equality certifies
        assert is_subset(projected, enumerated, 1e-9)
        assert is_subset(enumerated, projected, 1e-9)


@pytest.mark.parametrize("K, seeds, a_max", [(2, 10, None), (3, 10, None), (4, 3, 3)])
def test_routes_agree_under_point_mass_inputs(K, seeds, a_max):
    # Every entropy is 0, so every row has rhs 0 and all rows meet at the
    # origin: the prunes settle such ties by LP (`polytope._implied`), which
    # every one of these 46 cases reaches.
    for seed in range(seeds):
        spec = random_injective_channel(random.Random(f"point-mass/{K}/{seed}"), K, 3)
        for symbol in (0, 1):
            symbols = [min(symbol, n - 1) for n in spec.x_alphabet_sizes]
            table = build_entropy_table(spec, InputDistribution.point_mass(spec, symbols))
            projected = project_to_aggregate(build_A1(spec, table))
            enumerated = enumerate_facets(spec, table, a_max=a_max)
            difference = dicregion.polytope.compare(projected, enumerated, random.Random(seed))
            assert difference is None, (K, seed, symbol, difference)


def test_split_labels_fixed_order():
    assert split_labels(2) == ("R1p", "R1c", "R2p", "R2c")


def test_elimination_order_invariance_on_split_system():
    # Eliminating users in reverse order (and private before common) must
    # give the same aggregate region.
    import dicregion.polytope as poly

    # The reference route encodes R_ip + R_ic = R_i as an inequality pair
    # and eliminates all 2K split rates, so it also checks the substitution.
    rng = random.Random(8)
    specs = [random_injective_channel(rng, 2, 3) for _ in range(3)]
    specs.append(random_injective_channel(rng, 4, 2))
    for spec in specs:
        table = table_for(spec)
        a1 = build_A1(spec, table)
        standard = project_to_aggregate(a1)

        K = a1.dim // 2
        from dicregion.polytope import LinearInequality

        labels = a1.labels + tuple(f"R{i}" for i in range(1, K + 1))
        rows = [LinearInequality(q.coeffs + (0,) * K, q.rhs) for q in a1.inequalities]
        for i in range(K):
            c = [0] * (3 * K)
            c[2 * i] = 1
            c[2 * i + 1] = 1
            c[2 * K + i] = -1
            rows.append(LinearInequality(tuple(c), 0.0))
            rows.append(LinearInequality(tuple(-v for v in c), 0.0))
        work = poly.Region(3 * K, tuple(rows), labels)
        for i in range(K, 0, -1):  # reversed users, private rate first
            for name in (f"R{i}p", f"R{i}c"):
                work = poly.fm_eliminate(work, name)
                work = poly.prune_redundant(work)
        reversed_route = poly.canonicalize(work)
        assert regions_equal(standard, reversed_route, 1e-9)


# (seed, K, max_x): a binary channel, where every private rate is pinned to
# 0, and alphabets (4, 3, 4, 3), where H(Y_i | V_1..V_4) > 0 for every user,
# so every private rate goes through a prune and Fourier-Motzkin.
PINNED_K4, UNPINNED_K4 = (12, 4, 2), (5, 4, 4)


@pytest.mark.parametrize("seed, K, max_x", [PINNED_K4, UNPINNED_K4], ids=["binary", "unpinned"])
def test_k4_support_values_match_highs_on_lifted_system(seed, K, max_x):
    rng = random.Random(seed)
    spec = random_injective_channel(rng, K, max_x)
    a1 = build_A1(spec, table_for(spec, random_full_support(rng, spec)))
    directions = [[rng.uniform(-1, 1) for _ in range(K)] for _ in range(20)]
    assert_support_values_match_highs(a1, project_to_aggregate(a1), directions)


@settings(max_examples=60, deadline=None)
@given(channels_with_distributions())
def test_support_values_match_highs_on_random_channels(case):
    spec, dist, directions = case
    a1 = build_A1(spec, table_for(spec, dist))
    assert_support_values_match_highs(a1, project_to_aggregate(a1), directions)


@pytest.mark.parametrize(
    "seed, K, max_x, n_rows",
    [(12, 5, 2, 32), UNPINNED_K4 + (19,)],
    ids=["k5-binary", "k4-unpinned"],
)
def test_projection_lp_rows_stay_output_sensitive(monkeypatch, seed, K, max_x, n_rows):
    # On k5-binary, pruning each row against all surviving others passed
    # 34,432 constraint rows to the LP; the working-set LPs pass 14,546, and
    # 1,180 once the pinned private rates are dropped by column.  k4-unpinned
    # eliminates every private rate and passes 17,966.  Batched certificates
    # pass 1,313 and 11,977 (kernel members times their rows), and 132 and
    # 13,839 with greedy witnesses and step B taking every other row in each
    # round that fits one stack.  k4-unpinned passes 6,075 once each user is
    # substituted just before its elimination, so that witnesses apply.
    rng = random.Random(seed)
    spec = random_injective_channel(rng, K, max_x)
    a1 = build_A1(spec, table_for(spec, random_full_support(rng, spec)))
    maximize, maximize_stacks = dicregion.lp.maximize, dicregion.lp._maximize_stacks
    rows = []

    def counting(c, system):
        rows.append(len(system))
        return maximize(c, system)

    def counting_batch(C, A, b, tol, start=None):
        rows.append(len(C) * len(b[0]))  # each member's rows
        return maximize_stacks(C, A, b, tol, start)

    monkeypatch.setattr(dicregion.lp, "maximize", counting)
    monkeypatch.setattr(dicregion.lp, "_maximize_stacks", counting_batch)
    region = project_to_aggregate(a1)
    assert len(region.inequalities) == n_rows
    assert sum(rows) <= 20_000


def _binary_k6():
    rng = random.Random(2)
    spec = random_injective_channel(rng, 6, 2)
    return spec, random_full_support(rng, spec)


def _sweep_k4_x8():
    """The K=4 channel with alphabets of 8 that perfbench's sweep-k4-x8 uses."""
    spec = injective_channel_of_sizes(random.Random("sweep-k4-x8/channel"), [8] * 4)
    return spec, random_full_support(random.Random("sweep-k4-x8/0"), spec)


def _mixed_k3():
    """A K=3 channel whose binary user 2 is pinned and whose users 1 and 3 are not."""
    rng = random.Random(0)
    spec = injective_channel_of_sizes(rng, [3, 2, 4])
    return spec, random_full_support(rng, spec)


@pytest.mark.parametrize("case, n_rows, most_calls, witnesses",
                         [(_binary_k6, 50, 2, True), (_sweep_k4_x8, 23, 5, False)],
                         ids=["binary-k6", "k4-x8"])
def test_prune_rounds_stop_doubling_early(monkeypatch, case, n_rows, most_calls, witnesses):
    # One batch call is one round of certificate LPs.  Doubling the
    # working sets until no row was violated, then testing every row step B
    # bounded over the kept rows again, took 5 and 18 calls on these inputs,
    # and starting from step A over the kept rows took 1 and 10.  Now the
    # first round of each prune takes every other row when it fits one stack
    # and so decides every open row: binary-k6 takes that round and one of
    # step C, and each of the five k4-x8 prunes, with its greedy witnesses
    # off so that all its open rows reach the LPs, one.
    spec, dist = case()
    a1 = build_A1(spec, table_for(spec, dist))
    maximize_stacks, calls = dicregion.lp._maximize_stacks, []

    def counting_batch(C, A, b, tol, start=None):
        calls.append(len(C))
        return maximize_stacks(C, A, b, tol, start)

    monkeypatch.setattr(dicregion.lp, "_maximize_stacks", counting_batch)
    if not witnesses:
        monkeypatch.setattr(dicregion.polytope, "_witnessed", witnessing_nothing)
    assert len(project_to_aggregate(a1).inequalities) == n_rows
    assert len(calls) <= most_calls


def test_step_b_takes_every_other_row_only_in_rounds_that_fit_one_stack(monkeypatch):
    # With a stack cut to 2^15 tableau cells, the 63 members of the one prune
    # here do not fit one stack, so step A starts them at the kept rows, and
    # they keep doubling (6, 12, 24 rows) until few enough are left to take
    # every other row; the region is the same.  On the K=10 facet route,
    # 284 members taking 966 rows each made the final prune 40% slower.
    # The prune is of a packing system, so steps B and C are reached here
    # with greedy witnesses that witness nothing.
    spec, dist = _binary_k6()
    a1 = build_A1(spec, table_for(spec, dist))
    region = project_to_aggregate(a1)
    capped, rounds = dicregion.polytope._capped, []

    def recording(A, b, rows, tested, tol, start=None):
        if rows.ndim == 2:  # steps A and B, or the first round from the walk's vertices
            size = rows[0].sum()
            rounds.append((size, len(tested) * (len(b) + 1) * (2 * A.shape[1] + 1)))
        return capped(A, b, rows, tested, tol, start)

    monkeypatch.setattr(dicregion.lp, "_BATCH_CELLS", 2**15)
    monkeypatch.setattr(dicregion.polytope, "_capped", recording)
    with monkeypatch.context() as patch:
        patch.setattr(dicregion.polytope, "_witnessed", witnessing_nothing)
        assert project_to_aggregate(a1) == region
        jumps = [cells for (was, _), (size, cells) in zip(rounds, rounds[1:]) if size > 2 * max(5, was)]
        assert [size for size, _ in rounds[:3]] == [6, 12, 24]
        assert jumps and max(jumps) <= 2**15
    # With them, 42 of the 63 are kept first (43 when a second walk broke
    # ties by reversed index), and the other 21 fit one stack: one round over
    # all 68 other rows, from the walk's vertices, decides each of them.
    rounds.clear()
    assert project_to_aggregate(a1) == region
    assert [size for size, _ in rounds] == [68]


def test_every_prune_of_the_projection_receives_a_packing_system(monkeypatch):
    # Each user's R_ic = R_i - R_ip is substituted just before R_ip is
    # eliminated, so every row but the sign rows stays nonnegative and the
    # greedy witnesses apply to every prune.  Substituting every user before
    # the first prune gave each prune before an elimination rows such as
    # R_ip - R_i <= 0.
    prune, systems = dicregion.hk_region.prune_redundant, []

    def recording(region, tol=1e-9, *, facets=frozenset()):
        systems.append(region.matrix())
        return prune(region, tol=tol, facets=facets)

    monkeypatch.setattr(dicregion.hk_region, "prune_redundant", recording)
    cases, rng = [_sweep_k4_x8(), _mixed_k3()], random.Random(13)
    for K, max_x in ((2, 5), (3, 4), (4, 3), (5, 3)):
        spec = random_injective_channel(rng, K, max_x)
        cases += [(spec, random_full_support(rng, spec)), (spec, with_zeros(rng, spec))]
    for spec, dist in cases:
        project_to_aggregate(build_A1(spec, table_for(spec, dist)))
    assert len(systems) - len(cases) >= 14  # prunes before an elimination
    for A, b in systems:
        assert (A[~dicregion.polytope._sign_rows(A, b)] >= 0).all()


def test_every_stacked_lp_is_a_packing_system_with_one_sign_row_per_coordinate(monkeypatch):
    # `lp._maximize_stacks` does not check its input: every member must be
    # a packing system (b >= 0, every row nonnegative but the sign rows)
    # with exactly one sign row per coordinate, and a row with a positive
    # entry must bound each coordinate its objective weighs positively.
    # `prune_redundant` certifies only such systems; this checks every
    # stack of the benchmark pools and of seeded channels through both routes.
    maximize_stacks, members = dicregion.lp._maximize_stacks, []

    def checking(C, A, b, tol, start=None):
        sign = (b == 0) & ((A != 0).sum(2) == 1) & (A.sum(2) == -1)
        assert (b >= 0).all() and (A[~sign] >= 0).all()
        assert (((A != 0) & sign[:, :, None]).sum(1) == 1).all()
        assert ((A > 0).any(1) | (C <= 0)).all()
        members.append(len(C))
        return maximize_stacks(C, A, b, tol, start)

    monkeypatch.setattr(dicregion.lp, "_maximize_stacks", checking)
    projected, both = benchmark_pools()
    for spec, dist in projected:
        project_to_aggregate(build_A1(spec, table_for(spec, dist)))
    rng = random.Random(40)
    for trial in range(120):
        spec = random_injective_channel(rng, 2 + trial % 3, 4)
        dist = (random_full_support(rng, spec), InputDistribution.uniform(spec), with_zeros(rng, spec),
                InputDistribution.point_mass(spec, [n - 1 for n in spec.x_alphabet_sizes]))[trial % 4]
        both.append((spec, dist))
    for spec, dist in both:
        table = table_for(spec, dist)
        project_to_aggregate(build_A1(spec, table))
        enumerate_facets(spec, table)
    assert len(members) > 200 and sum(members) > 2000


def test_greedy_witnesses_decide_the_k4_x8_prunes(monkeypatch):
    # With every user substituted before the first prune, this projection
    # sent 297 members through the stacked solver in 9 calls, and the
    # witnesses kept none of the 64 open rows of its first prune.  The one
    # walk per row keeps as many as two walks did; the members went 122 ->
    # 124 when the first round took every other row instead of step A.
    spec, dist = _sweep_k4_x8()
    a1 = build_A1(spec, table_for(spec, dist))
    maximize_stacks, witnessed = dicregion.lp._maximize_stacks, dicregion.polytope._witnessed
    members, keeps = [], []

    def counting_batch(C, A, b, tol, start=None):
        members.append(len(C))
        return maximize_stacks(C, A, b, tol, start)

    def counting_keeps(A, b, tested, tol):
        hit, start = witnessed(A, b, tested, tol)
        keeps.append((hit.sum(), len(tested)))
        return hit, start

    monkeypatch.setattr(dicregion.lp, "_maximize_stacks", counting_batch)
    monkeypatch.setattr(dicregion.polytope, "_witnessed", counting_keeps)
    assert len(project_to_aggregate(a1).inequalities) == 23
    assert (len(members), sum(members)) == (5, 124)
    assert keeps == [(62, 64), (4, 83), (10, 30), (6, 17), (17, 29)]


def test_greedy_witnesses_leave_few_members_to_the_binary_k6_prune(monkeypatch):
    # Before the greedy witnesses, this prune sent 128 members through the
    # stacked solver in 3 calls.  It sends 21 in its first round and 2 more
    # in step C.
    spec, dist = _binary_k6()
    a1 = build_A1(spec, table_for(spec, dist))
    maximize_stacks, members = dicregion.lp._maximize_stacks, []

    def counting_batch(C, A, b, tol, start=None):
        members.append(len(C))
        return maximize_stacks(C, A, b, tol, start)

    monkeypatch.setattr(dicregion.lp, "_maximize_stacks", counting_batch)
    assert len(project_to_aggregate(a1).inequalities) == 50
    assert 0 < sum(members) <= 32


@pytest.mark.parametrize("case, steps, pivots", [(_sweep_k4_x8, 9, 31), (_binary_k6, 3, 4)],
                         ids=["k4-x8", "binary-k6"])
def test_greedy_starts_pin_the_stacked_pivots(monkeypatch, case, steps, pivots):
    # Every prune of the projection is a packing system with one sign row per
    # coordinate, so each stacked LP starts at a greedy vertex, the witness
    # walk's in a first round that fits one stack: n tight rows per member,
    # one per coordinate.  From the slack basis these projections took 42
    # stack pivot steps with 626 member pivots (k4-x8) and 7 with 62
    # (binary-k6); starting from step A at its own greedy vertices, 9 with
    # 28 and 3 with 3.
    spec, dist = case()
    a1 = build_A1(spec, table_for(spec, dist))
    pivot_stack, vertex_tableaus = dicregion.lp._pivot_stack, dicregion.lp._vertex_tableaus
    made, starts = [], []

    def counting(T, *args):
        made.append(len(T))
        return pivot_stack(T, *args)

    def recording(C, A, tol, X, tight, x, slack):
        starts.append((C.shape[1], tight))
        return vertex_tableaus(C, A, tol, X, tight, x, slack)

    monkeypatch.setattr(dicregion.lp, "_pivot_stack", counting)
    monkeypatch.setattr(dicregion.lp, "_vertex_tableaus", recording)
    project_to_aggregate(a1)
    assert (len(made), sum(made)) == (steps, pivots)
    assert starts
    for n, tight in starts:
        assert tight.shape[1] == n and all(len(set(rows)) == n for rows in tight.tolist())


def test_pinned_private_rates_leave_only_aggregate_lps(monkeypatch):
    # Every binary user is pinned (H(Y_i | V_1..V_K) = 0), so no LP of the
    # projection runs over the 2K-dimensional split system.
    rng = random.Random(12)
    spec = random_injective_channel(rng, 5, 2)
    a1 = build_A1(spec, table_for(spec, random_full_support(rng, spec)))
    maximize, maximize_stacks = dicregion.lp.maximize, dicregion.lp._maximize_stacks
    widths = []

    def counting(c, system):
        widths.append(len(c))
        return maximize(c, system)

    def counting_batch(C, A, b, tol, start=None):
        widths.extend(len(c) for c in C)
        return maximize_stacks(C, A, b, tol, start)

    monkeypatch.setattr(dicregion.lp, "maximize", counting)
    monkeypatch.setattr(dicregion.lp, "_maximize_stacks", counting_batch)
    project_to_aggregate(a1)
    assert widths and max(widths) == 5


def _plain_projection(a1):
    """project_to_aggregate written as a plain prune/eliminate loop, with no
    facets carried: substitute R_ic = R_i - R_ip, drop every pinned private
    column, prune before each elimination, add nonnegativity, prune again."""
    K = a1.dim // 2
    rows = []
    for coeffs, rhs in zip(a1.lhs, a1.rhs.tolist()):
        private, common = coeffs[0::2], coeffs[1::2]
        rows.append((tuple(p - c for p, c in zip(private, common)) + common, rhs))
    unit = lambda k, s: tuple(s if j == k else 0 for j in range(2 * K))
    keep = [k for k in range(2 * K) if k >= K or {(unit(k, 1), 0.0), (unit(k, -1), 0.0)} - set(rows)]
    sliced = [(tuple(c[k] for k in keep), b) for c, b in rows]
    labels = split_labels(K)[0::2] + tuple(f"R{i}" for i in range(1, K + 1))
    work = Region(len(keep), [LinearInequality(c, b) for c, b in sliced if any(c)],
                  [labels[k] for k in keep])
    for label in work.labels[:-K]:
        work = fm_eliminate(prune_redundant(work), label)
    work = Region(K, work.inequalities + tuple(nonneg_inequalities(K)), work.labels)
    return canonicalize(prune_redundant(work))


def test_carried_facets_leave_the_projection_byte_identical(monkeypatch):
    # The route's region is `_plain_projection`'s and its own with no facets
    # carried, byte for byte, and the carried facets never add an LP.  The
    # plain loop's prunes are not packing systems, so they take one LP per
    # row and their count says nothing of the facets.
    maximize, maximize_stacks = dicregion.lp.maximize, dicregion.lp._maximize_stacks
    prune = dicregion.hk_region.prune_redundant
    calls = []

    def counting(c, system):
        calls.append(1)
        return maximize(c, system)

    def counting_batch(C, A, b, tol, start=None):
        calls.extend([1] * len(C))  # one LP per member
        return maximize_stacks(C, A, b, tol, start)

    monkeypatch.setattr(dicregion.lp, "maximize", counting)
    monkeypatch.setattr(dicregion.lp, "_maximize_stacks", counting_batch)
    cases = [_sweep_k4_x8(), _mixed_k3()]
    for seed, K, max_x in [(3, 3, 3), (9, 3, 4), UNPINNED_K4, (6, 4, 3)]:
        rng = random.Random(seed)
        spec = random_injective_channel(rng, K, max_x)
        cases += [(spec, random_full_support(rng, spec)), (spec, with_zeros(rng, spec)),
                  (spec, InputDistribution.point_mass(spec, [n - 1 for n in spec.x_alphabet_sizes]))]
    fewer = 0
    for spec, dist in cases:
        a1 = build_A1(spec, table_for(spec, dist))
        del calls[:]
        route = project_to_aggregate(a1)
        route_calls = len(calls)
        del calls[:]
        with monkeypatch.context() as patch:
            patch.setattr(dicregion.hk_region, "prune_redundant", lambda work, tol, facets=(): prune(work, tol=tol))
            bare = project_to_aggregate(a1)
        bare_calls = len(calls)
        for other in (bare, _plain_projection(a1)):
            assert route.lhs == other.lhs and route.labels == other.labels
            assert route.rhs.tobytes() == other.rhs.tobytes()
        assert route_calls <= bare_calls
        fewer += route_calls < bare_calls
    assert fewer  # carried facets skipped LPs on some channel


def test_projection_reads_the_same_rows_from_an_equal_unshared_lhs():
    # A split region with an equal matrix of its own, not the shared one,
    # projects to the same region, byte for byte.
    rng = random.Random(8)
    for K, max_x in ((3, 3), (4, 2)):
        spec = random_injective_channel(rng, K, max_x)
        a1 = build_A1(spec, table_for(spec, random_full_support(rng, spec)))
        copy = Region._from_rows(a1.dim, a1.A.copy(), a1.rhs, a1.labels)
        assert copy.A is not a1.A and copy == a1
        shared, unshared = project_to_aggregate(a1), project_to_aggregate(copy)
        assert (unshared.lhs, unshared.rhs.tobytes()) == (shared.lhs, shared.rhs.tobytes())


def test_a_zero_row_below_minus_tol_makes_the_projection_infeasible():
    spec = xor_channel()
    a1 = build_A1(spec, table_for(spec, InputDistribution.uniform(spec)))
    empty = Region._from_rows(4, a1.lhs + ((0, 0, 0, 0),), a1.rhs.tolist() + [-1.0], a1.labels)
    with pytest.raises(InfeasibleRegionError, match="implies 0 <= -1.0"):
        project_to_aggregate(empty)
    slack = Region._from_rows(4, a1.lhs + ((0, 0, 0, 0),), a1.rhs.tolist() + [-1e-10], a1.labels)
    assert project_to_aggregate(slack) == project_to_aggregate(a1)


def test_a1_shares_its_coefficient_matrix_across_calls():
    # Every split region of one K holds the one cached matrix, which nothing
    # can write, and one labels tuple; perfbench keeps every outcome, so a
    # copy per region would grow its peak RSS with the instances run.
    spec = random_injective_channel(random.Random(3), 3, 3)
    rng = random.Random(4)
    first = build_A1(spec, table_for(spec, random_full_support(rng, spec)))
    second = build_A1(spec, table_for(spec, random_full_support(rng, spec)))
    assert first != second
    assert first.A is second.A and first.labels is second.labels
    assert first.A.dtype == np.int64 and first.A.flags.c_contiguous and not first.A.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first.A[0, 0] = 2


def test_projection_rejects_tolerance_of_one_or_more(xor):
    # The prune's LP cap sits 1 above each row; at tol >= 1 every row but
    # nonnegativity would be dropped.
    with pytest.raises(ValueError, match="below 1"):
        project_to_aggregate(build_A1(xor, table_for(xor)), tol=1.0)


def test_vertex_hull_round_trip_on_computed_regions():
    # Support values of the projected region match the hull of its vertices.
    rng = random.Random(9)
    from dicregion.polytope import support_value, vertices as region_vertices

    specs = [random_injective_channel(rng, 2, 4), random_injective_channel(rng, 3, 2)]
    for spec in specs:
        region = project_to_aggregate(build_A1(spec, table_for(spec)))
        verts = region_vertices(region)
        assert verts
        for _ in range(100):
            d = tuple(rng.uniform(-1, 1) for _ in range(region.dim))
            hull = max(sum(di * vi for di, vi in zip(d, v)) for v in verts)
            assert support_value(region, d) == pytest.approx(hull, abs=1e-8)


def test_single_symbol_user_pins_rate_to_zero():
    # User 2 has a one-letter alphabet: it carries nothing and interferes
    # deterministically, so the region is {0 <= R1 <= 1, R2 = 0}.
    from dicregion.channel import ChannelSpec

    spec = ChannelSpec(
        K=2,
        x_alphabet_sizes=(2, 1),
        g_tables=((0, 1), (0,)),
        f_tables=(((0,), (1,)), ((0, 1),)),
    )
    table = table_for(spec)
    projected = project_to_aggregate(build_A1(spec, table))
    assert {(q.coeffs, q.rhs) for q in projected.inequalities} == {
        ((-1, 0), 0.0),
        ((0, -1), 0.0),
        ((0, 1), 0.0),
        ((1, 0), 1.0),
    }
    assert regions_equal(projected, enumerate_facets(spec, table, a_max=2), 1e-9)


def test_constant_interference_map():
    # g_1 constant: receiver 2 decodes its input cleanly, yet user 2's
    # transmission still corrupts receiver 1, so the sum bound binds.
    from dicregion.channel import ChannelSpec

    spec = ChannelSpec(
        K=2,
        x_alphabet_sizes=(2, 2),
        g_tables=((0, 0), (0, 1)),
        f_tables=(((0, 1), (1, 0)), ((0,), (1,))),
    )
    table = table_for(spec)
    projected = project_to_aggregate(build_A1(spec, table))
    assert {(q.coeffs, q.rhs) for q in projected.inequalities} == {
        ((-1, 0), 0.0),
        ((0, -1), 0.0),
        ((1, 1), 1.0),
    }
    assert regions_equal(projected, enumerate_facets(spec, table, a_max=2), 1e-9)
