"""Entropy table construction and the injectivity identity."""

import copy
import gc
import itertools
import math
import pickle
import random

import numpy as np
import pytest

from dicregion import entropy, enumerate_facets
from dicregion.channel import ChannelSpec, channel_from_dict, channel_to_dict
from dicregion.entropy import (
    EntropyTable,
    InputDistribution,
    build_entropy_table,
    load_distribution,
    save_distribution,
    subset_rank,
)
from dicregion.hk_region import build_A1, project_to_aggregate

from conftest import (
    injective_channel_of_sizes,
    random_entropy_table,
    random_full_support,
    random_injective_channel,
)
from reference import check_injectivity_identity, own_input_entropies


def joint_pmf(spec, dist):
    """Oracle: the joint pmf over (x tuple, v tuple, y tuple) by enumeration."""
    # Entry r of an output row is the r-th tuple of v_tuples_for, an
    # itertools.product; the package indexes the rows by numpy place values.
    index = [{t: r for r, t in enumerate(spec.v_tuples_for(i))} for i in range(1, spec.K + 1)]
    out = []
    for x_tuple in itertools.product(*(range(n) for n in spec.x_alphabet_sizes)):
        p = 1.0
        for j, x in enumerate(x_tuple):
            p *= dist.probs[j][x]
        if p == 0.0:
            continue
        v = tuple(spec.g_tables[j][x] for j, x in enumerate(x_tuple))
        ys = []
        for i in range(1, spec.K + 1):
            r = index[i - 1][tuple(v[j - 1] for j in spec.other_users(i))]
            ys.append(spec.f_tables[i - 1][x_tuple[i - 1]][r])
        out.append((x_tuple, v, tuple(ys), p))
    return out


def entropy_of(groups):
    acc = {}
    for key, p in groups:
        acc[key] = acc.get(key, 0.0) + p
    return -sum(p * math.log2(p) for p in acc.values() if p > 0)


def test_xor_uniform_values(xor):
    dist = InputDistribution.uniform(xor)
    table = build_entropy_table(xor, dist)
    assert table.h[0, subset_rank({2})] == pytest.approx(1.0, abs=1e-12)
    assert table.h[0, subset_rank(set())] == pytest.approx(1.0, abs=1e-12)
    assert table.h[0, subset_rank({1, 2})] == pytest.approx(0.0, abs=1e-12)
    assert own_input_entropies(xor, dist)[1][0] == pytest.approx(1.0, abs=1e-12)


def test_point_mass_all_zero(xor):
    dist = InputDistribution.point_mass(xor)
    table = build_entropy_table(xor, dist)
    for h in table.h.ravel():
        assert h == pytest.approx(0.0, abs=1e-12)
    assert all(h == 0.0 for h in own_input_entropies(xor, dist)[1])


@pytest.mark.parametrize("shape", [(2, 3), (3, 4), (4,), (2, 4, 1)])
def test_table_rejects_wrong_array_shape(shape):
    with pytest.raises(ValueError, match="shape"):
        EntropyTable(np.zeros(shape))


@pytest.mark.parametrize(
    "value, route",
    [(math.nan, "theorem"), (math.nan, "hk-project"), (-0.5, "hk-project"), (math.inf, "theorem")],
)
def test_table_rejects_a_bad_entry_before_either_route(xor, value, route):
    # Unchecked, a NaN at h[0, 1] gives enumerate_facets a 4-row region and
    # stops the projection at "argmin of an empty sequence"; -0.5 gives an
    # empty projection (R2 <= -0.5 with R2 >= 0).
    built = build_entropy_table(xor, InputDistribution.uniform(xor))
    h = built.h.copy()
    h[0, 1] = value
    routes = {
        "theorem": lambda table: enumerate_facets(xor, table),
        "hk-project": lambda table: project_to_aggregate(build_A1(xor, table)),
    }
    with pytest.raises(ValueError, match=rf"receiver 1 at mask 0b1 is {value}$"):
        routes[route](EntropyTable(h))


def test_table_array_is_a_read_only_copy(xor):
    source = np.arange(8.0).reshape(2, 4)
    table = EntropyTable(source)
    source[0, 0] = 99.0
    assert table.h[0, subset_rank(set())] == 0.0
    assert table.h[1, subset_rank({1, 2})] == 7.0  # row 2, mask 0b11
    built = build_entropy_table(xor, InputDistribution.uniform(xor))
    for t in (table, built):
        with pytest.raises(ValueError):
            t.h[0, 0] = 1.0


def test_product_channel_values(product):
    table = build_entropy_table(product, InputDistribution.uniform(product))
    assert table.h[0, subset_rank({2})] == pytest.approx(1.0, abs=1e-12)
    assert table.h[0, subset_rank(set())] == pytest.approx(2.0, abs=1e-12)


def test_identity_xor_uniform(xor):
    assert check_injectivity_identity(xor, InputDistribution.uniform(xor), 1e-12)


def test_identity_fails_on_parity(parity3):
    # H(Y_1|X_1) = 1 bit but the interference entropies sum to 2 bits.
    dist = InputDistribution.uniform(parity3)
    y_given_x, marginals = own_input_entropies(parity3, dist)
    assert y_given_x[0] == pytest.approx(1.0, abs=1e-12)
    assert sum(marginals[j - 1] for j in (2, 3)) == pytest.approx(2.0, abs=1e-12)
    assert not check_injectivity_identity(parity3, dist, 1e-9)


def test_identity_check_builds_no_table_and_no_layout(monkeypatch, xor, parity3):
    # Both sides come from the channel and the pmf: on the binary K=10
    # channel a table would cost 10 x 2^10 entries to read 20 numbers.
    def refuse(*args):
        raise AssertionError("the identity check built a table or a layout")

    k10 = random_injective_channel(random.Random(10), 10, 2)
    monkeypatch.setattr(entropy, "build_entropy_table", refuse)
    monkeypatch.setattr(entropy, "_layout_of", refuse)
    for spec, holds in ((xor, True), (parity3, False), (k10, True)):
        assert check_injectivity_identity(spec, InputDistribution.uniform(spec)) == holds


def test_split_rhs_is_the_read_only_complement_view():
    table = random_entropy_table(random.Random(43), 3)
    full = frozenset({1, 2, 3})
    for i in full:
        for mask in range(8):
            M = frozenset(m for m in full if mask >> (m - 1) & 1)
            assert table.split_rhs[i - 1, subset_rank(M)] == table.h[i - 1, subset_rank(full - M)]
    with pytest.raises(ValueError):
        table.split_rhs[0, 0] = 1.0


def test_identity_trivial_for_point_mass(parity3):
    assert check_injectivity_identity(parity3, InputDistribution.point_mass(parity3), 1e-12)


def test_entropies_match_enumeration_oracle(xor):
    # Recompute H(Y_1 | V_T) from the raw joint pmf for every T.
    dist = InputDistribution.uniform(xor)
    table = build_entropy_table(xor, dist)
    pmf = joint_pmf(xor, dist)
    for bits in range(4):
        T = frozenset(j for j in (1, 2) if bits & (1 << (j - 1)))
        h_joint = entropy_of(((tuple(v[j - 1] for j in sorted(T)), y[0]), p) for _, v, y, p in pmf)
        h_T = entropy_of((tuple(v[j - 1] for j in sorted(T)), p) for _, v, _, p in pmf)
        assert table.h[0, subset_rank(T)] == pytest.approx(h_joint - h_T, abs=1e-12)


def reference_table(spec, dist):
    """Oracle: every table entry by dict marginalization of the joint pmf."""
    pmf = joint_pmf(spec, dist)
    users = range(1, spec.K + 1)
    cond = {}
    for i in users:
        for bits in range(1 << spec.K):
            T = sorted(j for j in users if bits & (1 << (j - 1)))
            h_ty = entropy_of(((tuple(v[j - 1] for j in T), y[i - 1]), p) for _, v, y, p in pmf)
            h_t = entropy_of((tuple(v[j - 1] for j in T), p) for _, v, _, p in pmf)
            cond[(i, frozenset(T))] = h_ty - h_t
    v_marginals = [entropy_of((v[j - 1], p) for _, v, _, p in pmf) for j in users]
    y_given_x = [
        entropy_of(((x[i - 1], y[i - 1]), p) for x, _, y, p in pmf)
        - entropy_of((x[i - 1], p) for x, _, _, p in pmf)
        for i in users
    ]
    return cond, v_marginals, y_given_x


def with_zeros(rng, spec):
    """A distribution with at least one zero entry per user, keeping one positive."""
    rows = []
    for n in spec.x_alphabet_sizes:
        w = [rng.random() if rng.random() < 0.6 else 0.0 for _ in range(n)]
        w[rng.randrange(n)] = 0.0
        if not any(w):
            w[rng.randrange(n)] = 1.0
        s = sum(w)
        rows.append(tuple(v / s for v in w))
    return InputDistribution(tuple(rows))


def reference_cases(parity3):
    """Random injective channels K=2-4 and `parity3`, each under a full-support
    and a zero-entry distribution."""
    rng = random.Random(13)
    cases = [(parity3, InputDistribution.uniform(parity3)), (parity3, with_zeros(rng, parity3))]
    for K, max_x in ((2, 4), (3, 3), (3, 4), (4, 3)):
        for _ in range(3):
            spec = random_injective_channel(rng, K, max_x)
            cases.append((spec, random_full_support(rng, spec)))
            cases.append((spec, with_zeros(rng, spec)))
    return cases


def assert_matches_reference(table, spec, dist):
    cond, v_marginals, y_given_x = reference_table(spec, dist)
    assert len(cond) == table.h.size  # every array entry is compared below
    for (i, T), h in cond.items():
        assert table.h[i - 1, subset_rank(T)] == pytest.approx(h, abs=1e-12), (i, T)
    own_y_given_x, own_marginals = own_input_entropies(spec, dist)
    assert own_marginals == pytest.approx(v_marginals, abs=1e-12)
    assert own_y_given_x == pytest.approx(y_given_x, abs=1e-12)


def test_table_matches_dict_enumeration_reference(parity3):
    for spec, dist in reference_cases(parity3):
        assert_matches_reference(build_entropy_table(spec, dist), spec, dist)


def functional_on_support(spec, dist):
    """Oracle: {(i, T): whether Y_i is a function of V_T on the positive-mass inputs}."""
    pmf = joint_pmf(spec, dist)
    users = range(1, spec.K + 1)
    out = {}
    for i in users:
        for bits in range(1 << spec.K):
            T = frozenset(j for j in users if bits & (1 << (j - 1)))
            ys = {}
            for _, v, y, _ in pmf:
                ys.setdefault(tuple(v[j - 1] for j in sorted(T)), set()).add(y[i - 1])
            out[(i, T)] = all(len(s) == 1 for s in ys.values())
    return out


def test_exact_zero_iff_output_is_a_function_of_the_conditioning(parity3):
    # An exact 0.0 is what pins a private rate in the projection route, so a
    # rounding residue of 1e-16 there would silently change the route taken.
    rng = random.Random(17)
    binary = []
    for K in (5, 6):
        spec = random_injective_channel(rng, K, 2)
        binary += [(spec, random_full_support(rng, spec)), (spec, with_zeros(rng, spec))]
    for spec, dist in reference_cases(parity3) + binary:
        table = build_entropy_table(spec, dist)
        for (i, T), functional in functional_on_support(spec, dist).items():
            assert (table.h[i - 1, subset_rank(T)] == 0.0) == functional, (i, T)
    for spec, dist in binary:
        assert (build_entropy_table(spec, dist).h[:, -1] == 0.0).all()


@pytest.mark.parametrize("zeros", [False, True], ids=["full-support", "zero-entries"])
def test_table_spanning_several_blocks_matches_reference(monkeypatch, zeros):
    rng = random.Random(19)
    spec = injective_channel_of_sizes(rng, [8] * 4)
    dist = random_full_support(rng, spec)
    if zeros:  # one zero entry per user keeps enough cells for several blocks
        dist = InputDistribution(tuple(
            tuple(0.0 if x == 0 else p / (1.0 - row[0]) for x, p in enumerate(row))
            for row in dist.probs
        ))
    # Receiver i sorts one code per mask and positive-mass (x_i, V_j for j != i)
    # cell, here more than two blocks' worth.
    pmf = joint_pmf(spec, dist)
    for i in range(spec.K):
        cells = {(x[i], v[:i] + v[i + 1:]) for x, v, _, _ in pmf}
        assert len(cells) << spec.K > 2 * entropy._BLOCK_CODES
    # A kept layout groups each receiver in one block, so the layout is not kept.
    monkeypatch.setattr(entropy, "_LAYOUT_ENTRIES", 0)
    blocks, groups = [], entropy._groups

    def counted_groups(*args):
        blocks.append(0)
        for block in groups(*args):
            blocks[-1] += 1
            yield block

    monkeypatch.setattr(entropy, "_groups", counted_groups)
    assert_matches_reference(build_entropy_table(spec, dist), spec, dist)
    assert len(blocks) == spec.K and min(blocks) > 1, blocks


def table_bytes(table):
    return table.h.tobytes()


def fresh_copy(spec):
    return channel_from_dict(channel_to_dict(spec))


def layout_cases():
    """Two channels, each with a full-support, a zero-entry and a point-mass
    distribution; channel A spans several sort blocks per receiver."""
    rng = random.Random(23)
    a = injective_channel_of_sizes(rng, [8, 6, 7, 5])
    b = random_injective_channel(rng, 3, 4)
    return [
        (spec, dist)
        for spec in (a, b)
        for dist in (random_full_support(rng, spec), with_zeros(rng, spec),
                     InputDistribution.point_mass(spec, [n - 1 for n in spec.x_alphabet_sizes]))
    ]


def test_tables_on_revisited_channels_equal_tables_of_fresh_copies():
    cases = layout_cases()
    expected = [table_bytes(build_entropy_table(fresh_copy(spec), dist)) for spec, dist in cases]
    a, b = cases[:3], cases[3:]
    order = [a[0], a[1], b[0], b[1], a[2], a[0], b[2], a[1]]  # A, B, A, with revisits
    for spec, dist in order:
        assert table_bytes(build_entropy_table(spec, dist)) == expected[cases.index((spec, dist))]


def counted_layout_builds(monkeypatch, clear=True):
    builds = []
    build = entropy._build_layout
    monkeypatch.setattr(
        entropy, "_build_layout", lambda spec, keep: builds.append(spec) or build(spec, keep)
    )
    if clear:
        entropy._layouts.clear()
    return builds


def test_layout_is_built_once_per_run_of_one_channel(monkeypatch):
    builds = counted_layout_builds(monkeypatch)
    rng = random.Random(29)
    a, b = random_injective_channel(rng, 4, 3), random_injective_channel(rng, 3, 3)
    for _ in range(5):
        build_entropy_table(a, random_full_support(rng, a))
    assert builds == [a] and list(entropy._layouts) == [a]
    build_entropy_table(b, InputDistribution.uniform(b))
    build_entropy_table(a, InputDistribution.uniform(a))
    assert builds == [a, b]  # the revisited channel's layout was still kept
    build_entropy_table(fresh_copy(a), InputDistribution.uniform(a))  # equal, not the same
    assert len(builds) == 2


def test_equal_copies_of_a_channel_share_one_layout(monkeypatch):
    builds = counted_layout_builds(monkeypatch)
    a = random_injective_channel(random.Random(41), 3, 3)
    copies = [fresh_copy(a), copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))]
    for spec in copies:
        assert spec == a and hash(spec) == hash(a) and repr(spec) == repr(a)
        assert channel_to_dict(spec) == channel_to_dict(a)
    for spec in [a] + copies:
        build_entropy_table(spec, InputDistribution.uniform(spec))
    assert builds == [a] and list(entropy._layouts) == [a]


def test_layout_lives_exactly_as_long_as_the_channel_it_was_built_for(monkeypatch):
    builds = counted_layout_builds(monkeypatch)
    a = random_injective_channel(random.Random(37), 3, 3)
    copy = fresh_copy(a)
    for spec in (a, copy):
        build_entropy_table(spec, InputDistribution.uniform(spec))
    assert builds == [a] and list(entropy._layouts) == [a]  # the equal copy reused it
    builds.clear()  # the only other reference to a
    del a
    gc.collect()
    assert len(entropy._layouts) == 0
    build_entropy_table(copy, InputDistribution.uniform(copy))
    assert builds == [copy] and list(entropy._layouts) == [copy]


def test_six_binary_channels_of_six_users_keep_their_layouts_across_rotations(monkeypatch):
    # A rotation over several channels, as a benchmark pool runs them, used to
    # rebuild the layout for every table: only the last channel's was kept.
    # The channels are new to the cache, which is left as it is.
    builds = counted_layout_builds(monkeypatch, clear=False)
    rng = random.Random(41)
    specs = [random_injective_channel(rng, 6, 2) for _ in range(6)]
    for _ in range(2):
        for spec in specs:
            build_entropy_table(spec, random_full_support(rng, spec))
    assert builds == specs


def test_layout_too_large_to_keep_gives_the_same_tables_and_is_not_kept(monkeypatch):
    cases = layout_cases()
    expected = [table_bytes(build_entropy_table(spec, dist)) for spec, dist in cases]
    builds = counted_layout_builds(monkeypatch)
    monkeypatch.setattr(entropy, "_LAYOUT_ENTRIES", 0)
    for (spec, dist), want in zip(cases, expected):
        assert table_bytes(build_entropy_table(spec, dist)) == want
    assert len(builds) == len(cases)
    assert len(entropy._layouts) == 0


@pytest.mark.parametrize("block_codes", [1, 64, None])
def test_table_bytes_do_not_depend_on_block_sizes(monkeypatch, block_codes):
    # A kept layout groups all masks in one block; an uncached one groups
    # one mask per block, a few, or as many as the default _BLOCK_CODES fits.
    rng = random.Random(31)
    cases = []
    for K, max_x in ((2, 5), (3, 4), (4, 3), (5, 2), (6, 2)):
        spec = random_injective_channel(rng, K, max_x)
        cases += [(spec, random_full_support(rng, spec)), (spec, with_zeros(rng, spec))]
    expected = [table_bytes(build_entropy_table(spec, dist)) for spec, dist in cases]
    if block_codes is not None:
        monkeypatch.setattr(entropy, "_BLOCK_CODES", block_codes)
    monkeypatch.setattr(entropy, "_LAYOUT_ENTRIES", 0)
    for (spec, dist), want in zip(cases, expected):
        assert table_bytes(build_entropy_table(spec, dist)) == want, spec.K


def test_layout_of_four_users_with_alphabets_of_eight_is_kept(monkeypatch):
    # 4 receivers x 16 masks x 8 * 8^3 cells: the largest K=4, alphabet-8 layout.
    rows = tuple(tuple(range(8**3)) for _ in range(8))
    spec = ChannelSpec(K=4, x_alphabet_sizes=(8,) * 4, g_tables=(tuple(range(8)),) * 4,
                       f_tables=(rows,) * 4)
    builds = counted_layout_builds(monkeypatch)
    build_entropy_table(spec, InputDistribution.uniform(spec))
    assert list(entropy._layouts) == [spec]
    small = random_injective_channel(random.Random(43), 3, 3)
    build_entropy_table(small, InputDistribution.uniform(small))
    assert list(entropy._layouts) == [spec, small]  # the small channel evicts nothing
    monkeypatch.setattr(entropy, "_LAYOUT_ENTRIES", entropy._LAYOUT_ENTRIES - 1)
    build_entropy_table(fresh_copy(spec), InputDistribution.uniform(spec))
    assert list(entropy._layouts) == [spec, small]  # now one entry over the bound: built, not kept
    assert len(builds) == 3


def test_conditioning_monotonicity():
    rng = random.Random(5)
    for _ in range(10):
        spec = random_injective_channel(rng, rng.choice([2, 3]), 3)
        table = build_entropy_table(spec, random_full_support(rng, spec))
        users = range(1, spec.K + 1)
        for i in users:
            for bits in range(1 << spec.K):
                T = frozenset(j for j in users if bits & (1 << (j - 1)))
                for extra in users:
                    if extra in T:
                        continue
                    assert (
                        table.h[i - 1, subset_rank(T | {extra})]
                        <= table.h[i - 1, subset_rank(T)] + 1e-12
                    )


def test_independence_additivity():
    # Joint interference entropy equals the sum of marginals under product inputs.
    rng = random.Random(6)
    for _ in range(10):
        spec = random_injective_channel(rng, rng.choice([2, 3]), 3)
        dist = random_full_support(rng, spec)
        marginals = own_input_entropies(spec, dist)[1]
        pmf = joint_pmf(spec, dist)
        for bits in range(1, 1 << spec.K):
            S = [j for j in range(1, spec.K + 1) if bits & (1 << (j - 1))]
            h_joint = entropy_of((tuple(v[j - 1] for j in S), p) for _, v, _, p in pmf)
            assert h_joint == pytest.approx(sum(marginals[j - 1] for j in S), abs=1e-12)


def test_identity_on_random_injective_channels():
    rng = random.Random(7)
    for _ in range(10):
        spec = random_injective_channel(rng, rng.choice([2, 3]), 3)
        assert check_injectivity_identity(spec, random_full_support(rng, spec), 1e-9)


def test_dimension_mismatch_rejected(xor, parity3):
    with pytest.raises(ValueError, match="users"):
        build_entropy_table(xor, InputDistribution.uniform(parity3))
    with pytest.raises(ValueError, match="alphabet size"):
        build_entropy_table(xor, InputDistribution(((0.5, 0.25, 0.25), (0.5, 0.5))))


def test_distribution_validation():
    with pytest.raises(ValueError, match="sum"):
        InputDistribution(((0.5, 0.4), (1.0, 0.0)))
    with pytest.raises(ValueError, match="negative"):
        InputDistribution(((1.5, -0.5), (1.0, 0.0)))
    # NaN passes both the sign and the sum test, so it is rejected first.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="user 2: non-finite"):
            InputDistribution(((0.5, 0.5), (bad, 1.0)))


@pytest.mark.parametrize("probs, message", [
    (((0.5, 0.5), (0.5, "0.5")), "user 2: probability entry '0.5' is not a real number"),
    (((0.5, 0.5), (math.nan, 1.0)), "user 2: non-finite probability entry"),
    (((1.5, -0.5), (1.0, 0.0)), "user 1: negative probability entry"),
    (((0.5, 0.5), (0.5, 0.4)), "user 2: probabilities sum to 0.9, not 1"),
    ([5, 6], "user 1: probabilities must be a list, got 5"),
    (5, "probabilities must be a list, got 5"),
], ids=["real-number", "non-finite", "negative", "sum", "row", "rows"])
def test_distribution_rejections_name_the_user(probs, message):
    # One fault per case, so each rejection is pinned to its exact message.
    with pytest.raises(ValueError) as info:
        InputDistribution(probs)
    assert str(info.value) == message


def test_distribution_entries_must_be_real_numbers():
    # Strings and bools used to load through float(): "0.5" as 0.5, True as 1.0.
    for probs in ((("0.5", "0.5"), (0.5, 0.5)), ((0.5, 0.5), (True, False))):
        with pytest.raises(ValueError, match="is not a real number"):
            InputDistribution(probs)
    ints_and_numpy = InputDistribution(((1, 0), (np.float32(0.5), np.float64(0.5))))
    assert ints_and_numpy.probs == ((1.0, 0.0), (0.5, 0.5))


def test_point_mass_takes_one_symbol_per_user_from_its_alphabet(xor):
    # A one-symbol list used to give a one-user distribution.
    assert InputDistribution.point_mass(xor, [1, 0]).probs == ((0.0, 1.0), (1.0, 0.0))
    for symbols in ([0], [0, 0, 0]):
        with pytest.raises(ValueError, match=f"{len(symbols)} symbols for 2 users"):
            InputDistribution.point_mass(xor, symbols)
    for symbols in ([2, 0], [0, -1]):
        with pytest.raises(ValueError, match="out of range 0..1"):
            InputDistribution.point_mass(xor, symbols)
    assert InputDistribution.point_mass(xor, [np.int64(1), 0]).probs == ((0.0, 1.0), (1.0, 0.0))


@pytest.mark.parametrize("symbol", [True, 1.0, 0.5, "a", None])
def test_point_mass_symbols_must_be_integers(xor, symbol):
    # True and 1.0 used to put the mass on symbol 1, 0.5 failed as "probabilities
    # sum to 0.0" and "a" raised a raw TypeError.
    with pytest.raises(ValueError, match=f"user 1: symbol {symbol!r} is not an integer"):
        InputDistribution.point_mass(xor, [symbol, 0])


def test_distribution_json_round_trip(tmp_path):
    dist = InputDistribution(((0.25, 0.75), (0.5, 0.5)))
    path = tmp_path / "dist.json"
    save_distribution(dist, path)
    assert load_distribution(path) == dist
