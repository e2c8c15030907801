"""Entropy table construction and the injectivity identity."""

import itertools
import math
import random

import numpy as np
import pytest

from dicregion import entropy
from dicregion.entropy import (
    EntropyTable,
    InputDistribution,
    build_entropy_table,
    check_injectivity_identity,
    load_distribution,
    save_distribution,
    subset_rank,
)

from conftest import injective_channel_of_sizes, random_full_support, random_injective_channel


def joint_pmf(spec, dist):
    """Oracle: the joint pmf over (x tuple, v tuple, y tuple) by enumeration."""
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
            others = spec.other_users(i)
            from dicregion.channel import encode_v_tuple

            r = encode_v_tuple(spec, i, tuple(v[j - 1] for j in others))
            ys.append(spec.f_tables[i - 1][x_tuple[i - 1]][r])
        out.append((x_tuple, v, tuple(ys), p))
    return out


def entropy_of(groups):
    acc = {}
    for key, p in groups:
        acc[key] = acc.get(key, 0.0) + p
    return -sum(p * math.log2(p) for p in acc.values() if p > 0)


def test_xor_uniform_values(xor):
    table = build_entropy_table(xor, InputDistribution.uniform(xor))
    assert table.h_y_given_v(1, {2}) == pytest.approx(1.0, abs=1e-12)
    assert table.h_y_given_v(1, set()) == pytest.approx(1.0, abs=1e-12)
    assert table.h_y_given_v(1, {1, 2}) == pytest.approx(0.0, abs=1e-12)
    assert table.h_v(1) == pytest.approx(1.0, abs=1e-12)


def test_point_mass_all_zero(xor):
    table = build_entropy_table(xor, InputDistribution.point_mass(xor))
    for h in table.h.ravel():
        assert h == pytest.approx(0.0, abs=1e-12)
    assert all(h == 0.0 for h in table.v_marginals)


@pytest.mark.parametrize("shape", [(2, 3), (3, 4), (4,), (2, 4, 1)])
def test_table_rejects_wrong_array_shape(shape):
    with pytest.raises(ValueError, match="shape"):
        EntropyTable(K=2, h=np.zeros(shape), v_marginals=(0.0, 0.0), y_given_own_input=(0.0, 0.0))


def test_table_array_is_a_read_only_copy(xor):
    source = np.arange(8.0).reshape(2, 4)
    table = EntropyTable(K=2, h=source, v_marginals=(0.0, 0.0), y_given_own_input=(0.0, 0.0))
    source[0, 0] = 99.0
    assert table.h_y_given_v(1, set()) == 0.0
    assert table.h_y_given_v(2, {1, 2}) == 7.0  # row 2, mask 0b11
    built = build_entropy_table(xor, InputDistribution.uniform(xor))
    for t in (table, built):
        with pytest.raises(ValueError):
            t.h[0, 0] = 1.0


def test_product_channel_values(product):
    table = build_entropy_table(product, InputDistribution.uniform(product))
    assert table.h_y_given_v(1, {2}) == pytest.approx(1.0, abs=1e-12)
    assert table.h_y_given_v(1, set()) == pytest.approx(2.0, abs=1e-12)


def test_identity_xor_uniform(xor):
    assert check_injectivity_identity(xor, InputDistribution.uniform(xor), 1e-12)


def test_identity_fails_on_parity(parity3):
    # H(Y_1|X_1) = 1 bit but the interference entropies sum to 2 bits.
    dist = InputDistribution.uniform(parity3)
    table = build_entropy_table(parity3, dist)
    assert table.y_given_own_input[0] == pytest.approx(1.0, abs=1e-12)
    assert sum(table.h_v(j) for j in (2, 3)) == pytest.approx(2.0, abs=1e-12)
    assert not check_injectivity_identity(parity3, dist, 1e-9)


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
        assert table.h_y_given_v(1, T) == pytest.approx(h_joint - h_T, abs=1e-12)


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
    assert table.v_marginals == pytest.approx(v_marginals, abs=1e-12)
    assert table.y_given_own_input == pytest.approx(y_given_x, abs=1e-12)


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
def test_table_spanning_several_blocks_matches_reference(zeros):
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
    assert_matches_reference(build_entropy_table(spec, dist), spec, dist)


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
                        table.h_y_given_v(i, T | {extra})
                        <= table.h_y_given_v(i, T) + 1e-12
                    )


def test_independence_additivity():
    # Joint interference entropy equals the sum of marginals under product inputs.
    rng = random.Random(6)
    for _ in range(10):
        spec = random_injective_channel(rng, rng.choice([2, 3]), 3)
        dist = random_full_support(rng, spec)
        table = build_entropy_table(spec, dist)
        pmf = joint_pmf(spec, dist)
        for bits in range(1, 1 << spec.K):
            S = [j for j in range(1, spec.K + 1) if bits & (1 << (j - 1))]
            h_joint = entropy_of((tuple(v[j - 1] for j in S), p) for _, v, _, p in pmf)
            assert h_joint == pytest.approx(sum(table.h_v(j) for j in S), abs=1e-12)


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


def test_distribution_json_round_trip(tmp_path):
    dist = InputDistribution(((0.25, 0.75), (0.5, 0.5)))
    path = tmp_path / "dist.json"
    save_distribution(dist, path)
    assert load_distribution(path) == dist
