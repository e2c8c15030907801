"""Facet enumeration, presets, and the scheme/facet conversions."""

import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicregion import theorem_region
from dicregion.coeff_scheme import CoefficientScheme, de_of, project_combined
from dicregion.entropy import InputDistribution, build_entropy_table
from dicregion.errors import EnumerationOverflowError
from dicregion.hk_region import build_A1, project_to_aggregate
from dicregion.polytope import (
    LinearInequality,
    Region,
    canonicalize,
    contains_point,
    nonneg_inequalities,
    prune_redundant,
    regions_equal,
    support_value,
)
from dicregion.theorem_region import (
    FacetSpec,
    _smallest_rhs,
    converse_complement_check,
    default_a_max,
    enumerate_facets,
    facet_from_dict,
    facet_inequality,
    facet_to_dict,
    facet_to_scheme,
    load_facets,
    preset_closure,
    presets,
    relabel_facet,
    save_facets,
    scheme_to_facet,
)

from conftest import (
    assert_support_values_match_highs,
    channels_with_distributions,
    random_entropy_table,
    random_full_support,
    random_injective_channel,
    xor_channel,
)
from reference import enumerate_facet_specs


def xor_table():
    spec = xor_channel()
    return build_entropy_table(spec, InputDistribution.uniform(spec))


def FS(a, S):
    return FacetSpec(tuple(a), tuple(tuple(frozenset(M) for M in row) for row in S))


def test_facet_inequality_single_user():
    ineq = facet_inequality(FS((1, 0), [[{1}], []]), xor_table())
    assert ineq.coeffs == (1, 0)
    assert ineq.rhs == pytest.approx(1.0, abs=1e-12)  # H(Y1|V2)


def test_facet_inequality_sum_row():
    ineq = facet_inequality(FS((1, 1), [[{2}], [{1}]]), xor_table())
    assert ineq.coeffs == (1, 1)
    assert ineq.rhs == pytest.approx(2.0, abs=1e-12)  # H(Y1|V1) + H(Y2|V2)


def test_facet_inequality_asymmetric_row():
    ineq = facet_inequality(FS((1, 1), [[set()], [{1, 2}]]), xor_table())
    assert ineq.rhs == pytest.approx(1.0, abs=1e-12)  # H(Y1|V1V2) + H(Y2) = 0 + 1


def test_counting_constraint_enforced():
    bad = FS((1, 1), [[{1}], [{1}]])  # user 1 appears twice, user 2 never
    assert not bad.counting_ok()
    for check in (lambda: facet_inequality(bad, xor_table()),
                  lambda: converse_complement_check(bad)):
        with pytest.raises(ValueError, match="^facet choice violates its counting constraint$"):
            check()


@pytest.mark.parametrize("K", [2, 4])
def test_facet_routes_reject_a_table_for_other_users(K):
    table = random_entropy_table(random.Random(41), 3)
    with pytest.raises(ValueError, match=f"^entropy table is for 3 users, facet has {K}$"):
        facet_inequality(FS((1,) + (0,) * (K - 1), [[{1}]] + [[]] * (K - 1)), table)
    spec = random_injective_channel(random.Random(K), K, 2)
    for route in (enumerate_facets, theorem_region.enumerate_facets_bumped):
        with pytest.raises(ValueError, match=f"^entropy table is for 3 users, channel has {K}$"):
            route(spec, table, a_max=1)


def test_enumerate_xor_gives_simplex():
    spec = xor_channel()
    region = enumerate_facets(spec, xor_table(), a_max=2)
    assert [(q.coeffs, q.rhs) for q in region.inequalities] == [
        ((-1, 0), 0.0),
        ((0, -1), 0.0),
        ((1, 1), 1.0),
    ]


def test_enumerate_point_mass_gives_origin():
    spec = xor_channel()
    table = build_entropy_table(spec, InputDistribution.point_mass(spec))
    region = enumerate_facets(spec, table, a_max=2)
    assert contains_point(region, (0.0, 0.0))
    assert support_value(region, (1.0, 0.0)) == pytest.approx(0.0, abs=1e-9)
    assert support_value(region, (0.0, 1.0)) == pytest.approx(0.0, abs=1e-9)


def test_enumerate_equals_preset_region_on_random_channels():
    rng = random.Random(21)
    for _ in range(3):
        spec = random_injective_channel(rng, 2, 4)
        table = build_entropy_table(spec, random_full_support(rng, spec))
        enumerated = enumerate_facets(spec, table, a_max=2)
        rows = [facet_inequality(fs, table) for fs in presets(2)]
        rows += nonneg_inequalities(2)
        preset_region = canonicalize(
            prune_redundant(Region(2, tuple(rows), ("R1", "R2")))
        )
        assert regions_equal(enumerated, preset_region, 1e-9)


@pytest.mark.parametrize("K,a_max", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 1)])
def test_dp_matches_exhaustive_facet_choices(K, a_max):
    rng = random.Random(100 * K + a_max)
    spec = random_injective_channel(rng, K, 2)
    labels = tuple(f"R{i}" for i in range(1, K + 1))
    for _ in range(3):
        table = random_entropy_table(rng, K)
        specs = list(enumerate_facet_specs(K, a_max))
        rows = [facet_inequality(fs, table) for fs in specs]
        # The lattice value of every weight vector, not only the pruned region.
        best = {}
        for fs, row in zip(specs, rows):
            best[fs.a] = min(best.get(fs.a, math.inf), row.rhs)
        assert len(best) == (a_max + 1) ** K - 1  # every weight vector has a choice
        f, _ = _smallest_rhs(table.split_rhs, a_max)
        assert f.shape == (a_max + 1,) * K and f[(0,) * K] == 0.0
        for a, rhs in best.items():
            assert f[a] == pytest.approx(rhs, rel=0, abs=1e-12), a
        rows += nonneg_inequalities(K)
        reference = canonicalize(prune_redundant(Region(K, tuple(rows), labels)))
        assert regions_equal(enumerate_facets(spec, table, a_max=a_max), reference, 1e-9)


def zero_entry_distribution(rng, spec):
    """Full support except that each user's first symbol never occurs."""
    rows = []
    for n in spec.x_alphabet_sizes:
        w = [0.0] + [rng.random() + 0.05 for _ in range(n - 1)]
        rows.append(tuple(v / math.fsum(w) for v in w))
    return InputDistribution(tuple(rows))


@pytest.mark.parametrize("make_dist", [
    random_full_support,
    zero_entry_distribution,
    lambda rng, spec: InputDistribution.point_mass(spec),
], ids=["full-support", "zero-entries", "point-mass"])
def test_subadditive_rows_never_reach_the_prune(monkeypatch, make_dist):
    rng = random.Random(41)
    spec = random_injective_channel(rng, 3, 3)
    table = build_entropy_table(spec, make_dist(rng, spec))
    given = []

    def recording_prune(region, tol):
        given.append(region)
        return prune_redundant(region, tol=tol)

    monkeypatch.setattr(theorem_region, "prune_redundant", recording_prune)
    region = enumerate_facets(spec, table, a_max=4)
    # 124 weight vectors and 3 nonnegativity rows without the filter
    assert len(given) == 1 and len(given[0].lhs) <= 20

    f, _ = _smallest_rhs(table.split_rhs, 4)
    rows = [LinearInequality(a, f[a]) for a in itertools.product(range(5), repeat=3) if any(a)]
    rows += nonneg_inequalities(3)
    reference = canonicalize(prune_redundant(Region(3, tuple(rows), region.labels)))
    assert region.lhs == reference.lhs
    np.testing.assert_allclose(region.rhs, reference.rhs, rtol=0, atol=1e-12)


def per_vector_filter(f, tol):
    """The subadditivity filter one weight vector at a time: the reference
    for the one pass over the search's pairs."""
    K, a_max = f.ndim, f.shape[0] - 1
    lhs, rhs = [], []
    for a in itertools.product(range(a_max + 1), repeat=K):
        if not any(a):
            continue
        box = f[tuple(slice(v + 1) for v in a)]  # f(b) for every b <= a
        split = box + box[(slice(None, None, -1),) * K]  # f(b) + f(a - b)
        split.flat[0] = split.flat[-1] = np.inf  # b = 0 and b = a
        if f[a] < split.min() - tol:
            lhs.append(a)
            rhs.append(f[a])
    return lhs, rhs


@pytest.mark.parametrize("make_dist", [
    random_full_support,
    zero_entry_distribution,
    lambda rng, spec: InputDistribution.point_mass(spec),  # ties f(a) = f(b) + f(a - b)
], ids=["full-support", "zero-entries", "point-mass"])
@pytest.mark.parametrize("K", [2, 3, 4])
def test_filter_keeps_the_rows_of_the_per_vector_loop(monkeypatch, make_dist, K):
    given = []  # the filtered rows, handed on unpruned
    monkeypatch.setattr(theorem_region, "prune_redundant", lambda r, tol: given.append(r) or r)
    for seed in range(3):
        rng = random.Random(f"filter/{K}/{seed}")
        spec = random_injective_channel(rng, K, 3)
        table = build_entropy_table(spec, make_dist(rng, spec))
        a_max = default_a_max(K)
        given.clear()
        theorem_region.enumerate_facets_bumped(spec, table, a_max=a_max)
        f, _ = _smallest_rhs(table.split_rhs, a_max + 1)
        assert len(given) == 2
        for region, cap in zip(given, (a_max, a_max + 1)):
            lhs, rhs = per_vector_filter(f[(slice(cap + 1),) * K], 1e-9)
            assert region.lhs == tuple(lhs) + tuple(q.coeffs for q in nonneg_inequalities(K))
            assert region.rhs.tobytes() == np.array(rhs + [0.0] * K).tobytes()


@pytest.mark.parametrize("K,a_max", [(2, 2), (3, 1)])
def test_guard_counts_lattice_cells(K, a_max):
    rng = random.Random(K)
    spec = random_injective_channel(rng, K, 2)
    table = random_entropy_table(rng, K)
    cells = (a_max + 1) ** (2 * K - K // 2)  # the larger half lattice
    with pytest.raises(EnumerationOverflowError, match=f"{cells} DP states.*size guard of {cells - 1}"):
        enumerate_facets(spec, table, a_max=a_max, max_facets=cells - 1)
    enumerate_facets(spec, table, a_max=a_max, max_facets=cells)


@pytest.mark.parametrize("limits", [dict(a_max=True), dict(a_max=2.5), dict(a_max=0),
                                    dict(max_facets=True), dict(max_facets=1e6)])
def test_lattice_limits_must_be_integers(limits):
    # a_max=True used to run as a_max=1, and a_max=2.5 raised numpy's TypeError.
    rng = random.Random(5)
    spec = random_injective_channel(rng, 2, 2)
    table = random_entropy_table(rng, 2)
    with pytest.raises(ValueError, match="must be an integer"):
        enumerate_facets(spec, table, **limits)
    with pytest.raises(ValueError, match="must be an integer"):
        theorem_region.enumerate_facets_bumped(spec, table, **limits)


@pytest.mark.parametrize("K,a_max", [(2, 1), (2, 2), (3, 1), (3, 4)])
def test_bumped_regions_come_from_one_lattice(monkeypatch, K, a_max):
    # Both regions equal two separate enumerations byte for byte, while
    # only the lattice at a_max + 1 is built (and guarded).
    built = []
    monkeypatch.setattr(
        theorem_region, "_smallest_rhs", lambda h, n: built.append(n) or _smallest_rhs(h, n)
    )
    for seed in range(4):
        rng = random.Random(f"bumped/{K}/{seed}")
        spec = random_injective_channel(rng, K, 3)
        dist = random_full_support(rng, spec) if seed % 2 else InputDistribution.uniform(spec)
        table = build_entropy_table(spec, dist)
        built.clear()
        pair = theorem_region.enumerate_facets_bumped(spec, table, a_max=a_max)
        assert built == [a_max + 1]
        for region, cap in zip(pair, (a_max, a_max + 1)):
            alone = enumerate_facets(spec, table, a_max=cap)
            assert (region.dim, region.labels, region.lhs) == (alone.dim, alone.labels, alone.lhs)
            assert region.rhs.tobytes() == alone.rhs.tobytes()
    cells = (a_max + 2) ** (2 * K - K // 2)
    with pytest.raises(EnumerationOverflowError, match=f"{cells} DP states"):
        theorem_region.enumerate_facets_bumped(spec, table, a_max=a_max, max_facets=cells - 1)


def test_guard_is_checked_before_allocating():
    # 11^20 cells of float64 could never be allocated.
    rng = random.Random(10)
    spec = random_injective_channel(rng, 10, 2)
    with pytest.raises(EnumerationOverflowError, match="size guard"):
        enumerate_facets(spec, random_entropy_table(rng, 10), a_max=10)


def test_default_a_max_covers_the_largest_k5_projection_coefficient():
    # A seeded K=5 channel (alphabets 2,3,3,2,3) whose 109-row projection has
    # a coefficient of 7: at a_max=6 the facet route gives a larger region.
    rng = random.Random("mc5/3/50")
    spec = random_injective_channel(rng, 5, 3)
    assert spec.x_alphabet_sizes == (2, 3, 3, 2, 3)
    table = build_entropy_table(spec, random_full_support(rng, spec))
    region = project_to_aggregate(build_A1(spec, table))
    assert len(region.lhs) == 109
    assert max(abs(c) for coeffs in region.lhs for c in coeffs) == 7 <= default_a_max(5)


def test_spec_count_small_case():
    specs = list(enumerate_facet_specs(2, 1))
    # a=(1,0) and a=(0,1) give one choice each; a=(1,1) gives four.
    assert len(specs) == 6
    assert FS((1, 0), [[{1}], []]) in specs
    assert FS((1, 1), [[{1, 2}], [set()]]) in specs


@pytest.mark.parametrize("K,a_max,count", [
    (2, 1, 6), (2, 2, 30), (2, 3, 100), (3, 2, 1281), (4, 1, 392),
])
def test_facet_choice_listing_counts_and_ends(K, a_max, count):
    # Weight vectors in product order; within one, receiver 1's multiset first.
    specs = list(enumerate_facet_specs(K, a_max))
    assert len(specs) == count
    assert specs[0] == FS((0,) * (K - 1) + (1,), [[]] * (K - 1) + [[{K}]])
    full = set(range(1, K + 1))
    assert specs[-1] == FS((a_max,) * K, [[full] * a_max] + [[set()] * a_max] * (K - 1))


@pytest.mark.parametrize("a,S,message", [
    ((1, 0), ([{1}],), "1 subset lists for 2 receivers"),
    ((1, -1), ([{1}], []), "receiver 2: negative weight -1"),
    ((2, 0), ([{1}], []), "receiver 1: 1 subsets for weight 2"),
    ((0, 1), ([], [{1.0}]), "receiver 2: subset {1.0} has a non-integer member"),
    ((0, 1), ([], [{3, 0}]), "receiver 2: subset [0, 3] not within 1..2"),
])
def test_facet_spec_rejection_messages(a, S, message):
    with pytest.raises(ValueError) as info:
        FS(a, S)
    assert str(info.value) == message


def test_enumerated_specs_satisfy_counting():
    for fs in enumerate_facet_specs(2, 2):
        assert fs.counting_ok()


def test_presets_k2():
    rows = presets(2)
    assert len(rows) == 7
    assert rows[0] == FS((1, 0), [[{1}], []])
    assert rows[-1] == FS((1, 2), [[{2}], [{1, 2}, set()]])
    assert all(fs.counting_ok() for fs in rows)


def test_presets_k3():
    rows = presets(3)
    assert len(rows) == 28
    assert rows[-1] == FS(
        (4, 2, 1), [[set(), set(), set(), {1, 2, 3}], [{1}, {1}], [{1, 2}]]
    )
    assert all(fs.counting_ok() for fs in rows)


def test_presets_unsupported_k():
    with pytest.raises(ValueError, match="K=2 and K=3"):
        presets(4)


def test_preset_closure_k2_is_table_itself():
    assert set(preset_closure(2)) == set(presets(2))


def test_preset_closure_k3_size():
    closure = preset_closure(3)
    assert len(closure) == 146
    assert set(presets(3)) <= set(closure)
    assert all(fs.counting_ok() for fs in closure)


def test_relabel_facet_swap():
    fs = FS((2, 1), [[{1, 2}, set()], [{1}]])
    swapped = relabel_facet(fs, (2, 1))
    assert swapped == FS((1, 2), [[{2}], [{1, 2}, set()]])
    with pytest.raises(ValueError, match="permutation"):
        relabel_facet(fs, (1, 1))


def test_facet_weights_members_and_relabelings_are_integers():
    # Weights 1.9, True and a document's 1.5 used to be truncated to 1;
    # member 0 raised "negative shift count", member 1.0 and the
    # relabeling [2.0, 1.0] a raw TypeError.
    one = (frozenset({1}),)
    for a in ((1.9, 0), (True, 0), (1.0, 0)):
        with pytest.raises(ValueError, match="receiver 1: weight .* is not an integer"):
            FacetSpec(a, (one, ()))
    with pytest.raises(ValueError, match="receiver 1: weight 1.5 is not an integer"):
        facet_from_dict({"a": [1.5, 0], "S": [[[1]], []]})
    with pytest.raises(ValueError, match=r"receiver 1: subset \[0\] not within 1..2"):
        FacetSpec((1, 0), ((frozenset({0}),), ()))
    for member in (1.0, True, "1"):
        with pytest.raises(ValueError, match="receiver 2: subset .* non-integer member"):
            FacetSpec((0, 1), ((), (frozenset({member}),)))
    fs = FS((2, 1), [[{1, 2}, set()], [{1}]])
    for perm in ((2.0, 1.0), (True, 2)):
        with pytest.raises(ValueError, match="not a permutation of 1..2"):
            relabel_facet(fs, perm)
    # numpy integers are integers, and come out as plain ints.
    same = FacetSpec((np.int64(2), np.int64(1)), (
        (frozenset({np.int64(1), np.int64(2)}), frozenset()), (frozenset({np.int64(1)}),)))
    assert same == fs and facet_to_dict(same) == facet_to_dict(fs)
    assert all(type(v) is int for v in same.a)
    assert relabel_facet(fs, np.array([2, 1])) == relabel_facet(fs, (2, 1))


def test_scheme_to_facet_multiplicity():
    scheme = CoefficientScheme.from_weights(2, {(1, frozenset({1})): 2})
    fs = scheme_to_facet(scheme)
    assert fs == FS((2, 0), [[{1}, {1}], []])


def test_scheme_to_facet_two_receivers():
    scheme = CoefficientScheme.from_weights(
        2, {(1, frozenset({2})): 1, (2, frozenset({1})): 1}
    )
    assert scheme_to_facet(scheme) == FS((1, 1), [[{2}], [{1}]])


def test_scheme_to_facet_requires_balance():
    unbalanced = CoefficientScheme.from_weights(2, {(1, frozenset()): 1})
    with pytest.raises(ValueError, match="not balanced"):
        scheme_to_facet(unbalanced)


def test_facet_to_scheme_table_row():
    fs = FS((2, 1), [[{1, 2}, set()], [{1}]])
    scheme = facet_to_scheme(fs)
    assert scheme == CoefficientScheme.from_weights(
        2,
        {
            (1, frozenset({1, 2})): 1,
            (1, frozenset()): 1,
            (2, frozenset({1})): 1,
        },
    )


def test_round_trip_on_all_presets():
    for K in (2, 3):
        for fs in presets(K):
            scheme = facet_to_scheme(fs)
            assert scheme_to_facet(scheme) == fs
            de = de_of(scheme)
            assert de.balanced() and de.d == fs.a


def test_facet_matches_projected_scheme_inequality():
    table = xor_table()
    for fs in presets(2):
        scheme = facet_to_scheme(fs)
        direct = facet_inequality(fs, table)
        projected = project_combined(scheme, table)
        assert direct.coeffs == projected.coeffs
        assert direct.rhs == pytest.approx(projected.rhs, abs=1e-12)


def test_normalized_scheme_facet_equivalence():
    # scheme_to_facet of any balanced scheme generates the projected
    # combined inequality verbatim.
    import random as _random

    from dicregion.coeff_scheme import normalize
    from dicregion.entropy import build_entropy_table as _bet

    from conftest import random_scheme

    rng = _random.Random(31)
    spec = random_injective_channel(rng, 2, 3)
    table = _bet(spec, random_full_support(rng, spec))
    checked = 0
    while checked < 40:
        scheme = random_scheme(rng, 2)
        balanced = normalize(scheme, table)
        if not balanced.entries:
            continue
        fs = scheme_to_facet(balanced)
        direct = facet_inequality(fs, table)
        projected = project_combined(balanced, table)
        assert direct.coeffs == projected.coeffs
        assert direct.rhs == pytest.approx(projected.rhs, abs=1e-12)
        checked += 1


def test_complement_check_on_presets():
    for K in (2, 3):
        for fs in presets(K):
            assert converse_complement_check(fs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_complement_check_on_random_valid_specs(data):
    # Build a valid spec directly: pick a, then give user m a home in exactly
    # a_m of the L slots; the counting constraint holds by construction.
    K = data.draw(st.integers(2, 4))
    a = tuple(data.draw(st.integers(0, 3)) for _ in range(K))
    L = sum(a)
    if L == 0:
        return
    slots = [(i, q) for i in range(K) for q in range(a[i])]
    chosen = {slot: set() for slot in slots}
    for m in range(1, K + 1):
        homes = data.draw(
            st.lists(st.sampled_from(slots), min_size=a[m - 1], max_size=a[m - 1], unique=True)
        )
        for slot in homes:
            chosen[slot].add(m)
    S = tuple(
        tuple(frozenset(chosen[(i, q)]) for q in range(a[i])) for i in range(K)
    )
    fs = FacetSpec(a, S)
    assert fs.counting_ok()
    assert converse_complement_check(fs)


@settings(max_examples=40, deadline=None)
@given(channels_with_distributions(max_users=3))
def test_facet_support_values_match_highs_on_random_channels(case):
    # The facet route, at its default weight cap, against the lifted system.
    spec, dist, directions = case
    table = build_entropy_table(spec, dist)
    assert_support_values_match_highs(build_A1(spec, table), enumerate_facets(spec, table), directions)


def test_facet_json_round_trip(tmp_path):
    fs = FS((2, 1), [[{1, 2}, set()], [{1}]])
    path = tmp_path / "facets.json"
    save_facets([fs], path)
    assert load_facets(path) == [fs]
    assert facet_from_dict(facet_to_dict(fs)) == fs
    assert facet_to_dict(fs) == {"a": [2, 1], "S": [[[], [1, 2]], [[1]]]}


def test_a_facet_file_holding_one_object_loads_as_a_list(tmp_path):
    fs = FS((2, 1), [[{1, 2}, set()], [{1}]])
    path = tmp_path / "facet.json"
    path.write_text(json.dumps(facet_to_dict(fs)))
    assert load_facets(path) == [fs]


@pytest.mark.parametrize("doc, reason", [
    ({"a": [1, 0]}, "'S'"),
    ({"S": [[[1]], []]}, "'a'"),
    pytest.param({"a": 1, "S": [[[1]], []]}, "weights must be a list, got 1", id="a-not-a-list"),
])
def test_facet_object_without_its_fields_is_malformed(tmp_path, doc, reason):
    # In a facet file the object is facet 1, which a missing field names.
    path = tmp_path / "facet.json"
    path.write_text(json.dumps([doc]))
    in_file = reason if {"a", "S"} <= doc.keys() else f"facet 1: missing {reason}"
    for read, want in ((lambda: facet_from_dict(doc), reason), (lambda: load_facets(path), in_file)):
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == f"malformed facet document: {want}"


@pytest.mark.parametrize("doc", [5, None, "a"])
def test_facet_document_that_is_not_a_list_or_an_object_is_malformed(tmp_path, doc):
    # 5 and null used to raise a raw TypeError.
    path = tmp_path / "facets.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed facet document"):
        load_facets(path)
