"""Scheme algebra: d/e totals, combination, projection, reductions."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicregion.coeff_scheme import (
    CoefficientScheme,
    combined_inequality,
    de_of,
    load_scheme,
    normalize,
    project_combined,
    save_scheme,
    scheme_from_dict,
    scheme_rhs,
    scheme_to_dict,
    step1_reduce,
    step2_reduce,
    subset_rank,
)
from dicregion.entropy import EntropyTable, InputDistribution, build_entropy_table
from dicregion.errors import SchemeReductionError
from dicregion.polytope import LinearInequality, Region, fm_eliminate

from conftest import (
    random_entropy_table,
    random_full_support,
    random_injective_channel,
    random_scheme,
    xor_channel,
)


def S(K, entries):
    return CoefficientScheme(K, tuple((i, frozenset(M), w) for i, M, w in entries))


def xor_table():
    spec = xor_channel()
    return build_entropy_table(spec, InputDistribution.uniform(spec))


def synthetic_table(K, values):
    """EntropyTable with hand-picked conditional values ((i, T) -> h), zero elsewhere."""
    h = np.zeros((K, 1 << K))
    for (i, T), value in values.items():
        h[i - 1, subset_rank(T)] = value
    return EntropyTable(h)


def test_de_single_entry():
    de = de_of(S(2, [(1, {1}, 1)]))
    assert de.d == (1, 0) and de.e == (1, 0)


def test_de_two_entries():
    de = de_of(S(2, [(1, {1, 2}, 1), (2, {1}, 1)]))
    assert de.d == (1, 1) and de.e == (2, 1)


def test_de_empty_scheme():
    de = de_of(S(2, []))
    assert de.d == (0, 0) and de.e == (0, 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_de_matches_brute_recount(data):
    K = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(0, 8))
    weights = {}
    for _ in range(n):
        i = data.draw(st.integers(1, K))
        M = frozenset(data.draw(st.sets(st.integers(1, K))))
        w = data.draw(st.integers(1, 3))
        weights[(i, M)] = weights.get((i, M), 0) + w
    scheme = CoefficientScheme.from_weights(K, weights)
    de = de_of(scheme)
    for m in range(1, K + 1):
        assert de.d[m - 1] == sum(w for (i, _), w in weights.items() if i == m)
        assert de.e[m - 1] == sum(w for (_, M), w in weights.items() if m in M)


def test_combined_single_row_xor():
    ineq = combined_inequality(S(2, [(1, {1}, 1)]), xor_table())
    assert ineq.coeffs == (1, 1, 0, 0)
    assert ineq.rhs == pytest.approx(1.0, abs=1e-12)  # H(Y1|V2)


def test_combined_empty_scheme():
    ineq = combined_inequality(S(2, []), xor_table())
    assert ineq.coeffs == (0, 0, 0, 0) and ineq.rhs == 0.0


def test_combined_two_rows_xor():
    ineq = combined_inequality(S(2, [(1, {1, 2}, 1), (2, {1}, 1)]), xor_table())
    assert ineq.coeffs == (1, 2, 1, 1)
    assert ineq.rhs == pytest.approx(2.0, abs=1e-12)  # H(Y1) + H(Y2|V2)


def test_project_min_of_unbalanced():
    # d=(2), e=(1): the projected coefficient is min(2,1)=1.
    table = synthetic_table(1, {(1, frozenset()): 3.0, (1, frozenset({1})): 2.0})
    scheme = S(1, [(1, {1}, 1), (1, set(), 1)])
    de = de_of(scheme)
    assert de.d == (2,) and de.e == (1,)
    ineq = project_combined(scheme, table)
    assert ineq.coeffs == (1,)
    assert ineq.rhs == pytest.approx(5.0, abs=1e-12)


def test_project_min_of_equal():
    ineq = project_combined(S(2, [(1, {1}, 1), (2, {2}, 1)]), xor_table())
    assert ineq.coeffs == (1, 1)


def test_project_min_with_zero():
    # d=(1,0), e=(0,3): projected left-hand side vanishes.
    scheme = S(2, [(1, {2}, 3)])
    de = de_of(scheme)
    assert de.d == (3, 0) and de.e == (0, 3)
    assert project_combined(scheme, xor_table()).coeffs == (0, 0)


def test_step1_worked_example():
    table = xor_table()
    scheme = S(2, [(2, {1}, 1)])
    reduced, cert = step1_reduce(scheme, 1, table)
    assert reduced == S(2, [(2, set(), 1)])
    assert cert.d_after == (0, 1) and cert.e_after == (0, 0)
    assert cert.identities_hold()
    # right-hand side drops from H(Y2|V1)=1 to H(Y2|V1V2)=0
    assert cert.rhs_before == pytest.approx(1.0, abs=1e-12)
    assert cert.rhs_after == pytest.approx(0.0, abs=1e-12)
    assert cert.rhs_non_increasing(1e-9)
    assert cert.min_projection_preserved()


def test_step1_precondition():
    with pytest.raises(ValueError, match="needs e_1 > d_1"):
        step1_reduce(S(2, [(1, {1}, 1)]), 1, xor_table())


def test_step2_worked_example():
    table = xor_table()
    reduced, cert = step2_reduce(S(2, [(1, set(), 1)]), 1, table)
    assert reduced == S(2, [])
    assert cert.d_after == (0, 0) and cert.e_after == (0, 0)
    assert cert.identities_hold() and cert.rhs_non_increasing(1e-9)


def test_step2_needs_step1_first():
    # Removing the only pair at receiver 1 owes user 2 a compensation unit
    # that no pair at receiver 2 can provide.
    with pytest.raises(SchemeReductionError, match="user 2 lacks 1"):
        step2_reduce(S(2, [(1, {2}, 1)]), 1, xor_table())


def test_step2_precondition():
    with pytest.raises(ValueError, match="needs d_1 > e_1"):
        step2_reduce(S(2, [(2, {1}, 1)]), 1, xor_table())


def test_normalize_fixed_point():
    table = xor_table()
    scheme = S(2, [(1, {1}, 1), (2, {2}, 2)])
    assert normalize(scheme, table) == scheme


def test_normalize_step1_then_step2_chain():
    # e_1 > d_1 triggers a step-1 pass; the result has d_2 > e_2, so a step-2
    # pass runs and the scheme empties out; min(d, e) = (0, 0) throughout.
    table = xor_table()
    scheme = S(2, [(2, {1}, 1)])
    assert de_of(scheme).min_projection() == (0, 0)
    result = normalize(scheme, table)
    assert result == S(2, [])
    assert de_of(result).balanced()


def test_normalize_pure_step2():
    assert normalize(S(2, [(1, set(), 1)]), xor_table()) == S(2, [])


def test_scheme_validation():
    with pytest.raises(ValueError, match="nonnegative integer"):
        CoefficientScheme(2, ((1, frozenset(), -1),))
    with pytest.raises(ValueError, match="out of range"):
        CoefficientScheme(2, ((3, frozenset(), 1),))
    with pytest.raises(ValueError, match=r"^receiver 1: subset \[5\] not within 1..2$"):
        CoefficientScheme(2, ((1, frozenset({5}), 1),))
    with pytest.raises(ValueError, match=r"^receiver 2: subset \{1.5\} has a non-integer member$"):
        CoefficientScheme(2, ((2, frozenset({1.5}), 1),))
    with pytest.raises(ValueError, match="duplicate"):
        CoefficientScheme(2, ((1, frozenset(), 1), (1, frozenset(), 2)))
    # zero weights are dropped
    assert CoefficientScheme(2, ((1, frozenset(), 0),)) == S(2, [])


@pytest.mark.parametrize("doc, message", [
    ({"K": 2.0, "c": []}, "positive integer"),
    ({"K": 1.5, "c": []}, "positive integer"),
    ({"K": True, "c": []}, "positive integer"),
    ({"K": 0, "c": []}, "positive integer"),
    ({"K": 2, "c": [{"i": 1.0, "M": [1], "w": 1}]}, "out of range"),
    ({"K": 2, "c": [{"i": True, "M": [1], "w": 1}]}, "out of range"),
    ({"K": 2, "c": [{"i": 1, "M": [1.0], "w": 1}]}, "non-integer member"),
    ({"K": 2, "c": [{"i": 1, "M": [True], "w": 1}]}, "non-integer member"),
    ({"K": 2, "c": [{"i": 1, "M": [1], "w": True}]}, "nonnegative integer"),
    ({"K": 2}, "^malformed scheme document: 'c'$"),
    ({"K": 2, "c": [{"i": 1, "M": [1]}]}, "^malformed scheme document: entry 1: missing 'w'$"),
    ({"K": 2, "c": 5}, "^malformed scheme document: entries must be a list, got 5$"),
])
def test_scheme_documents_need_integer_sizes_receivers_members_and_weights(doc, message):
    # K = 2.0 and "i": 1.0 loaded and failed later in de_of, K = True and
    # "w": true loaded as 1, and a float member raised a raw TypeError.
    with pytest.raises(ValueError, match=message):
        scheme_from_dict(doc)


def test_scheme_entries_are_plain_ints():
    wide = CoefficientScheme(np.int64(2), ((np.int64(1), frozenset({np.int64(2)}), np.int64(3)),))
    assert wide == S(2, [(1, {2}, 3)])
    assert scheme_to_dict(wide) == {"K": 2, "c": [{"i": 1, "M": [2], "w": 3}]}
    assert all(type(v) is int for i, M, w in wide.entries for v in (i, *M, w))


def test_reduction_properties_on_random_schemes():
    rng = random.Random(11)
    tables = {}
    for _ in range(300):
        K = rng.choice([2, 3])
        if K not in tables:
            spec = random_injective_channel(rng, K, 3)
            tables[K] = build_entropy_table(spec, random_full_support(rng, spec))
        table = tables[K]
        scheme = random_scheme(rng, K)
        de0 = de_of(scheme)
        cur = scheme
        for m in range(1, K + 1):
            de = de_of(cur)
            if de.e[m - 1] > de.d[m - 1]:
                cur, cert = step1_reduce(cur, m, table)
                assert cert.identities_hold()
                assert cert.rhs_non_increasing(1e-9)
                assert cert.min_projection_preserved()
        for m in range(1, K + 1):
            de = de_of(cur)
            if de.d[m - 1] > de.e[m - 1]:
                cur, cert = step2_reduce(cur, m, table)
                assert cert.identities_hold()
                assert cert.rhs_non_increasing(1e-9)
                assert cert.min_projection_preserved()
        assert de_of(cur).balanced()
        assert de_of(cur).min_projection() == de0.min_projection()
        assert scheme_rhs(cur, table) <= scheme_rhs(scheme, table) + 1e-9
        assert normalize(scheme, table) == cur


def test_projection_matches_fm_oracle():
    # Eliminating the split rates from {combined inequality, R_i = R_ip + R_ic,
    # split rates >= 0} must reproduce the min(d, e) inequality verbatim.
    rng = random.Random(12)
    checked = 0
    while checked < 60:
        K = rng.choice([2, 3])
        scheme = random_scheme(rng, K)
        de = de_of(scheme)
        mins = de.min_projection()
        if not any(mins):
            continue
        table = synthetic_table(
            K,
            {
                (i, frozenset(T)): rng.uniform(0.0, 3.0)
                for i in range(1, K + 1)
                for T in _subsets(K)
            },
        )
        target = project_combined(scheme, table)
        projected = eliminate_split_rates(scheme, table, K)
        assert any(
            q.coeffs == mins and q.rhs == pytest.approx(target.rhs, abs=1e-9)
            for q in projected.inequalities
        ), (scheme.entries, mins)
        checked += 1


def _subsets(K):
    for bits in range(1 << K):
        yield tuple(j for j in range(1, K + 1) if bits & (1 << (j - 1)))


def eliminate_split_rates(scheme, table, K):
    comb = combined_inequality(scheme, table)
    rows = [LinearInequality(comb.coeffs + (0,) * K, comb.rhs)]
    for i in range(K):
        c = [0] * (3 * K)
        c[2 * i] = 1
        c[2 * i + 1] = 1
        c[2 * K + i] = -1
        rows.append(LinearInequality(tuple(c), 0.0))
        rows.append(LinearInequality(tuple(-v for v in c), 0.0))
    for i in range(2 * K):
        c = [0] * (3 * K)
        c[i] = -1
        rows.append(LinearInequality(tuple(c), 0.0))
    work = Region(3 * K, tuple(rows))
    for _ in range(2 * K):
        work = fm_eliminate(work, 0)  # column 0 is always the next split rate
    return work


def test_zero_projection_scheme_projects_to_no_upper_bounds():
    # min(d, e) identically zero: elimination leaves only downward bounds.
    table = xor_table()
    scheme = S(2, [(1, {2}, 2)])
    projected = eliminate_split_rates(scheme, table, 2)
    for q in projected.inequalities:
        assert all(c <= 0 for c in q.coeffs), q


def test_scheme_json_round_trip(tmp_path):
    scheme = S(3, [(1, {1, 3}, 2), (2, set(), 1)])
    path = tmp_path / "scheme.json"
    save_scheme(scheme, path)
    assert load_scheme(path) == scheme
    doc = scheme_to_dict(scheme)
    assert doc == {"K": 3, "c": [{"i": 1, "M": [1, 3], "w": 2}, {"i": 2, "M": [], "w": 1}]}
    assert scheme_from_dict(doc) == scheme


@pytest.mark.parametrize("K", [2, 4])
def test_scheme_rhs_rejects_a_table_for_other_users(K):
    # A scheme for another K used to read the entries of the wrong subsets
    # and return a number; facet_inequality already refused such a table.
    table = random_entropy_table(random.Random(41), 3)
    scheme = S(K, [(1, {1}, 1)])
    for route in (scheme_rhs, combined_inequality, project_combined):
        with pytest.raises(ValueError, match=f"entropy table is for 3 users, scheme has {K}$"):
            route(scheme, table)
