"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
(they also appear in pytest's captured output otherwise).  Every tolerance
is pinned here; nothing is deferred to runtime calibration.
"""

import functools
import random
import time

from dicregion.channel import validate_injectivity
from dicregion.coeff_scheme import (
    CoefficientScheme,
    combined_inequality,
    de_of,
    normalize,
    project_combined,
    scheme_rhs,
    step1_reduce,
    step2_reduce,
)
from dicregion.entropy import InputDistribution, build_entropy_table, subset_rank
from dicregion.hk_region import build_A1, project_to_aggregate
from dicregion.polytope import (
    LinearInequality,
    Region,
    canonicalize,
    fm_eliminate,
    nonneg_inequalities,
    prune_redundant,
    regions_equal,
    support_value,
)
from dicregion.theorem_region import (
    FacetSpec,
    converse_complement_check,
    enumerate_facets,
    facet_inequality,
    facet_to_scheme,
    preset_closure,
    presets,
    scheme_to_facet,
)

from conftest import (
    parity3_channel,
    product_channel,
    random_entropy_table,
    random_full_support,
    random_injective_channel,
    random_scheme,
    xor_channel,
)
from reference import check_injectivity_identity, enumerate_facet_specs

TOL = 1e-9


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"\nACCEPTANCE {number}: FAIL - {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"\nACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")

        return run

    return wrap


@criterion(1, "K=2 XOR capacity region, both methods, exact simplex")
def test_criterion_1_xor_region():
    start = time.perf_counter()
    spec = xor_channel()
    table = build_entropy_table(spec, InputDistribution.uniform(spec))

    # Oracle: the 4-point joint pmf by hand.  (x1, x2) uniform; y1 = x1 ^ x2
    # is uniform given anything less than both interference symbols, and
    # determined given both.  All binding entropies are exactly 1 bit.
    assert table.h[0, subset_rank(set())] == 1.0
    assert table.h[0, subset_rank({2})] == 1.0
    assert table.h[0, subset_rank({1, 2})] == 0.0

    expected = {((-1, 0), 0.0), ((0, -1), 0.0), ((1, 1), 1.0)}
    projected = project_to_aggregate(build_A1(spec, table), tol=TOL)
    enumerated = enumerate_facets(spec, table, a_max=2, tol=TOL)
    for region in (projected, enumerated):
        got = {(q.coeffs, q.rhs) for q in region.inequalities}
        assert {(c, round(r, 12)) for c, r in got} == expected, got
    assert regions_equal(projected, enumerated, TOL)
    assert time.perf_counter() - start < 1.0


@criterion(2, "K=2 preset family reproduces the a_max=2 enumeration; non-presets redundant")
def test_criterion_2_table1_and_redundancy():
    start = time.perf_counter()
    rng = random.Random(202)
    preset_forms = {(fs.a, fs.S) for fs in presets(2)}
    for _ in range(5):
        spec = random_injective_channel(rng, 2, 4)
        dist = random_full_support(rng, spec)
        table = build_entropy_table(spec, dist)

        rows = [facet_inequality(fs, table) for fs in presets(2)]
        rows += nonneg_inequalities(2)
        preset_region = canonicalize(
            prune_redundant(Region(2, tuple(rows), ("R1", "R2")), tol=TOL), tol=TOL
        )
        enumerated = enumerate_facets(spec, table, a_max=2, tol=TOL)
        assert regions_equal(preset_region, enumerated, TOL)

        for fs in enumerate_facet_specs(2, 2):
            if (fs.a, fs.S) in preset_forms:
                continue
            ineq = facet_inequality(fs, table)
            attained = support_value(preset_region, ineq.coeffs, tol=TOL)
            assert attained <= ineq.rhs + TOL, (fs, attained, ineq.rhs)
    assert time.perf_counter() - start < 10.0


@criterion(3, "K=3 equivalence: projection == a_max=4 enumeration == preset closure")
def test_criterion_3_k3_equivalence():
    rng = random.Random(303)
    closure = preset_closure(3)
    for _ in range(3):
        start = time.perf_counter()
        spec = random_injective_channel(rng, 3, 3)
        dist = random_full_support(rng, spec)
        table = build_entropy_table(spec, dist)

        projected = project_to_aggregate(build_A1(spec, table), tol=TOL)
        enumerated = enumerate_facets(spec, table, a_max=4, tol=TOL)
        assert regions_equal(projected, enumerated, TOL)

        rows = [facet_inequality(fs, table) for fs in closure]
        rows += nonneg_inequalities(3)
        preset_region = canonicalize(
            prune_redundant(Region(3, tuple(rows), ("R1", "R2", "R3")), tol=TOL),
            tol=TOL,
        )
        assert regions_equal(preset_region, projected, TOL)
        assert time.perf_counter() - start < 300.0


@criterion(4, "FM elimination of combined inequality reproduces min(d,e) row exactly")
def test_criterion_4_projection_oracle():
    rng = random.Random(404)
    checked = 0
    while checked < 200:
        K = rng.choice([2, 3])
        scheme = random_scheme(rng, K, wmax=3)
        mins = de_of(scheme).min_projection()
        if not any(mins):
            continue  # vacuous projection (0 <= rhs); covered by unit tests
        table = random_entropy_table(rng, K)
        target = project_combined(scheme, table)
        projected = _eliminate_split_rates(scheme, table, K)
        assert any(
            q.coeffs == mins and abs(q.rhs - target.rhs) <= TOL
            for q in projected.inequalities
        ), (scheme.entries, mins)
        checked += 1


@criterion(5, "reduction certificates: step-1/step-2 identities, RHS monotone, min preserved")
def test_criterion_5_certificates():
    rng = random.Random(505)
    tables = {}
    checked = 0
    while checked < 500:
        K = rng.choice([2, 3])
        scheme = random_scheme(rng, K, wmax=3)
        de = de_of(scheme)
        if not any(e > d for d, e in zip(de.d, de.e)):
            continue  # criterion asks for schemes with at least one e_m > d_m
        if K not in tables:
            spec = random_injective_channel(rng, K, 3)
            tables[K] = build_entropy_table(spec, random_full_support(rng, spec))
        table = tables[K]

        cur = scheme
        for m in range(1, K + 1):
            d, e = de_of(cur).d[m - 1], de_of(cur).e[m - 1]
            if e > d:
                cur, cert = step1_reduce(cur, m, table)
                assert cert.identities_hold()
                assert cert.rhs_non_increasing(TOL)
                assert cert.min_projection_preserved()
        for m in range(1, K + 1):
            d, e = de_of(cur).d[m - 1], de_of(cur).e[m - 1]
            if d > e:
                cur, cert = step2_reduce(cur, m, table)
                assert cert.identities_hold()
                assert cert.rhs_non_increasing(TOL)
                assert cert.min_projection_preserved()
        final = de_of(cur)
        assert final.balanced()
        assert final.min_projection() == de_of(scheme).min_projection()
        assert scheme_rhs(cur, table) <= scheme_rhs(scheme, table) + TOL
        assert normalize(scheme, table) == cur
        checked += 1


@criterion(6, "injectivity identity holds on injective channels; parity channel rejected")
def test_criterion_6_injectivity_identity():
    rng = random.Random(606)
    channels = [xor_channel(), product_channel()]
    channels += [random_injective_channel(rng, 2, 4) for _ in range(3)]
    channels += [random_injective_channel(rng, 3, 3) for _ in range(2)]
    for spec in channels:
        assert validate_injectivity(spec).is_injective
        for _ in range(20):
            dist = random_full_support(rng, spec)
            assert check_injectivity_identity(spec, dist, TOL)

    report = validate_injectivity(parity3_channel())
    assert not report.is_injective
    assert (1, 0, (0, 1), (1, 0)) in report.violations
    assert not check_injectivity_identity(
        parity3_channel(), InputDistribution.uniform(parity3_channel()), TOL
    )


@criterion(7, "facet/scheme round trip and coefficient-exact inequality match on all presets")
def test_criterion_7_round_trip():
    xor = xor_channel()
    tables = {2: build_entropy_table(xor, InputDistribution.uniform(xor))}
    spec3 = random_injective_channel(random.Random(707), 3, 3)
    tables[3] = build_entropy_table(spec3, InputDistribution.uniform(spec3))
    count = 0
    for K in (2, 3):
        for fs in presets(K):
            scheme = facet_to_scheme(fs)
            assert scheme_to_facet(scheme) == fs
            direct = facet_inequality(fs, tables[K])
            projected = project_combined(scheme, tables[K])
            assert direct.coeffs == projected.coeffs  # exact integer match
            assert abs(direct.rhs - projected.rhs) <= 1e-12  # identical terms
            count += 1
    assert count == 35


@criterion(8, "complement bookkeeping identity on presets and 1000 random valid specs")
def test_criterion_8_converse_bookkeeping():
    for K in (2, 3):
        for fs in presets(K):
            assert converse_complement_check(fs)
    rng = random.Random(808)
    for _ in range(1000):
        fs = _random_valid_facet(rng, rng.choice([2, 3, 4]))
        if fs is None:
            continue
        assert fs.counting_ok()
        assert converse_complement_check(fs)


def _random_valid_facet(rng, K):
    a = tuple(rng.randint(0, 3) for _ in range(K))
    L = sum(a)
    if L == 0:
        return None
    slots = [(i, q) for i in range(K) for q in range(a[i])]
    chosen = {slot: set() for slot in slots}
    for m in range(1, K + 1):
        for slot in rng.sample(slots, a[m - 1]):
            chosen[slot].add(m)
    S = tuple(tuple(frozenset(chosen[(i, q)]) for q in range(a[i])) for i in range(K))
    return FacetSpec(a, S)


def _eliminate_split_rates(scheme: CoefficientScheme, table, K: int) -> Region:
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
        work = fm_eliminate(work, 0)
    return work
