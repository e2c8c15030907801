"""Shared channels, distributions, and random generators for the test suite."""

import math
import random

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.optimize import linprog

from dicregion.channel import ChannelSpec
from dicregion.coeff_scheme import CoefficientScheme
from dicregion.entropy import EntropyTable, InputDistribution
from dicregion.polytope import _witnessed, support_value
from reference import aggregate_projection_matrix


def xor_channel() -> ChannelSpec:
    """K=2 binary channel, g identity, output = own input XOR interference."""
    return ChannelSpec(
        K=2,
        x_alphabet_sizes=(2, 2),
        g_tables=((0, 1), (0, 1)),
        f_tables=(((0, 1), (1, 0)), ((0, 1), (1, 0))),
    )


def product_channel() -> ChannelSpec:
    """K=2 binary channel whose output encodes the pair (own input, interference)."""
    f = tuple(tuple(2 * x + v for v in (0, 1)) for x in (0, 1))
    return ChannelSpec(
        K=2, x_alphabet_sizes=(2, 2), g_tables=((0, 1), (0, 1)), f_tables=(f, f)
    )


def parity3_channel() -> ChannelSpec:
    """K=3 binary channel, output = XOR of all three signals; not injective."""
    rows = []
    for x in (0, 1):
        rows.append(tuple(x ^ (r >> 1) ^ (r & 1) for r in range(4)))
    f = tuple(rows)
    return ChannelSpec(
        K=3,
        x_alphabet_sizes=(2, 2, 2),
        g_tables=((0, 1), (0, 1), (0, 1)),
        f_tables=(f, f, f),
    )


def random_injective_channel(rng: random.Random, K: int, max_x: int) -> ChannelSpec:
    """Random channel with alphabets of 2..max_x symbols, injective by construction."""
    return injective_channel_of_sizes(rng, [rng.randint(2, max_x) for _ in range(K)])


def injective_channel_of_sizes(rng: random.Random, sizes) -> ChannelSpec:
    """Random channel with the given alphabet sizes, injective by construction.

    Interference maps are arbitrary; each receiver's output row is a random
    permutation of the attainable interference-tuple indices, so the map is
    one-to-one for every own input.
    """
    K = len(sizes)
    g = []
    for n in sizes:
        vals = [rng.randrange(n) for _ in range(n)]
        if len(set(vals)) == 1 and n > 1:
            vals[0] = (vals[0] + 1) % n  # at least two interference symbols
        g.append(tuple(vals))
    images = [sorted(set(row)) for row in g]
    f = []
    for i in range(K):
        n_v = 1
        for j in range(K):
            if j != i:
                n_v *= len(images[j])
        rows = []
        for _ in range(sizes[i]):
            perm = list(range(n_v))
            rng.shuffle(perm)
            rows.append(tuple(perm))
        f.append(tuple(rows))
    return ChannelSpec(
        K=K, x_alphabet_sizes=tuple(sizes), g_tables=tuple(g), f_tables=tuple(f)
    )


def random_full_support(rng: random.Random, spec: ChannelSpec) -> InputDistribution:
    rows = []
    for n in spec.x_alphabet_sizes:
        w = [rng.random() + 0.05 for _ in range(n)]
        s = sum(w)
        rows.append(tuple(v / s for v in w))
    return InputDistribution(tuple(rows))


def benchmark_pools():
    """The perfbench pools as (channel, full-support input) pairs, each drawn
    from its key name/k: project-k6 and sweep-k4-x8, whose instances run the
    projection, then certify-k3, whose instances run both routes."""

    def pool(name, sizes, count):
        pairs = []
        for k in range(count):
            rng = random.Random(f"{name}/{k}")
            spec = injective_channel_of_sizes(rng, sizes(rng))
            pairs.append((spec, random_full_support(rng, spec)))
        return pairs

    sweep = injective_channel_of_sizes(random.Random("sweep-k4-x8/channel"), [8] * 4)
    projected = pool("project-k6", lambda rng: [2] * 6, 6) + [
        (sweep, random_full_support(random.Random(f"sweep-k4-x8/{k}"), sweep)) for k in range(16)
    ]
    return projected, pool("certify-k3", lambda rng: [rng.randint(2, 4) for _ in range(3)], 9)


def random_entropy_table(rng: random.Random, K: int) -> EntropyTable:
    """Entropy table with independent random entries, tied to no channel."""
    h = [[rng.uniform(0.0, 3.0) for _mask in range(1 << K)] for _i in range(K)]
    return EntropyTable(h)


def random_scheme(rng: random.Random, K: int, wmax: int = 3, density: float = 0.35) -> CoefficientScheme:
    entries = []
    for i in range(1, K + 1):
        for bits in range(1 << K):
            if rng.random() < density:
                M = frozenset(j for j in range(1, K + 1) if bits & (1 << (j - 1)))
                entries.append((i, M, rng.randint(1, wmax)))
    return CoefficientScheme(K, tuple(entries))


@st.composite
def channels_with_distributions(draw, max_users=4):
    """Injective channel with 2..max_users users and alphabets of 1-4 symbols,
    so that pinned and unpinned users mix, a product distribution with zero
    entries, and three directions."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=max_users))
    spec = injective_channel_of_sizes(draw(st.randoms(use_true_random=False)), sizes)
    probs = []
    for n in sizes:
        w = draw(st.lists(st.just(0.0) | st.floats(0.05, 1.0), min_size=n, max_size=n))
        if not any(w):
            w[0] = 1.0
        probs.append(tuple(v / math.fsum(w) for v in w))
    # Eighths keep every reduced cost far above HiGHS's 1e-7 dual tolerance.
    eighth = st.integers(-8, 8).map(lambda n: n / 8)
    directions = draw(st.lists(st.lists(eighth, min_size=len(sizes), max_size=len(sizes)),
                               min_size=3, max_size=3))
    return spec, InputDistribution(tuple(probs)), directions


def assert_support_values_match_highs(a1, region, directions):
    """max d.R over the aggregate `region` equals max d.(P z) over the split
    region `a1`, solved by scipy/HiGHS."""
    A, b = a1.matrix()
    P = np.array(aggregate_projection_matrix(region.dim), dtype=float)
    for d in directions:
        d = np.asarray(d, dtype=float)
        ref = linprog(-(d @ P), A_ub=A, b_ub=b, bounds=(None, None), method="highs")
        assert ref.status == 0
        assert support_value(region, d) == pytest.approx(-ref.fun, abs=1e-7)


def witnessing_nothing(A, b, tested, tol):
    """`polytope._witnessed` that proves no row needed: the same walk vertices
    as starts, with no hit, so every open row reaches the LP rounds."""
    hit, start = _witnessed(A, b, tested, tol)
    return hit & False, start


@pytest.fixture
def xor():
    return xor_channel()


@pytest.fixture
def product():
    return product_channel()


@pytest.fixture
def parity3():
    return parity3_channel()
