"""Seeded inputs and the per-instance work of each benchmark workload.

Every workload draws its instances from a fixed pool.  A pool member is
generated from a fixed string key, so the canonical left-hand sides of its
output can be recorded once (``expected_lhs.json``) and checked on every
run.  The ``--seed`` of a run decides everything else: the order in which
the pool is visited in each round and the support directions that
``certify-k3`` compares.  Every run therefore measures the same multiset of
channels, which keeps the median steady across seeds.

The library only ever receives the generated ``ChannelSpec`` and
``InputDistribution``.  Library functions are looked up on their module at
call time, so the tracer in ``spans`` can wrap them for a traced pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import dicregion
import dicregion.polytope
from dicregion import ChannelSpec, InputDistribution, Region, UnboundedDirectionError

TOL = 1e-9  # the library default, as `dicregion compare` uses it
COMPARE_DIRECTIONS = 100  # what `dicregion compare` checks by default


class RoutesDisagree(Exception):
    """The two routes of one instance gave different regions."""


@dataclass(frozen=True)
class Instance:
    key: str
    spec: ChannelSpec
    dist: InputDistribution

    def inputs_digest(self) -> str:
        """sha256 of the generated inputs, so a changed generator is caught."""
        doc = [
            self.spec.x_alphabet_sizes,
            self.spec.g_tables,
            self.spec.f_tables,
            [[repr(p) for p in row] for row in self.dist.probs],
        ]
        return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@dataclass(frozen=True)
class Outcome:
    """What one instance produced: the split region and each route's output."""

    a1: Region
    regions: dict


def injective_channel(rng: random.Random, sizes) -> ChannelSpec:
    """Random channel that is injective by construction.

    The same construction as ``random_injective_channel`` in the test suite,
    with the input alphabet sizes given: arbitrary interference maps with at
    least two symbols each, and each receiver row a random permutation of
    the attainable interference-tuple indices.
    """
    K = len(sizes)
    g = []
    for n in sizes:
        vals = [rng.randrange(n) for _ in range(n)]
        if len(set(vals)) == 1 and n > 1:
            vals[0] = (vals[0] + 1) % n
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
    return ChannelSpec(K=K, x_alphabet_sizes=tuple(sizes), g_tables=tuple(g), f_tables=tuple(f))


def full_support(rng: random.Random, spec: ChannelSpec) -> InputDistribution:
    """Random product distribution; every probability is at least 0.05 / (1.05 n)."""
    rows = []
    for n in spec.x_alphabet_sizes:
        w = [rng.random() + 0.05 for _ in range(n)]
        s = sum(w)
        rows.append(tuple(v / s for v in w))
    return InputDistribution(tuple(rows))


def _pool_project_k6(size):
    pool = []
    for k in range(size):
        rng = random.Random(f"project-k6/{k}")
        spec = injective_channel(rng, [2] * 6)
        pool.append(Instance(f"project-k6/{k}", spec, full_support(rng, spec)))
    return pool


def _pool_certify_k3(size):
    pool = []
    for k in range(size):
        rng = random.Random(f"certify-k3/{k}")
        spec = injective_channel(rng, [rng.randint(2, 4) for _ in range(3)])
        pool.append(Instance(f"certify-k3/{k}", spec, full_support(rng, spec)))
    return pool


def _pool_sweep_k4_x8(size):
    spec = injective_channel(random.Random("sweep-k4-x8/channel"), [8] * 4)
    return [
        Instance(f"sweep-k4-x8/{k}", spec, full_support(random.Random(f"sweep-k4-x8/{k}"), spec))
        for k in range(size)
    ]


def _project(inst: Instance, rng: random.Random, span) -> Outcome:
    table = dicregion.build_entropy_table(inst.spec, inst.dist)
    a1 = dicregion.build_A1(inst.spec, table)
    return Outcome(a1, {"hk-project": dicregion.project_to_aggregate(a1)})


def _certify(inst: Instance, rng: random.Random, span) -> Outcome:
    """Both routes, then what `dicregion compare` does with their outputs."""
    table = dicregion.build_entropy_table(inst.spec, inst.dist)
    a1 = dicregion.build_A1(inst.spec, table)
    hk = dicregion.project_to_aggregate(a1)
    thm = dicregion.enumerate_facets(inst.spec, table)
    with span("polytope.compare"):
        compare(hk, thm, rng)
    return Outcome(a1, {"hk-project": hk, "theorem": thm})


def compare(a: Region, b: Region, rng: random.Random) -> None:
    """Mutual containment plus seeded support spot checks; raises RoutesDisagree."""
    for left, right, name in ((a, b, "theorem"), (b, a, "hk-project")):
        violation = dicregion.polytope.find_subset_violation(left, right, TOL)
        if violation is not None:
            ineq, value = violation
            raise RoutesDisagree(
                f"row {list(ineq.coeffs)} <= {ineq.rhs!r} of {name} attains {value!r}"
            )
    for _ in range(COMPARE_DIRECTIONS):
        direction = [rng.uniform(-1.0, 1.0) for _ in range(a.dim)]
        va = _support_or_none(a, direction)
        vb = _support_or_none(b, direction)
        if (va is None) != (vb is None) or (
            va is not None and abs(va - vb) > TOL * max(1.0, abs(va))
        ):
            raise RoutesDisagree(f"support values differ in direction {direction}: {va} vs {vb}")


def _support_or_none(region, direction):
    try:
        return dicregion.support_value(region, direction, TOL)
    except UnboundedDirectionError:
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    make_pool: Callable[[int], list]
    run: Callable[[Instance, random.Random, Callable], Outcome]

    def pool(self) -> list:
        return self.make_pool(self.pool_size)


# Pool sizes keep one round of the pool between 6 and 15 seconds at the
# commit that added the benchmark, so a 20-second run is two or more whole
# rounds and the median does not depend on where a run stopped.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("project-k6", 6, _pool_project_k6, _project),
        Workload("certify-k3", 9, _pool_certify_k3, _certify),
        Workload("sweep-k4-x8", 16, _pool_sweep_k4_x8, _project),
    )
}


def warmup_instance() -> Instance:
    """A K=2 binary instance that runs every code path in milliseconds."""
    rng = random.Random("warmup")
    spec = injective_channel(rng, [2, 2])
    return Instance("warmup", spec, full_support(rng, spec))


def canonical_lhs(region: Region) -> list:
    """Integer left-hand sides of a canonical region, in its row order."""
    return [list(ineq.coeffs) for ineq in region.inequalities]
