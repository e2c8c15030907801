"""Independent correctness oracle, run after the timed phase.

A computed aggregate region is accepted when, for every checked direction
c, the maximum of c.R over the region equals the maximum of c.(R_p + R_c)
over the lifted ``build_A1`` system, both solved with scipy's HiGHS.  The
check uses neither ``dicregion.lp`` nor Fourier-Motzkin elimination.  The
directions are every facet normal of the output, every recorded facet
normal (so a missing facet is caught) and a seeded random set.

The canonical integer left-hand sides of each output must also match the
ones recorded in ``expected_lhs.json``.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np
from scipy.optimize import linprog

from workloads import Instance, Outcome, canonical_lhs

ORACLE_TOL = 1e-6  # relative; HiGHS works to about 1e-7
RANDOM_DIRECTIONS = 20
RECORD_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_lhs.json")


def load_record() -> dict:
    with open(RECORD_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def support(A, b, c):
    """max c.x over {A x <= b}, or None when HiGHS reports no optimum."""
    res = linprog(-np.asarray(c, dtype=float), A_ub=A, b_ub=b, bounds=(None, None), method="highs")
    return -res.fun if res.status == 0 else None


def is_nonneg_row(lhs) -> bool:
    return sorted(lhs)[0] == -1 and sum(1 for v in lhs if v) == 1


def directions(lhs_lists, dim: int, rng: random.Random) -> list:
    """Facet normals of the given left-hand-side lists plus random directions."""
    normals = sorted({tuple(row) for lhs in lhs_lists for row in lhs if not is_nonneg_row(row)})
    randoms = [tuple(rng.uniform(-1.0, 1.0) for _ in range(dim)) for _ in range(RANDOM_DIRECTIONS)]
    return normals + randoms


def support_mismatches(region, a1, dirs, tol: float = ORACLE_TOL) -> list:
    """Directions in which the region and the projected split region differ."""
    A, b = region.matrix()
    A1, b1 = a1.matrix()
    problems = []
    for c in dirs:
        got = support(A, b, c)
        want = support(A1, b1, np.repeat(c, 2))  # coordinates (R1p, R1c, R2p, ...)
        if got is None or want is None or abs(got - want) > tol * max(1.0, abs(want)):
            problems.append(f"support in direction {list(c)}: region {got!r}, split region {want!r}")
    return problems


def check_instance(inst: Instance, outcome: Outcome, record: dict, rng: random.Random) -> list:
    """Every problem the oracle finds with one instance's outputs."""
    entry = record.get(inst.key)
    if entry is None:
        return [f"no recorded left-hand sides for {inst.key}"]
    if entry["inputs_sha256"] != inst.inputs_digest():
        return [f"generated inputs of {inst.key} differ from the recorded ones"]
    problems = []
    lhs_lists = [entry["lhs"]] + [canonical_lhs(r) for r in outcome.regions.values()]
    dirs = directions(lhs_lists, inst.spec.K, rng)
    for route, region in outcome.regions.items():
        if canonical_lhs(region) != entry["lhs"]:
            problems.append(f"{route}: canonical left-hand sides differ from the record")
        problems.extend(f"{route}: {p}" for p in support_mismatches(region, outcome.a1, dirs))
    return problems
