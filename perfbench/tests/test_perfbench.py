"""Tests of the benchmark itself: seeded inputs, the oracle, tracing and
failure counting."""

import os
import random
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for _path in (os.path.join(ROOT, "src"), BENCH):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import dicregion.lp  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dicregion import LinearInequality, Region  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_pool_is_deterministic_and_matches_the_record(name):
    record = oracle.load_record()
    pool = WORKLOADS[name].pool()
    digests = [inst.inputs_digest() for inst in pool]
    assert digests == [inst.inputs_digest() for inst in WORKLOADS[name].pool()]
    assert digests == [record[inst.key]["inputs_sha256"] for inst in pool]


def test_seed_fixes_the_order_and_the_random_streams():
    pool = WORKLOADS["certify-k3"].pool()

    def rounds(seed):
        r = run.Run(WORKLOADS["certify-k3"], pool, seed)
        return [r.order() for _ in range(3)]

    assert rounds(5) == rounds(5)
    assert rounds(5) != rounds(6)


@pytest.fixture(scope="module")
def k3_case():
    """A K=3 pool instance through the projection route only (fast)."""
    inst = WORKLOADS["certify-k3"].pool()[1]
    outcome = WORKLOADS["project-k6"].run(inst, random.Random(0), run.untraced_span)
    return inst, outcome, oracle.load_record()[inst.key]["lhs"]


def _facet_rows(region):
    return [i for i, q in enumerate(region.inequalities) if not oracle.is_nonneg_row(q.coeffs)]


def test_oracle_accepts_the_computed_region(k3_case):
    inst, outcome, _ = k3_case
    assert oracle.check_instance(inst, outcome, oracle.load_record(), random.Random(1)) == []


def test_oracle_rejects_every_loosened_facet(k3_case):
    inst, outcome, recorded = k3_case
    region = outcome.regions["hk-project"]
    dirs = oracle.directions([recorded], inst.spec.K, random.Random(1))
    for i in _facet_rows(region):
        rows = list(region.inequalities)
        rows[i] = LinearInequality(rows[i].coeffs, rows[i].rhs + 1e-3)
        loosened = Region(region.dim, rows, region.labels)
        assert oracle.support_mismatches(loosened, outcome.a1, dirs), f"row {i}"


def test_oracle_rejects_every_deleted_facet(k3_case):
    inst, outcome, recorded = k3_case
    region = outcome.regions["hk-project"]
    for i in _facet_rows(region):
        rows = region.inequalities[:i] + region.inequalities[i + 1:]
        damaged = Region(region.dim, rows, region.labels)
        lhs_lists = [recorded, workloads.canonical_lhs(damaged)]
        dirs = oracle.directions(lhs_lists, inst.spec.K, random.Random(1))
        assert oracle.support_mismatches(damaged, outcome.a1, dirs), f"row {i}"


def test_a_raising_instance_is_counted_as_failed():
    def make_pool(n):
        return [workloads.Instance(f"tiny/{k}", w.spec, w.dist)
                for k, w in enumerate([workloads.warmup_instance()] * n)]

    def project_or_raise(inst, rng, span):
        if inst.key == "tiny/1":
            raise RuntimeError("injected")
        return WORKLOADS["project-k6"].run(inst, rng, span)

    r = run.Run(workloads.Workload("tiny", 3, make_pool, project_or_raise), make_pool(3), 7)
    run.timed_rounds(r, 0.0, lambda: 1.0)
    accept_all = types.SimpleNamespace(load_record=dict, check_instance=lambda *a: [])
    run.check_outputs(r, accept_all)
    assert len(r.attempts) == 3
    assert r.failed() == 1
    assert any("key=tiny/1 seed=7" in p and "RuntimeError: injected" in p for p in r.problems)


def test_tracer_restores_the_library_and_its_counts_repeat():
    maximize = dicregion.lp.maximize
    inst = workloads.warmup_instance()
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.instance = inst.key
        with tracer.installed(), tracer.span("instance"):
            WORKLOADS["certify-k3"].run(inst, random.Random(0), tracer.span)
        counts.append(spans.instance_counts(tracer.spans))
    assert dicregion.lp.maximize is maximize
    assert counts[0] == counts[1]
    metrics = spans.layer_metrics(tracer.spans, 1, 1)
    assert metrics["lp.calls"][0] > metrics["polytope.compare_lps"][0] > 0
    assert metrics["theorem_region.weight_vectors"][0] == 3**2 - 1
    assert metrics["entropy.joint_tuples"][0] == 4
    assert all(value >= 0 for value, _ in metrics.values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "project-k6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
