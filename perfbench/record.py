"""Record the canonical left-hand sides of every pool instance.

    python3 perfbench/record.py

Writes ``expected_lhs.json`` beside this file.  Each instance must first
pass the scipy support check and, on ``certify-k3``, give the same
canonical rows by both routes; a failing instance is reported with its key
and cause and nothing is written.  Re-record only when the generator or the
pools change on purpose, never to hide a changed output.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from run import untraced_span  # noqa: E402


def main():
    record = {}
    failures = []
    for workload in workloads.WORKLOADS.values():
        for inst in workload.pool():
            try:
                outcome = workload.run(inst, random.Random(0), untraced_span)
            except Exception as exc:  # reported below with the instance key
                failures.append(f"{inst.key}: {type(exc).__name__}: {exc}")
                continue
            lhs = {json.dumps(workloads.canonical_lhs(r)) for r in outcome.regions.values()}
            if len(lhs) != 1:
                failures.append(f"{inst.key}: the routes give different canonical rows")
                continue
            rows = json.loads(lhs.pop())
            dirs = oracle.directions([rows], inst.spec.K, random.Random(inst.key))
            for route, region in outcome.regions.items():
                failures.extend(f"{inst.key}: {route}: {p}"
                                for p in oracle.support_mismatches(region, outcome.a1, dirs))
            record[inst.key] = {"inputs_sha256": inst.inputs_digest(), "lhs": rows}
            print(f"{inst.key}: {len(rows)} rows")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with open(oracle.RECORD_PATH, "w", encoding="utf-8") as fh:
        entries = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(record.items()))
        fh.write("{\n" + ",\n".join(entries) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
