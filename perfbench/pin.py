"""Pin the reference outputs that every benchmark run is checked against.

    python3 perfbench/pin.py [WORKLOAD ...]

runs one job of each named workload (all of them by default) for every input
variant (the full size) and for variant 0 at the tiny size used by the
self-tests, and rewrites those workloads' entries in references.json with
each variant's input hash, checkpoint fingerprint, set-up outputs and job
outputs. Pin only on a commit whose outputs are known to be right, and only
in a change that alters the benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCES, VARIANTS, WORKLOADS, run_one


def main(argv: list[str]) -> int:
    unknown = set(argv) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    refs: dict = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    plan = [("full", v) for v in range(VARIANTS)] + [("tiny", 0)]
    for workload in argv or WORKLOADS:
        refs[workload] = {}
        for size, variant in plan:
            result = run_one(workload, variant, 0, 0, size)
            refs[workload].setdefault(size, {})[str(variant)] = {
                "inputs_sha256": result["inputs_sha256"],
                "checkpoint": result["checkpoint"],
                "setup": result["setup_outputs"],
                "outputs": result["outputs"][0],
            }
            print(f"pinned {workload} {size} variant {variant}", file=sys.stderr)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
