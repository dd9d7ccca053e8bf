"""Recompute reference.json, the stored outputs the benchmark checks
against: the warm-up (canary) item of every workload and, for the fixed
panels, the per-group mean rates and the items that fail or do not
converge.

    python3 perfbench/make_reference.py

Run it only when a change to netmimo is meant to change these results.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.abspath(sys.path[0]) == os.path.join(ROOT, "perfbench"):
    del sys.path[0]
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import json  # noqa: E402

from perfbench.workloads import (  # noqa: E402
    REFERENCE_PATH,
    WORKLOADS,
    Checks,
    PanelSweep,
    TrialChecker,
)

OUT_DIR = os.path.join(ROOT, ".perfbench")


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    checks = Checks()
    reference = {}
    with TrialChecker().installed():
        for name, workload in WORKLOADS.items():
            state = workload.setup(0, OUT_DIR)
            canary = workload.canary_outcome(state, checks)
            entry = {"canary_rate": canary.rate, "canary_iterations": canary.iterations}
            if isinstance(workload, PanelSweep):
                outcomes = [o for key in state.order
                            for o in workload.run_step(state, key, 1, checks, None)]
                entry.update(workload.reference_of(state, outcomes))
            reference[name] = entry
            print(name, json.dumps(entry), flush=True)
    if not checks.ok:
        print("\n".join(checks.problems), file=sys.stderr)
        return 1
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
