"""Alternating process-CPU pairs of two netmimo source trees on one workload.

    python3 tools/cpu_pairs.py PARENT_SRC CHANGE_SRC --workload W --rounds N

Each argument is the root of a checkout (it holds ``src/netmimo`` and
``perfbench/``).  A round runs each tree once, in a fresh interpreter with
one BLAS thread, one process at a time; the tree that goes first alternates
from round to round.  A run solves, in sweep order, the whole fixed panel
of ``perfbench.workloads`` for ``kappa_srm`` or ``snr_wsmmse``, or the first
``--links`` links of seed 1 for ``single_link``, after one untimed
warm-up solve, and reports the process CPU time (``time.process_time``) of
the solves alone.  Building the panel's spec or the links is not timed.

The script prints each round's CPU seconds of both trees and their ratio
(change / parent), then the median ratio and the number of rounds the
change won.  Each run also hashes the rates, pass counts and flags of its
solves; the script says whether the two trees' hashes agree, which a
bit-for-bit change needs.  The definitions of the panels and links come
from each tree's own ``perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("kappa_srm", "snr_wsmmse", "single_link")


def _measure(tree: str, workload: str, links: int) -> dict:
    """CPU seconds and result hash of one run of ``workload`` in this
    interpreter, from the sources of ``tree``."""
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    from netmimo import experiment, single_user
    from perfbench.workloads import WORKLOADS as DEFINED

    definition = DEFINED[workload]
    results = []
    with tempfile.TemporaryDirectory(prefix="cpu_pairs_") as out:
        if workload == "single_link":
            problems = [definition.make_link(1, i) for i in range(links)]
            single_user.solve_multi_constraint(definition.make_link(definition.canary_seed, 0))

            def solve_all():
                for problem in problems:
                    result = single_user.solve_multi_constraint(problem)
                    results.append((result.wsmse, result.iterations, result.converged))
        else:
            spec = definition.setup(1, out).spec
            keys = [(vi, ti, alg) for vi in range(len(spec.values)) for ti in range(spec.trials)
                    for alg in spec.algorithms]
            experiment.run_trial(spec, *definition.canary)

            def solve_all():
                for key in keys:
                    record = experiment.run_trial(spec, *key)
                    results.append((record.per_cell_sum_rate, record.iterations, record.converged, record.failed))

        started = time.process_time()
        solve_all()
        cpu = time.process_time() - started
    digest = hashlib.sha256(repr(results).encode()).hexdigest()[:16]
    return {"cpu_s": cpu, "solves": len(results), "digest": digest}


def _run(tree: str, workload: str, links: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    run = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure", tree, "--workload", workload,
                          "--links", str(links)], stdout=subprocess.PIPE, env=env, text=True)
    if run.returncode != 0:
        raise SystemExit(f"measuring {tree} failed with exit code {run.returncode}")
    return json.loads(run.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--measure", metavar="TREE", help=argparse.SUPPRESS)
    parser.add_argument("trees", nargs="*", metavar="SRC", help="PARENT_SRC CHANGE_SRC")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--rounds", type=int, default=5, help="pairs of runs (default 5)")
    parser.add_argument("--links", type=int, default=300, help="single_link links per run (default 300)")
    args = parser.parse_args(argv)
    if args.measure:
        json.dump(_measure(os.path.abspath(args.measure), args.workload, args.links), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees: PARENT_SRC CHANGE_SRC")
    if args.rounds < 1 or args.links < 1:
        parser.error("--rounds and --links must be positive")
    trees = [os.path.abspath(t) for t in args.trees]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "src", "netmimo", "__init__.py")):
            parser.error(f"no netmimo sources under {os.path.join(tree, 'src')}")

    print(f"# {args.workload}: process CPU s per run, parent / change, alternating order")
    ratios, digests = [], set()
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        runs = {side: _run(trees[side], args.workload, args.links) for side in order}
        parent, change = runs[0]["cpu_s"], runs[1]["cpu_s"]
        ratios.append(change / parent)
        digests.update((side, run["digest"]) for side, run in runs.items())
        first = "parent" if order[0] == 0 else "change"
        print(f"round {r + 1:2d} ({first} first): {parent:8.3f} / {change:8.3f}  ratio {change / parent:.3f}")
    won = sum(ratio < 1.0 for ratio in ratios)
    print(f"# median ratio {statistics.median(ratios):.3f}; the change won {won} of {args.rounds} rounds")
    same = len({digest for _, digest in digests}) == 1
    print(f"# result hashes {'agree' if same else 'differ'}: "
          + ", ".join(sorted(f"{('parent', 'change')[side]} {digest}" for side, digest in digests)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
