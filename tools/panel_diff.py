"""Per-item diff of the solver results of two netmimo source trees.

    python3 tools/panel_diff.py PARENT_SRC CHANGE_SRC

Each argument is the root of a checkout (it holds ``src/netmimo`` and
``perfbench/``).  Each tree runs in a fresh interpreter with one BLAS
thread, both at once, and solves:

- both fixed panels of ``perfbench.workloads``, ``kappa_srm`` and
  ``snr_wsmmse``, in sweep order;
- the warm-up (canary) item of every benchmark workload;
- trials 0-9 of ``test_criterion_8_cooperation_trend`` (its draws, its
  designs and its budget check);
- one ``sector_drops`` batch (run seed 1, batch 0), in process.

It prints every item whose passes, stop, ``converged``, ``failed`` flag or
rate moved (old -> new; a rate moves when any bit does), then the mean rate
of every group, the pass and search-step totals of both trees, and the
line count of their ``src/netmimo/*.py`` (as ``wc -l`` counts).  The exit
code is 0 when no item moved and 1 when some did.  The panel
definitions come from each tree's own ``perfbench``; the script writes
only to a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# test_acceptance.RNG_ROOT: criterion 8 draws trial t from trial_rng(RNG_ROOT + 8, 0, t)
CRITERION_8_ROOT = 20260809 + 8
CRITERION_8_TRIALS = range(10)
CRITERION_8_KAPPAS = (1, 2, 3, 5)
FIELDS = ("passes", "stop", "converged", "failed", "rate")


# ---------------------------------------------------------------------------
# one tree, in its own interpreter
# ---------------------------------------------------------------------------

def _item(section, key, group, passes, diagnostics, converged, failed, rate) -> dict:
    return {"section": section, "key": "|".join(map(str, key)), "group": group, "passes": int(passes),
            "stop": (diagnostics or {}).get("stop"), "converged": bool(converged), "failed": bool(failed),
            "rate": float(rate), "search_steps": int((diagnostics or {}).get("search_steps", 0))}


def _collect(tree: str) -> list:
    """Every item of one tree, solved in this interpreter."""
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    from dataclasses import replace

    import numpy as np

    from netmimo import (AlgorithmConfig, ScenarioConfig, build_interference_problem, constraint_usage,
                         dmmse_solve, emmseia_solve, experiment, pwf_solve, realize, sum_rate)
    from netmimo.errors import NumericalFailureError
    from perfbench.workloads import WORKLOADS, Checks, TrialChecker, judge_record

    items, checks, solutions = [], Checks(), []
    with tempfile.TemporaryDirectory(prefix="panel_diff_") as out, TrialChecker().installed():
        checked = experiment.solve_system

        def spy(system, config):
            # the last solve's diagnostics; run_trial calls solve_system through the module global
            problem, solution = checked(system, config)
            solutions.append(solution.diagnostics)
            return problem, solution

        experiment.solve_system = spy

        def last_diagnostics():
            # of the one solve since the last call; None when it raised or none ran
            diagnostics = solutions[-1] if solutions else None
            solutions.clear()
            return diagnostics

        for name in ("kappa_srm", "snr_wsmmse"):
            workload = WORKLOADS[name]
            spec = workload.setup(1, out).spec
            tol = spec.algorithm_config.constraint_tol
            for vi in range(len(spec.values)):
                for ti in range(spec.trials):
                    for alg in spec.algorithms:
                        record = experiment.run_trial(spec, vi, ti, alg)
                        outcome = judge_record((vi, ti, alg), record, tol, checks)
                        items.append(_item(name, (spec.values[vi], ti, alg), f"{spec.values[vi]:g}|{alg}",
                                           outcome.iterations, last_diagnostics(), outcome.converged,
                                           outcome.failed, outcome.rate))

        for name, workload in sorted(WORKLOADS.items()):
            outcome = workload.canary_outcome(workload.setup(1, out), checks)
            items.append(_item("canary", (name,), f"canary|{name}", outcome.iterations, last_diagnostics(),
                               outcome.converged, outcome.failed, outcome.rate))

        sector = WORKLOADS["sector_drops"]
        state = sector.setup(1, out)
        outcomes = sector.run_step(state, 0, 1, checks, None)
        if len(solutions) != len(outcomes):  # a solve raised, so the order no longer pairs them
            solutions[:] = [None] * len(outcomes)
        for outcome, diagnostics in zip(outcomes, solutions):
            _, vi, ti, alg = outcome.key
            value = state.spec.values[vi]
            items.append(_item("sector_drops", (value, ti, alg), f"sectors {value:g}|{alg}",
                               outcome.iterations, diagnostics, outcome.converged, outcome.failed, outcome.rate))

    base = AlgorithmConfig(objective="srm", max_outer=600, inner_tol=1e-5)
    solvers = {"dmmse": dmmse_solve, "emmseia": emmseia_solve, "pwf": pwf_solve}
    for trial in CRITERION_8_TRIALS:
        state = experiment.trial_rng(CRITERION_8_ROOT, 0, trial).bit_generator.state
        for kappa in CRITERION_8_KAPPAS:
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            scenario = ScenarioConfig(cluster_size=5, users_per_cell=2, nt=4, nr=2, streams=2,
                                      cooperation_factor=kappa, boundary_snr_db=20.0)
            problem = build_interference_problem(realize(scenario, rng))
            for alg, solver in solvers.items():
                try:
                    sol = solver(problem, replace(base, algorithm=alg))
                except NumericalFailureError:
                    items.append(_item("criterion_8", (trial, kappa, alg), f"kappa {kappa}|{alg}",
                                       0, None, False, True, math.nan))
                    continue
                usage = constraint_usage(problem, sol.precoders)
                over = float(np.max((usage - problem.budgets) / problem.budgets)) > 0.01
                items.append(_item("criterion_8", (trial, kappa, alg), f"kappa {kappa}|{alg}",
                                   sol.iterations, sol.diagnostics, sol.converged, over,
                                   sum_rate(problem, sol.precoders) / 5.0))
    if not checks.ok:
        print(f"{tree}: {len(checks.problems)} benchmark check(s) failed, first: {checks.problems[0]}",
              file=sys.stderr)
    return items


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

def _run_trees(trees) -> list:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    runs = [subprocess.Popen([sys.executable, os.path.abspath(__file__), "--collect", tree],
                             stdout=subprocess.PIPE, env=env, text=True) for tree in trees]
    outputs = [run.communicate()[0] for run in runs]
    for tree, run in zip(trees, runs):
        if run.returncode != 0:
            raise SystemExit(f"collecting {tree} failed with exit code {run.returncode}")
    return [json.loads(output) for output in outputs]


def _same(field: str, a, b) -> bool:
    return a == b or (field == "rate" and math.isnan(a) and math.isnan(b))


def _mean(values) -> float:
    return sum(values) / len(values) if values else math.nan


def _totals(items) -> dict:
    passes, steps = {}, {}
    for item in items:
        key = f"{item['section']} {item['key'].rsplit('|', 1)[-1]}"  # the algorithm, or the canary's workload
        passes[key] = passes.get(key, 0) + item["passes"]
        steps[item["section"]] = steps.get(item["section"], 0) + item["search_steps"]
    return {**{f"passes {k}": v for k, v in passes.items()},
            **{f"search steps {k}": v for k, v in steps.items()}}


def compare(old: list, new: list) -> int:
    """Print what moved between two item lists; returns the number of
    moved or unmatched items."""
    old_by = {(i["section"], i["key"]): i for i in old}
    new_by = {(i["section"], i["key"]): i for i in new}
    moved = 0
    for key in sorted(old_by.keys() | new_by.keys()):
        a, b = old_by.get(key), new_by.get(key)
        if a is None or b is None:
            moved += 1
            print(f"{key[0]} {key[1]}: only in the {'parent' if b is None else 'change'}")
            continue
        changes = [f"{f} {a[f]!r} -> {b[f]!r}" for f in FIELDS if not _same(f, a[f], b[f])]
        if changes:
            moved += 1
            print(f"{key[0]} {key[1]}: " + "; ".join(changes))
    print(f"# {moved} of {len(new_by)} items moved" if moved else f"# no item moved ({len(new_by)} items)")

    print("# group mean rates (parent -> change)")
    groups: dict = {}
    for which, items in enumerate((old, new)):
        for item in items:
            rates = groups.setdefault((item["section"], item["group"]), ([], []))[which]
            if not math.isnan(item["rate"]) and not item["failed"]:
                rates.append(item["rate"])
    for (section, group), (a, b) in sorted(groups.items()):
        mark = "" if _mean(a) == _mean(b) else "  moved"
        print(f"{section:13s} {group:24s} {_mean(a):.10g} -> {_mean(b):.10g}{mark}")

    print("# totals (parent -> change)")
    old_totals, new_totals = _totals(old), _totals(new)
    for name in sorted(old_totals.keys() | new_totals.keys()):
        a, b = old_totals.get(name), new_totals.get(name)
        print(f"{name:40s} {a} -> {b}{'' if a == b else '  moved'}")
    return moved


def source_lines(tree: str) -> int:
    """Newlines in the tree's ``src/netmimo/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in Path(tree, "src", "netmimo").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--collect", metavar="TREE", help=argparse.SUPPRESS)
    parser.add_argument("trees", nargs="*", metavar="SRC", help="PARENT_SRC CHANGE_SRC")
    args = parser.parse_args(argv)
    if args.collect:
        json.dump(_collect(os.path.abspath(args.collect)), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees: PARENT_SRC CHANGE_SRC")
    for tree in args.trees:
        if not os.path.isfile(os.path.join(tree, "src", "netmimo", "__init__.py")):
            parser.error(f"no netmimo sources under {os.path.join(tree, 'src')}")
    old, new = _run_trees([os.path.abspath(t) for t in args.trees])
    moved = compare(old, new)
    print(f"{'lines src/netmimo/*.py':40s} " + " -> ".join(str(source_lines(t)) for t in args.trees))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
