"""The benchmark's interface to netmimo: the functions ``perfbench`` traces
by name, the module global it replaces inside ``run_trial``, its exact
canary gate, and the whole ``kappa_srm`` and ``snr_wsmmse`` panels against
their reference and their pass totals."""

import importlib

import pytest

from netmimo import AlgorithmConfig, ScenarioConfig, algorithms, experiment
from netmimo.experiment import SweepSpec
from perfbench.tracing import LAYERS, PACKAGE
from perfbench.workloads import RECOMPUTE_RTOL, WORKLOADS, Checks, TrialChecker, judge_record, load_reference


def test_every_traced_name_resolves():
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in names:
            assert callable(getattr(module, name))


def test_run_trial_calls_solve_system_through_the_module_global(monkeypatch):
    calls = []
    solve_system = experiment.solve_system

    def spy(system, config, *args, **kwargs):
        calls.append(config.algorithm)
        return solve_system(system, config, *args, **kwargs)

    monkeypatch.setattr(experiment, "solve_system", spy)
    spec = SweepSpec(variable="snr_db", values=(20.0,), trials=1, algorithms=("min_leakage",),
                     scenario=ScenarioConfig(), algorithm_config=AlgorithmConfig(), master_seed=0)
    record = experiment.run_trial(spec, 0, 0, "min_leakage")
    assert calls == ["min_leakage"] and not record.failed


# The passes each algorithm makes over a whole panel, exact: a change that
# moves solver results updates this table together with
# perfbench/reference.json.
PANEL_PASSES = {
    "kappa_srm": {"dmmse": 1456, "emmseia": 1377, "pwf": 663},
    "snr_wsmmse": {"dmmse": 13828, "emmseia": 3614},
}
# The linear solves of emmseia's multiplier searches over a whole panel
# (the search_steps diagnostics summed), exact.
PANEL_SEARCH_STEPS = {"kappa_srm": 13108, "snr_wsmmse": 11010}


@pytest.mark.slow
@pytest.mark.parametrize("name, items", [("kappa_srm", 24), ("snr_wsmmse", 64)], ids=["kappa_srm", "snr_wsmmse"])
def test_panel_matches_the_benchmark_reference(name, items, tmp_path, monkeypatch):
    # every item fails and converges as recorded, and every group mean rate
    # matches: the benchmark's own panel checks, outside the benchmark
    # (kappa_srm is the only panel that runs pwf); the passes and search
    # steps are counted too, each search step one _solve_systems call
    steps = []
    solve = algorithms._solve_systems
    monkeypatch.setattr(algorithms, "_solve_systems", lambda *args: steps.append(1) or solve(*args))
    workload, checks, reference = WORKLOADS[name], Checks(), load_reference()[name]
    state = workload.setup(1, tmp_path)
    with TrialChecker().installed():
        outcomes = [o for key in state.order for o in workload.run_step(state, key, 1, checks, None)]
    workload.finish(state, outcomes, reference, checks)
    assert len(outcomes) == items and workload.group_means(state, outcomes).keys() == reference["group_mean_rate"].keys()
    assert checks.ok, checks.problems
    passes: dict = {}
    for o in outcomes:
        passes[o.key[2]] = passes.get(o.key[2], 0) + o.iterations
    assert passes == PANEL_PASSES[name]
    assert len(steps) == PANEL_SEARCH_STEPS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_canary_matches_the_benchmark_reference(name, tmp_path):
    # the warm-up item the benchmark runs before timing: its rate and exact
    # iteration count must equal perfbench/reference.json
    workload, checks = WORKLOADS[name], Checks()
    state = workload.setup(1, tmp_path)
    with TrialChecker().installed():
        workload.warm_up(state, load_reference()[name], checks)
    assert checks.ok, checks.problems


@pytest.mark.parametrize("key", [(3, 0, "dmmse"), (3, 0, "pwf")], ids=lambda key: "-".join(map(str, key)))
def test_kappa_srm_item_recomputes_its_rate_under_the_checker(tmp_path, key):
    # the checker recomputes the rate and the usage of a cooperation-sweep
    # solve through sum_rate(problem, precoders) and
    # constraint_usage(problem, precoders), called positionally; the rate
    # must be the recorded one
    workload, checks = WORKLOADS["kappa_srm"], Checks()
    state = workload.setup(1, tmp_path)
    with TrialChecker().installed():
        record = experiment.run_trial(state.spec, *key)
    assert not record.failed and record.usage_ratio <= 1.0 + state.spec.algorithm_config.constraint_tol
    assert record.recomputed_rate == pytest.approx(record.per_cell_sum_rate, rel=RECOMPUTE_RTOL, abs=0.0)
    outcome = judge_record(key, record, state.spec.algorithm_config.constraint_tol, checks)
    assert checks.ok, checks.problems
    assert not outcome.failed and outcome.converged
