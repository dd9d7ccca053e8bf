"""Sweep harness tests: config parsing, trial determinism, aggregation,
CSV emission, and the command-line entry point."""

import json

import numpy as np
import pytest

from netmimo import ConfigurationError, solve_system
from netmimo.cli import main
from netmimo.experiment import (
    SweepSpec,
    TrialRecord,
    compute_cdf,
    emit_cdf_csv,
    emit_records_csv,
    emit_summary_csv,
    parse_config,
    read_records_csv,
    resolve_algorithm_config,
    run_sweep,
    run_trial,
    scenario_for_value,
)

BASE_CONFIG = {
    "sweep": {
        "variable": "snr_db",
        "values": [0.0, 5.0],
        "trials": 2,
        "algorithms": ["dmmse", "min_leakage"],
        "master_seed": 99,
    },
    "scenario": {
        "cluster_size": 3,
        "users_per_cell": 1,
        "nt": 2,
        "nr": 2,
        "streams": 1,
        "cooperation_factor": 2,
        "boundary_snr_db": 10.0,
    },
    "algorithm": {"objective": "srm", "max_outer": 150, "inner_tol": 1e-5},
}


def write_config(tmp_path, payload, name="sweep.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_parse_config_round_trip(tmp_path):
    spec = parse_config(write_config(tmp_path, BASE_CONFIG))
    assert spec.variable == "snr_db"
    assert spec.values == (0.0, 5.0)
    assert spec.trials == 2
    assert spec.algorithms == ("dmmse", "min_leakage")
    assert spec.scenario.cluster_size == 3
    assert spec.algorithm_config.objective == "srm"
    assert spec.master_seed == 99


def test_parse_config_rejects_unknown_key(tmp_path):
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["scenario"]["bandwidth"] = 20
    with pytest.raises(ConfigurationError) as err:
        parse_config(write_config(tmp_path, bad))
    assert "bandwidth" in str(err.value)


def test_parse_config_rejects_duplicate_key(tmp_path):
    text = json.dumps(BASE_CONFIG)[:-1] + ', "scenario": {}}'
    path = tmp_path / "dup.json"
    path.write_text(text)
    with pytest.raises(ConfigurationError) as err:
        parse_config(path)
    assert "duplicate" in str(err.value)


def test_parse_config_rejects_excess_cooperation(tmp_path):
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["scenario"]["cooperation_factor"] = 4
    with pytest.raises(ConfigurationError):
        parse_config(write_config(tmp_path, bad))


def test_parse_config_rejects_invalid_swept_value(tmp_path):
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["sweep"]["variable"] = "kappa"
    bad["sweep"]["values"] = [1, 4]
    with pytest.raises(ConfigurationError):
        parse_config(write_config(tmp_path, bad))


def test_parse_config_angle_suffix(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["scenario"]["sector_offset"] = "30deg"
    spec = parse_config(write_config(tmp_path, cfg))
    assert spec.scenario.sector_offset == pytest.approx(np.pi / 6)


def test_scenario_for_value_variables():
    spec = _spec()
    assert scenario_for_value(spec.scenario, "snr_db", 13.0).boundary_snr_db == 13.0
    assert scenario_for_value(spec.scenario, "kappa", 1).cooperation_factor == 1
    assert scenario_for_value(spec.scenario, "cluster_size", 1).cluster_size == 1
    assert scenario_for_value(spec.scenario, "sectors", 1).sectors == 1


def test_resolve_algorithm_config():
    base = _spec().algorithm_config
    assert resolve_algorithm_config(base, "pwf").objective == "srm"
    assert resolve_algorithm_config(base, "min_leakage").objective == "wsmmse"
    assert resolve_algorithm_config(base, "dmmse").objective == "srm"


def _spec():
    from netmimo import AlgorithmConfig, ScenarioConfig

    return SweepSpec(
        variable="snr_db",
        values=(0.0, 5.0),
        trials=2,
        algorithms=("dmmse", "min_leakage"),
        scenario=ScenarioConfig(cluster_size=3, users_per_cell=1, nt=2, nr=2, streams=1,
                                cooperation_factor=2, boundary_snr_db=10.0),
        algorithm_config=AlgorithmConfig(objective="srm", max_outer=150, inner_tol=1e-5),
        master_seed=99,
    ).validate()


def test_run_trial_deterministic():
    spec = _spec()
    a = run_trial(spec, 1, 0, "dmmse")
    b = run_trial(spec, 1, 0, "dmmse")
    assert a.per_cell_sum_rate == b.per_cell_sum_rate
    assert a.wsmse == b.wsmse
    assert a.iterations == b.iterations
    assert not a.failed
    assert a.per_cell_sum_rate > 0.0
    assert a.max_constraint_violation <= 1e-2


def test_min_leakage_records_its_budget_use(monkeypatch):
    from netmimo import experiment

    solved = []

    def spy(system, config):
        problem, solution = solve_system(system, config)
        solved.append((system, solution))
        return problem, solution

    monkeypatch.setattr(experiment, "solve_system", spy)
    record = run_trial(_spec(), 1, 0, "min_leakage")
    system, solution = solved[0]
    usage = solution.diagnostics["usage"]
    # the equal power split spends every per-BS budget exactly
    assert np.allclose(usage, system.bs_power, rtol=1e-12, atol=0.0)
    violation = float(np.max((usage - system.bs_power) / system.bs_power))
    assert solution.diagnostics["max_violation"] == max(violation, 0.0)
    assert record.max_constraint_violation == solution.diagnostics["max_violation"]


def test_run_sweep_cardinality_and_order():
    spec = _spec()
    records = run_sweep(spec)
    assert len(records) == 2 * 2 * 2
    keys = [(r.sweep_value, r.trial, r.algorithm) for r in records]
    assert keys == sorted(keys, key=lambda t: (spec.values.index(t[0]), t[1],
                                               spec.algorithms.index(t[2])))


def test_run_sweep_parallel_matches_serial():
    spec = _spec()
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    for a, b in zip(serial, parallel):
        assert a.per_cell_sum_rate == b.per_cell_sum_rate
        assert a.algorithm == b.algorithm and a.trial == b.trial


def test_compute_cdf_points():
    records = [
        TrialRecord("snr_db", 0.0, i, "dmmse", rate, 0.0, 1, 0.0, True, False, 0.0)
        for i, rate in enumerate([3.0, 1.0, 2.0])
    ]
    points, mean = compute_cdf(records)
    assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]
    assert mean == pytest.approx(2.0)
    single, mean1 = compute_cdf(records[:1])
    assert single == [(3.0, 1.0)] and mean1 == 3.0


def test_emit_records_csv_formats(tmp_path):
    path = tmp_path / "records.csv"
    emit_records_csv([], path)
    assert path.read_text().strip().count("\n") == 0  # header only
    rec = TrialRecord("snr_db", 5.0, 0, "dmmse", 1.23456789012345, 2.5, 10, 0.0, True, False, 1.0)
    emit_records_csv([rec], path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert "1.23456789012" in lines[1]
    assert "wall_time" not in lines[0]
    parsed = read_records_csv(path)
    assert parsed[0].per_cell_sum_rate == pytest.approx(1.23456789012345, rel=1e-11)


def test_byte_identical_rerun(tmp_path):
    spec = _spec()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_records_csv(run_sweep(spec), p1)
    emit_records_csv(run_sweep(spec), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_summary_and_cdf_outputs(tmp_path):
    spec = _spec()
    records = run_sweep(spec)
    emit_summary_csv(records, tmp_path / "summary.csv")
    emit_cdf_csv(records, tmp_path / "cdf.csv")
    summary = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert len(summary) == 1 + 4  # header + 2 values x 2 algorithms
    cdf = (tmp_path / "cdf.csv").read_text().strip().split("\n")
    assert len(cdf) == 1 + len(records)


def test_cli_run_and_cdf(tmp_path):
    config = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    code = main(["run", str(config), "--out-dir", str(out)])
    assert code == 0
    assert (out / "records.csv").exists()
    assert (out / "summary.csv").exists()
    code = main(["cdf", str(out / "records.csv"), "--out-dir", str(out)])
    assert code == 0
    assert (out / "cdf.csv").exists()


def test_cli_seed_and_algorithm_overrides(tmp_path):
    config = write_config(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(config), "--out-dir", str(out1), "--seed", "5",
                 "--algorithms", "dmmse"]) == 0
    records = read_records_csv(out1 / "records.csv")
    assert {r.algorithm for r in records} == {"dmmse"}
    assert main(["run", str(config), "--out-dir", str(out2), "--seed", "5",
                 "--algorithms", "dmmse"]) == 0
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()


def test_cli_configuration_error_exit_code(tmp_path):
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["sweep"]["variable"] = "frequency"
    config = write_config(tmp_path, bad)
    assert main(["run", str(config)]) == 1
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    assert main(["cdf", str(tmp_path / "missing.csv")]) == 1
