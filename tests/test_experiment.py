"""Sweep harness tests: config parsing, trial determinism, aggregation,
CSV emission, and the command-line entry point."""

import copy
import csv
import hashlib
import json
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from netmimo import ConfigurationError, solve_system
from netmimo.cli import main
from netmimo.experiment import (
    RECORD_COLUMNS,
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
    # an integer in a float key comes back as a float
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["scenario"]["boundary_snr_db"], cfg["algorithm"]["lambda_init"] = 10, 2
    spec = parse_config(write_config(tmp_path, cfg))
    assert type(spec.scenario.boundary_snr_db) is float and spec.scenario.boundary_snr_db == 10.0
    assert type(spec.algorithm_config.lambda_init) is float and spec.algorithm_config.lambda_init == 2.0


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
    assert scenario_for_value(spec.scenario, "sectors", 1).sectors == 1
    # the swept scenario checks itself: one cell cannot hold the base's two cooperating BSs
    with pytest.raises(ConfigurationError):
        scenario_for_value(spec.scenario, "cluster_size", 1)
    single = replace(spec.scenario, cooperation_factor=1)
    assert scenario_for_value(single, "cluster_size", 1).cluster_size == 1
    # the integer fields take integers only, as their scenario keys do
    for variable, field, value in (("kappa", "cooperation_factor", 2), ("cluster_size", "cluster_size", 5),
                                   ("sectors", "sectors", 1)):
        assert getattr(scenario_for_value(spec.scenario, variable, value), field) == value
        with pytest.raises(ConfigurationError):
            scenario_for_value(spec.scenario, variable, 1.5)
    assert scenario_for_value(spec.scenario, "snr_db", 7).boundary_snr_db == 7.0


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
    )


def test_sweep_spec_checks_itself():
    # a spec checks itself, and each swept scenario, when built and on dataclasses.replace
    spec = _spec()
    for invalid in (dict(values=(1.0, 1)), dict(values=()), dict(algorithms=("dmmse", "dmmse")),
                    dict(algorithms=("nope",)), dict(trials=0), dict(master_seed=-1),
                    dict(variable="frequency"), dict(variable="kappa", values=(1, 4)),
                    # and the field types, the swept values' included
                    dict(trials=1.5), dict(trials=True), dict(master_seed=1.5), dict(variable=None),
                    dict(algorithms="dmmse"), dict(values=5.0), dict(values=(0.0, "5")),
                    dict(variable="kappa", values=(1, 2.5)), dict(scenario={}),
                    dict(algorithm_config=replace(spec, trials=3))):
        with pytest.raises(ConfigurationError):
            replace(spec, **invalid)
        with pytest.raises(ConfigurationError):
            SweepSpec(**{**{f.name: getattr(spec, f.name) for f in fields(SweepSpec)}, **invalid})
    assert replace(spec, variable="kappa", values=(1, 3)).values == (1, 3)
    # a list becomes a tuple
    assert replace(spec, values=[0.0, 5.0], algorithms=["pwf"]).algorithms == ("pwf",)
    assert replace(spec, values=[0.0, 5.0]).values == (0.0, 5.0)


def test_a_spec_builds_its_trials_inputs_once(monkeypatch):
    # the swept scenarios and the per-algorithm configs are attributes, not
    # config fields; replace rebuilds them, pickling to pool workers keeps
    # them, and run_trial reads them instead of building them again
    from netmimo import experiment

    spec = _spec()
    assert not {"scenarios", "configs"} & {f.name for f in fields(SweepSpec)}
    assert spec.scenarios == tuple(scenario_for_value(spec.scenario, "snr_db", v) for v in spec.values)
    assert spec.configs == {alg: resolve_algorithm_config(spec.algorithm_config, alg) for alg in spec.algorithms}
    moved = replace(spec, variable="kappa", values=(1, 3), algorithms=("pwf",))
    assert [s.cooperation_factor for s in moved.scenarios] == [1, 3] and list(moved.configs) == ["pwf"]
    shipped = pickle.loads(pickle.dumps(spec))
    assert shipped.scenarios == spec.scenarios and shipped.configs == spec.configs
    want = run_trial(spec, 1, 0, "min_leakage")

    def rebuilt(*args):
        raise AssertionError("run_trial built a config again")

    monkeypatch.setattr(experiment, "scenario_for_value", rebuilt)
    monkeypatch.setattr(experiment, "resolve_algorithm_config", rebuilt)
    assert replace(run_trial(shipped, 1, 0, "min_leakage"), wall_time=0.0) == replace(want, wall_time=0.0)


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


def _record_text(record) -> str:
    """Every field but wall_time, as exact text (a NaN equals itself)."""
    return repr(tuple(getattr(record, f.name) for f in fields(TrialRecord) if f.name != "wall_time"))


def test_run_sweep_parallel_matches_serial():
    # 45 items: the chunks of 6 (2 workers) and 4 (3 workers) leave a short last chunk
    spec = replace(_spec(), values=(0.0, 5.0, 10.0), trials=5, algorithms=("dmmse", "min_leakage", "pwf"))
    serial = [_record_text(r) for r in run_sweep(spec, workers=1)]
    assert len(serial) == 45
    for workers in (2, 3):
        assert 45 % -(-45 // (4 * workers)) != 0
        assert [_record_text(r) for r in run_sweep(spec, workers=workers)] == serial


# SHA-256 over the records of one whole sector_drops batch (every field but
# wall_time, in record order) from master seed 2026, run through the pool:
# the scenario draw, the cooperation assignment, min_leakage, run_trial's
# rate and the chunked dispatch must keep every bit.  Recorded with numpy
# 2.4's bundled OpenBLAS on x86-64, like the solver digests.
SECTOR_BATCH_DIGEST = "36f0449ec3f5dc60ed93cdbfcf23d1d5cad44b4df728bd7927afd561f006b175"


def test_sector_drops_batch_matches_golden_digest(tmp_path):
    from perfbench.workloads import SectorDrops

    config = copy.deepcopy(SectorDrops.config)
    config["sweep"]["master_seed"] = 2026
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    records = run_sweep(parse_config(path), workers=2)
    sha = hashlib.sha256()
    for record in records:
        sha.update(_record_text(record).encode())
    assert len(records) == 60 and sha.hexdigest() == SECTOR_BATCH_DIGEST


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


def test_failed_trial_is_flagged_counted_and_left_out(tmp_path, monkeypatch, capsys):
    # the first min_leakage solve (value 0, trial 0) fails numerically; the
    # sweep goes on, and every output keeps the failure apart
    from netmimo import NumericalFailureError, experiment

    config = write_config(tmp_path, BASE_CONFIG)
    assert main(["run", str(config), "--out-dir", str(tmp_path / "clean")]) == 0
    clean = read_records_csv(tmp_path / "clean" / "records.csv")
    failed = []

    def solve_or_fail(system, algorithm_config):
        if algorithm_config.algorithm == "min_leakage" and not failed:
            failed.append(algorithm_config)
            raise NumericalFailureError("injected failure")
        return solve_system(system, algorithm_config)

    monkeypatch.setattr(experiment, "solve_system", solve_or_fail)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out-dir", str(out)]) == 2
    assert "1 of 8 trials failed" in capsys.readouterr().err
    records = read_records_csv(out / "records.csv")
    bad = [i for i, r in enumerate(records) if r.failed]
    assert bad == [1] and (records[1].sweep_value, records[1].trial, records[1].algorithm) == (0.0, 0, "min_leakage")
    assert np.isnan(records[1].per_cell_sum_rate) and records[1].iterations == 0 and not records[1].converged
    assert [_record_text(r) for i, r in enumerate(records) if i != 1] == \
        [_record_text(r) for i, r in enumerate(clean) if i != 1]
    # the group's one good trial (value 0, trial 1) makes its mean and its CDF
    survivor = clean[3]
    assert (survivor.sweep_value, survivor.trial, survivor.algorithm) == (0.0, 1, "min_leakage")
    with open(out / "summary.csv", encoding="utf-8") as handle:
        summary = {(row["sweep_value"], row["algorithm"]): row for row in csv.DictReader(handle)}
    assert [(key, row["trials"], row["failures"]) for key, row in summary.items()] == [
        (("0", "dmmse"), "2", "0"), (("0", "min_leakage"), "2", "1"),
        (("5", "dmmse"), "2", "0"), (("5", "min_leakage"), "2", "0")]
    group = summary[("0", "min_leakage")]
    assert float(group["mean_per_cell_rate"]) == pytest.approx(survivor.per_cell_sum_rate, rel=1e-11)
    assert float(group["std_per_cell_rate"]) == 0.0
    assert float(group["mean_iterations"]) == survivor.iterations
    assert main(["cdf", str(out / "records.csv"), "--out-dir", str(out)]) == 0
    with open(out / "cdf.csv", encoding="utf-8") as handle:
        cdf = list(csv.DictReader(handle))
    assert len(cdf) == 7
    points = [row for row in cdf if (row["sweep_value"], row["algorithm"]) == ("0", "min_leakage")]
    assert [row["cum_fraction"] for row in points] == ["1"]
    assert float(points[0]["rate"]) == pytest.approx(survivor.per_cell_sum_rate, rel=1e-11)


def test_cli_seed_and_algorithm_overrides(tmp_path, capsys):
    config = write_config(tmp_path, BASE_CONFIG)
    out1, out2, out3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
    assert main(["run", str(config), "--out-dir", str(out1), "--seed", "5",
                 "--algorithms", "dmmse"]) == 0
    records = read_records_csv(out1 / "records.csv")
    assert {r.algorithm for r in records} == {"dmmse"}
    assert main(["run", str(config), "--out-dir", str(out2), "--seed", "5",
                 "--algorithms", "dmmse"]) == 0
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
    # a negative seed and a repeated algorithm are configuration errors, raised before
    # the output directory is made
    for override in (["--seed", "-1"], ["--algorithms", "dmmse,dmmse"]):
        assert main(["run", str(config), "--out-dir", str(out3), *override]) == 1
        assert capsys.readouterr().err.startswith("configuration error:") and not out3.exists()


def test_cli_configuration_error_exit_code(tmp_path):
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["sweep"]["variable"] = "frequency"
    config = write_config(tmp_path, bad)
    assert main(["run", str(config)]) == 1
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    assert main(["cdf", str(tmp_path / "missing.csv")]) == 1


def _records_text(row: str) -> str:
    good = "snr_db,5,0,dmmse,1.5,0.25,10,0,1,0"
    return ",".join(RECORD_COLUMNS) + "\n" + good + "\n" + row + "\n"


@pytest.mark.parametrize("row", [
    "snr_db,5,1,dmmse,1.5",                  # five of the ten fields
    "snr_db,abc,1,dmmse,1.5,0.25,10,0,1,0",  # a sweep value that is no number
], ids=["short_row", "bad_sweep_value"])
def test_cli_cdf_rejects_malformed_records(tmp_path, capsys, row):
    path = tmp_path / "records.csv"
    path.write_text(_records_text(row))
    assert main(["cdf", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert str(path) in err and "line 3" in err
    assert not (tmp_path / "cdf.csv").exists()


@pytest.mark.parametrize("section, key, value", [
    (None, "sweep", [1]),
    (None, "scenario", 5),
    ("sweep", "values", ["x"]),
    ("sweep", "values", [True]),
    ("sweep", "values", [float("inf")]),
    ("scenario", "boundary_snr_db", float("nan")),
    ("scenario", "sector_offset", "nan deg"),
    ("sweep", "values", [10**400]),
    ("scenario", "boundary_snr_db", 10**400),
    ("sweep", "master_seed", -3),
    ("sweep", "values", [10, 10.0]),
    ("scenario", "seed", 1),
    ("sweep", "algorithms", ["min_leakage", "min_leakage"]),
], ids=["sweep_not_object", "scenario_not_object", "sweep_value_not_number", "sweep_value_bool",
        "sweep_value_infinite", "scenario_value_nan", "angle_nan", "sweep_value_beyond_float",
        "scenario_value_beyond_float", "negative_master_seed", "repeated_sweep_value", "scenario_seed",
        "repeated_algorithm"])
def test_cli_run_rejects_malformed_config(tmp_path, capsys, section, key, value):
    bad = json.loads(json.dumps(BASE_CONFIG))
    (bad if section is None else bad[section])[key] = value
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, bad)), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def test_cli_rejects_input_that_is_not_utf8(tmp_path, capsys):
    for command, name in (("run", "sweep.json"), ("cdf", "records.csv")):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe" + json.dumps(BASE_CONFIG).encode())
        assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")
