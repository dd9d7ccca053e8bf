"""Unit tests for the benchmark's helpers: span self time, the tail
percentile rule, seeded input generation and wrapper restoration."""

import os
import sys
import types

import numpy as np
import pytest

from perfbench import hostspeed, tracing
from perfbench.stats import tail
from perfbench.tracing import Patches, Tracer, self_times
from perfbench.workloads import (
    CheckedRecord,
    Checks,
    Outcome,
    PanelState,
    SingleLink,
    SNR_WSMMSE,
    judge_record,
    seeded_rng,
)


def test_self_times_subtract_direct_children_only():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 3 [6, 8] nests in 2.
    start = [0.0, 1.0, 5.0, 6.0, 20.0]
    end = [10.0, 4.0, 9.0, 8.0, 21.0]
    parent = [-1, 0, 0, 2, -1]
    got = self_times(start, end, parent)
    np.testing.assert_allclose(got, [3.0, 3.0, 2.0, 2.0, 1.0])
    # the self times of a tree add up to its root's duration
    assert got[:4].sum() == pytest.approx(10.0)


def test_self_times_of_no_spans():
    assert self_times([], [], []).size == 0


def test_tail_is_highest_rung_with_ten_samples_beyond():
    values = list(range(1, 101))          # 100 samples
    assert tail(values) == (90.0, 90, 100)
    values = list(range(1, 1001))         # 1000 samples
    assert tail(values) == (99.0, 990, 1000)
    values = list(range(1, 10001))        # 10000 samples
    assert tail(values) == (99.9, 9990, 10000)


def test_tail_needs_twenty_samples():
    assert tail(range(20)) == (50.0, 9, 20)
    assert tail(range(19)) == (None, None, 19)
    assert tail([]) == (None, None, 0)


def test_seeded_rng_is_deterministic_and_keyed():
    a = seeded_rng(7, 3).standard_normal(4)
    np.testing.assert_array_equal(a, seeded_rng(7, 3).standard_normal(4))
    assert not np.array_equal(a, seeded_rng(8, 3).standard_normal(4))
    assert not np.array_equal(a, seeded_rng(7, 4).standard_normal(4))
    with pytest.raises(ValueError):
        seeded_rng(-1)


def test_speed_meter_samples_per_stretch_of_work_and_scales_by_the_mean():
    meter = hostspeed.SpeedMeter()
    assert meter.samples == [] and meter.spent == 0.0
    meter.tick()                      # right after the warm-up: not due yet
    assert meter.samples == []
    meter.sample()
    assert len(meter.samples) == 1 and meter.spent >= meter.samples[0] > 0
    # one sample for every EVERY_S of work since the last
    meter._last -= 2.5 * hostspeed.EVERY_S
    meter.tick()
    assert len(meter.samples) == 3
    # a host twice as slow as the reference, on average, halves the scale
    meter.samples = [3.0 * hostspeed.REFERENCE_S, 1.0 * hostspeed.REFERENCE_S]
    assert meter.scale() == pytest.approx(0.5)


def test_speed_meter_with_two_processes_waits_for_its_child():
    meter = hostspeed.SpeedMeter(processes=2)
    meter.sample(2)
    assert len(meter.samples) == 2
    with pytest.raises(ChildProcessError):
        os.wait()


def test_links_come_from_the_seed():
    links = SingleLink()
    one, again, other = links.make_link(5, 2), links.make_link(5, 2), links.make_link(6, 2)
    np.testing.assert_array_equal(one.channel, again.channel)
    assert not np.array_equal(one.channel, other.channel)
    assert one.num_constraints == links.nt
    assert one.budgets.sum() == pytest.approx(links.total_power)


def _fake_package(monkeypatch):
    """A two-layer package standing in for netmimo: ``high.outer`` calls
    ``low.inner`` through the copy of the name that a ``from .low import
    inner`` would leave in ``high``."""
    pkg, low, high = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.low", "fakepkg.high"))
    exec("def inner(x):\n    return x + 1\n", low.__dict__)
    high.inner = low.inner
    exec("def outer(x):\n    return 2 * inner(x)\n", high.__dict__)
    pkg.inner, pkg.outer = low.inner, high.outer
    for module in (pkg, low, high):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(tracing, "PACKAGE", "fakepkg")
    monkeypatch.setattr(tracing, "LAYERS", {"low": ("inner",), "high": ("outer",)})
    monkeypatch.setattr(tracing, "NOTES", {"high.outer": lambda args, result: (args[0], result)})
    return pkg, low, high


def test_tracer_wraps_every_binding_and_restores_even_after_an_error(monkeypatch):
    pkg, low, high = _fake_package(monkeypatch)
    inner, outer = low.inner, high.outer
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            # a name bound in several namespaces is wrapped in all of them
            assert low.inner is high.inner is pkg.inner is not inner
            assert pkg.outer is high.outer is not outer
            raise RuntimeError("abort the traced section")
    assert low.inner is high.inner is pkg.inner is inner
    assert pkg.outer is high.outer is outer


def test_tracer_records_nested_spans_with_items_and_notes(monkeypatch):
    pkg, low, high = _fake_package(monkeypatch)
    tracer = Tracer()
    with tracer.installed():
        tracer.begin_item(("x",))
        assert pkg.outer(1) == 4
        tracer.begin_item(("y",))
        assert low.inner(5) == 6
    assert [tracer.names[i] for i in tracer.name] == ["high.outer", "low.inner", "low.inner"]
    assert list(tracer.parent) == [-1, 0, -1]
    assert list(tracer.item) == [0, 0, 1]
    assert tracer.notes == {0: (1, 4)}
    spans = tracer.arrays()
    assert np.all(spans["self"] >= 0)
    assert spans["self"][0] + spans["self"][1] == pytest.approx(spans["end"][0] - spans["start"][0])
    assert not hasattr(high.outer, "__wrapped__")


def test_patches_restore_in_reverse_order():
    class Box:
        value = 1

    with Patches() as patches:
        patches.set(Box, "value", 2)
        patches.set(Box, "value", 3)
        assert Box.value == 3
    assert Box.value == 1


def test_an_over_budget_success_counts_as_failed():
    # as on snr_wsmmse (master seed 11, value index 1, trial 6): an
    # unconverged dmmse solve recorded as a success with BS 2 at 2.58x budget
    fields = dict(variable="snr_db", sweep_value=10.0, trial=6, algorithm="dmmse",
                  per_cell_sum_rate=14.6, wsmse=1.0, iterations=2014,
                  max_constraint_violation=1.58, converged=False, failed=False, wall_time=0.0)
    checks = Checks()
    over = judge_record("k", CheckedRecord(**fields, usage_ratio=2.58, recomputed_rate=14.6),
                        1e-2, checks)
    assert over.failed and over.over_budget and not over.raised
    within = judge_record("k", CheckedRecord(**fields, usage_ratio=1.005, recomputed_rate=14.6),
                          1e-2, checks)
    assert not within.failed
    assert checks.ok
    # a recorded rate the benchmark cannot reproduce is a correctness failure
    judge_record("k", CheckedRecord(**fields, usage_ratio=1.0, recomputed_rate=14.0), 1e-2, checks)
    assert not checks.ok


def test_panel_items_must_fail_and_converge_as_in_the_reference():
    state = PanelState(spec=types.SimpleNamespace(values=[10.0], trials=2), order=[])
    outcomes = [Outcome((0, 0, "dmmse"), 6.0, 50, True, False, False),
                Outcome((0, 1, "dmmse"), 14.6, 2014, False, False, True)]
    reference = SNR_WSMMSE.reference_of(state, outcomes)
    assert reference == {"group_mean_rate": {"10|dmmse": pytest.approx(10.3)},
                         "failed": ["0|1|dmmse"], "unconverged": ["0|1|dmmse"]}
    checks = Checks()
    SNR_WSMMSE.finish(state, outcomes, reference, checks)
    assert checks.ok
    # one more over-budget item, with the group mean unchanged, is caught
    over = Outcome((0, 0, "dmmse"), 6.0, 50, True, False, True)
    SNR_WSMMSE.finish(state, [over, outcomes[1]], reference, checks)
    assert len(checks.problems) == 1 and "failed=True" in checks.problems[0]
    # so is a convergence lost
    checks = Checks()
    SNR_WSMMSE.finish(state, [Outcome((0, 0, "dmmse"), 6.0, 50, False, False, False)], reference,
                      checks)
    assert len(checks.problems) == 1 and "converged=False" in checks.problems[0]
