"""Cellular scenario tests: geometry, antenna pattern, channel statistics,
whitening, and cooperation assignment."""

import hashlib
import logging
from dataclasses import replace

import numpy as np
import pytest

from netmimo import (
    ConfigurationError,
    ContractViolationError,
    ScenarioConfig,
    SingularMatrixError,
    antenna_gain_db,
    assign_cooperation,
    build_geometry,
    draw_channels,
    realize,
    whiten_out_of_cluster,
)
from netmimo.scenario import MIN_DISTANCE_KM


def base_config(**kwargs):
    defaults = dict(cluster_size=3, users_per_cell=1, nt=4, nr=2, streams=2,
                    cooperation_factor=2, boundary_snr_db=20.0)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def test_single_cell_has_two_full_tiers():
    geom = build_geometry(base_config(cluster_size=1, cooperation_factor=1, streams=2),
                          np.random.default_rng(0))
    assert geom.cluster_positions.shape == (1, 2)
    assert geom.tier_positions.shape == (18, 2)


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_supported_cluster_sizes(m):
    cfg = base_config(cluster_size=m, cooperation_factor=1, streams=2)
    geom = build_geometry(cfg, np.random.default_rng(0))
    assert geom.cluster_positions.shape == (m, 2)
    # every tier cell is within two hops of the cluster, none overlap it
    spacing = np.sqrt(3.0) * cfg.cell_radius_km
    for pos in geom.tier_positions:
        dists = np.linalg.norm(geom.cluster_positions - pos, axis=1)
        assert dists.min() >= 0.99 * spacing
        assert dists.min() <= 2.01 * spacing


def test_drops_share_a_lattice_that_rejects_writes():
    # the centres are built once per (cluster size, radius); one drop must
    # not be able to move them under the next
    cfg = base_config(cluster_size=7, nt=6, sectors=3)
    first, second = (build_geometry(cfg, np.random.default_rng(seed)) for seed in (0, 1))
    for name in ("cluster_positions", "tier_positions"):
        shared = getattr(first, name)
        assert shared is getattr(second, name) and not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0, 0] = 0.0
    wider = build_geometry(replace(cfg, cell_radius_km=2.0), np.random.default_rng(0))
    assert np.array_equal(wider.tier_positions, 2.0 * first.tier_positions)


def test_unsupported_cluster_size_rejected():
    with pytest.raises(ConfigurationError) as err:
        build_geometry(base_config(cluster_size=2, cooperation_factor=1, streams=2),
                       np.random.default_rng(0))
    assert "1" in str(err.value) and "7" in str(err.value)


def test_fixed_radius_placement():
    cfg = base_config(user_placement="fixed_radius", placement_fraction=2.0 / 3.0)
    geom = build_geometry(cfg, np.random.default_rng(1))
    for k, cell in enumerate(geom.user_cells):
        dist = np.linalg.norm(geom.user_positions[k] - geom.cluster_positions[cell])
        assert dist == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_uniform_placement_stays_in_cell():
    cfg = base_config(users_per_cell=4)
    geom = build_geometry(cfg, np.random.default_rng(2))
    centers = np.vstack([geom.cluster_positions, geom.tier_positions])
    for k, cell in enumerate(geom.user_cells):
        dists = np.linalg.norm(centers - geom.user_positions[k], axis=1)
        assert np.argmin(dists) == cell


def test_geometry_deterministic():
    cfg = base_config()
    g1 = build_geometry(cfg, np.random.default_rng(42))
    g2 = build_geometry(cfg, np.random.default_rng(42))
    assert np.array_equal(g1.user_positions, g2.user_positions)


def test_antenna_gain_values():
    assert antenna_gain_db(0.0, 3) == pytest.approx(0.0)
    assert antenna_gain_db(np.deg2rad(70.0), 3) == pytest.approx(-12.0)
    assert antenna_gain_db(np.pi, 6) == pytest.approx(-23.0)
    assert antenna_gain_db(1.3, 1) == pytest.approx(0.0)
    with pytest.raises(ContractViolationError):
        antenna_gain_db(3.5, 3)


def test_pathloss_ratio():
    # same draws at two distances: per-entry power ratio follows d^-3.8
    cfg = base_config(cluster_size=1, cooperation_factor=1, streams=2,
                      shadowing_sigma_db=0.0, user_placement="fixed_radius",
                      placement_fraction=1.0)
    geom1 = build_geometry(cfg, np.random.default_rng(7))
    chan1 = draw_channels(cfg, geom1, np.random.default_rng(123))
    geom2 = build_geometry(cfg, np.random.default_rng(7))
    # move the user twice as far along the same bearing
    moved = geom2.user_positions.copy()
    moved[0] = geom2.cluster_positions[0] + 2.0 * (moved[0] - geom2.cluster_positions[0])
    geom2 = type(geom2)(
        cluster_positions=geom2.cluster_positions,
        tier_positions=geom2.tier_positions,
        user_positions=moved,
        user_cells=geom2.user_cells,
        sector_orientations=geom2.sector_orientations,
    )
    chan2 = draw_channels(cfg, geom2, np.random.default_rng(123))
    ratio = np.abs(chan2.gains[0, 0]) ** 2 / np.abs(chan1.gains[0, 0]) ** 2
    assert np.allclose(ratio, 2.0 ** -3.8, rtol=1e-10)


def test_boundary_snr_normalization():
    # at the cell radius with no shadowing the mean entry power is snr0
    cfg = base_config(cluster_size=1, cooperation_factor=1, streams=2, nt=64, nr=40,
                      shadowing_sigma_db=0.0, boundary_snr_db=7.0,
                      user_placement="fixed_radius", placement_fraction=1.0)
    geom = build_geometry(cfg, np.random.default_rng(3))
    chan = draw_channels(cfg, geom, np.random.default_rng(3))
    snr0 = 10.0 ** 0.7
    power = np.mean(np.abs(chan.gains[0, 0]) ** 2)
    assert abs(power - snr0) <= 0.05 * snr0


def test_fading_and_shadowing_statistics():
    cfg = base_config(cluster_size=1, cooperation_factor=1, streams=2, nt=50, nr=40,
                      users_per_cell=8)
    geom = build_geometry(cfg, np.random.default_rng(4))
    chan = draw_channels(cfg, geom, np.random.default_rng(4))
    fading_var = np.mean(np.abs(chan.fading) ** 2)  # ~3e5 draws
    assert abs(fading_var - 1.0) <= 0.02
    shadow_std = np.std(chan.shadowing_db)  # 8 * 19 draws
    assert abs(shadow_std - 8.0) <= 0.4


def test_whitening_trivial_and_scalar():
    cfg = base_config(cluster_size=1, cooperation_factor=1, streams=1, nt=1, nr=1,
                      sectors=1, per_bs_power=2.0)
    geom = build_geometry(cfg, np.random.default_rng(5))
    chan = draw_channels(cfg, geom, np.random.default_rng(5))
    # zero out the tiers: whitening must be the identity
    silent = type(chan)(gains=chan.gains.copy(), shadowing_db=chan.shadowing_db,
                        fading=chan.fading, num_cluster_bs=chan.num_cluster_bs)
    silent.gains[:, 1:] = 0.0
    out = whiten_out_of_cluster(cfg, geom, silent)
    assert np.allclose(out.whiteners[0], np.eye(1))
    assert np.allclose(out.whitened[0, 0], silent.gains[0, 0])
    # single tier interferer: R = 1 + P |h|^2
    one = type(chan)(gains=chan.gains.copy(), shadowing_db=chan.shadowing_db,
                     fading=chan.fading, num_cluster_bs=chan.num_cluster_bs)
    one.gains[:, 2:] = 0.0
    h = complex(one.gains[0, 1, 0, 0])
    out2 = whiten_out_of_cluster(cfg, geom, one)
    expected = 1.0 / np.sqrt(1.0 + 2.0 * abs(h) ** 2)
    assert out2.whiteners[0][0, 0].real == pytest.approx(expected, rel=1e-10)


def test_whitening_rejects_ill_conditioned_covariance():
    # one rank-one tier channel of norm 1e7: R_1 has eigenvalues 1 and ~5e13,
    # below the psd_inv_sqrt floor of 1e-12 relative
    cfg = base_config()
    geom = build_geometry(cfg, np.random.default_rng(6))
    chan = draw_channels(cfg, geom, np.random.default_rng(6))
    gains = chan.gains.copy()
    gains[:, chan.num_cluster_bs:] = 0.0
    gains[1, chan.num_cluster_bs, 0, :] = 1e7
    with pytest.raises(SingularMatrixError, match="user 1"):
        whiten_out_of_cluster(cfg, geom, replace(chan, gains=gains))


def test_whitening_normalizes_out_of_cluster_covariance():
    cfg = base_config()
    geom = build_geometry(cfg, np.random.default_rng(6))
    chan = whiten_out_of_cluster(cfg, geom, draw_channels(cfg, geom, np.random.default_rng(6)))
    m = chan.num_cluster_bs
    for k in range(chan.gains.shape[0]):
        cov = np.eye(cfg.nr, dtype=complex)
        for b in range(m, chan.gains.shape[1]):
            h = chan.gains[k, b]
            cov += (cfg.per_bs_power / cfg.nt) * h @ h.conj().T
        w = chan.whiteners[k]
        assert np.linalg.norm(w @ cov @ w.conj().T - np.eye(cfg.nr)) <= 1e-8


def test_cooperation_assignment():
    cfg = base_config()
    geom = build_geometry(cfg, np.random.default_rng(8))
    chan = whiten_out_of_cluster(cfg, geom, draw_channels(cfg, geom, np.random.default_rng(8)))
    serving = assign_cooperation(cfg, chan)
    for k, sset in enumerate(serving):
        assert len(sset) == cfg.cooperation_factor
        norms = np.linalg.norm(chan.whitened[k], axis=(1, 2))
        chosen = min(norms[m] for m in sset)
        others = [norms[m] for m in range(cfg.cluster_size) if m not in sset]
        assert all(chosen >= o for o in others)
    full = assign_cooperation(base_config(cooperation_factor=3), chan)
    assert all(s == (0, 1, 2) for s in full)


def test_cooperation_tie_break_by_index():
    cfg = base_config()
    geom = build_geometry(cfg, np.random.default_rng(9))
    chan = whiten_out_of_cluster(cfg, geom, draw_channels(cfg, geom, np.random.default_rng(9)))
    # force norms (3, 2, 2): the tie at rank 2 resolves to the lower index 1
    forced = chan.whitened.copy()
    for m, target in enumerate((3.0, 2.0, 2.0)):
        forced[0, m] *= target / np.linalg.norm(forced[0, m])
    chan = type(chan)(gains=chan.gains, shadowing_db=chan.shadowing_db, fading=chan.fading,
                      num_cluster_bs=chan.num_cluster_bs, whiteners=chan.whiteners,
                      whitened=forced)
    serving = assign_cooperation(cfg, chan)
    assert serving[0] == (0, 1)


def test_realize_shapes():
    system = realize(base_config(), np.random.default_rng(10))
    assert system.num_users == 3
    assert all(len(s) == 2 for s in system.serving_sets)
    fig3 = realize(base_config(cluster_size=5, users_per_cell=2), np.random.default_rng(11))
    assert fig3.num_users == 10
    assert fig3.channels.shape == (10, 5, 2, 4)


def test_realize_deterministic():
    a = realize(base_config(), np.random.default_rng(21))
    b = realize(base_config(), np.random.default_rng(21))
    assert np.array_equal(a.channels, b.channels)
    assert a.serving_sets == b.serving_sets


def test_config_validation():
    # a config checks itself when built, and dataclasses.replace builds one
    base = base_config()
    for invalid in (dict(cooperation_factor=4), dict(cooperation_factor=9), dict(sectors=5),
                    dict(nt=4, sectors=3), dict(pathloss_exponent=1.5), dict(streams=3),
                    dict(cluster_size=2), dict(user_placement="grid"),
                    # and the field types: no float or bool for an integer, no NaN, infinity or text for a float
                    dict(users_per_cell=1.5), dict(streams=True), dict(nt=4.0), dict(boundary_snr_db=float("inf")),
                    dict(shadowing_sigma_db=float("nan")), dict(sector_offset="30deg"), dict(user_placement=1)):
        with pytest.raises(ConfigurationError):
            base_config(**invalid)
        with pytest.raises(ConfigurationError):
            replace(base, **invalid)
    assert replace(base, nt=6, sectors=3).sectors == 3
    # an integer in a float field comes back as a float
    for config in (base_config(boundary_snr_db=7), replace(base, boundary_snr_db=7)):
        assert type(config.boundary_snr_db) is float and config.boundary_snr_db == 7.0


def test_sectorized_realize_runs():
    cfg = base_config(nt=6, sectors=3, users_per_cell=2,
                      user_placement="fixed_radius", placement_fraction=2.0 / 3.0)
    system = realize(cfg, np.random.default_rng(12))
    assert system.channels.shape == (6, 3, 2, 6)


def realize_digest(config, seeds):
    """SHA-256 over realize()'s channel and power arrays, serving sets and
    stream counts for each seed in turn."""
    digest = hashlib.sha256()
    for seed in seeds:
        system = realize(config, np.random.default_rng(seed))
        digest.update(np.ascontiguousarray(system.channels).tobytes())
        digest.update(np.ascontiguousarray(system.bs_power).tobytes())
        digest.update(repr((system.serving_sets, system.streams)).encode())
    return digest.hexdigest()


# Digests of the draws before realize() was vectorized (per-pair and per-user
# loops); the batched scenario layer must reproduce them bit for bit.  They
# depend on the numpy/LAPACK build's floating-point results.
GOLDEN_CASES = {
    "sectors1": (dict(cluster_size=7, nt=6, sectors=1),
                 "c23642d755c2714bf1735060fbef73cf9fe0510f28f446efba7043297a9b064f"),
    "sectors3": (dict(cluster_size=7, nt=6, sectors=3),
                 "35d7d244580e2fe33cbbb8a3d02b31f6207a1c51b4ee9e5254517362ce8378fc"),
    "sectors6": (dict(cluster_size=7, nt=6, sectors=6),
                 "51551fa694f717602fd9b294b442c0fafbf6f7f17f34de212838b1fe3af7ee2a"),
    "two_users_per_cell": (dict(cluster_size=5, users_per_cell=2),
                           "fd1d41e3c5a300c88afda994316bf76f0cdea636e5a83e5416ca3d853bcc7a97"),
    "fixed_radius": (dict(nt=6, sectors=3, users_per_cell=2, user_placement="fixed_radius"),
                     "47451ec42127d10c8b6902c12265d9682d9c6d518c1e7719e25241bb2e4725be"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_realize_matches_golden_digest(case):
    overrides, expected = GOLDEN_CASES[case]
    assert realize_digest(base_config(**overrides), seeds=range(4)) == expected


def test_colocated_user_is_clamped_to_one_metre(caplog):
    cfg = base_config(nt=6, sectors=3)
    geom = build_geometry(cfg, np.random.default_rng(1))
    moved = geom.user_positions.copy()
    moved[1] = geom.cluster_positions[1]
    geom = type(geom)(cluster_positions=geom.cluster_positions, tier_positions=geom.tier_positions,
                      user_positions=moved, user_cells=geom.user_cells,
                      sector_orientations=geom.sector_orientations)
    with caplog.at_level(logging.WARNING, logger="netmimo.scenario"):
        chan = draw_channels(cfg, geom, np.random.default_rng(2))
    assert [r.getMessage() for r in caplog.records] == [
        "user 1 colocated with BS 1; clamping distance to 1 m"]
    # the gain is that of a user 1 m away: snr0 * shadow * (d/R)^-beta per entry
    snr0 = 10.0 ** (cfg.boundary_snr_db / 10.0)
    expected = snr0 * 10.0 ** (chan.shadowing_db[1, 1] / 10.0) \
        * (MIN_DISTANCE_KM / cfg.cell_radius_km) ** (-cfg.pathloss_exponent)
    # the bearing of a zero offset is 0 rad, the boresight of sector 0
    power = np.abs(chan.gains[1, 1, :, :2]) ** 2 / np.abs(chan.fading[1, 1, :, :2]) ** 2
    assert np.allclose(power, expected, rtol=1e-12)
