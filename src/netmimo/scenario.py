"""Hexagonal multicell scenario generation.

Builds a cluster of coordinated cells on a hexagonal lattice surrounded by
two full tiers of interfering cells, drops users, draws path-loss /
lognormal-shadowing / Rayleigh-fading channels with an optional sectorized
antenna pattern, whitens each user against worst-case out-of-cluster
interference (tier BSs transmitting isotropically at full power), and
assigns each user the strongest cooperating BSs.  The output is a
:class:`~netmimo.model.PartialCooperationSystem` ready for the stacked
interference-problem mapping.

Geometry is in km; angles are radians internally; dB quantities convert as
x_linear = 10^(x_dB / 10).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ContractViolationError, SingularMatrixError, check_field_types
from .linalg import adjoint, hermitian_part, psd_inv_sqrt_batch
from .model import PartialCooperationSystem, sum_over_sources

log = logging.getLogger(__name__)

# Sidelobe floor (dB) and half-power angle (rad) of the parabolic sector pattern.
SECTOR_PATTERNS = {
    3: (20.0, np.deg2rad(70.0)),
    6: (23.0, np.deg2rad(35.0)),
}

# Axial lattice coordinates of the supported coordinated clusters: the
# center cell plus nearest neighbours.
CLUSTER_SHAPES = {
    1: ((0, 0),),
    3: ((0, 0), (1, 0), (0, 1)),
    5: ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)),
    7: ((0, 0), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)),
}

INTERFERENCE_TIERS = 2
MIN_DISTANCE_KM = 1e-3  # colocated user/BS distances clamp to 1 m

PLACEMENT_POLICIES = ("uniform", "fixed_radius")


@dataclass(frozen=True)
class ScenarioConfig:
    """Cellular experiment parameters (see module docstring for units).  A
    config checks itself when built, and so on ``dataclasses.replace``: a
    wrong type (:func:`errors.check_field_types`) or an invalid value raises
    :class:`ConfigurationError`.  :func:`realize` takes the draws' generator."""

    cluster_size: int = 3
    users_per_cell: int = 1
    nt: int = 4
    nr: int = 2
    streams: int = 2
    cooperation_factor: int = 2
    sectors: int = 1
    cell_radius_km: float = 1.0
    pathloss_exponent: float = 3.8
    shadowing_sigma_db: float = 8.0
    boundary_snr_db: float = 20.0
    per_bs_power: float = 1.0
    user_placement: str = "uniform"
    placement_fraction: float = 2.0 / 3.0
    sector_offset: float = 0.0

    def __post_init__(self):
        check_field_types(self)
        if self.cluster_size not in CLUSTER_SHAPES:
            raise ConfigurationError(
                f"cluster_size {self.cluster_size} unsupported; choose one of "
                f"{sorted(CLUSTER_SHAPES)}"
            )
        if self.users_per_cell < 1:
            raise ConfigurationError("users_per_cell must be at least 1")
        if not 1 <= self.cooperation_factor <= self.cluster_size:
            raise ConfigurationError(
                f"cooperation_factor {self.cooperation_factor} must lie in [1, {self.cluster_size}]"
            )
        if self.sectors not in (1,) + tuple(SECTOR_PATTERNS):
            raise ConfigurationError("sectors must be 1, 3 or 6")
        if self.nt % self.sectors != 0:
            raise ConfigurationError("sectors must divide the transmit antenna count")
        if self.pathloss_exponent <= 2:
            raise ConfigurationError("pathloss_exponent must exceed 2")
        if self.cell_radius_km <= 0 or self.per_bs_power <= 0:
            raise ConfigurationError("cell_radius_km and per_bs_power must be positive")
        if self.shadowing_sigma_db < 0:
            raise ConfigurationError("shadowing_sigma_db must be non-negative")
        if self.user_placement not in PLACEMENT_POLICIES:
            raise ConfigurationError(f"user_placement must be one of {PLACEMENT_POLICIES}")
        if not 0 < self.placement_fraction <= 1:
            raise ConfigurationError("placement_fraction must lie in (0, 1]")
        if not 1 <= self.streams <= min(self.cooperation_factor * self.nt, self.nr):
            raise ConfigurationError(
                "streams must lie in [1, min(cooperation_factor*nt, nr)]"
            )

    @property
    def num_users(self) -> int:
        return self.cluster_size * self.users_per_cell


@dataclass(frozen=True)
class GeometryRealization:
    """Positions of the cluster BSs, the two interference tiers, and users."""

    cluster_positions: np.ndarray   # (M, 2)
    tier_positions: np.ndarray      # (T, 2)
    user_positions: np.ndarray      # (K, 2)
    user_cells: np.ndarray          # (K,) serving-cell index of each drop
    sector_orientations: np.ndarray  # (S,) boresights, radians


@dataclass(frozen=True)
class ChannelRealization:
    """Raw channel draws (cluster BSs first, then tier BSs) plus the
    whitening output once computed."""

    gains: np.ndarray          # (K, M+T, nr, nt) complex channel matrices
    shadowing_db: np.ndarray   # (K, M+T)
    fading: np.ndarray         # (K, M+T, nr, nt) unit-variance complex draws
    num_cluster_bs: int
    whiteners: np.ndarray | None = None   # (K, nr, nr) R_k^{-1/2}
    whitened: np.ndarray | None = None    # (K, M, nr, nt) in-cluster channels


def _axial_to_xy(q: int, r: int, radius: float) -> tuple[float, float]:
    # Triangular lattice with site spacing sqrt(3) * radius, whose Voronoi
    # cells are hexagons with circumradius `radius`.
    s = np.sqrt(3.0) * radius
    return s * (q + 0.5 * r), s * (np.sqrt(3.0) / 2.0) * r


def _hex_distance(a: tuple[int, int], b: tuple[int, int]) -> int:
    dq, dr = a[0] - b[0], a[1] - b[1]
    return int((abs(dq) + abs(dr) + abs(dq + dr)) // 2)


@lru_cache(maxsize=64)  # bounded: the radius is any positive float
def _lattice(cluster_size: int, radius: float) -> tuple:
    """BS centres of the cluster ``CLUSTER_SHAPES[cluster_size]`` of cells
    of ``radius``, of the cells within INTERFERENCE_TIERS hops of it and
    outside it (in scan order), and of both: read-only (M, 2), (T, 2) and
    (M + T, 2) arrays that every drop shares."""
    cluster_axial = CLUSTER_SHAPES[cluster_size]
    span = INTERFERENCE_TIERS + 1  # cluster cells are within distance 1 of the center
    tier_axial = [(q, r) for q in range(-span - 1, span + 2) for r in range(-span - 1, span + 2)
                  if (q, r) not in cluster_axial
                  and min(_hex_distance((q, r), c) for c in cluster_axial) <= INTERFERENCE_TIERS]
    cluster_xy = np.array([_axial_to_xy(q, r, radius) for q, r in cluster_axial])
    tier_xy = np.array([_axial_to_xy(q, r, radius) for q, r in tier_axial])
    centers = (cluster_xy, tier_xy, np.vstack([cluster_xy, tier_xy]))
    for xy in centers:
        xy.flags.writeable = False
    return centers


def build_geometry(config: ScenarioConfig, rng: np.random.Generator) -> GeometryRealization:
    """Lay out the coordinated cluster, its two interference tiers, and the
    user drops.

    Users are placed uniformly over their hexagonal cell (rejection sampling
    against the lattice Voronoi cell) or on a fixed-radius circle around
    their BS, per ``config.user_placement``.
    """
    radius = config.cell_radius_km
    cluster_xy, tier_xy, all_centers = _lattice(config.cluster_size, radius)

    user_positions = []
    user_cells = []
    for cell_idx, center in enumerate(cluster_xy):
        for _ in range(config.users_per_cell):
            if config.user_placement == "fixed_radius":
                theta = rng.uniform(-np.pi, np.pi)
                dist = config.placement_fraction * radius
                pos = center + dist * np.array([np.cos(theta), np.sin(theta)])
            else:
                while True:
                    offset = rng.uniform(-radius, radius, size=2)
                    if np.hypot(*offset) > radius:
                        continue
                    pos = center + offset
                    dists = np.linalg.norm(all_centers - pos, axis=1)
                    if np.argmin(dists) == cell_idx:
                        break
            user_positions.append(pos)
            user_cells.append(cell_idx)

    orientations = config.sector_offset + 2.0 * np.pi * np.arange(config.sectors) / config.sectors
    return GeometryRealization(
        cluster_positions=cluster_xy,
        tier_positions=tier_xy,
        user_positions=np.array(user_positions),
        user_cells=np.array(user_cells, dtype=int),
        sector_orientations=_wrap_angle(orientations),
    )


def antenna_gain_db(theta, sectors: int):
    """Parabolic sector pattern gain in dB (non-positive):
    -min(12 (theta/theta_3dB)^2, floor), with (floor, theta_3dB) =
    (20 dB, 70 deg) for 3 sectors and (23 dB, 35 deg) for 6; 0 dB without
    sectorization.  ``theta`` must lie in [-pi, pi]."""
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(theta_arr < -np.pi - 1e-12) or np.any(theta_arr > np.pi + 1e-12):
        raise ContractViolationError("antenna angle must lie in [-pi, pi]")
    if sectors == 1:
        return np.zeros_like(theta_arr) if theta_arr.ndim else 0.0
    if sectors not in SECTOR_PATTERNS:
        raise ContractViolationError("sectors must be 1, 3 or 6")
    floor_db, theta_3db = SECTOR_PATTERNS[sectors]
    gain = -np.minimum(12.0 * (theta_arr / theta_3db) ** 2, floor_db)
    return gain if theta_arr.ndim else float(gain)


def _wrap_angle(theta):
    return np.mod(theta + np.pi, 2.0 * np.pi) - np.pi


def draw_channels(config: ScenarioConfig, geometry: GeometryRealization,
                  rng: np.random.Generator) -> ChannelRealization:
    """Draw the raw channels between every user and every BS (cluster and
    tiers): entry (r, t) is alpha * sqrt(snr0 * shadow * pattern * (d/d0)^-beta)
    with alpha ~ CN(0,1) per antenna pair and one shadowing draw per
    (user, BS) pair shared across antennas.

    RNG stream contract: one ``rng.standard_normal((K, B, 1 + 2 nr nt))``
    call, users outer and BSs inner (cluster BSs first, then tier BSs).  Per
    (user, BS) pair it holds the shadowing draw (times sigma, in dB), then
    the nr*nt real and then the nr*nt imaginary fading parts, each row-major
    over (nr, nt).  This is the stream of one ``normal(0, sigma)`` and two
    ``standard_normal((nr, nt))`` calls per pair.  The linear shadowing and
    path-loss factors are Python float powers per pair: numpy's array power
    may differ from them in the last bit.
    """
    centers = np.vstack([geometry.cluster_positions, geometry.tier_positions])
    n_bs = centers.shape[0]
    n_users = geometry.user_positions.shape[0]
    nt, nr = config.nt, config.nr
    snr0 = 10.0 ** (config.boundary_snr_db / 10.0)
    size = nr * nt

    draws = rng.standard_normal((n_users, n_bs, 1 + 2 * size))
    shadowing = 0.0 + config.shadowing_sigma_db * draws[:, :, 0]  # normal(0, sigma)
    fading = ((draws[:, :, 1:1 + size] + 1j * draws[:, :, 1 + size:]) / np.sqrt(2.0)).reshape(
        n_users, n_bs, nr, nt)

    delta = geometry.user_positions[:, np.newaxis, :] - centers[np.newaxis, :, :]
    dist = np.hypot(delta[..., 0], delta[..., 1])
    for k, b in np.argwhere(dist < MIN_DISTANCE_KM):
        log.warning("user %d colocated with BS %d; clamping distance to 1 m", k, b)
        dist[k, b] = MIN_DISTANCE_KM
    bearing = np.arctan2(delta[..., 1], delta[..., 0])

    radius, beta = config.cell_radius_km, config.pathloss_exponent
    power = np.array([
        snr0 * 10.0 ** (shadow_db / 10.0) * (d / radius) ** (-beta)
        for shadow_db, d in zip(shadowing.ravel().tolist(), dist.ravel().tolist())
    ]).reshape(n_users, n_bs, 1)
    theta = _wrap_angle(bearing[..., np.newaxis] - geometry.sector_orientations)
    pattern_lin = 10.0 ** (antenna_gain_db(theta, config.sectors) / 10.0)
    sector_of_antenna = np.arange(nt) // (nt // config.sectors)
    scale = np.sqrt(power * pattern_lin[..., sector_of_antenna])
    gains = fading * scale[:, :, np.newaxis, :]

    return ChannelRealization(
        gains=gains, shadowing_db=shadowing, fading=fading,
        num_cluster_bs=geometry.cluster_positions.shape[0],
    )


def whiten_out_of_cluster(config: ScenarioConfig, geometry: GeometryRealization,
                          channels: ChannelRealization) -> ChannelRealization:
    """Whiten every user against worst-case tier interference.

    R_k = I + (P/nt) * sum_{b in tiers} H_kb H_kb^H (tier BSs at full power
    with isotropic signal covariance, summed in ascending b); in-cluster
    channels are left-multiplied by R_k^{-1/2} so the effective
    noise-plus-out-of-cluster covariance becomes the identity.  Batched over
    users; raises :class:`SingularMatrixError` when some R_k fails the
    :func:`~netmimo.linalg.psd_inv_sqrt` eigenvalue test.
    """
    m = channels.num_cluster_bs
    tiers = channels.gains[:, m:]
    terms = (config.per_bs_power / config.nt) * (tiers @ adjoint(tiers))
    covs = sum_over_sources(np.eye(config.nr, dtype=complex), terms)
    whiteners, ok = psd_inv_sqrt_batch(hermitian_part(covs))
    if not ok.all():
        raise SingularMatrixError(
            f"out-of-cluster covariance of user {int(np.flatnonzero(~ok)[0])} is singular or indefinite"
        )
    whitened = whiteners[:, np.newaxis] @ channels.gains[:, :m]
    return replace(channels, whiteners=whiteners, whitened=whitened)


def assign_cooperation(config: ScenarioConfig, channels: ChannelRealization) -> tuple:
    """Serving sets: the ``cooperation_factor`` in-cluster BSs with the
    largest whitened channel Frobenius norms per user, ties broken by lower
    BS index; returned as ascending index tuples."""
    if channels.whitened is None:
        raise ContractViolationError("whitened channels are required before cooperation assignment")
    kappa = config.cooperation_factor
    if kappa > channels.num_cluster_bs:
        raise ConfigurationError("cooperation_factor exceeds the cluster size")
    norms = np.linalg.norm(channels.whitened, axis=(2, 3))
    ranked = np.argsort(-norms, axis=1, kind="stable")[:, :kappa]
    return tuple(map(tuple, np.sort(ranked, axis=1).tolist()))


def realize(config: ScenarioConfig, rng: np.random.Generator) -> PartialCooperationSystem:
    """Generate a complete partially cooperating downlink from ``rng``'s
    draws: geometry, channel draws, out-of-cluster whitening and
    cooperation assignment."""
    geometry = build_geometry(config, rng)
    channels = whiten_out_of_cluster(config, geometry, draw_channels(config, geometry, rng))
    serving = assign_cooperation(config, channels)
    return PartialCooperationSystem(
        nt=config.nt,
        nr=config.nr,
        bs_power=np.full(config.cluster_size, config.per_bs_power),
        channels=channels.whitened,
        serving_sets=serving,
        streams=tuple(config.streams for _ in range(config.num_users)),
    )
