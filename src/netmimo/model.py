"""Interference-channel data model and the shared error-covariance algebra.

A :class:`PartialCooperationSystem` describes a cellular downlink in which
each user's data streams are jointly precoded by an ordered subset of base
stations.  Stacking every user's serving channels turns the system into an
equivalent K-pair interference channel whose per-BS power budgets become
trace-weighted transmit constraints (:class:`InterferenceProblem`); the
constraint weight of BS m on user k is a block mask selecting the precoder
rows driven by BS m, and the masks of one user sum to the identity.

Users may differ in transmit size (serving-set size), receive size and
stream count d_k.  :attr:`InterferenceProblem.arrays` holds every problem
as zero-padded arrays (:class:`ProblemArrays`), and the batched kernels
below (:func:`interference_covariances`, :func:`mmse_equalizers`,
:func:`mse_matrices_mmse`, :func:`wsmse_objective`, :func:`sum_rate`,
:func:`constraint_usage`, :func:`srm_weight_update`) work on all users at
once.  They accept per-user matrices or their padded stack and return
padded stacks; each user's block of a result is what the per-user
functions (:func:`interference_covariance`, :func:`mmse_equalizer`,
:func:`mse_matrix`, :func:`mse_matrix_mmse`) give for that user.

Noise is identity by convention; colored noise must be whitened upstream
(see :mod:`netmimo.scenario`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, NumericalFailureError
from .linalg import adjoint, hermitian_part

LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class PartialCooperationSystem:
    """Multicell downlink with per-user serving sets.

    channels      -- (K, M, nr, nt) noise-whitened complex gains, user x BS
    serving_sets  -- per user, BS indices (ascending) that know its data
    bs_power      -- (M,) per-BS transmit power budgets
    streams       -- per-user stream counts d_k
    """

    nt: int
    nr: int
    bs_power: np.ndarray
    channels: np.ndarray
    serving_sets: tuple[tuple[int, ...], ...]
    streams: tuple[int, ...]

    def __post_init__(self):
        power = np.asarray(self.bs_power, dtype=float)
        chan = np.asarray(self.channels, dtype=complex)
        object.__setattr__(self, "bs_power", power)
        object.__setattr__(self, "channels", chan)
        object.__setattr__(self, "serving_sets", tuple(tuple(s) for s in self.serving_sets))
        object.__setattr__(self, "streams", tuple(int(d) for d in self.streams))
        m = power.size
        k = len(self.serving_sets)
        if chan.shape != (k, m, self.nr, self.nt):
            raise ContractViolationError(
                f"channel array shape {chan.shape} inconsistent with K={k}, M={m}, "
                f"nr={self.nr}, nt={self.nt}"
            )
        if len(self.streams) != k:
            raise ContractViolationError("one stream count per user is required")
        if np.any(power <= 0):
            raise ContractViolationError("per-BS powers must be positive")
        for idx, (sset, d) in enumerate(zip(self.serving_sets, self.streams)):
            if not sset or len(set(sset)) != len(sset):
                raise ContractViolationError(f"serving set of user {idx} must be non-empty without repeats")
            if min(sset) < 0 or max(sset) >= m:
                raise ContractViolationError(f"serving set of user {idx} references an unknown BS")
            if not 1 <= d <= min(len(sset) * self.nt, self.nr):
                raise ContractViolationError(
                    f"user {idx}: streams d={d} must lie in [1, min(|serving set|*nt, nr)]"
                )

    @property
    def num_bs(self) -> int:
        return int(self.bs_power.size)

    @property
    def num_users(self) -> int:
        return len(self.serving_sets)

    def served_users(self, m: int) -> tuple[int, ...]:
        """Users whose serving set contains BS ``m``."""
        return tuple(k for k, sset in enumerate(self.serving_sets) if m in sset)


@dataclass
class BeamformerSolution:
    """Result of one solver run: stacked precoders B_k, equalizers A_k,
    constraint multipliers, and the per-iteration objective trace."""

    precoders: list
    equalizers: list
    multipliers: np.ndarray
    trace: list
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InterferenceProblem:
    """K transmitter/receiver pairs with M shared trace constraints.

    channels    -- channels[k][l]: (rx_dims[k], tx_dims[l]), receiver k from transmitter l
    constraints -- constraints[k][m]: PSD weight of constraint m on transmitter k
    budgets     -- (M,) constraint budgets
    streams     -- per-user stream counts d_k
    mse_weights -- per-user Hermitian PSD d_k x d_k error weights (diagonal in the
                   basic problem; full matrices appear in rate-driven reweighting)
    """

    channels: tuple
    constraints: tuple
    budgets: np.ndarray
    streams: tuple
    mse_weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "budgets", np.asarray(self.budgets, dtype=float))
        object.__setattr__(self, "channels", tuple(tuple(np.asarray(h, dtype=complex) for h in row) for row in self.channels))
        object.__setattr__(self, "constraints", tuple(tuple(np.asarray(p, dtype=complex) for p in row) for row in self.constraints))
        object.__setattr__(self, "streams", tuple(int(d) for d in self.streams))
        object.__setattr__(self, "mse_weights", tuple(np.asarray(w, dtype=complex) for w in self.mse_weights))
        self._validate()

    def _validate(self):
        k = len(self.channels)
        m = int(self.budgets.size)
        if len(self.constraints) != k or len(self.streams) != k or len(self.mse_weights) != k:
            raise ContractViolationError("channels, constraints, streams and mse_weights must all have K entries")
        if np.any(self.budgets <= 0):
            raise ContractViolationError("constraint budgets must be positive")
        rx = self.rx_dims
        tx = self.tx_dims
        for i in range(k):
            if len(self.channels[i]) != k:
                raise ContractViolationError("channel table must be K x K")
            for l in range(k):
                if self.channels[i][l].shape != (rx[i], tx[l]):
                    raise ContractViolationError(
                        f"channel ({i},{l}) has shape {self.channels[i][l].shape}, expected {(rx[i], tx[l])}"
                    )
            if len(self.constraints[i]) != m:
                raise ContractViolationError("constraint table must be K x M")
            total = np.zeros((tx[i], tx[i]), dtype=complex)
            for phi in self.constraints[i]:
                if phi.shape != (tx[i], tx[i]):
                    raise ContractViolationError("constraint weights must be square with the transmit dimension")
                total += phi
            evals = np.linalg.eigvalsh(0.5 * (total + total.conj().T))
            if evals[0] <= 1e-12 * max(1.0, evals[-1]):
                raise ContractViolationError(
                    f"summed constraint weights of user {i} must be positive definite"
                )
            d = self.streams[i]
            if not 1 <= d <= min(tx[i], rx[i]):
                raise ContractViolationError(f"user {i}: streams d={d} outside [1, min(m_t, m_r)]")
            w = self.mse_weights[i]
            if w.shape != (d, d):
                raise ContractViolationError(f"user {i}: MSE weight must be {d}x{d}")
            if np.linalg.norm(w - w.conj().T) > 1e-10 * max(1.0, np.linalg.norm(w)):
                raise ContractViolationError(f"user {i}: MSE weight must be Hermitian")

    @property
    def num_users(self) -> int:
        return len(self.channels)

    @property
    def num_constraints(self) -> int:
        return int(self.budgets.size)

    @property
    def tx_dims(self) -> tuple:
        return tuple(self.channels[0][l].shape[1] for l in range(len(self.channels)))

    @property
    def rx_dims(self) -> tuple:
        return tuple(self.channels[k][0].shape[0] for k in range(len(self.channels)))

    def direct_channel(self, k: int) -> np.ndarray:
        return self.channels[k][k]

    @cached_property
    def arrays(self) -> "ProblemArrays":
        """The problem as :class:`ProblemArrays`, zero-padded to the largest
        transmit, receive and stream sizes."""
        k_users = self.num_users
        mt, mr, d = max(self.tx_dims), max(self.rx_dims), max(self.streams)
        channels = pad_stack([h for row in self.channels for h in row], (mr, mt))
        channels = channels.reshape(k_users, k_users, mr, mt)
        constraints = pad_stack([p for row in self.constraints for p in row], (mt, mt))
        idx = np.arange(k_users)
        cross = channels.copy()
        cross[idx, idx] = 0.0
        return ProblemArrays(
            channels=channels, cross=cross, direct=channels[idx, idx],
            constraints=constraints.reshape(k_users, self.num_constraints, mt, mt),
            mse_weights=pad_stack(self.mse_weights, (d, d)),
            tx_pad=np.nonzero(np.arange(mt) >= np.array(self.tx_dims)[:, None]),
            stream_pad=np.nonzero(np.arange(d) >= np.array(self.streams)[:, None]),
        )


@dataclass(frozen=True)
class ProblemArrays:
    """An :class:`InterferenceProblem` as arrays for the batched kernels.

    Every user's matrices are zero-padded at the bottom and right to the
    largest transmit size m_t, receive size m_r and stream count d, so the
    padded coordinates carry no signal, no interference and no budget use.
    Each batched kernel performs the per-user arithmetic of its per-user
    counterpart, in the same order, on each user's leading block.  When the
    users share their sizes (every drawn scenario) nothing is padded and both
    give the same numbers bit for bit; otherwise the extra terms are exact
    zeros and the blocks agree to rounding.

    channels    -- (K, K, m_r, m_t): channels[k, l] = H_{k,l}
    cross       -- channels with the direct blocks H_{k,k} set to zero
    direct      -- (K, m_r, m_t): H_{k,k}
    constraints -- (K, M, m_t, m_t): constraints[k, m] = Phi_{k,m}
    mse_weights -- (K, d, d): W_k
    tx_pad      -- (users, coordinates) index arrays of the padded transmit
                   coordinates; matrices that must be inverted over the
                   transmit space get 1 on these diagonal entries
    stream_pad  -- (users, streams) index arrays of the padded streams;
                   solvers give them zero weight and zero power
    """

    channels: np.ndarray
    cross: np.ndarray
    direct: np.ndarray
    constraints: np.ndarray
    mse_weights: np.ndarray
    tx_pad: tuple
    stream_pad: tuple

    def precoders(self, mats) -> np.ndarray:
        """Per-user precoders (m_t,k x d_k) as the padded (K, m_t, d) stack."""
        return pad_stack(mats, (self.direct.shape[-1], self.mse_weights.shape[-1]))

    def equalizers(self, mats) -> np.ndarray:
        """Per-user equalizers (m_r,k x d_k) as the padded (K, m_r, d) stack."""
        return pad_stack(mats, (self.direct.shape[-2], self.mse_weights.shape[-1]))


def pad_stack(mats, shape: tuple) -> np.ndarray:
    """Per-user matrices as one (K, *shape) stack, each zero-padded at the
    bottom and right; a stack already of that shape is returned as is."""
    if isinstance(mats, np.ndarray) and mats.shape[1:] == shape:
        return mats
    out = np.zeros((len(mats),) + shape, dtype=complex)
    for k, mat in enumerate(mats):
        mat = np.asarray(mat)
        out[k, :mat.shape[0], :mat.shape[1]] = mat
    return out


def cut_padding(stack, rows, cols) -> list:
    """Each user's leading (rows[k], cols[k]) block of a padded stack."""
    return [mat[:r, :c] for mat, r, c in zip(stack, rows, cols)]


def set_padded_diagonal(stack: np.ndarray, pad: tuple, value: float) -> np.ndarray:
    """Write ``value`` in place on the diagonal entries of ``stack`` at the
    padded (users, coordinates) index arrays ``pad``; returns ``stack``."""
    users, coords = pad
    stack[users, coords, coords] = value
    return stack


def build_interference_problem(system: PartialCooperationSystem, mse_weights=None) -> InterferenceProblem:
    """Stack the per-user serving channels of ``system`` into the equivalent
    constrained interference problem.

    User k with serving set (m_1 < ... < m_c) gets transmit dimension c*nt;
    the channel from transmitter l to receiver k horizontally stacks the
    physical channels from user l's serving BSs to user k; the constraint
    weight of BS m on user k is zero except for an identity in the diagonal
    block matching m's position in user k's serving set.  MSE weights default
    to identities.
    """
    k_users = system.num_users
    m_bs = system.num_bs
    nt, nr = system.nt, system.nr

    channels = []
    for k in range(k_users):
        row = []
        for l in range(k_users):
            row.append(np.hstack([system.channels[k, m] for m in system.serving_sets[l]]))
        channels.append(tuple(row))

    constraints = []
    for k in range(k_users):
        sset = system.serving_sets[k]
        mt = len(sset) * nt
        row = []
        for m in range(m_bs):
            phi = np.zeros((mt, mt), dtype=complex)
            if m in sset:
                pos = sset.index(m)
                sl = slice(pos * nt, (pos + 1) * nt)
                phi[sl, sl] = np.eye(nt)
            row.append(phi)
        constraints.append(tuple(row))

    if mse_weights is None:
        mse_weights = tuple(np.eye(d, dtype=complex) for d in system.streams)

    return InterferenceProblem(
        channels=tuple(channels),
        constraints=tuple(constraints),
        budgets=system.bs_power.copy(),
        streams=system.streams,
        mse_weights=tuple(mse_weights),
    )


# ---------------------------------------------------------------------------
# error-covariance algebra
# ---------------------------------------------------------------------------

def interference_covariance(problem: InterferenceProblem, precoders, k: int) -> np.ndarray:
    """Noise-plus-interference covariance at receiver k:
    Omega_k = I + sum_{l != k} H_{k,l} B_l B_l^H H_{k,l}^H."""
    omega = np.eye(problem.rx_dims[k], dtype=complex)
    for l in range(problem.num_users):
        if l == k:
            continue
        hb = problem.channels[k][l] @ precoders[l]
        omega += hb @ hb.conj().T
    return 0.5 * (omega + omega.conj().T)


def sum_over_sources(base: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """out[k] = base[k] + sum_l terms[k, l], accumulated in ascending l (the
    order of the per-user loops); ``base`` is one matrix for every k or a
    stack of K.  Terms built from :attr:`ProblemArrays.cross` are exact zeros
    at l = k, and adding a zero leaves every sum unchanged, so the result is
    bit for bit the per-user sum over l != k."""
    out = np.array(np.broadcast_to(base, terms.shape[:1] + terms.shape[2:]))
    for l in range(terms.shape[1]):
        out += terms[:, l]
    return out


def interference_covariances(problem: InterferenceProblem, precoders) -> np.ndarray:
    """Omega_k of :func:`interference_covariance` for every receiver k, as
    the padded (K, m_r, m_r) stack (identity on the padded coordinates)."""
    arrays = problem.arrays
    hb = arrays.cross @ arrays.precoders(precoders)  # hb[k, l] = H_{k,l} B_l, l != k
    eye = np.eye(arrays.cross.shape[-2], dtype=complex)
    return hermitian_part(sum_over_sources(eye, hb @ adjoint(hb)))


def mmse_equalizer(problem: InterferenceProblem, precoders, k: int, omega=None) -> np.ndarray:
    """Linear MMSE receive filter A_k = (H B B^H H^H + Omega_k)^{-1} H B for
    the direct channel H = H_{k,k}."""
    if omega is None:
        omega = interference_covariance(problem, precoders, k)
    hb = problem.direct_channel(k) @ precoders[k]
    total = omega + hb @ hb.conj().T
    try:
        return np.linalg.solve(total, hb)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"total receive covariance of user {k} is singular"
        ) from exc


def mmse_equalizers(problem: InterferenceProblem, precoders, omegas=None) -> np.ndarray:
    """:func:`mmse_equalizer` for every user, as the padded (K, m_r, d)
    stack; ``omegas`` as returned by :func:`interference_covariances`."""
    arrays = problem.arrays
    b = arrays.precoders(precoders)
    if omegas is None:
        omegas = interference_covariances(problem, b)
    hb = arrays.direct @ b
    total = np.asarray(omegas) + hb @ adjoint(hb)
    try:
        return np.linalg.solve(total, hb)
    except np.linalg.LinAlgError:
        for k in range(problem.num_users):
            try:
                np.linalg.solve(total[k], hb[k])
            except np.linalg.LinAlgError as exc:
                raise NumericalFailureError(
                    f"total receive covariance of user {k} is singular"
                ) from exc
        raise


def mse_matrix(problem: InterferenceProblem, precoders, equalizers, k: int, omega=None) -> np.ndarray:
    """Error covariance of the stream estimates u_hat = A^H y for user k:
    E_k = A^H H B B^H H^H A - A^H H B - B^H H^H A + A^H Omega_k A + I."""
    a = equalizers[k]
    hb = problem.direct_channel(k) @ precoders[k]
    if omega is None:
        omega = interference_covariance(problem, precoders, k)
    ahb = a.conj().T @ hb
    e = ahb @ ahb.conj().T - ahb - ahb.conj().T + a.conj().T @ omega @ a + np.eye(problem.streams[k])
    return 0.5 * (e + e.conj().T)


def mse_matrix_mmse(problem: InterferenceProblem, precoders, k: int, omega=None) -> np.ndarray:
    """Error covariance with the MMSE receive filter substituted:
    E_k = (I + B^H H^H Omega_k^{-1} H B)^{-1}."""
    if omega is None:
        omega = interference_covariance(problem, precoders, k)
    hb = problem.direct_channel(k) @ precoders[k]
    g = hb.conj().T @ np.linalg.solve(omega, hb)
    e = np.linalg.inv(np.eye(problem.streams[k]) + 0.5 * (g + g.conj().T))
    return 0.5 * (e + e.conj().T)


def mse_matrices_mmse(problem: InterferenceProblem, precoders, omegas=None) -> np.ndarray:
    """:func:`mse_matrix_mmse` for every user, as the padded (K, d, d) stack
    (identity on the padded streams)."""
    arrays = problem.arrays
    b = arrays.precoders(precoders)
    if omegas is None:
        omegas = interference_covariances(problem, b)
    hb = arrays.direct @ b
    g = adjoint(hb) @ np.linalg.solve(np.asarray(omegas), hb)
    e = np.linalg.inv(np.eye(hb.shape[-1]) + 0.5 * (g + adjoint(g)))
    return hermitian_part(e)


def wsmse_objective(problem: InterferenceProblem, precoders, equalizers, omegas=None) -> float:
    """Weighted sum of stream error covariances sum_k tr{W_k E_k}."""
    arrays = problem.arrays
    b = arrays.precoders(precoders)
    if omegas is None:
        omegas = interference_covariances(problem, b)
    a = arrays.equalizers(equalizers)
    ahb = adjoint(a) @ (arrays.direct @ b)
    e = ahb @ adjoint(ahb) - ahb - adjoint(ahb) + adjoint(a) @ np.asarray(omegas) @ a \
        + np.eye(b.shape[-1])
    weighted = arrays.mse_weights @ hermitian_part(e)
    total = 0.0
    for value in np.trace(weighted, axis1=-2, axis2=-1).real:
        total += float(value)
    return total


def sum_rate(problem: InterferenceProblem, precoders, omegas=None) -> float:
    """Achievable sum rate in bits per channel use with MMSE receivers,
    treating other users' signals as noise: sum_k log2 det(E_k^{-1})."""
    arrays = problem.arrays
    b = arrays.precoders(precoders)
    if omegas is None:
        omegas = interference_covariances(problem, b)
    hb = arrays.direct @ b
    g = hermitian_part(adjoint(hb) @ np.linalg.solve(np.asarray(omegas), hb))
    sign, logdet = np.linalg.slogdet(np.eye(hb.shape[-1]) + g)
    bad = np.flatnonzero(sign.real <= 0)
    if bad.size:
        raise NumericalFailureError(f"error covariance of user {bad[0]} is not positive definite")
    rate = 0.0
    for value in logdet:
        rate += value / LOG2
    return float(rate)


def constraint_usage(problem: InterferenceProblem, precoders) -> np.ndarray:
    """Per-constraint usage: usage_m = sum_k tr{Phi_{k,m} B_k B_k^H}."""
    arrays = problem.arrays
    b = arrays.precoders(precoders)
    bbh_t = (b @ adjoint(b)).swapaxes(-1, -2)  # tr{Phi X} as an elementwise contraction
    usage = np.zeros(problem.num_constraints)
    for row in np.sum(arrays.constraints * bbh_t[:, None], axis=(-2, -1)).real:
        usage += row
    return usage


def srm_weight_update(problem: InterferenceProblem, precoders, omegas=None) -> np.ndarray:
    """Inverse-MSE weights W_k = E_k^{-1} used by the rate-maximizing
    reweighting loop (E_k evaluated with MMSE receivers), as the padded
    (K, d, d) stack (identity on the padded streams)."""
    return hermitian_part(np.linalg.inv(mse_matrices_mmse(problem, precoders, omegas)))


# ---------------------------------------------------------------------------
# serialization (regression fixtures)
# ---------------------------------------------------------------------------
#
# JSON schema: {"budgets": [..], "streams": [..],
#               "channels": [[M_kl]..], "constraints": [[M_km]..],
#               "mse_weights": [M_k..]}
# where every complex matrix M is a nested list of rows of [re, im] pairs.


def _matrix_to_pairs(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a, dtype=complex)]


def _pairs_to_matrix(rows) -> np.ndarray:
    return np.asarray([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def problem_to_json(problem: InterferenceProblem) -> str:
    payload = {
        "budgets": [float(p) for p in problem.budgets],
        "streams": list(problem.streams),
        "channels": [[_matrix_to_pairs(h) for h in row] for row in problem.channels],
        "constraints": [[_matrix_to_pairs(p) for p in row] for row in problem.constraints],
        "mse_weights": [_matrix_to_pairs(w) for w in problem.mse_weights],
    }
    return json.dumps(payload, sort_keys=True)


def problem_from_json(text: str) -> InterferenceProblem:
    payload = json.loads(text)
    return InterferenceProblem(
        channels=tuple(tuple(_pairs_to_matrix(h) for h in row) for row in payload["channels"]),
        constraints=tuple(tuple(_pairs_to_matrix(p) for p in row) for row in payload["constraints"]),
        budgets=np.asarray(payload["budgets"], dtype=float),
        streams=tuple(payload["streams"]),
        mse_weights=tuple(_pairs_to_matrix(w) for w in payload["mse_weights"]),
    )
