"""Interference-channel data model and the shared error-covariance algebra.

A :class:`PartialCooperationSystem` describes a cellular downlink in which
each user's data streams are jointly precoded by an ordered subset of base
stations.  Stacking every user's serving channels turns the system into an
equivalent K-pair interference channel whose per-BS power budgets become
trace-weighted transmit constraints (:class:`InterferenceProblem`); the
constraint weight of BS m on user k is a block mask selecting the precoder
rows driven by BS m, and the masks of one user sum to the identity.

Users may differ in transmit size (serving-set size), receive size and
stream count d_k.  An :class:`InterferenceProblem` stores one form: arrays
zero-padded to the largest sizes, with the per-user sizes alongside, which
:func:`build_interference_problem` fills in one gather and
:meth:`InterferenceProblem.from_blocks` from per-user blocks.

Every design reads the same MMSE receive side of a precoder stack B: the
interference covariances Omega_k, the signals S_k = H_kk B_k, the gains
G_k = S_k^H Omega_k^{-1} S_k and the error covariances E_k = (I + G_k)^{-1},
whose inverses are the WMMSE weights and whose log determinants give the
rate.  A :class:`ReceiveSide` holds one padded stack and works out each of
these parts, batched over all users, the first time it is read; a solver
makes one per new stack and reads only what it needs.  :func:`sum_rate`,
:func:`constraint_usage`, :func:`wsmse_objective` and
:func:`srm_weight_update` are its one-call forms.  Each user's block of a
part is what the per-user reference functions
(:func:`interference_covariance`, :func:`mmse_equalizer`, :func:`mse_matrix`,
:func:`mse_matrix_mmse`) give for that user from the blocks cut out of the
arrays, to rounding: the batched sums over the other users are single
matrix products, whose additions BLAS orders as it likes.

The sums over (user, source) pairs take one product per user, not one per
pair: the channels are cached with every victim of a source stacked
(``cross_victims``, K m_r x m_t per source) or with every source of a
receiver side by side (the rows of :func:`reverse_links`, m_r x K m_t), so
a K = 10 pass makes K small matrix products where a broadcast product over
the (K, K) pairs makes K^2.  Each entry is still the same dot product over
one block, so the results carry the bits of the per-pair products.  The
problem caches what every solver pass reuses: the adjoint ``direct_h``,
``cross_victims`` of :func:`interference_covariances`, the reverse-link
layouts ``reverse_channels`` and ``reverse_cross`` of
:func:`reverse_link_sums`, the identities ``rx_eye`` and ``stream_eye``
and the ``constraint_supports`` that :func:`linalg.priced_weights` and
:func:`linalg.weight_usage` read.

Noise is identity by convention; colored noise must be whitened upstream
(see :mod:`netmimo.scenario`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, NumericalFailureError
from .linalg import adjoint, disjoint_diagonals, hermitian_part, indefinite_members, weight_usage

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

    @cached_property
    def serving_table(self) -> tuple:
        """(bs_of, valid): (K, c) table of each user's serving BSs, padded with
        BS 0 to the largest serving-set size c, and the mask of its real slots."""
        sizes = np.array([len(sset) for sset in self.serving_sets])
        valid = np.arange(sizes.max()) < sizes[:, None]
        bs_of = np.zeros(valid.shape, dtype=int)
        bs_of[valid] = np.concatenate(self.serving_sets)
        return bs_of, valid


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
    """K transmitter/receiver pairs with M shared trace constraints, stored
    once: as arrays zero-padded at the bottom and right to the largest
    transmit size m_t, receive size m_r and stream count d, with each user's
    sizes alongside (:meth:`from_blocks` pads per-user blocks).

    channels    -- (K, K, m_r, m_t): channels[k, l] = H_{k,l}, receiver k from
                   transmitter l, in its leading (rx_dims[k], tx_dims[l]) block
    constraints -- (K, M, m_t, m_t): constraints[k, m] = Phi_{k,m}, the PSD
                   weight of constraint m on transmitter k
    budgets     -- (M,) constraint budgets
    mse_weights -- (K, d, d): W_k, Hermitian PSD d_k x d_k error weights (diagonal
                   in the basic problem; full in rate-driven reweighting)
    tx_dims, rx_dims, streams -- per-user sizes m_t,k, m_r,k and d_k

    The padding carries no signal, interference or budget use.  Each part
    of a :class:`ReceiveSide` gives its per-user counterpart's result on
    each user's leading block, to rounding: the sums over the other users
    are one matrix product each, and the padded terms are 0.
    """

    channels: np.ndarray
    constraints: np.ndarray
    budgets: np.ndarray
    mse_weights: np.ndarray
    tx_dims: tuple
    rx_dims: tuple
    streams: tuple

    def __post_init__(self):
        for name, dtype in (("channels", complex), ("constraints", complex), ("budgets", float),
                            ("mse_weights", complex)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        for name in ("tx_dims", "rx_dims", "streams"):
            object.__setattr__(self, name, tuple(int(n) for n in getattr(self, name)))
        k, m = len(self.streams), self.num_constraints
        if not k or len(self.tx_dims) != k or len(self.rx_dims) != k:
            raise ContractViolationError("tx_dims, rx_dims and streams must all have K > 0 entries")
        mt, mr, d = max(self.tx_dims), max(self.rx_dims), max(self.streams)
        for name, shape in (("channels", (k, k, mr, mt)), ("constraints", (k, m, mt, mt)),
                            ("mse_weights", (k, d, d))):
            if getattr(self, name).shape != shape:
                raise ContractViolationError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")
        if not np.all(self.budgets > 0):
            raise ContractViolationError("constraint budgets must be positive")
        for i, (tx, rx, dk) in enumerate(zip(self.tx_dims, self.rx_dims, self.streams)):
            if not 1 <= dk <= min(tx, rx):
                raise ContractViolationError(f"user {i}: streams d={dk} outside [1, min(m_t, m_r)]")
        # 1 on the padded diagonal leaves each user's block to decide
        total = set_padded_diagonal(hermitian_part(np.sum(self.constraints, axis=1)), self.tx_pad, 1.0)
        bad = indefinite_members(total)
        if bad:
            raise ContractViolationError(f"summed constraint weights of user {bad[0]} must be positive definite")
        w = self.mse_weights
        skew = np.linalg.norm(w - adjoint(w), axis=(-2, -1))
        bad = np.flatnonzero(skew > 1e-10 * np.maximum(1.0, np.linalg.norm(w, axis=(-2, -1))))
        if bad.size:
            raise ContractViolationError(f"user {bad[0]}: MSE weight must be Hermitian")

    @classmethod
    def from_blocks(cls, channels, constraints, budgets, streams, mse_weights) -> "InterferenceProblem":
        """The problem from per-user blocks, checked block by block and padded
        once: channels[k][l] is H_{k,l} (m_r,k x m_t,l), constraints[k][m] is
        Phi_{k,m} (m_t,k x m_t,k) and mse_weights[k] is W_k (d_k x d_k)."""
        k, m = len(channels), int(np.size(budgets))
        if not k or len(constraints) != k or len(streams) != k or len(mse_weights) != k:
            raise ContractViolationError("channels, constraints, streams and mse_weights must all have K entries")
        if any(len(row) != k for row in channels):
            raise ContractViolationError("channel table must be K x K")
        if any(len(row) != m for row in constraints):
            raise ContractViolationError("constraint table must be K x M")
        rx = tuple(np.shape(row[0])[0] for row in channels)
        tx = tuple(np.shape(h)[1] for h in channels[0])
        for i, l in np.ndindex(k, k):
            if np.shape(channels[i][l]) != (rx[i], tx[l]):
                raise ContractViolationError(
                    f"channel ({i},{l}) has shape {np.shape(channels[i][l])}, expected {(rx[i], tx[l])}"
                )
        for i in range(k):
            if any(np.shape(phi) != (tx[i], tx[i]) for phi in constraints[i]):
                raise ContractViolationError("constraint weights must be square with the transmit dimension")
            if np.shape(mse_weights[i]) != (streams[i], streams[i]):
                raise ContractViolationError(f"user {i}: MSE weight must be {streams[i]}x{streams[i]}")
        mt, mr, d = max(tx), max(rx), max(streams)
        return cls(
            channels=pad_stack([h for row in channels for h in row], (mr, mt)).reshape(k, k, mr, mt),
            constraints=pad_stack([p for row in constraints for p in row], (mt, mt)).reshape(k, m, mt, mt),
            budgets=budgets, mse_weights=pad_stack(mse_weights, (d, d)), tx_dims=tx, rx_dims=rx,
            streams=streams,
        )

    @property
    def num_users(self) -> int:
        return len(self.streams)

    @property
    def num_constraints(self) -> int:
        return int(self.budgets.size)

    def channel(self, k: int, l: int) -> np.ndarray:
        """H_{k,l} without its padding."""
        return self.channels[k, l, :self.rx_dims[k], :self.tx_dims[l]]

    def direct_channel(self, k: int) -> np.ndarray:
        return self.channel(k, k)

    @cached_property
    def cross(self) -> np.ndarray:
        """channels with the direct blocks H_{k,k} set to zero."""
        return np.where(np.eye(self.num_users, dtype=bool)[:, :, None, None], 0.0, self.channels)

    @cached_property
    def cross_victims(self) -> np.ndarray:
        """(K, K m_r, m_t): cross_victims[l] = [H_{0,l}; ...; H_{K-1,l}], the
        cross channels of transmitter l stacked over every victim receiver
        (zero block at l), read by :func:`interference_covariances`."""
        k, _, mr, mt = self.channels.shape
        return np.ascontiguousarray(self.cross.swapaxes(0, 1)).reshape(k, k * mr, mt)

    @cached_property
    def direct(self) -> np.ndarray:
        """(K, m_r, m_t): H_{k,k}."""
        return self.channels[np.arange(self.num_users), np.arange(self.num_users)]

    @cached_property
    def reverse_channels(self) -> tuple:
        """:func:`reverse_links` of ``channels``."""
        return reverse_links(self.channels)

    @cached_property
    def reverse_cross(self) -> tuple:
        """:func:`reverse_links` of ``cross``."""
        return reverse_links(self.cross)

    @cached_property
    def direct_h(self) -> np.ndarray:
        """adjoint(direct): H_{k,k}^H."""
        return adjoint(self.direct)

    @cached_property
    def rx_eye(self) -> np.ndarray:
        """The (m_r, m_r) identity, the noise covariance of every receiver."""
        return np.eye(self.channels.shape[-2], dtype=complex)

    @cached_property
    def stream_eye(self) -> np.ndarray:
        """The (d, d) real identity added to every stream-space stack."""
        return np.eye(self.mse_weights.shape[-1])

    @cached_property
    def constraint_supports(self):
        """(K, M, m_t) diagonals of the constraint weights when all are real
        diagonals with disjoint supports per user (the 0/1 block masks of
        :func:`build_interference_problem`), else None
        (:func:`disjoint_diagonals`)."""
        return disjoint_diagonals(self.constraints)

    @cached_property
    def tx_pad(self) -> tuple:
        """(users, coordinates) index arrays of the padded transmit
        coordinates; matrices that must be inverted over the transmit space
        get 1 on these diagonal entries."""
        return np.nonzero(np.arange(self.channels.shape[-1]) >= np.array(self.tx_dims)[:, None])

    @cached_property
    def stream_pad(self) -> tuple:
        """(users, streams) index arrays of the padded streams; solvers give
        them zero weight and zero power."""
        return np.nonzero(np.arange(self.mse_weights.shape[-1]) >= np.array(self.streams)[:, None])

    def precoders(self, mats) -> np.ndarray:
        """Per-user precoders (m_t,k x d_k) as the padded (K, m_t, d) stack."""
        return self._user_stack(mats, self.channels.shape[-1], self.tx_dims)

    def equalizers(self, mats) -> np.ndarray:
        """Per-user equalizers (m_r,k x d_k) as the padded (K, m_r, d) stack."""
        return self._user_stack(mats, self.channels.shape[-2], self.rx_dims)

    @cached_property
    def padded(self) -> bool:
        """Whether some user's sizes fall short of the padded ones."""
        return any(len(set(dims)) > 1 for dims in (self.tx_dims, self.rx_dims, self.streams))

    def _user_stack(self, mats, rows: int, dims: tuple) -> np.ndarray:
        """:func:`pad_stack` of one block per user, at most (dims[k], d_k);
        any other number of blocks raises :class:`ContractViolationError`.
        Without padding every user's limit is the stack shape itself."""
        if len(mats) != self.num_users:
            raise ContractViolationError(f"{len(mats)} blocks given for {self.num_users} users")
        limits = tuple(zip(dims, self.streams)) if self.padded else None
        return pad_stack(mats, (rows, self.mse_weights.shape[-1]), limits)


def pad_stack(mats, shape: tuple, limits=None) -> np.ndarray:
    """Per-user matrices as one (K, *shape) stack, each zero-padded at the
    bottom and right; a stack already of that shape is returned as is.  A
    matrix larger than ``shape``, or than its user's own ``limits[k]``
    when given, raises :class:`ContractViolationError`, and so does a
    stack with a nonzero entry outside its users' ``limits``."""
    if isinstance(mats, np.ndarray) and mats.shape[1:] == shape:
        if limits is not None:
            rows, cols = np.array(limits).T
            outside = (np.arange(shape[0]) >= rows[:, None])[:, :, None] \
                | (np.arange(shape[1]) >= cols[:, None])[:, None, :]
            bad = np.flatnonzero(np.any(np.where(outside, mats, 0.0), axis=(-2, -1)))
            if bad.size:
                raise ContractViolationError(f"block {bad[0]} has nonzero entries outside its {limits[bad[0]]} block")
        return mats
    out = np.zeros((len(mats),) + shape, dtype=complex)
    for k, mat in enumerate(mats):
        mat = np.asarray(mat)
        limit = shape if limits is None else limits[k]
        if mat.shape[0] > limit[0] or mat.shape[1] > limit[1]:
            raise ContractViolationError(f"block {k} has shape {mat.shape}, larger than {tuple(limit)}")
        out[k, :mat.shape[0], :mat.shape[1]] = mat
    return out


def cut_padding(stack, rows, cols) -> list:
    """Each user's leading (rows[k], cols[k]) block of a padded stack."""
    return [mat[:r, :c] for mat, r, c in zip(stack, rows, cols)]


def set_padded_diagonal(stack: np.ndarray, pad: tuple, value: float) -> np.ndarray:
    """Write ``value`` in place on the diagonal entries of ``stack`` at the
    padded (users, coordinates) index arrays ``pad``; returns ``stack``."""
    users, coords = pad
    if users.size:
        stack[users, coords, coords] = value
    return stack


def build_interference_problem(system: PartialCooperationSystem, mse_weights=None) -> InterferenceProblem:
    """Stack the per-user serving channels of ``system`` into the equivalent
    constrained interference problem.

    User k with serving set (m_1 < ... < m_c) gets transmit dimension c*nt;
    the channel from transmitter l to receiver k horizontally stacks the
    physical channels from user l's serving BSs to user k; the constraint
    weight of BS m on user k is zero except for an identity in the diagonal
    block matching m's position in user k's serving set.  MSE weights
    (per-user or padded) default to identities.  The arrays are filled in
    one gather over :attr:`PartialCooperationSystem.serving_table`; users
    with fewer serving BSs get exact zeros in the slots they lack.
    """
    k_users, nt = system.num_users, system.nt
    bs_of, valid = system.serving_table
    width = bs_of.shape[1]
    # system.channels[k, bs_of[l, pos]] is the pos-th column block of channels[k, l]
    channels = system.channels[:, bs_of].transpose(0, 1, 3, 2, 4)
    channels = channels.reshape(k_users, k_users, system.nr, width * nt)
    if not valid.all():  # padded slots hold BS 0
        channels = np.where(np.repeat(valid, nt, axis=1)[:, None], channels, 0.0)
    users, slots = np.nonzero(valid)
    coords = (slots[:, None] * nt + np.arange(nt)).ravel()
    constraints = np.zeros((k_users, system.num_bs, width * nt, width * nt), dtype=complex)
    constraints[np.repeat(users, nt), np.repeat(bs_of[users, slots], nt), coords, coords] = 1.0
    d = max(system.streams)
    if mse_weights is None:
        mse_weights = [np.eye(n) for n in system.streams]
    return InterferenceProblem(
        channels=channels, constraints=constraints, budgets=system.bs_power.copy(),
        mse_weights=pad_stack(mse_weights, (d, d)), streams=system.streams,
        tx_dims=tuple(len(sset) * nt for sset in system.serving_sets), rx_dims=(system.nr,) * k_users,
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
        hb = problem.channel(k, l) @ precoders[l]
        omega += hb @ hb.conj().T
    return 0.5 * (omega + omega.conj().T)


def sum_over_sources(base: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """out[k] = base[k] + sum_l terms[k, l], accumulated in ascending l (the
    order of the per-user loops); ``base`` is one matrix for every k or a
    stack of K.  Terms that are exact zeros at l = k leave every sum
    unchanged, so the result is bit for bit the per-user sum over l != k.
    The scenario's out-of-cluster covariances and ``min_leakage``'s forms
    add this way; the solvers' sums are one product per source instead
    (:func:`interference_covariances`, :func:`reverse_link_sums`), whose
    additions BLAS orders as it likes."""
    out = np.empty(terms.shape[:1] + terms.shape[2:], dtype=terms.dtype)
    out[...] = base
    for l in range(terms.shape[1]):
        out += terms[:, l]
    return out


def interference_covariances(problem: InterferenceProblem, precoders) -> np.ndarray:
    """Omega_k of :func:`interference_covariance` for every receiver k, as
    the padded (K, m_r, m_r) stack (identity on the padded coordinates):
    I + R_k R_k^H for R_k = [H_{k,0} B_0, ..., H_{k,K-1} B_{K-1}] (zero at
    l = k).  The blocks H_{k,l} B_l come from one product per source l,
    :attr:`InterferenceProblem.cross_victims` [l] B_l; each entry is the
    same length-m_t dot product as in the per-block product H_{k,l} B_l."""
    hb = problem.cross_victims @ problem.precoders(precoders)  # hb[l] = [H_{0,l} B_l; ...; H_{K-1,l} B_l]
    k, kmr, d = hb.shape
    mr = kmr // k
    r = hb.reshape(k, k, mr, d).transpose(1, 2, 0, 3).reshape(k, mr, k * d)
    return hermitian_part(problem.rx_eye + r @ adjoint(r))


def reverse_links(channels: np.ndarray) -> tuple:
    """(rows, stacked_h) of a (K, K, m_r, m_t) channel stack
    (channels[l, k] = H_{l,k}), as read by :func:`reverse_link_sums`:
    rows[l] = [H_{l,0}, ..., H_{l,K-1}], (K, m_r, K m_t), each receiver's
    row of channels from every source, and stacked_h[k] the adjoint of
    P_k = [H_{0,k}; ...; H_{K-1,k}], (K, m_t, K m_r)."""
    k, _, mr, mt = channels.shape
    rows = np.ascontiguousarray(channels.transpose(0, 2, 1, 3)).reshape(k, mr, k * mt)
    stacked = np.ascontiguousarray(channels.swapaxes(0, 1)).reshape(k, k * mr, mt)
    return rows, np.ascontiguousarray(adjoint(stacked))


def reverse_link_sums(links: tuple, mats, base=None) -> np.ndarray:
    """out[k] = base[k] + sum_l H_{l,k}^H X_l H_{l,k} for the
    :func:`reverse_links` of a channel stack and a (K, m_r, m_r) stack X:
    base + P_k^H Q_k with Q_k = [X_0 H_{0,k}; ...; X_{K-1} H_{K-1,k}].
    Both are one product per user: X_l rows[l] gives the blocks X_l H_{l,k}
    of every k at once (each entry the same length-m_r dot product as
    X_l H_{l,k} alone), and stacked_h[k] Q_k the K sums; ``base`` (None
    for 0) is one matrix for every k or a stack of K."""
    rows, stacked_h = links
    k, mr, kmt = rows.shape
    mt = kmt // k
    q = (np.asarray(mats) @ rows).reshape(k, mr, k, mt).transpose(2, 0, 1, 3).reshape(k, k * mr, mt)
    out = stacked_h @ q
    return out if base is None else base + out


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


class ReceiveSide:
    """The MMSE receive side of one precoder stack B (per-user or padded),
    each part worked out for all users the first time it is read and kept:

    omegas     -- (K, m_r, m_r) Omega_k (:func:`interference_covariances`)
    signals    -- (K, m_r, d) S_k = H_kk B_k
    whitened   -- (K, m_r, d) Omega_k^{-1} S_k
    gains      -- (K, d, d) G_k = S_k^H Omega_k^{-1} S_k, exactly Hermitian
    mses       -- (K, d, d) E_k = (I + G_k)^{-1} (:func:`mse_matrix_mmse`)
    weights    -- (K, d, d) the WMMSE weights E_k^{-1}
    equalizers -- (K, m_r, d) A_k = (Omega_k + S_k S_k^H)^{-1} S_k
                  (:func:`mmse_equalizer`)
    rate       -- sum_k log2 det(I + G_k), bits per channel use
    usage      -- (M,) usage_m = sum_k tr{Phi_{k,m} B_k B_k^H}

    The padding is the identity in omegas, mses and weights and zero in the
    others; :meth:`wsmse` evaluates given receive filters."""

    def __init__(self, problem: InterferenceProblem, precoders):
        self.problem = problem
        self.precoders = problem.precoders(precoders)

    @cached_property
    def omegas(self) -> np.ndarray:
        return interference_covariances(self.problem, self.precoders)

    @cached_property
    def signals(self) -> np.ndarray:
        return self.problem.direct @ self.precoders

    @cached_property
    def whitened(self) -> np.ndarray:
        return np.linalg.solve(self.omegas, self.signals)

    @cached_property
    def gains(self) -> np.ndarray:
        return hermitian_part(adjoint(self.signals) @ self.whitened)

    @cached_property
    def mses(self) -> np.ndarray:
        return hermitian_part(np.linalg.inv(self.problem.stream_eye + self.gains))

    @cached_property
    def weights(self) -> np.ndarray:
        return hermitian_part(np.linalg.inv(self.mses))

    @cached_property
    def equalizers(self) -> np.ndarray:
        hb = self.signals
        total = self.omegas + hb @ adjoint(hb)
        try:
            return np.linalg.solve(total, hb)
        except np.linalg.LinAlgError:
            for k in range(self.problem.num_users):
                try:
                    np.linalg.solve(total[k], hb[k])
                except np.linalg.LinAlgError as exc:
                    raise NumericalFailureError(
                        f"total receive covariance of user {k} is singular"
                    ) from exc
            raise

    @cached_property
    def rate(self) -> float:
        sign, logdet = np.linalg.slogdet(self.problem.stream_eye + self.gains)
        bad = np.flatnonzero(sign.real <= 0)
        if bad.size:
            raise NumericalFailureError(f"error covariance of user {bad[0]} is not positive definite")
        rate = 0.0
        for value in logdet:
            rate += value / LOG2
        return float(rate)

    @cached_property
    def usage(self) -> np.ndarray:
        """Added in ascending k (:func:`linalg.weight_usage`)."""
        return weight_usage(self.problem.constraints, self.problem.constraint_supports, self.precoders)

    def wsmse(self, equalizers) -> float:
        """Weighted sum of the stream error covariances sum_k tr{W_k E_k}
        with the receive filters ``equalizers`` (per-user or padded), E_k
        as in :func:`mse_matrix`."""
        a = self.problem.equalizers(equalizers)
        a_h = adjoint(a)
        ahb = a_h @ self.signals
        ahb_h = adjoint(ahb)
        e = ahb @ ahb_h - ahb - ahb_h + a_h @ self.omegas @ a + self.problem.stream_eye
        weighted = self.problem.mse_weights @ hermitian_part(e)
        total = 0.0
        for value in np.trace(weighted, axis1=-2, axis2=-1).real:
            total += float(value)
        return total


def wsmse_objective(problem: InterferenceProblem, precoders, equalizers) -> float:
    """Weighted sum of stream error covariances sum_k tr{W_k E_k}
    (:meth:`ReceiveSide.wsmse`)."""
    return ReceiveSide(problem, precoders).wsmse(equalizers)


def sum_rate(problem: InterferenceProblem, precoders) -> float:
    """Achievable sum rate in bits per channel use with MMSE receivers,
    treating other users' signals as noise: sum_k log2 det(E_k^{-1})
    (:attr:`ReceiveSide.rate`)."""
    return ReceiveSide(problem, precoders).rate


def constraint_usage(problem: InterferenceProblem, precoders) -> np.ndarray:
    """Per-constraint usage: usage_m = sum_k tr{Phi_{k,m} B_k B_k^H}
    (:attr:`ReceiveSide.usage`)."""
    return ReceiveSide(problem, precoders).usage


def srm_weight_update(problem: InterferenceProblem, precoders) -> np.ndarray:
    """Inverse-MSE weights W_k = E_k^{-1} used by the rate-maximizing
    reweighting loop (E_k evaluated with MMSE receivers), as the padded
    (K, d, d) stack (identity on the padded streams;
    :attr:`ReceiveSide.weights`)."""
    return ReceiveSide(problem, precoders).weights
