"""Iterative multiuser beamformer designs for the constrained interference channel.

Four families are implemented:

``dmmse``
    Per-user eigenbasis precoders that diagonalize every user's error
    covariance: :func:`single_user.priced_minimizer` with the
    interference-pricing matrices F_k = Upsilon_k + sum_m lam_m Phi_{k,m}
    and the receive factors C_k = H_kk^H L_k^{-H} of Omega_k, waterfilled
    at unit level.  The step runs in the receive dimension
    (:func:`single_user.priced_directions`: one LU solve F_k^{-1} C_k and
    an m_r x m_r ``eigh``) wherever the priced diagonal certifies F_k, and
    whitens F_k (:func:`single_user.whitened_directions`) elsewhere.
``emmseia``
    Joint linear-system precoder update from fixed MMSE equalizers,
    B_k = (sum_l H_{l,k}^H A_l W_l A_l^H H_{l,k} + sum_m mu_m Phi_{k,m})^{-1}
    H_{k,k}^H A_k W_k, with the multipliers searched each pass until the
    complementary-slackness conditions hold.
``pwf``
    Polite water-filling: a fixed point on the precoder stack coupling the
    forward network with its reversed-link counterpart through the same
    step as ``dmmse``, with the reversed-link covariance in the place of
    F_k and the receive factors of the forward covariance Omega_k; a single
    water level mu is bisected against the multiplier-weighted power
    budget.  The reversed-link covariance
    (1/mu) (Omega_k^{-1} - (Omega_k + S_k S_k^H)^{-1}) of the signals
    S_k = H_kk B_k is formed as (1/mu) Omega_k^{-1} S_k E_k S_k^H
    Omega_k^{-1} from the MMSE error covariance E_k, the receive side the
    other solvers evaluate.  Sum-rate objective only.
``min_leakage``
    Alternating smallest-eigenvector updates of orthonormal transmit factors
    and receive filters minimizing the total interference power leaked into
    the intended receive subspaces, with the per-BS budget split equally
    over served streams.

``dmmse``, ``emmseia`` and ``pwf`` run on :func:`single_user.dual_loop`:
pricing passes at fixed multipliers, each followed by an exit test and a
multiplier step, then fixed-multiplier polish runs.  Each pass makes one
:class:`model.ReceiveSide` for the precoder stack it produces and reads
from it only what it needs (the pass value, the next pass's weights and
equalizers, ``pwf``'s reversed-link covariances, the polish test), and
every solve ends in one finisher (:func:`_finish`); the diagnostics of
``dmmse`` and ``pwf`` count the ``whitened_passes``, those in which some
user's transmit-side matrix was whitened rather than solved with, and
those of ``emmseia`` the ``search_steps``, the batched linear solves its
multiplier searches made over the whole solve.  The
multiplier rules:
``dmmse`` ascends additively on the power residuals
(:func:`single_user.additive_rule`), ``pwf`` takes damped multiplicative
steps (:func:`_pwf_rule`), and ``emmseia`` has no outer rule, its KKT search
runs inside each pass.  ``dmmse`` polishes after every pricing phase, until
its error covariances are diagonal; ``pwf`` polishes until its transmit
covariances B_k B_k^H settle, only from a pricing phase that met its exit
test; ``emmseia`` does not polish.  The ``dmmse``/``emmseia`` solvers run
either on a fixed weighted-MSE objective or, with ``objective="srm"``,
inside the rate-maximizing reweighting loop (weights refreshed to E_k^{-1}
every pass).
All solvers are deterministic given problem, config and seed.

The dual-loop solvers run batched over users on the zero-padded arrays
of :class:`model.InterferenceProblem`, whatever the users' serving sets and
stream counts.  Padding adds nothing on the real coordinates: the matrices
inverted over the transmit space (``dmmse``'s F_k, ``pwf``'s reversed-link
covariance, ``emmseia``'s linear system) get 1 on their padded diagonal,
padded streams get zero weight in ``dmmse`` and no power in ``pwf``, and
each user's block is cut out only where a result leaves the solver.
The priced constraint weights and their usage come from
:func:`linalg.priced_weights` and :func:`linalg.weight_usage`;
:func:`fit_to_budgets` reads the supports only to choose its scaling.
``min_leakage`` works on the physical per-BS form.

Every sum-rate (``srm``) solution meets each budget by construction: the
finisher scales a last iterate more than ``constraint_tol`` over a budget
(possible only on an unconverged stop) back with :func:`fit_to_budgets`,
``converged`` stays False, and the diagnostics keep the miss as
``unscaled_max_violation``.  The fixed-weight ``wsmmse`` path returns its
last iterate unscaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError, NumericalFailureError, SingularMatrixError
from .linalg import adjoint, bisect_level, hermitian_part, priced_weights, psd_inv_sqrt, weight_usage
from .model import (
    BeamformerSolution,
    InterferenceProblem,
    PartialCooperationSystem,
    ReceiveSide,
    build_interference_problem,
    cut_padding,
    reverse_link_sums,
    set_padded_diagonal,
    sum_over_sources,
)
from .single_user import (GAIN_RTOL, LAMBDA_CAP, LAMBDA_FLOOR, _max, additive_rule, dual_loop, floor_certified,
                          max_violation, objective_stable, priced_directions, priced_minimizer, receive_factors,
                          stream_order)

ALGORITHMS = ("dmmse", "emmseia", "pwf", "min_leakage")
OBJECTIVES = ("wsmmse", "srm")

# Relative off-diagonal mass below which an error covariance counts as diagonal.
OFFDIAG_TOL = 1e-8
# Complementary slackness target: |mu_m (P_m - usage_m)| <= SLACKNESS_TOL * P_m.
SLACKNESS_TOL = 1e-3
# Fixed-point tolerance (max relative covariance change) of the pwf polish.
PWF_POLISH_TOL = 1e-9
# Stall window of pwf's damped ratio rule (see dual_loop).
PWF_STALL_WINDOW = 30


@dataclass(frozen=True)
class AlgorithmConfig:
    """Solver options shared by all algorithm families.

    ``initialization`` is "scaled_identity" (first d_k identity columns,
    scaled to spend a 0.9/K budget fraction per user) or
    "random_orthonormal" (seeded by ``init_seed``).

    ``max_outer`` caps the pricing passes of a solve (multiplier updates
    interleaved with the alternation), summed over all its rounds;
    ``dmmse`` and ``pwf`` then run up to ``MAX_POLISH_ROUNDS``
    fixed-multiplier polish runs of at most ``max_inner`` passes each.  So
    the ``iterations`` a solve returns obey
    iterations <= max_outer + MAX_POLISH_ROUNDS * max_inner
    (``emmseia``: iterations <= max_outer; ``min_leakage`` counts rounds,
    at most ``max_outer``).
    """

    algorithm: str = "dmmse"
    objective: str = "wsmmse"
    max_inner: int = 500
    max_outer: int = 2000
    inner_tol: float = 1e-6
    constraint_tol: float = 1e-2
    subgradient_step: float = 0.1
    lambda_init: float = 1.0
    initialization: str = "scaled_identity"
    init_seed: int = 0

    def validate(self) -> "AlgorithmConfig":
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"algorithm must be one of {ALGORITHMS}")
        if self.objective not in OBJECTIVES:
            raise ConfigurationError(f"objective must be one of {OBJECTIVES}")
        if self.algorithm == "min_leakage" and self.objective == "srm":
            raise ConfigurationError(
                "min_leakage optimizes interference leakage directly; objective 'srm' is not supported"
            )
        if self.algorithm == "pwf" and self.objective != "srm":
            raise ConfigurationError("pwf optimizes the sum-rate objective; set objective='srm'")
        if self.max_inner < 1 or self.max_outer < 1:
            raise ConfigurationError("iteration limits must be positive")
        if self.inner_tol <= 0 or self.constraint_tol <= 0:
            raise ConfigurationError("tolerances must be positive")
        if self.subgradient_step < 0:
            raise ConfigurationError("subgradient_step must be non-negative")
        if self.lambda_init <= 0:
            raise ConfigurationError("lambda_init must be positive")
        if self.initialization not in ("scaled_identity", "random_orthonormal"):
            raise ConfigurationError("initialization must be scaled_identity or random_orthonormal")
        return self


@dataclass(frozen=True)
class DualNetworkState:
    """Last pwf iterate: each user's (m_t,k, d_k) precoder factor, whose
    B_k B_k^H is its forward transmit covariance, the multipliers, and the
    shared water level; the reversed-link covariances follow from these.

    When the solve ends over a budget, the returned precoders are scaled
    into the budgets but this state still describes the unscaled last
    iterate; :func:`pwf_fixed_point_residual` is meaningful only on
    converged solves."""

    precoders: tuple
    multipliers: np.ndarray
    water_level: float


@dataclass(frozen=True)
class LeakageState:
    """Converged min-leakage state: per-(user, BS) orthonormal transmit
    factors, orthonormal receive filters, and the final leakage value."""

    factors: tuple
    equalizers: tuple
    leakage: float


def offdiag_mass(mat: np.ndarray) -> float:
    """Relative Frobenius mass of the off-diagonal part of ``mat``."""
    return float(_offdiag_masses(np.asarray(mat)[None])[0])


def _norms(mats) -> np.ndarray:
    """np.linalg.norm of each matrix in a (K, ., .) stack; the batched dot
    products are the ones np.linalg.norm takes."""
    flat = np.asarray(mats).reshape(len(mats), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0])


def _offdiag_masses(mats) -> np.ndarray:
    """:func:`offdiag_mass` of each matrix in a (K, n, n) stack."""
    off = np.array(mats)
    idx = np.arange(off.shape[-1])
    off[:, idx, idx] = 0.0
    return _norms(off) / np.maximum(_norms(mats), 1e-300)


def _mse_offdiag(problem: InterferenceProblem, mses) -> float:
    """The largest :func:`offdiag_mass` of the users' MMSE error covariances
    E_k (:attr:`ReceiveSide.mses`), each over its own d_k x d_k block: the
    padded diagonal (identity in ``mses``) is cleared in a copy, which
    leaves exactly the block's entries nonzero."""
    return float(np.max(_offdiag_masses(set_padded_diagonal(np.array(mses), problem.stream_pad, 0.0))))


def initialize_precoders(problem: InterferenceProblem, config: AlgorithmConfig) -> list:
    """Feasible starting precoders spending a 0.9/K fraction of the smallest
    budget per user (usage_m <= 0.9 min(P) under unit-partition constraints)."""
    k_users = problem.num_users
    min_budget = float(np.min(problem.budgets))
    rng = np.random.default_rng(config.init_seed)
    precoders = []
    for k in range(k_users):
        mt, d = problem.tx_dims[k], problem.streams[k]
        scale = np.sqrt(0.9 * min_budget / (k_users * d))
        if config.initialization == "scaled_identity":
            b = np.zeros((mt, d), dtype=complex)
            b[:d, :d] = np.eye(d)
        else:
            z = rng.standard_normal((mt, d)) + 1j * rng.standard_normal((mt, d))
            b, _ = np.linalg.qr(z)
        precoders.append(scale * b)
    return precoders


def fit_to_budgets(problem: InterferenceProblem, precoders) -> ReceiveSide:
    """Scale ``precoders`` so that every constraint meets its budget; returns
    the :class:`ReceiveSide` of the scaled padded stack.

    When the constraint weights are diagonal with disjoint supports
    (:attr:`InterferenceProblem.constraint_supports`), the rows weighed by
    each over-budget constraint m are scaled by sqrt(P_m / usage_m) in every
    precoder, which sets usage_m to P_m and leaves every other constraint
    and every other row unchanged.  For any other constraint weights all
    precoders share the one factor sqrt(min_m P_m / usage_m) over the
    over-budget m; usage is quadratic in the precoders, so every constraint
    then meets its budget.
    """
    budgets = problem.budgets
    rx = ReceiveSide(problem, precoders)
    usage = rx.usage
    over = usage > budgets
    if not np.any(over):
        return rx
    factors = np.ones(problem.num_constraints)
    factors[over] = np.sqrt(budgets[over] / usage[over])
    supports = problem.constraint_supports
    if supports is None:
        scaled = float(np.min(factors)) * rx.precoders
    else:
        scaled = (factors @ (supports != 0))[..., None] * rx.precoders
    return ReceiveSide(problem, scaled)


def _finish(problem: InterferenceProblem, config: AlgorithmConfig, run, rx: ReceiveSide, multipliers,
            diagnostics: dict, holds=None) -> BeamformerSolution:
    """The :class:`BeamformerSolution` of a dual-loop solve from its
    :class:`DualRun` and the :class:`ReceiveSide` of its last stack.  An
    ``srm`` stack more than ``constraint_tol`` over a budget (possible only
    on an unconverged stop, since the weights move every pass) is scaled
    with :func:`fit_to_budgets`.  ``converged`` needs the last violation
    within ``constraint_tol``, a stable objective and ``holds(rx)``, a
    solver's own test on the returned receive side."""
    violation = max_violation(run.usage, problem.budgets)
    diagnostics["objective"] = config.objective
    if config.objective == "srm":
        diagnostics["unscaled_max_violation"] = max(violation, 0.0)
        if violation > config.constraint_tol:
            rx = fit_to_budgets(problem, rx.precoders)
    own = True if holds is None else holds(rx)
    converged = violation <= config.constraint_tol and own and objective_stable(run.trace, config.inner_tol)
    return BeamformerSolution(
        precoders=cut_padding(rx.precoders, problem.tx_dims, problem.streams),
        equalizers=cut_padding(rx.equalizers, problem.rx_dims, problem.streams),
        multipliers=np.array(multipliers, dtype=float),
        trace=run.trace,
        iterations=run.iterations,
        converged=bool(converged),
        diagnostics={"usage": rx.usage, "max_violation": max(max_violation(rx.usage, problem.budgets), 0.0),
                     "stop": run.stop, **diagnostics},
    )


def _stream_weights(problem: InterferenceProblem, mats) -> np.ndarray:
    """The diagonals of a padded (K, d, d) weight stack as the per-stream
    weights of the diagonalizing solver, (K, d), zero on padded streams."""
    weights = np.maximum(np.diagonal(mats, axis1=-2, axis2=-1).real, 0.0)
    weights[problem.stream_pad] = 0.0
    return weights


def _diagonal_weights(problem: InterferenceProblem) -> np.ndarray:
    """:func:`_stream_weights` of the problem's MSE weights, which the
    diagonalizing solver requires to be diagonal (the zero padding adds no
    off-diagonal mass)."""
    bad = np.flatnonzero(_offdiag_masses(problem.mse_weights) > 1e-10)
    if bad.size:
        raise ContractViolationError(
            f"user {bad[0]}: the diagonalizing solver requires diagonal MSE weights"
        )
    return _stream_weights(problem, problem.mse_weights)


# ---------------------------------------------------------------------------
# dmmse
# ---------------------------------------------------------------------------

def _pricing_matrices(problem, ups, lam):
    """Interference-pricing matrices F_k = ups_k + sum_m lam_m Phi_{k,m},
    with 1 on the padded diagonal."""
    f = hermitian_part(ups + priced_weights(problem.constraints, problem.constraint_supports, lam))
    return set_padded_diagonal(f, problem.tx_pad, 1.0)


def _solvable(problem, f, lam) -> np.ndarray:
    """:func:`single_user.floor_certified` of transmit-side matrices F_k,
    each a PSD sum plus sum_m lam_m Phi_{k,m} with 1 on its padded
    diagonal: on constraint supports that price is the diagonal
    lam @ supports_k, a floor of F_k.  Without supports no F_k is
    certified."""
    supports = problem.constraint_supports
    if supports is None:
        return np.zeros(problem.num_users, dtype=bool)
    floor = lam @ supports
    floor[problem.tx_pad] = 1.0
    return floor_certified(f, floor)


def _dmmse_precoder_step(problem, rx, w, order, lam):
    """Simultaneous per-user precoder update at multipliers ``lam`` from the
    :class:`ReceiveSide` ``rx`` of the current stack and (K, d) weights
    ``w`` in ``order``: :func:`priced_minimizer` with the interference-pricing
    matrices F_k of the MMSE equalizers A_k and the :func:`receive_factors`
    C_k = H_kk^H L_k^{-H} of Omega_k, as the padded (K, m_t, d) stack; padded
    streams carry zero weight and so get zero columns.  The F_k that
    :func:`_solvable` certifies take the receive-dimension step; the others
    are whitened, and a singular one is retried once with the price floor
    lifted to the interference scale.  Returns the stack and whether any
    F_k was whitened."""
    a = rx.equalizers
    # ups[k] = sum_{l != k} H_{l,k}^H A_l W_l A_l^H H_{l,k}
    ups = reverse_link_sums(problem.reverse_cross, (a * w[:, None, :]) @ adjoint(a))
    c = receive_factors(rx.omegas, problem.direct_h)
    f = _pricing_matrices(problem, ups, lam)
    solved = _solvable(problem, f, lam)

    def lift(k):
        guard = max(LAMBDA_FLOOR, 1e-9 * max(1.0, float(np.linalg.norm(ups[k]))))
        try:
            return psd_inv_sqrt(_pricing_matrices(problem, ups, np.maximum(lam, guard))[k])
        except SingularMatrixError as exc:
            raise NumericalFailureError(
                f"user {k}: interference-pricing matrix stayed singular after the floor retry"
            ) from exc

    return priced_minimizer(f, c, w, order, lift, solved=solved), not solved.all()


# ---------------------------------------------------------------------------
# emmseia
# ---------------------------------------------------------------------------

def _emmseia_factors(problem, equalizers, weights):
    """Multiplier-independent parts of the precoder linear systems: the
    received-weight grams sum_l H_{l,k}^H A_l W_l A_l^H H_{l,k}, with 1 on
    the padded diagonal, and the right-hand sides H_{k,k}^H A_k W_k."""
    a = problem.equalizers(equalizers)
    w = np.asarray(weights)
    gram = reverse_link_sums(problem.reverse_channels, a @ w @ adjoint(a))
    rhs = problem.direct_h @ a @ w
    return set_padded_diagonal(hermitian_part(gram), problem.tx_pad, 1.0), rhs


def _emmseia_solve_at(problem, grams, rhs, mu):
    """Solve (grams_k + sum_m mu_m Phi_{k,m}) B_k = rhs_k for every user."""
    return _solve_systems(priced_weights(problem.constraints, problem.constraint_supports, mu, grams), rhs)


def _solve_systems(systems, rhs):
    """B_k = systems_k^{-1} rhs_k for a (K, n, n) stack; a singular system
    (zero multipliers on a rank-deficient gram) is solved user by user,
    least squares where singular."""
    try:
        return np.linalg.solve(systems, rhs)
    except np.linalg.LinAlgError:
        pass
    precoders = np.empty_like(rhs)
    for k, (system, right) in enumerate(zip(systems, rhs)):
        try:
            precoders[k] = np.linalg.solve(system, right)
        except np.linalg.LinAlgError:
            precoders[k] = np.linalg.pinv(system, hermitian=True) @ right
    return precoders


def emmseia_precoder_update(problem, equalizers, weights, mu):
    """Precoders minimizing the multiplier-priced weighted MSE for fixed
    equalizers (joint, convex): solve
    (sum_l H_{l,k}^H A_l W_l A_l^H H_{l,k} + sum_m mu_m Phi_{k,m}) B_k
        = H_{k,k}^H A_k W_k."""
    grams, rhs = _emmseia_factors(problem, equalizers, weights)
    return _emmseia_solve_at(problem, grams, rhs, mu)


def _emmseia_multiplier_search(problem, equalizers, weights, mu, constraint_tol, max_iters=300):
    """Drive the multipliers to the complementary-slackness conditions
    |mu_m (P_m - usage_m)| <= SLACKNESS_TOL P_m with usage_m <= P_m (1 + tol),
    stopping after ``max_iters`` steps if they do not hold by then.

    Projected subgradient in scaled coordinates (:func:`_multiplier_step`).
    The linear systems are built once per search: on constraint supports
    each step rewrites only their diagonal, the grams' diagonal plus
    mu @ supports, the bits of :func:`linalg.priced_weights`; dense weights
    are priced afresh.  The slackness test and the multiplier step work on
    Python floats of the M budgets, the same IEEE operations as their
    elementwise array forms, so the multipliers carry the same bits.
    Returns (mu, precoders, usage, whether the slackness conditions hold
    there, the number of linear solves made).
    """
    budgets = problem.budgets.tolist()
    slack_bound = [SLACKNESS_TOL * b for b in budgets]
    usage_bound = [b * (1.0 + constraint_tol) for b in budgets]
    supports = problem.constraint_supports
    mu = np.asarray(mu, dtype=float).tolist()
    grams, rhs = _emmseia_factors(problem, equalizers, weights)
    if supports is None:
        def systems_at(mu):
            return priced_weights(problem.constraints, None, mu, grams)
    else:
        diagonal = np.einsum("...ii->...i", grams)  # a view: the grams are this search's own
        base = diagonal.copy()

        def systems_at(mu):
            np.add(base, mu @ supports, out=diagonal)
            return grams

    def solve_at(mu):
        precoders = _solve_systems(systems_at(np.array(mu)), rhs)
        return precoders, weight_usage(problem.constraints, supports, precoders)

    precoders, usage = solve_at(mu)
    for step in range(max_iters + 1):
        used = usage.tolist()
        slack_ok = all(abs(m * (b - u)) <= s for m, b, u, s in zip(mu, budgets, used, slack_bound))
        if step == max_iters or (slack_ok and all(u <= v for u, v in zip(used, usage_bound))):
            break
        mu = _multiplier_step(mu, used, budgets)
        precoders, usage = solve_at(mu)
    return np.array(mu), precoders, usage, slack_ok, step + 1


def _multiplier_step(mu: list, usage: list, budgets: list) -> list:
    """One step of the multiplier search on float lists: each mu_m times
    clip(1 + (usage_m/P_m - 1)/2, 1/2, 2), which matches the local
    usage ~ mu^-2 curvature, decays geometrically on slack constraints, and
    keeps exact zeros; zero multipliers restart from a small seed when
    their constraint is violated, and multipliers below 1e-14 of the
    largest become 0.  A NaN usage gives a NaN multiplier and a NaN
    largest one, as np.minimum, np.maximum and np.max give them
    (:func:`single_user._max`).  A largest multiplier over ``LAMBDA_CAP``
    raises :class:`NumericalFailureError`."""
    ratio = [u / b for u, b in zip(usage, budgets)]
    stepped = []
    for m, r in zip(mu, ratio):
        factor = 1.0 + 0.5 * (r - 1.0)
        stepped.append(m * (0.5 if factor < 0.5 else 2.0 if factor > 2.0 else factor))  # NaN stays NaN
    top = _max(stepped, 0.0)
    seeded = [i for i, (m, r) in enumerate(zip(stepped, ratio)) if m == 0.0 and r > 1.0]
    if seeded:
        seed = 1e-6 * max(1.0, top)
        for i in seeded:
            stepped[i] = seed
        top = max(top, seed)
    floor = 1e-14 * max(1.0, top)  # lowers the maximum only below 1e-14
    stepped = [0.0 if m < floor else m for m in stepped]
    if top > LAMBDA_CAP:
        raise NumericalFailureError("multiplier search diverged")
    return stepped


# ---------------------------------------------------------------------------
# dmmse and emmseia solves
# ---------------------------------------------------------------------------

def dmmse_solve(problem: InterferenceProblem, config: AlgorithmConfig | None = None,
                initial=None) -> BeamformerSolution:
    """Diagonalizing weighted-MMSE design (see module docstring) on
    :func:`dual_loop`: the multipliers step with the :func:`additive_rule`
    (frozen at ``subgradient_step=0``), and polish passes at fixed
    multipliers run until the error covariances are diagonal.

    The weighted-MSE objective requires diagonal weights; in 'srm' mode the
    reweighting loop supplies them as diag(E_k^{-1}).
    """
    config = (config or AlgorithmConfig(algorithm="dmmse")).validate()
    srm = config.objective == "srm"
    rx = ReceiveSide(problem, initialize_precoders(problem, config) if initial is None else initial)
    fixed_weights = _diagonal_weights(problem)
    fixed_order = None if srm else stream_order(fixed_weights)  # once per solve
    # The inner subproblem at fixed multipliers minimizes the priced
    # objective wsmse + lam.(usage - P); its per-pass values are the
    # provably non-increasing descent quantity, recorded for diagnostics.
    priced_trace: list = []
    whitened_passes = 0

    def run_pass(lam):
        nonlocal rx, whitened_passes
        weights = _stream_weights(problem, rx.weights) if srm else fixed_weights
        order = stream_order(weights) if srm else fixed_order
        precoders, whitened = _dmmse_precoder_step(problem, rx, weights, order, lam)
        whitened_passes += whitened
        rx = ReceiveSide(problem, precoders)
        if srm:
            return rx.rate
        # sum_k tr{W_k E_k} at the MMSE equalizers, where E_k = I - A_k^H S_k
        ahs = (rx.equalizers.conj() * rx.signals).sum(axis=-2).real
        value = float((weights * (1.0 - ahs)).sum())
        priced_trace.append(value + float(np.dot(lam, rx.usage - problem.budgets)))
        return value

    def exit_test(trace, violation, residual):
        if violation > config.constraint_tol:
            return False
        if residual > config.constraint_tol:
            return False
        return objective_stable(trace, config.inner_tol)

    def polish_step(lam):
        # fixed-multiplier pass toward the inner fixed point, where the
        # error covariances are diagonal to tolerance
        previous = rx.precoders  # run_pass makes a new receive side
        value = run_pass(lam)
        offdiag = _mse_offdiag(problem, rx.mses)
        drift = float(np.max(_norms(rx.precoders - previous) / np.maximum(_norms(rx.precoders), 1e-300)))
        return value, offdiag <= OFFDIAG_TOL and drift <= 1e-9

    rule = additive_rule(config.subgradient_step) if config.subgradient_step > 0 else None
    run = dual_loop(run_pass, lambda: rx.usage, exit_test, np.full(problem.num_constraints, config.lambda_init),
                    problem.budgets, config.max_outer, rule=rule, polish=lambda: polish_step,
                    max_inner=config.max_inner, polish_unconverged=True, constraint_tol=config.constraint_tol)
    diagnostics = {"polish_start": run.polish_start, "whitened_passes": whitened_passes}
    if not srm:
        diagnostics["priced_trace"] = priced_trace

    def diagonal(returned):
        diagnostics["offdiag"] = offdiag = _mse_offdiag(problem, returned.mses)
        return offdiag <= OFFDIAG_TOL

    return _finish(problem, config, run, rx, run.lam, diagnostics, diagonal)


def emmseia_solve(problem: InterferenceProblem, config: AlgorithmConfig | None = None,
                  initial=None) -> BeamformerSolution:
    """Interference-aligning MMSE design with joint precoder updates (see
    module docstring) on :func:`dual_loop` without an outer rule: each pass
    forms the MMSE equalizers of the stack it starts from and runs the KKT
    multiplier search, whose multipliers it carries to the next pass; no
    polish.  The diagnostics count the search's linear solves over all
    passes as ``search_steps``."""
    config = (config or AlgorithmConfig(algorithm="emmseia")).validate()
    srm = config.objective == "srm"
    rx = ReceiveSide(problem, initialize_precoders(problem, config) if initial is None else initial)
    mu = np.full(problem.num_constraints, config.lambda_init)
    usage, slack_ok, search_steps = None, True, 0

    def run_pass(lam):
        nonlocal rx, mu, usage, slack_ok, search_steps
        equalizers = rx.equalizers
        # search to half the tolerance so the returned point clears it with margin
        mu, precoders, usage, slack_ok, solves = _emmseia_multiplier_search(
            problem, equalizers, rx.weights if srm else problem.mse_weights, mu, 0.5 * config.constraint_tol
        )
        search_steps += solves
        rx = ReceiveSide(problem, precoders)
        # the fixed-weight value pairs the new stack with the equalizers it was solved for
        return rx.rate if srm else rx.wsmse(equalizers)

    def exit_test(trace, violation, residual):
        if violation > config.constraint_tol or not slack_ok:
            return False
        return objective_stable(trace, config.inner_tol)

    run = dual_loop(run_pass, lambda: usage, exit_test, np.full(problem.num_constraints, config.lambda_init),
                    problem.budgets, config.max_outer, constraint_tol=config.constraint_tol)
    return _finish(problem, config, run, rx, mu, {"search_steps": search_steps}, lambda returned: slack_ok)


# ---------------------------------------------------------------------------
# pwf
# ---------------------------------------------------------------------------

def _pwf_duals(rx: ReceiveSide, water_level: float) -> np.ndarray:
    """The reversed-link covariances (1/mu) (Omega_k^{-1} - (Omega_k +
    S_k S_k^H)^{-1}) of a pwf iterate at water level mu, formed (Woodbury)
    as (1/mu) Z_k E_k Z_k^H from the receive side's Z_k = Omega_k^{-1} S_k
    and error covariances E_k."""
    z = rx.whitened
    return hermitian_part(z @ rx.mses @ adjoint(z)) / water_level


def _pwf_forward(problem, omegas, dual_covariances, lam):
    """One forward waterfilling pass: on :func:`priced_directions` of the
    reversed-link covariances Omega_hat_k (in place of F_k, certified by
    :func:`_solvable`) and the :func:`receive_factors` of the forward ones
    Omega_k, allocate p_i = [1/mu - 1/g_i]^+ on the unit-power directions
    D_k (usage coefficients diag(D_k^H priced_k D_k)), bisecting the shared
    water level so the multiplier-weighted usage meets the
    multiplier-weighted budget.  Returns the factors D_k diag(sqrt p) as
    the padded (K, m_t, d) precoder stack, the water level and whether any
    Omega_hat_k was whitened; padded streams get no power."""
    target = float(np.dot(lam, problem.budgets))
    priced = priced_weights(problem.constraints, problem.constraint_supports, lam)
    # omega_hat[k] = priced[k] + sum_{j != k} H_{j,k}^H Sigma_hat_j H_{j,k}
    omega_hat = reverse_link_sums(problem.reverse_cross, dual_covariances, priced)
    omega_hat = set_padded_diagonal(hermitian_part(omega_hat), problem.tx_pad, 1.0)
    solved = _solvable(problem, omega_hat, lam)
    directions, gains = priced_directions(omega_hat, receive_factors(omegas, problem.direct_h),
                                          problem.mse_weights.shape[-1], solved)
    coefs = np.maximum(((priced @ directions) * directions.conj()).sum(axis=-2).real, 0.0)
    keep = gains > GAIN_RTOL * np.maximum(1.0, np.max(gains, axis=-1, initial=0.0))[:, None]
    keep[problem.stream_pad] = False
    gains_flat, coefs_flat = gains[keep], coefs[keep]
    inv_gains = 1.0 / gains_flat
    if gains_flat.size == 0 or np.sum(coefs_flat) <= 0 or target <= 0:
        raise NumericalFailureError("waterfilling cannot meet the multiplier-weighted budget")
    # the water level at which the usage sum_i c_i [1/mu - 1/g_i]^+ meets the target
    mu = bisect_level(lambda level: float(np.add.reduce(coefs_flat * np.maximum(1.0 / level - inv_gains, 0.0))),
                      target, "water-level")
    powers = np.zeros_like(gains)
    powers[keep] = np.maximum(1.0 / mu - 1.0 / gains[keep], 0.0)
    return directions * np.sqrt(powers)[:, None, :], float(mu), not solved.all()


def pwf_fixed_point_residual(problem: InterferenceProblem, state: DualNetworkState) -> float:
    """Re-evaluate the coupled covariance equations at ``state`` and return
    the worst relative deviation of the reproduced transmit covariances."""
    rx = ReceiveSide(problem, state.precoders)
    reproduced = _pwf_forward(problem, rx.omegas, _pwf_duals(rx, state.water_level), state.multipliers)[0]
    return _relative_change(*(hermitian_part(b @ adjoint(b)) for b in (reproduced, rx.precoders)))


def _relative_change(new, old) -> float:
    """max_k ||new_k - old_k|| / max(||old_k||, 1e-12 max_j ||old_j||) over
    two (K, ., .) stacks."""
    old_norms = _norms(old)
    scale = max(float(np.max(old_norms)), 1e-300)
    return float(np.max(_norms(new - old) / np.maximum(old_norms, 1e-12 * scale)))


def _pwf_rule(lam, usage, budgets, excess, since):
    """Damped multiplicative multiplier step lam <- lam * ratio^eta on the
    clipped usage ratios.  The undamped ratio update limit-cycles on
    strongly coupled instances; eta diminishes once the stall clock runs
    out, averaging any remaining cycle out."""
    eta = 0.5 if since is None else 0.5 / np.sqrt(1 + since / 10.0)
    ratio = np.clip(usage / budgets, 0.25, 4.0)
    return np.clip(lam * np.maximum(ratio, LAMBDA_FLOOR) ** eta, LAMBDA_FLOOR, LAMBDA_CAP)


def pwf_solve(problem: InterferenceProblem, config: AlgorithmConfig | None = None,
              initial=None) -> BeamformerSolution:
    """Polite water-filling fixed point for the sum-rate objective (see
    module docstring), on :func:`dual_loop` with :func:`_pwf_rule`.  Each
    pass is one :func:`_pwf_forward` from the :class:`ReceiveSide` of the
    last precoder stack (its Omega_k and :func:`_pwf_duals`).  The polish
    iterates this map at fixed multipliers, and only from a pricing state
    that met its exit test: the map can diverge at far-off multipliers.  The
    precoders are the last pass's factors and meet every budget by
    construction: an over-budget last iterate is scaled back with
    :func:`fit_to_budgets` and reported as unconverged.  The diagnostics
    carry the last iterate's :class:`DualNetworkState` for structural
    verification."""
    config = (config or AlgorithmConfig(algorithm="pwf", objective="srm")).validate()
    rx = ReceiveSide(problem, initialize_precoders(problem, config) if initial is None else initial)
    mu = 1.0
    whitened_passes = 0

    def run_pass(lam):
        nonlocal rx, mu, whitened_passes
        precoders, mu, whitened = _pwf_forward(problem, rx.omegas, _pwf_duals(rx, mu), lam)
        whitened_passes += whitened
        rx = ReceiveSide(problem, precoders)
        return rx.rate

    def exit_test(trace, violation, residual):
        return violation <= config.constraint_tol \
            and residual <= config.constraint_tol \
            and objective_stable(trace, config.inner_tol)

    def polish():
        prev_delta, growth = np.inf, 0
        covariances = hermitian_part(rx.precoders @ adjoint(rx.precoders))

        def step(lam):
            # stops at the fixed point, or when the change grew more than
            # twofold in two passes running
            nonlocal prev_delta, growth, covariances
            value = run_pass(lam)
            previous, covariances = covariances, hermitian_part(rx.precoders @ adjoint(rx.precoders))
            delta = _relative_change(covariances, previous)
            if delta <= PWF_POLISH_TOL:
                return value, True
            growth = growth + 1 if delta > 2.0 * prev_delta else 0
            prev_delta = delta
            return value, growth >= 2

        return step

    run = dual_loop(
        run_pass, lambda: rx.usage, exit_test, np.full(problem.num_constraints, config.lambda_init),
        problem.budgets, config.max_outer, rule=_pwf_rule, stall_window=PWF_STALL_WINDOW, polish=polish,
        max_inner=config.max_inner, constraint_tol=config.constraint_tol,
    )
    state = DualNetworkState(precoders=tuple(cut_padding(rx.precoders, problem.tx_dims, problem.streams)),
                             multipliers=run.lam.copy(), water_level=mu)
    return _finish(problem, config, run, rx, run.lam, {"state": state, "polish_start": run.polish_start,
                                                       "whitened_passes": whitened_passes})


# ---------------------------------------------------------------------------
# min_leakage
# ---------------------------------------------------------------------------

def min_leakage_solve(system: PartialCooperationSystem, config: AlgorithmConfig | None = None,
                      initial=None) -> BeamformerSolution:
    """Interference-leakage minimization on the physical (per-BS) form.

    Precoder factors are orthonormal with the per-BS budget split equally
    over served streams, B_{k,m} = sqrt(P_m / (K_m d_k)) Bbar_{k,m}; receive
    filters are orthonormal.  Each half-step takes the eigenvectors of the
    d_k smallest eigenvalues of the leakage quadratic form (receive side:
    interference covariance at user k; transmit side: its exact conjugate
    over all victim receivers), so the leakage is non-increasing per
    half-step.  The stacked solution meets every per-BS budget exactly; the
    diagnostics carry the per-BS ``usage``, sum_k (P_m / (K_m d_k))
    ||Bbar_{k,m}||_F^2 over the users k that BS m serves, and its
    ``max_violation``.

    The solve runs batched over the (user, serving-BS) pairs: the factors
    are one (K, c, nt, d) stack for the largest serving-set size c and
    stream count d, zero on the padded streams, with power share 0 on the
    padded slots, and each half-step is one stacked ``eigh``.  The quadratic forms are summed over the other
    users (and their serving BSs) in ascending order, with exact zeros in
    place of the skipped terms, so a problem without padding gets the
    per-pair loop's numbers bit for bit.  The receive-side forms built for a
    round's leakage value serve the next round's receive update.
    ``initial`` gives per user the list of its (nt, d_k) factors.
    """
    config = (config or AlgorithmConfig(algorithm="min_leakage")).validate()
    k_users = system.num_users
    nt, nr = system.nt, system.nr
    streams = system.streams
    if max(streams) > nt:
        raise ContractViolationError(
            f"min_leakage needs d_k <= nt per serving BS; got streams {streams} with nt={nt}"
        )
    d_max = max(streams)
    # (K, c) tables of each pair's BS and power share P_m / (K_m d_k);
    # padded slots get BS 0 and share 0
    bs_of, valid = system.serving_table
    width = bs_of.shape[1]
    pair_users, pair_slots = np.nonzero(valid)
    pairs = list(zip(pair_users, pair_slots))
    pair_bs = bs_of[valid]
    served_count = np.bincount(pair_bs, minlength=system.num_bs)
    coef = np.zeros((k_users, width))
    coef[valid] = system.bs_power[pair_bs] / (served_count[pair_bs] * np.array(streams)[pair_users])
    # (K, 1, d): 1 on each user's own streams
    stream_mask = (np.arange(d_max) < np.array(streams)[:, None])[:, None, :]

    rng = np.random.default_rng(config.init_seed)
    factors = np.zeros((k_users, width, nt, d_max), dtype=complex)
    for k, pos in pairs:
        d = streams[k]
        if initial is not None:
            factors[k, pos, :, :d] = np.asarray(initial[k][pos], dtype=complex)
        elif config.initialization == "scaled_identity":
            factors[k, pos, :d, :d] = np.eye(d)
        else:
            z = rng.standard_normal((nt, d)) + 1j * rng.standard_normal((nt, d))
            factors[k, pos, :, :d], _ = np.linalg.qr(z)

    users = np.arange(k_users)
    serving_channels = system.channels[:, bs_of]  # (K, K, c, nr, nt): H_{k, m(j, pos)}
    channels_h = adjoint(system.channels)  # (K, M, nt, nr)
    zero_rx = np.zeros((nr, nr), dtype=complex)
    zero_tx = np.zeros((nt, nt), dtype=complex)

    def interference_forms(factors):
        # hb[k, j, pos] = H_{k, m(j, pos)} Bbar_{j, pos}; user k's own pairs drop out
        hb = serving_channels @ factors
        terms = coef[:, :, None, None] * (hb @ adjoint(hb))
        terms[users, users] = 0.0
        forms = sum_over_sources(zero_rx, terms.reshape(k_users, k_users * width, nr, nr))
        return hermitian_part(forms)

    def leakage(forms, equalizers):
        total = 0.0
        for value in np.trace(adjoint(equalizers) @ forms @ equalizers, axis1=-2, axis2=-1).real:
            total += float(value)
        return total

    def smallest_eigvecs(forms, mask):
        vecs = np.linalg.eigh(hermitian_part(forms))[1][..., :d_max]
        vecs *= mask
        return vecs

    forms = interference_forms(factors)
    equalizers = np.zeros((k_users, nr, d_max), dtype=complex)
    trace: list = []
    iterations = 0
    converged = False
    prev_round = None
    for j in range(1, config.max_outer + 1):
        iterations = j
        equalizers = smallest_eigvecs(forms, stream_mask)
        trace.append(leakage(forms, equalizers))
        # ha[i, m] = H_{i,m}^H A_i; the form of pair (k, pos) sums
        # P_m/(K_m d_k) ha ha^H over the victims i != k at its BS m
        ha = channels_h @ equalizers[:, None]
        victims = (ha @ adjoint(ha))[:, bs_of]  # (K_i, K, c, nt, nt)
        terms = coef[:, :, None, None, None] * np.moveaxis(victims, 0, 2)
        terms[users, :, users] = 0.0
        qhat = sum_over_sources(zero_tx, terms.reshape(k_users * width, k_users, nt, nt))
        factors = smallest_eigvecs(qhat.reshape(k_users, width, nt, nt), stream_mask[:, None])
        forms = interference_forms(factors)
        trace.append(leakage(forms, equalizers))
        if prev_round is not None and abs(trace[-1] - prev_round) <= config.inner_tol * max(1.0, trace[-1]):
            converged = True
            break
        if trace[-1] <= 1e-15:
            converged = True
            break
        prev_round = trace[-1]

    pair_factors = [[factors[k, pos, :, :streams[k]] for pos in range(len(sset))]
                    for k, sset in enumerate(system.serving_sets)]
    scaled = np.sqrt(coef)[:, :, None, None] * factors
    precoders = [scaled[k, :len(sset), :, :streams[k]].reshape(len(sset) * nt, streams[k])
                 for k, sset in enumerate(system.serving_sets)]
    norms = _norms(factors.reshape(k_users * width, nt, d_max)).reshape(k_users, width)
    usage = np.zeros(system.num_bs)
    for k, pos in pairs:
        usage[bs_of[k, pos]] += coef[k, pos] * float(norms[k, pos]) ** 2
    cut_equalizers = [equalizers[k, :, :streams[k]] for k in range(k_users)]
    state = LeakageState(
        factors=tuple(tuple(user_factors) for user_factors in pair_factors),
        equalizers=tuple(cut_equalizers),
        leakage=trace[-1] if trace else 0.0,
    )
    return BeamformerSolution(
        precoders=precoders,
        equalizers=[a.copy() for a in cut_equalizers],
        multipliers=np.zeros(system.num_bs),
        trace=trace,
        iterations=iterations,
        converged=bool(converged),
        diagnostics={"usage": usage, "max_violation": max(max_violation(usage, system.bs_power), 0.0),
                     "state": state, "objective": "leakage"},
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# each design's entry; the lambdas look the solver up in the module globals
# at call time, so a rebound name (a tracing wrapper, say) is the one run
_SOLVERS = {
    "dmmse": lambda system, problem, config: dmmse_solve(problem, config),
    "emmseia": lambda system, problem, config: emmseia_solve(problem, config),
    "pwf": lambda system, problem, config: pwf_solve(problem, config),
    "min_leakage": lambda system, problem, config: min_leakage_solve(system, config),
}


def solve_system(system: PartialCooperationSystem, config: AlgorithmConfig) -> tuple:
    """Build the stacked interference problem for ``system`` and run the
    configured algorithm; returns (problem, solution)."""
    config = config.validate()
    problem = build_interference_problem(system)
    return problem, _SOLVERS[config.algorithm](system, problem, config)
