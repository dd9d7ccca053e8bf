"""Multiuser algorithm tests: structural identities, descent, feasibility,
and degenerate cases for all four solver families."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from netmimo import (
    AlgorithmConfig,
    ConfigurationError,
    InterferenceProblem,
    NumericalFailureError,
    PartialCooperationSystem,
    ScenarioConfig,
    build_interference_problem,
    constraint_usage,
    dmmse_solve,
    emmseia_solve,
    lagrangian_minimizer,
    min_leakage_solve,
    mmse_equalizer,
    mse_matrix_mmse,
    pwf_fixed_point_residual,
    pwf_solve,
    realize,
    solve_multi_constraint,
    sum_rate,
    wsmse_objective,
)
from netmimo.algorithms import (
    FIXED_OBJECTIVES,
    emmseia_precoder_update,
    fit_to_budgets,
    initialize_precoders,
    offdiag_mass,
)
from netmimo.linalg import adjoint, priced_weights, psd_inv_sqrt, psd_inv_sqrt_batch
from netmimo.model import ReceiveSide
from netmimo.single_user import (GAIN_RTOL, LAMBDA_FLOOR, SingleUserProblem, priced_minimizer, receive_factors,
                                 stream_order)

from conftest import antenna_link, count_decompositions, dense_link


def cellular_problem(seed, **kwargs):
    defaults = dict(cluster_size=3, users_per_cell=1, nt=4, nr=2, streams=2,
                    cooperation_factor=2, boundary_snr_db=20.0)
    defaults.update(kwargs)
    system = realize(ScenarioConfig(**defaults), np.random.default_rng(seed))
    return system, build_interference_problem(system)


def single_pair_problem(h, budget=1.0):
    h = np.asarray(h, dtype=complex)
    mr, mt = h.shape
    return InterferenceProblem.from_blocks(
        channels=((h,),),
        constraints=((np.eye(mt, dtype=complex),),),
        budgets=[budget], streams=[min(mr, mt)],
        mse_weights=(np.eye(min(mr, mt)),),
    )


def zero_problem():
    z = np.zeros((2, 3), dtype=complex)
    eye = np.eye(3, dtype=complex)
    zero = np.zeros((3, 3), dtype=complex)
    return InterferenceProblem.from_blocks(
        channels=((z, z), (z, z)),
        constraints=((eye, zero), (zero, eye)),
        budgets=[1.0, 1.0], streams=[2, 2],
        mse_weights=(np.eye(2), np.eye(2)),
    )


def test_config_validation():
    # a config checks itself when built, and dataclasses.replace builds one
    base = AlgorithmConfig()
    for invalid in (dict(algorithm="nope"), dict(algorithm="min_leakage", objective="srm"),
                    dict(algorithm="pwf", objective="wsmmse"), dict(algorithm="pwf"),
                    dict(inner_tol=0.0), dict(max_outer=0), dict(initialization="zeros"),
                    # and the field types: no float or bool for an integer, no NaN, infinity or text for a float
                    dict(max_outer=2.0), dict(max_inner=True), dict(init_seed=1.5), dict(inner_tol=float("nan")),
                    dict(lambda_init=float("inf")), dict(subgradient_step="0.1"), dict(algorithm=None)):
        with pytest.raises(ConfigurationError):
            AlgorithmConfig(**invalid)
        with pytest.raises(ConfigurationError):
            replace(base, **invalid)
    # an integer in a float field comes back as a float
    for config in (AlgorithmConfig(lambda_init=2), replace(base, lambda_init=2)):
        assert type(config.lambda_init) is float and config.lambda_init == 2.0
    for algorithm, objective in FIXED_OBJECTIVES.items():
        assert replace(base, algorithm=algorithm, objective=objective).objective == objective


def test_initialization_feasible_and_orthonormal():
    _, problem = cellular_problem(0)
    for policy in ("scaled_identity", "random_orthonormal"):
        cfg = AlgorithmConfig(initialization=policy, init_seed=3)
        precoders = initialize_precoders(problem, cfg)
        usage = constraint_usage(problem, precoders)
        assert np.all(usage <= problem.budgets + 1e-12)
        for b in precoders:
            gram = b.conj().T @ b
            assert np.allclose(gram, gram[0, 0] * np.eye(b.shape[1]), atol=1e-10)


# ---------------------------------------------------------------------------
# dmmse
# ---------------------------------------------------------------------------

def test_dmmse_single_user_step_matches_power_priced_minimizer():
    # K=1 with fixed multipliers degenerates to the single-user minimizer:
    # dmmse's F = lam I and lagrangian_minimizer's dense price both take the
    # one receive-dimension step
    rng = np.random.default_rng(1)
    h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    problem = single_pair_problem(h)
    lam = 0.7
    from netmimo.algorithms import _dmmse_precoder_step
    b0 = initialize_precoders(problem, AlgorithmConfig())
    weights = np.ones((1, 2))
    stepped = _dmmse_precoder_step(problem, ReceiveSide(problem, b0), weights, stream_order(weights),
                                   np.array([lam]))
    su = SingleUserProblem(channel=h, noise_cov=np.eye(2),
                           constraints=(np.eye(3, dtype=complex),), budgets=[1.0],
                           weights=np.ones(2), streams=2)
    direct = lagrangian_minimizer(su, lam * np.eye(3, dtype=complex))
    assert np.array_equal(stepped[0], direct)


def test_dmmse_symmetric_instance():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    g = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    eye, zero = np.eye(4, dtype=complex), np.zeros((4, 4), dtype=complex)
    problem = InterferenceProblem.from_blocks(
        channels=((h, g), (g, h)),
        constraints=((eye, zero), (zero, eye)),
        budgets=[1.0, 1.0], streams=[2, 2], mse_weights=(np.eye(2), np.eye(2)),
    )
    sol = dmmse_solve(problem, AlgorithmConfig(algorithm="dmmse"))
    e0 = float(np.trace(mse_matrix_mmse(problem, sol.precoders, 0)).real)
    e1 = float(np.trace(mse_matrix_mmse(problem, sol.precoders, 1)).real)
    assert abs(e0 - e1) <= 1e-6


def test_dmmse_diagonalizes_and_satisfies_constraints():
    for seed in range(3):
        _, problem = cellular_problem(seed)
        sol = dmmse_solve(problem, AlgorithmConfig(algorithm="dmmse"))
        assert sol.converged
        assert sol.diagnostics["max_violation"] <= 1e-2
        for k in range(problem.num_users):
            e = mse_matrix_mmse(problem, sol.precoders, k)
            assert offdiag_mass(e) <= 1e-8


def test_dmmse_priced_descent_at_fixed_multipliers():
    # the inner alternation minimizes wsmse + lam.(usage - P); its trace is
    # non-increasing when the multipliers are frozen
    for seed in range(3):
        _, problem = cellular_problem(seed)
        cfg = AlgorithmConfig(algorithm="dmmse", subgradient_step=0.0,
                              lambda_init=0.5, max_outer=120, max_inner=40)
        sol = dmmse_solve(problem, cfg)
        priced = sol.diagnostics["priced_trace"]
        assert len(priced) > 10
        assert all(b <= a + 1e-9 for a, b in zip(priced, priced[1:]))


def test_dmmse_rejects_non_diagonal_weights():
    _, problem = cellular_problem(0)
    w = np.full((2, 2), 0.5) + np.eye(2)
    weights = problem.mse_weights.copy()
    weights[0] = w
    bad = replace(problem, mse_weights=weights)
    from netmimo.errors import ContractViolationError
    with pytest.raises(ContractViolationError):
        dmmse_solve(bad, AlgorithmConfig(algorithm="dmmse"))


# ---------------------------------------------------------------------------
# emmseia
# ---------------------------------------------------------------------------

def test_emmseia_precoder_formula_scalar():
    # (H^H A W A^H H + mu Phi)^{-1} H^H A W = (0.25 + 0.25)^{-1} 0.5 = 1
    problem = single_pair_problem(np.array([[1.0]]))
    b = emmseia_precoder_update(problem, [np.array([[0.5 + 0j]])], [np.eye(1)], np.array([0.25]))
    assert np.allclose(b[0], [[1.0]])


def test_emmseia_zero_channels():
    problem = zero_problem()
    sol = emmseia_solve(problem, AlgorithmConfig(algorithm="emmseia", max_outer=50))
    assert all(np.linalg.norm(b) == 0.0 for b in sol.precoders)
    assert np.all(np.abs(sol.multipliers * problem.budgets) <= 1e-3)


def test_emmseia_feasibility_and_slackness():
    for seed in range(3):
        _, problem = cellular_problem(seed)
        sol = emmseia_solve(problem, AlgorithmConfig(algorithm="emmseia"))
        usage = constraint_usage(problem, sol.precoders)
        assert np.all(usage <= problem.budgets * 1.01)
        assert np.all(np.abs(sol.multipliers * (problem.budgets - usage)) <= 1e-3 * problem.budgets)


def test_emmseia_joint_descent_at_fixed_multipliers():
    # with mu frozen at zero both half-steps minimize the plain weighted MSE
    _, problem = cellular_problem(1)
    weights = list(problem.mse_weights)
    precoders = initialize_precoders(problem, AlgorithmConfig())
    mu = np.zeros(problem.num_constraints)
    values = []
    for _ in range(40):
        equalizers = [mmse_equalizer(problem, precoders, k) for k in range(problem.num_users)]
        precoders = emmseia_precoder_update(problem, equalizers, weights, mu)
        equalizers = [mmse_equalizer(problem, precoders, k) for k in range(problem.num_users)]
        values.append(wsmse_objective(problem, precoders, equalizers))
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    # with mu frozen at a positive value the priced objective descends
    mu = np.full(problem.num_constraints, 0.4)
    precoders = initialize_precoders(problem, AlgorithmConfig())
    priced = []
    for _ in range(40):
        equalizers = [mmse_equalizer(problem, precoders, k) for k in range(problem.num_users)]
        precoders = emmseia_precoder_update(problem, equalizers, weights, mu)
        equalizers = [mmse_equalizer(problem, precoders, k) for k in range(problem.num_users)]
        usage = constraint_usage(problem, precoders)
        priced.append(
            wsmse_objective(problem, precoders, equalizers)
            + float(np.dot(mu, usage - problem.budgets))
        )
    assert all(b <= a + 1e-9 for a, b in zip(priced, priced[1:]))


def reference_emmseia_search(problem, equalizers, weights, mu, constraint_tol, max_iters=300):
    """The KKT multiplier search that _emmseia_multiplier_search replaced,
    kept as its oracle: the priced systems rebuilt from the grams at every
    step (here by the dense multiplier sum, the bits of the program's
    pricing on supports) and the usage recomputed through constraint_usage.
    Its slackness test and multiplier step work on arrays; the program's on
    Python floats of the M budgets make the same IEEE operations, so the
    multipliers carry the same bits."""
    from netmimo.algorithms import LAMBDA_CAP, SLACKNESS_TOL, _emmseia_factors

    budgets = problem.budgets
    mu = np.asarray(mu, dtype=float).copy()
    grams, rhs = _emmseia_factors(problem, equalizers, weights)
    precoders = dense_emmseia_solve_at(problem, grams, rhs, mu)
    usage = constraint_usage(problem, precoders)
    for step in range(max_iters + 1):
        slack_ok = bool(np.all(np.abs(mu * (budgets - usage)) <= SLACKNESS_TOL * budgets))
        if step == max_iters or (slack_ok and np.all(usage <= budgets * (1.0 + constraint_tol))):
            break
        ratio = usage / budgets
        mu = mu * np.minimum(np.maximum(1.0 + 0.5 * (ratio - 1.0), 0.5), 2.0)
        top = float(np.max(mu, initial=0.0))
        seeded = (mu == 0.0) & (ratio > 1.0)
        if seeded.any():
            mu[seeded] = seed = 1e-6 * max(1.0, top)
            top = max(top, seed)
        mu[mu < 1e-14 * max(1.0, top)] = 0.0
        if top > LAMBDA_CAP:
            raise NumericalFailureError("multiplier search diverged")
        precoders = dense_emmseia_solve_at(problem, grams, rhs, mu)
        usage = constraint_usage(problem, precoders)
    return mu, precoders, usage, slack_ok


def assert_search_matches_reference(problem, mu, passes=4, max_iters=300):
    """Run ``passes`` emmseia srm passes from the scaled-identity start with
    the search and with its oracle, each stopped after ``max_iters`` steps,
    and require the same bits of (mu, precoders, usage, slack_ok) at every
    pass."""
    from netmimo.algorithms import _emmseia_multiplier_search

    precoders = problem.precoders(initialize_precoders(problem, AlgorithmConfig()))
    for _ in range(passes):
        rx = ReceiveSide(problem, precoders)
        equalizers, weights = rx.equalizers, rx.weights
        got = _emmseia_multiplier_search(problem, equalizers, weights, mu, 0.005, max_iters)
        want = reference_emmseia_search(problem, equalizers, weights, mu, 0.005, max_iters)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        mu, precoders = got[0], got[1]


@pytest.mark.parametrize("kappa", [1, 2, 3, 5])
def test_multiplier_search_matches_its_reference_on_cellular_problems(kappa):
    # K = 10 users of the cooperation sweep: on constraint supports the
    # search rewrites only the systems' diagonal, with the reference's bits
    rng = np.random.default_rng(60 + kappa)
    for seed in range(2):
        _, problem = cellular_problem(seed, cluster_size=5, users_per_cell=2, cooperation_factor=kappa)
        assert problem.constraint_supports is not None
        assert_search_matches_reference(problem, np.ones(problem.num_constraints))
        assert_search_matches_reference(problem, random_multipliers(rng, problem.num_constraints))


def test_multiplier_search_matches_its_reference_on_dense_weights():
    _, problem = cellular_problem(0)
    q = random_unitaries(np.random.default_rng(61), problem.num_users, problem.channels.shape[-1])
    rotated = rotate_transmit_spaces(problem, q)
    assert rotated.constraint_supports is None
    assert_search_matches_reference(rotated, np.ones(rotated.num_constraints))


def test_multiplier_search_matches_its_reference_through_the_singular_fallback(monkeypatch):
    # user 0's last transmit coordinate reaches no receiver, so its gram has
    # a zero row and column; at a zero multiplier on the BS that drives it
    # the batched solve fails and that user is solved by least squares
    _, problem = cellular_problem(0)
    channels = problem.channels.copy()
    channels[:, 0, :, -1] = 0.0
    problem = replace(problem, channels=channels)
    mu = np.ones(problem.num_constraints)
    mu[problem.constraint_supports[0, :, -1] != 0] = 0.0
    pinv_calls = []
    pinv = np.linalg.pinv

    def counting_pinv(a, *args, **kwargs):
        pinv_calls.append(np.shape(a))
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
    # stopped at the first solve, whose least-squares precoders it returns,
    # and run to the slackness conditions
    assert_search_matches_reference(problem, mu, passes=1, max_iters=0)
    assert_search_matches_reference(problem, mu, passes=1)
    assert len(pinv_calls) == 4  # once per run, in the search and in its reference


def permuted(system, order):
    """``system`` with its users taken in ``order``."""
    return replace(system, channels=system.channels[order],
                   serving_sets=tuple(system.serving_sets[k] for k in order),
                   streams=tuple(system.streams[k] for k in order))


def test_multiplier_search_matches_its_reference_on_mixed_systems(mixed_systems):
    # padded problems whose users differ in serving-set size or streams
    rng = np.random.default_rng(64)
    for system in mixed_systems.values():
        problem = build_interference_problem(system)
        assert_search_matches_reference(problem, np.ones(problem.num_constraints))
        assert_search_matches_reference(problem, random_multipliers(rng, problem.num_constraints))


def test_multiplier_search_matches_its_reference_in_any_user_order():
    # the systems of the transmit sets solved for their users side by side,
    # against the per-user oracle: users in set order with sets of equal
    # size, the same users permuted, and a permuted draw with sets of
    # unequal size
    rng = np.random.default_rng(65)
    home, _ = cellular_problem(2, cluster_size=5, users_per_cell=2, cooperation_factor=1)
    home = replace(home, serving_sets=tuple((k // 2,) for k in range(home.num_users)))
    draw, _ = cellular_problem(1, cluster_size=5, users_per_cell=2, cooperation_factor=3)
    order = rng.permutation(home.num_users)
    for system in (home, permuted(home, order), permuted(draw, order)):
        problem = build_interference_problem(system)
        assert 1 < len(problem.transmit_sets.representatives) < problem.num_users
        assert_search_matches_reference(problem, np.ones(problem.num_constraints))
        assert_search_matches_reference(problem, random_multipliers(rng, problem.num_constraints))


def test_multiplier_search_matches_its_reference_through_a_shared_singular_system(monkeypatch):
    # at kappa = 5 all ten users share one system; with their last transmit
    # coordinate reaching no receiver and a zero multiplier on the BS that
    # drives it, that system is singular and each user is solved alone by
    # least squares, as the per-user oracle does
    _, problem = cellular_problem(0, cluster_size=5, users_per_cell=2, cooperation_factor=5)
    channels = problem.channels.copy()
    channels[..., -1] = 0.0
    problem = replace(problem, channels=channels)
    assert len(problem.transmit_sets.representatives) == 1
    mu = np.ones(problem.num_constraints)
    mu[problem.constraint_supports[0, :, -1] != 0] = 0.0
    pinv_calls = []
    pinv = np.linalg.pinv

    def counting_pinv(a, *args, **kwargs):
        pinv_calls.append(np.shape(a))
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
    assert_search_matches_reference(problem, mu, passes=1, max_iters=0)
    assert len(pinv_calls) == 2 * problem.num_users  # once per user, in the search and in its reference
    assert_search_matches_reference(problem, mu, passes=1)


def array_multiplier_step(mu, usage, budgets):
    """The multiplier step of reference_emmseia_search on arrays."""
    from netmimo.algorithms import LAMBDA_CAP

    ratio = usage / budgets
    mu = mu * np.minimum(np.maximum(1.0 + 0.5 * (ratio - 1.0), 0.5), 2.0)
    top = float(np.max(mu, initial=0.0))
    seeded = (mu == 0.0) & (ratio > 1.0)
    if seeded.any():
        mu[seeded] = seed = 1e-6 * max(1.0, top)
        top = max(top, seed)
    mu[mu < 1e-14 * max(1.0, top)] = 0.0
    if top > LAMBDA_CAP:
        raise NumericalFailureError("multiplier search diverged")
    return mu


def test_float_multiplier_step_gives_the_bits_or_the_error_of_the_array_step():
    from netmimo.algorithms import LAMBDA_CAP, _multiplier_step

    def outcome(step, mu, usage, budgets):
        try:
            return np.array(step(mu, usage, budgets), dtype=float).tobytes()
        except NumericalFailureError as exc:
            return str(exc)

    def same(mu, usage, budgets):
        mu, usage, budgets = (np.array(v, dtype=float) for v in (mu, usage, budgets))
        got = outcome(_multiplier_step, mu.tolist(), usage.tolist(), budgets.tolist())
        assert got == outcome(array_multiplier_step, mu, usage, budgets)
        return got

    rng = np.random.default_rng(62)
    for _ in range(300):
        budgets = 10.0 ** rng.uniform(-2, 2, 5)
        same(random_multipliers(rng, 5), budgets * 10.0 ** rng.uniform(-3, 3, 5), budgets)
    budgets = [1.0, 2.0, 0.5, 4.0, 1.0]
    # a NaN usage: NaN multiplier and NaN maximum, so the cut stays at 1e-14
    # where a maximum of 1e3 would zero the 1e-12
    stepped = np.frombuffer(same([1.0, 0.3, 0.0, 1e3, 1e-12], [1.0, np.nan, 0.25, 4.0, 1.0], budgets))
    assert np.isnan(stepped[1]) and stepped[[0, 2, 3, 4]].tolist() == [1.0, 0.0, 1e3, 1e-12]
    # the zero-multiplier reseed, on violated constraints only
    stepped = np.frombuffer(same([0.0, 0.0, 3.0, 0.0, 0.0], [2.0, 1.0, 0.1, 4.1, 0.2], budgets))
    assert stepped[2] == 3.0 * 0.6 and stepped.tolist() == [1e-6 * stepped[2], 0.0, stepped[2], 1e-6 * stepped[2], 0.0]
    # a multiplier past the cap, and one just below it
    assert same([0.0, LAMBDA_CAP, 1.0, 1.0, 1.0], [2.0, 3.0, 1.0, 1.0, 1.0], budgets) == "multiplier search diverged"
    assert same([0.0, LAMBDA_CAP / 2, 1.0, 1.0, 1.0], [2.0, 4.0, 1.0, 1.0, 1.0], budgets) != \
        "multiplier search diverged"


@pytest.mark.parametrize("objective", ["wsmmse", "srm"])
def test_emmseia_reports_its_search_solves(objective, monkeypatch):
    from netmimo import algorithms

    calls = []
    solve = algorithms._solve_systems

    def spy(systems, rhs):
        calls.append(len(systems))
        return solve(systems, rhs)

    monkeypatch.setattr(algorithms, "_solve_systems", spy)
    _, problem = cellular_problem(1)
    solution = emmseia_solve(problem, AlgorithmConfig(algorithm="emmseia", objective=objective))
    assert solution.diagnostics["search_steps"] == len(calls) > solution.iterations


def rotated_problem():
    """cellular_problem(0) with every transmit space turned by its own
    unitary: general constraint weights, and no two users' transmit sides
    alike."""
    _, problem = cellular_problem(0)
    return rotate_transmit_spaces(problem, random_unitaries(np.random.default_rng(61), problem.num_users,
                                                             problem.channels.shape[-1]))


@pytest.mark.parametrize("case, systems", [("kappa5", 1), ("kappa1", 5), ("rotated", 3)])
def test_emmseia_factors_one_system_per_transmit_set(case, systems, monkeypatch):
    # every search step makes one _solve_systems call on the S systems of
    # the transmit sets, with the g users of a set side by side; the
    # diagnostics report S as search_systems beside the search_steps
    from netmimo import algorithms

    if case == "rotated":
        problem = rotated_problem()
        assert problem.constraint_supports is None
    else:
        _, problem = cellular_problem(0, cluster_size=5, users_per_cell=2, cooperation_factor=int(case[-1]))
    calls = []
    solve = algorithms._solve_systems

    def spy(systems, rhs):
        calls.append((systems.shape, rhs.shape))
        return solve(systems, rhs)

    monkeypatch.setattr(algorithms, "_solve_systems", spy)
    solution = emmseia_solve(problem, AlgorithmConfig(algorithm="emmseia", max_outer=100))
    sets = problem.transmit_sets
    n, d = problem.channels.shape[-1], problem.mse_weights.shape[-1]
    assert solution.diagnostics["search_systems"] == len(sets.representatives) == systems
    assert solution.diagnostics["search_steps"] == len(calls) > solution.iterations
    assert set(calls) == {((systems, n, n), sets.shape)} and sets.shape[0::3] == (systems, d)


def test_transmit_sets_group_users_with_one_transmit_side():
    # at kappa = 1 the users one BS serves share a set, numbered by their
    # first user; a channel column or constraint weights of its own split a
    # user off
    system, problem = cellular_problem(0, cluster_size=5, users_per_cell=2, cooperation_factor=1)
    sets = problem.transmit_sets
    serving = system.serving_sets
    k_users = problem.num_users
    for k in range(k_users):
        for l in range(k_users):
            assert (sets.set_of[k] == sets.set_of[l]) == (serving[k] == serving[l])
    assert sets.set_of[0] == sets.set_of[8] and len(sets.representatives) == 5
    assert sets.representatives.tolist() == [sets.set_of.tolist().index(s) for s in range(5)]
    assert sorted(zip(sets.set_of.tolist(), sets.slot.tolist())) == \
        [(s, j) for s in range(5) for j in range(int(np.sum(sets.set_of == s)))]
    assert sets.shape == (5, problem.channels.shape[-1], 3, problem.mse_weights.shape[-1])
    channels = problem.channels.copy()
    channels[:, 0, :, -1] = 0.0
    constraints = problem.constraints.copy()
    constraints[0, [0, 1]] = constraints[0, [1, 0]]  # BSs 0 and 1 trade user 0's weights
    for changed in (replace(problem, channels=channels), replace(problem, constraints=constraints)):
        split = changed.transmit_sets
        assert split.set_of[0] not in split.set_of[1:] and len(split.representatives) == 6
    assert len(rotated_problem().transmit_sets.representatives) == 3


# ---------------------------------------------------------------------------
# pwf
# ---------------------------------------------------------------------------

def test_pwf_scalar_closed_form():
    # lam=1, Phi=1, H=2, Omega=1, P=1: gain 4, water level 0.8, Sigma = 1
    # with the precoder factor B B^H = Sigma
    problem = single_pair_problem(np.array([[2.0]]))
    from netmimo.algorithms import _pwf_duals, _pwf_forward
    zero = np.zeros((1, 1, 1), dtype=complex)
    omegas = ReceiveSide(problem, zero).omegas
    factor, mu = _pwf_forward(problem, omegas, zero, np.array([1.0]))
    assert mu == pytest.approx(0.8, abs=1e-6)
    assert abs(factor[0][0, 0]) ** 2 == pytest.approx(1.0, abs=1e-6)
    duals = _pwf_duals(ReceiveSide(problem, factor), mu)
    assert duals[0][0, 0].real == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
def test_pwf_receive_side_matches_the_covariance_formulas(scale, mixed_problems):
    # the reversed-link covariances (1/mu) Z E Z^H equal the defining
    # (1/mu) (Omega^{-1} - (Omega + S S^H)^{-1}), and the rate from the
    # gains equals sum_k log2 det(Omega_k + S_k S_k^H) - log2 det Omega_k,
    # on each user's own block; the padding carries nothing
    from netmimo.algorithms import _pwf_duals
    from netmimo.model import interference_covariance

    mu = 0.7
    for problem in mixed_problems.values():
        cut = initialize_precoders(problem, AlgorithmConfig(initialization="random_orthonormal", init_seed=5))
        cut = [scale * b for b in cut]
        side = ReceiveSide(problem, cut)
        omegas, duals, rate = side.omegas, _pwf_duals(side, mu), side.rate
        want_rate = 0.0
        for k, (dual, rx) in enumerate(zip(duals, problem.rx_dims)):
            omega = interference_covariance(problem, cut, k)
            s = problem.direct_channel(k) @ cut[k]
            total = omega + s @ s.conj().T
            want = (np.linalg.inv(omega) - np.linalg.inv(total)) / mu
            bound = 1e-10 * np.linalg.norm(np.linalg.inv(omega)) / mu
            assert np.linalg.norm(dual[:rx, :rx] - want) <= bound, (k, scale)
            assert not np.any(dual[rx:]) and not np.any(dual[:, rx:])
            assert np.allclose(omegas[k][:rx, :rx], omega, rtol=0, atol=1e-12 * np.linalg.norm(omega))
            want_rate += (np.linalg.slogdet(total)[1] - np.linalg.slogdet(omega)[1]) / np.log(2.0)
        assert rate == pytest.approx(want_rate, rel=1e-10, abs=0.0)


def test_pwf_evaluates_one_receive_side_per_pass(monkeypatch):
    # one interference-covariance stack per pass, plus the initial one
    from netmimo import model
    calls, covariances = [], model.interference_covariances

    def spy(problem, precoders):
        calls.append(np.shape(precoders))
        return covariances(problem, precoders)

    monkeypatch.setattr(model, "interference_covariances", spy)
    for seed in range(2):
        calls.clear()
        _, problem = cellular_problem(seed)
        sol = pwf_solve(problem, AlgorithmConfig(algorithm="pwf", objective="srm"))
        assert sol.iterations > 1 and len(calls) == sol.iterations + 1


def test_pwf_multiplicative_update_direction():
    # twice the budget in use doubles the price before damping; the damped
    # update moves the same direction
    _, problem = cellular_problem(2)
    sol = pwf_solve(problem, AlgorithmConfig(algorithm="pwf", objective="srm"))
    assert sol.converged
    usage = constraint_usage(problem, sol.precoders)
    assert np.all(usage <= problem.budgets * 1.01)


def test_pwf_fixed_point_structure():
    for seed in range(3):
        _, problem = cellular_problem(seed)
        sol = pwf_solve(problem, AlgorithmConfig(algorithm="pwf", objective="srm"))
        assert sol.converged
        residual = pwf_fixed_point_residual(problem, sol.diagnostics["state"])
        assert residual <= 1e-6


def test_pwf_reports_where_its_polish_started():
    _, problem = cellular_problem(0)
    config = AlgorithmConfig(algorithm="pwf", objective="srm")
    sol = pwf_solve(problem, config)
    start = sol.diagnostics["polish_start"]
    assert 0 < start < sol.iterations
    # with one polish pass the solve stops one pass after its polish starts,
    # on the same pricing trace
    short = pwf_solve(problem, replace(config, max_inner=1))
    assert short.diagnostics["polish_start"] == start == short.iterations - 1
    assert np.array_equal(short.trace[:start], sol.trace[:start])
    # pricing that never meets its exit test starts no polish
    capped = pwf_solve(problem, replace(config, max_outer=3))
    assert capped.iterations == 3 and capped.diagnostics["polish_start"] is None



def test_pwf_without_direct_signal_raises():
    # zero direct channels give no usable gain, so no water level can spend
    # the multiplier-weighted budget
    zero, eye = np.zeros((2, 2)), np.eye(2)
    problem = InterferenceProblem.from_blocks([[zero, eye], [eye, zero]], [[eye], [eye]], [1.0], [1, 1],
                                              [np.eye(1)] * 2)
    with pytest.raises(NumericalFailureError, match="waterfilling cannot meet the multiplier-weighted budget"):
        pwf_solve(problem, AlgorithmConfig(algorithm="pwf", objective="srm"))


def test_dual_loop_solvers_report_their_stop():
    # three pricing passes cannot meet an exit test that needs six stable
    # passes, so they end on the cap (dmmse's flag does not read the stop:
    # its polish can settle the capped iterate and report it converged);
    # the default solves stop on their exit test
    _, problem = cellular_problem(0)
    for solver, algorithm, objective in ((dmmse_solve, "dmmse", "wsmmse"), (emmseia_solve, "emmseia", "wsmmse"),
                                         (pwf_solve, "pwf", "srm")):
        config = AlgorithmConfig(algorithm=algorithm, objective=objective)
        capped = solver(problem, replace(config, max_outer=3))
        assert capped.diagnostics["stop"] == "pass_cap", algorithm
        assert capped.iterations > 3 if algorithm == "dmmse" else capped.iterations == 3 and not capped.converged
        sol = solver(problem, config)
        assert sol.converged and sol.diagnostics["stop"] == "exit_test", algorithm


def test_exit_test_fails_on_a_nan_violation():
    # the multi-user exit test holds on a stable trace within the bounds,
    # and fails on a NaN violation or residual, with or without a solver's
    # own test in place of the residual
    from netmimo.algorithms import _exit_test

    config, stable, nan = AlgorithmConfig(), [1.0] * 6, float("nan")
    for holds in (None, lambda: True):
        test = _exit_test(config, holds)
        assert test(stable, 0.0, 0.0) and not test(stable[:5], 0.0, 0.0)
        assert not test(stable, nan, 0.0) and not test(stable, 2 * config.constraint_tol, 0.0)
    assert not _exit_test(config)(stable, 0.0, nan) and _exit_test(config, lambda: True)(stable, 0.0, nan)
    assert not _exit_test(config, lambda: False)(stable, 0.0, 0.0)


def test_stream_order_is_found_once_per_fixed_weight_solve(monkeypatch):
    # fixed weights are ranked once per solve; srm's move every pass
    from netmimo import algorithms, single_user
    calls = []

    def spy(weights):
        calls.append(weights.shape)
        return stream_order(weights)

    monkeypatch.setattr(single_user, "stream_order", spy)
    monkeypatch.setattr(algorithms, "stream_order", spy)
    result = solve_multi_constraint(antenna_link(np.random.default_rng(44)))
    assert result.iterations > 1 and calls == [(1, 2)]
    _, problem = cellular_problem(0)
    for objective in ("wsmmse", "srm"):
        calls.clear()
        sol = dmmse_solve(problem, AlgorithmConfig(objective=objective))
        assert sol.iterations > 1
        assert len(calls) == (sol.iterations if objective == "srm" else 1), objective
        assert set(calls) == {problem.mse_weights.shape[:2]}


def test_pwf_stream_truncation():
    _, problem = cellular_problem(3, streams=1)
    sol = pwf_solve(problem, AlgorithmConfig(algorithm="pwf", objective="srm"))
    for b in sol.precoders:
        assert b.shape[1] == 1
    assert sol.diagnostics["max_violation"] <= 1e-2


# ---------------------------------------------------------------------------
# min_leakage
# ---------------------------------------------------------------------------

def test_min_leakage_single_user_zero():
    rng = np.random.default_rng(4)
    chans = rng.standard_normal((1, 2, 2, 2)) + 1j * rng.standard_normal((1, 2, 2, 2))
    system = PartialCooperationSystem(nt=2, nr=2, bs_power=[1.0, 1.0], channels=chans,
                                      serving_sets=((0, 1),), streams=(1,))
    sol = min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage"))
    assert sol.trace[-1] == pytest.approx(0.0, abs=1e-15)
    a = sol.equalizers[0]
    assert np.allclose(a.conj().T @ a, np.eye(1), atol=1e-10)


def test_min_leakage_orthogonal_alignment():
    # interference confined to the first receive coordinate: the single-stream
    # receive filter is the second basis vector and leaks nothing
    rng = np.random.default_rng(5)
    chans = np.zeros((2, 2, 2, 2), dtype=complex)
    chans[:, :, 0, :] = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    system = PartialCooperationSystem(nt=2, nr=2, bs_power=[1.0, 1.0], channels=chans,
                                      serving_sets=((0,), (1,)), streams=(1, 1))
    sol = min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage"))
    assert sol.trace[-1] == pytest.approx(0.0, abs=1e-12)
    assert abs(sol.equalizers[0][1, 0]) == pytest.approx(1.0, abs=1e-10)


def test_min_leakage_monotone_and_orthonormal():
    rng = np.random.default_rng(6)
    chans = rng.standard_normal((3, 3, 2, 4)) + 1j * rng.standard_normal((3, 3, 2, 4))
    system = PartialCooperationSystem(nt=4, nr=2, bs_power=[1.0, 1.0, 1.0], channels=chans,
                                      serving_sets=((0, 1), (1, 2), (0, 2)), streams=(1, 1, 1))
    sol = min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage"))
    assert all(b <= a + 1e-12 for a, b in zip(sol.trace, sol.trace[1:]))
    state = sol.diagnostics["state"]
    for user_factors in state.factors:
        for f in user_factors:
            assert np.allclose(f.conj().T @ f, np.eye(f.shape[1]), atol=1e-10)
    for a in state.equalizers:
        assert np.allclose(a.conj().T @ a, np.eye(a.shape[1]), atol=1e-10)
    # equal power split uses each BS budget exactly
    problem = build_interference_problem(system)
    assert np.allclose(constraint_usage(problem, sol.precoders), system.bs_power, atol=1e-10)


def test_min_leakage_transmit_receive_conjugacy():
    # the receive-side and transmit-side quadratic forms express the same
    # leakage value
    rng = np.random.default_rng(7)
    chans = rng.standard_normal((3, 2, 2, 3)) + 1j * rng.standard_normal((3, 2, 2, 3))
    system = PartialCooperationSystem(nt=3, nr=2, bs_power=[2.0, 1.0], channels=chans,
                                      serving_sets=((0,), (0, 1), (1,)), streams=(1, 1, 1))
    sol = min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage", max_outer=3))
    state = sol.diagnostics["state"]
    served = [len(system.served_users(m)) for m in range(2)]
    coef = {
        (k, m): float(system.bs_power[m]) / (served[m] * system.streams[k])
        for k in range(3) for m in system.serving_sets[k]
    }
    recv = 0.0
    for k in range(3):
        q = np.zeros((2, 2), dtype=complex)
        for j in range(3):
            if j == k:
                continue
            for pos, m in enumerate(system.serving_sets[j]):
                hb = system.channels[k, m] @ state.factors[j][pos]
                q += coef[(j, m)] * hb @ hb.conj().T
        recv += float(np.trace(state.equalizers[k].conj().T @ q @ state.equalizers[k]).real)
    tran = 0.0
    for k in range(3):
        for pos, m in enumerate(system.serving_sets[k]):
            qh = np.zeros((3, 3), dtype=complex)
            for j in range(3):
                if j == k:
                    continue
                ha = system.channels[j, m].conj().T @ state.equalizers[j]
                qh += coef[(k, m)] * ha @ ha.conj().T
            f = state.factors[k][pos]
            tran += float(np.trace(f.conj().T @ qh @ f).real)
    assert recv == pytest.approx(tran, rel=1e-10)


def reference_min_leakage(system, config, initial=None):
    """The per-pair loop min_leakage_solve replaced, kept as its oracle:
    returns (trace, iterations, converged, factors, equalizers, precoders,
    usage) built one (user, BS) pair at a time."""
    k_users, nt, nr = system.num_users, system.nt, system.nr
    served_count = [len(system.served_users(m)) for m in range(system.num_bs)]
    coef = [{m: float(system.bs_power[m]) / (served_count[m] * system.streams[k])
             for m in system.serving_sets[k]} for k in range(k_users)]

    def smallest_eigvecs(mat, d):
        return np.linalg.eigh(0.5 * (mat + mat.conj().T))[1][:, :d]

    rng = np.random.default_rng(config.init_seed)
    if initial is not None:
        factors = [[np.asarray(b, dtype=complex) for b in user_factors] for user_factors in initial]
    else:
        factors = []
        for k in range(k_users):
            d = system.streams[k]
            user_factors = []
            for _ in system.serving_sets[k]:
                if config.initialization == "scaled_identity":
                    b = np.zeros((nt, d), dtype=complex)
                    b[:d, :] = np.eye(d)
                else:
                    z = rng.standard_normal((nt, d)) + 1j * rng.standard_normal((nt, d))
                    b, _ = np.linalg.qr(z)
                user_factors.append(b)
            factors.append(user_factors)

    def interference_form(k):
        q = np.zeros((nr, nr), dtype=complex)
        for j in range(k_users):
            if j == k:
                continue
            for pos, m in enumerate(system.serving_sets[j]):
                hb = system.channels[k, m] @ factors[j][pos]
                q += coef[j][m] * (hb @ hb.conj().T)
        return 0.5 * (q + q.conj().T)

    def leakage(equalizers):
        total = 0.0
        for k in range(k_users):
            q = interference_form(k)
            total += float(np.trace(equalizers[k].conj().T @ q @ equalizers[k]).real)
        return total

    equalizers = [None] * k_users
    trace, iterations, converged, prev_round = [], 0, False, None
    for j in range(1, config.max_outer + 1):
        iterations = j
        for k in range(k_users):
            equalizers[k] = smallest_eigvecs(interference_form(k), system.streams[k])
        trace.append(leakage(equalizers))
        for k in range(k_users):
            for pos, m in enumerate(system.serving_sets[k]):
                qhat = np.zeros((nt, nt), dtype=complex)
                for i in range(k_users):
                    if i == k:
                        continue
                    ha = system.channels[i, m].conj().T @ equalizers[i]
                    qhat += coef[k][m] * (ha @ ha.conj().T)
                factors[k][pos] = smallest_eigvecs(qhat, system.streams[k])
        trace.append(leakage(equalizers))
        if prev_round is not None and abs(trace[-1] - prev_round) <= config.inner_tol * max(1.0, trace[-1]):
            converged = True
            break
        if trace[-1] <= 1e-15:
            converged = True
            break
        prev_round = trace[-1]

    precoders = []
    usage = np.zeros(system.num_bs)
    for k in range(k_users):
        sset = system.serving_sets[k]
        precoders.append(np.vstack([np.sqrt(coef[k][m]) * factors[k][pos] for pos, m in enumerate(sset)]))
        for pos, m in enumerate(sset):
            usage[m] += coef[k][m] * float(np.linalg.norm(factors[k][pos])) ** 2
    return trace, iterations, converged, factors, equalizers, precoders, usage


def _leakage_outputs(sol):
    state = sol.diagnostics["state"]
    return (sol.trace, sol.iterations, sol.converged, state.factors, state.equalizers,
            sol.precoders, sol.diagnostics["usage"])


def _flat(field):
    """The arrays of a (nested) list of arrays, in order."""
    if isinstance(field, np.ndarray):
        return [field]
    return [a for item in field for a in _flat(item)]


def _assert_identical(got, expected):
    """Same trace, iterations and convergence, and every factor, equalizer,
    precoder and usage array equal bit for bit."""
    assert got[:3] == expected[:3]
    for got_field, want_field in zip(got[3:], expected[3:]):
        pairs = list(zip(_flat(got_field), _flat(want_field)))
        assert len(pairs) == len(_flat(want_field))
        assert all(np.array_equal(g, w) and g.shape == w.shape for g, w in pairs)


LEAKAGE_CONFIGS = {
    "default": AlgorithmConfig(algorithm="min_leakage"),
    "long": AlgorithmConfig(algorithm="min_leakage", max_outer=6, inner_tol=1e-12),
    "random_init": AlgorithmConfig(algorithm="min_leakage", initialization="random_orthonormal",
                                   init_seed=3),
}


@pytest.mark.parametrize("sectors", [1, 3, 6])
@pytest.mark.parametrize("name", sorted(LEAKAGE_CONFIGS))
def test_min_leakage_matches_per_pair_reference_bit_for_bit(name, sectors):
    # uniform drops (the sector_drops shape): the batched solve reproduces
    # the per-pair loop exactly
    config = LEAKAGE_CONFIGS[name]
    for seed in range(3):
        system = realize(ScenarioConfig(cluster_size=7, nt=6, nr=2, streams=2, cooperation_factor=2,
                                        sectors=sectors), np.random.default_rng(seed))
        sol = min_leakage_solve(system, config)
        _assert_identical(_leakage_outputs(sol), reference_min_leakage(system, config))
        assert all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(sol.trace, sol.trace[1:]))


def test_min_leakage_initial_factors_match_reference():
    system, _ = cellular_problem(5)
    rng = np.random.default_rng(8)
    initial = [[np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
                for _ in sset] for sset in system.serving_sets]
    config = LEAKAGE_CONFIGS["long"]
    _assert_identical(_leakage_outputs(min_leakage_solve(system, config, initial=initial)),
                      reference_min_leakage(system, config, initial=initial))


@pytest.mark.parametrize("name", sorted(LEAKAGE_CONFIGS))
def test_min_leakage_padded_pairs_match_reference(name, mixed_systems):
    # users that differ in serving-set size and stream count run on the
    # padded stack and agree with the per-pair loop to rounding
    config = LEAKAGE_CONFIGS[name]
    for system in mixed_systems.values():
        sol = min_leakage_solve(system, config)
        got = _leakage_outputs(sol)
        expected = reference_min_leakage(system, config)
        assert got[1:3] == expected[1:3]
        assert np.allclose(got[0], expected[0], rtol=1e-12, atol=1e-12)
        for got_field, want_field in zip(got[3:], expected[3:]):
            pairs = list(zip(_flat(got_field), _flat(want_field)))
            assert all(g.shape == w.shape for g, w in pairs)
            assert max(float(np.max(np.abs(g - w))) for g, w in pairs) <= 1e-12
        assert all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(sol.trace, sol.trace[1:]))
        assert np.allclose(sol.diagnostics["usage"], system.bs_power, rtol=1e-12)


def test_min_leakage_rejects_more_streams_than_antennas(mixed_systems):
    # 3 streams from 2-antenna BSs: no pair factor has 3 orthonormal columns
    from dataclasses import replace

    from netmimo.errors import ContractViolationError
    system = replace(mixed_systems["serving_sets"], streams=(1, 2, 3, 2))
    with pytest.raises(ContractViolationError):
        min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage"))


# ---------------------------------------------------------------------------
# sum-rate objective (the rate-maximizing reweighting loop)
# ---------------------------------------------------------------------------

def test_srm_single_user_matches_grid_oracle():
    rng = np.random.default_rng(8)
    h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    problem = single_pair_problem(h, budget=2.0)
    sol = dmmse_solve(problem, AlgorithmConfig(algorithm="dmmse", objective="srm"))
    rate = sum_rate(problem, sol.precoders)
    gains = np.sort(np.linalg.eigvalsh(h.conj().T @ h).real)[::-1][:2]
    best = 0.0
    for p1 in np.linspace(0.0, 2.0, 8001):
        best = max(best, np.log2(1 + p1 * gains[0]) + np.log2(1 + (2.0 - p1) * gains[1]))
    assert rate >= best * 0.99
    assert rate <= best * 1.0001


def test_srm_zero_channels():
    problem = zero_problem()
    sol = dmmse_solve(problem, AlgorithmConfig(algorithm="dmmse", objective="srm", max_outer=60))
    assert sum_rate(problem, sol.precoders) == pytest.approx(0.0, abs=1e-12)


def test_srm_initial_rotation_invariance():
    _, problem = cellular_problem(4)
    cfg = AlgorithmConfig(algorithm="dmmse", objective="srm",
                          initialization="random_orthonormal", init_seed=1)
    init = initialize_precoders(problem, cfg)
    rng = np.random.default_rng(9)
    rates = []
    for trial in range(4):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        rotated = [b @ q for b in init]
        sol = dmmse_solve(problem, cfg, initial=rotated)
        rates.append(sum_rate(problem, sol.precoders))
    assert max(rates) - min(rates) <= 1e-6 * max(1.0, max(rates))


def test_solver_determinism():
    _, problem = cellular_problem(5)
    cfg = AlgorithmConfig(algorithm="dmmse", objective="srm",
                          initialization="random_orthonormal", init_seed=7)
    a = dmmse_solve(problem, cfg)
    b = dmmse_solve(problem, cfg)
    assert a.trace == b.trace
    assert all(np.array_equal(x, y) for x, y in zip(a.precoders, b.precoders))


def criterion_8_over_budget_problem():
    # trial 15 at kappa=2 of the acceptance cooperation sweep: dmmse and
    # pwf both stop unconverged with a BS over its budget (2.6% and 13.4%)
    from netmimo.experiment import trial_rng

    rng = trial_rng(20260809 + 8, 0, 15)
    scenario = ScenarioConfig(cluster_size=5, users_per_cell=2, nt=4, nr=2, streams=2,
                              cooperation_factor=2, boundary_snr_db=20.0)
    return build_interference_problem(realize(scenario, rng))


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["dmmse", "pwf"])
def test_srm_unconverged_stop_is_scaled_into_every_budget(algorithm, monkeypatch):
    from netmimo import algorithms

    calls = []

    def spy(problem, precoders):
        rx = fit_to_budgets(problem, precoders)
        calls.append(([b.copy() for b in precoders], rx.precoders))
        return rx

    monkeypatch.setattr(algorithms, "fit_to_budgets", spy)
    problem = criterion_8_over_budget_problem()
    solver = dmmse_solve if algorithm == "dmmse" else pwf_solve
    cfg = AlgorithmConfig(algorithm=algorithm, objective="srm", max_outer=600, inner_tol=1e-5)
    sol = solver(problem, cfg)

    usage = constraint_usage(problem, sol.precoders)
    assert np.all(usage <= problem.budgets * (1.0 + cfg.constraint_tol))
    assert not sol.converged
    assert sol.diagnostics["unscaled_max_violation"] > 0.01
    assert sol.diagnostics["max_violation"] <= cfg.constraint_tol
    assert np.allclose(sol.diagnostics["usage"], usage, rtol=1e-12)
    for k, a in enumerate(sol.equalizers):
        assert np.allclose(a, mmse_equalizer(problem, sol.precoders, k), rtol=1e-10, atol=1e-12)

    assert len(calls) == 1
    unscaled, scaled = calls[0]
    assert all(np.array_equal(b, s) for b, s in zip(sol.precoders, scaled))
    unscaled_usage = constraint_usage(problem, unscaled)
    within = unscaled_usage <= problem.budgets
    assert np.any(within) and not np.all(within)
    for k in range(problem.num_users):
        for m in np.flatnonzero(within):
            rows = np.diag(problem.constraints[k][m]) != 0
            assert np.array_equal(scaled[k][rows], unscaled[k][rows])
    assert np.allclose(usage[~within], problem.budgets[~within], rtol=1e-12)


def test_fit_to_budgets_common_factor_for_overlapping_constraints():
    # a sum-power and a first-antenna constraint weigh the same rows, so no
    # row scaling can touch one constraint alone
    rng = np.random.default_rng(10)
    h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    first = np.diag([1.0, 0.0, 0.0]).astype(complex)
    problem = InterferenceProblem.from_blocks(
        channels=((h,),), constraints=((np.eye(3, dtype=complex), first),),
        budgets=[1.0, 0.2], streams=[2], mse_weights=(np.eye(2),),
    )
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    b *= 2.0 / np.linalg.norm(b)
    before = constraint_usage(problem, [b])
    rx = fit_to_budgets(problem, [b])
    scaled, usage = rx.precoders, rx.usage
    factor = np.sqrt(np.min(problem.budgets / before))
    assert np.allclose(scaled[0], factor * b)
    assert np.allclose(usage, constraint_usage(problem, scaled))
    assert np.all(usage <= problem.budgets * (1.0 + 1e-12))
    assert np.any(np.isclose(usage, problem.budgets, rtol=1e-12))


def test_fit_to_budgets_leaves_feasible_precoders_alone():
    _, problem = cellular_problem(6)
    precoders = initialize_precoders(problem, AlgorithmConfig())
    rx = fit_to_budgets(problem, precoders)
    scaled, usage = rx.precoders, rx.usage
    assert all(np.array_equal(b, s) for b, s in zip(precoders, scaled))
    assert np.array_equal(usage, constraint_usage(problem, precoders))


# ---------------------------------------------------------------------------
# block-mask pricing and batched reverse-link sums against the dense loops
# ---------------------------------------------------------------------------

def dense_priced_weights(problem, lam):
    """sum_m lam_m Phi_{k,m} over the dense constraint stack, from 0 in
    constraint order."""
    priced = 0
    for m in range(problem.num_constraints):
        priced = priced + lam[m] * problem.constraints[:, m]
    return priced


def dense_emmseia_solve_at(problem, grams, rhs, mu):
    """The emmseia linear solves with the dense multiplier sum, zero
    multipliers skipped, least squares for a singular user."""
    systems = grams
    for m in range(problem.num_constraints):
        if mu[m] != 0.0:
            systems = systems + mu[m] * problem.constraints[:, m]
    try:
        return np.linalg.solve(systems, rhs)
    except np.linalg.LinAlgError:
        pass
    precoders = np.empty_like(rhs)
    for k in range(problem.num_users):
        try:
            precoders[k] = np.linalg.solve(systems[k], rhs[k])
        except np.linalg.LinAlgError:
            precoders[k] = np.linalg.pinv(systems[k], hermitian=True) @ rhs[k]
    return precoders


def dense_constraint_usage(problem, precoders):
    """sum_k tr{Phi_{k,m} B_k B_k^H} as the elementwise contraction over the
    dense constraint stack, added in ascending k."""
    b = problem.precoders(precoders)
    bbh_t = (b @ b.conj().swapaxes(-1, -2)).swapaxes(-1, -2)
    usage = np.zeros(problem.num_constraints)
    for row in (problem.constraints * bbh_t[:, None]).sum(axis=(-2, -1)).real:
        usage += row
    return usage


def loop_reverse_link_sums(base, channels, mats):
    """(base + sum_l H_{l,k}^H X_l H_{l,k}, one transmitter l at a time, and
    the (K,) scales ||base_k|| + sum_l ||H_{l,k}||^2 ||X_l|| that bound the
    rounding of any summation order)."""
    out = np.array(np.broadcast_to(base, channels.shape[1:2] + channels.shape[-1:] * 2), dtype=complex)
    scales = np.linalg.norm(out, axis=(-2, -1))
    for l, x in enumerate(mats):
        out += channels[l].conj().swapaxes(-1, -2) @ x @ channels[l]
        scales += np.linalg.norm(channels[l], axis=(-2, -1)) ** 2 * np.linalg.norm(x)
    return out, scales


def pricing_problems(mixed_problems):
    return [cellular_problem(seed)[1] for seed in range(3)] + \
        [cellular_problem(4, cluster_size=5, users_per_cell=2, cooperation_factor=3)[1]] + \
        list(mixed_problems.values())


def random_multipliers(rng, m):
    """Positive multipliers spread over decades, about a third of them 0."""
    lam = 10.0 ** rng.uniform(-9, 3, m)
    lam[rng.random(m) < 0.35] = 0.0
    return lam


def test_block_mask_pricing_matches_the_dense_sums(mixed_problems):
    # the priced weights and emmseia's solves bit for bit; the one-product
    # reverse-link sums against the ascending-l loop to a few K eps of the
    # summed magnitudes, as BLAS orders the K m_r products of each entry
    from netmimo.algorithms import _emmseia_factors, _emmseia_solver
    from netmimo.model import reverse_link_sums

    rng = np.random.default_rng(41)
    for problem in pricing_problems(mixed_problems):
        supports = problem.constraint_supports
        assert supports is not None
        assert np.array_equal(supports != 0, np.diagonal(problem.constraints, axis1=-2, axis2=-1) != 0)
        precoders = problem.precoders(initialize_precoders(
            problem, AlgorithmConfig(initialization="random_orthonormal", init_seed=3)))
        equalizers = ReceiveSide(problem, precoders).equalizers
        grams, rhs = _emmseia_factors(problem, equalizers, problem.mse_weights)
        solve = _emmseia_solver(problem, grams, rhs)
        for _ in range(20):
            lam = random_multipliers(rng, problem.num_constraints)
            assert np.array_equal(priced_weights(problem.constraints, supports, lam),
                                  dense_priced_weights(problem, lam))
            assert np.array_equal(solve(lam), dense_emmseia_solve_at(problem, grams, rhs, lam))
        k, mr = problem.num_users, problem.channels.shape[-2]
        x = rng.standard_normal((k, mr, mr)) + 1j * rng.standard_normal((k, mr, mr))
        base = dense_priced_weights(problem, random_multipliers(rng, problem.num_constraints))
        for channels, links in ((problem.channels, problem.reverse_channels), (problem.cross, problem.reverse_cross)):
            for b in (None, base):
                want, scales = loop_reverse_link_sums(0.0 if b is None else b, channels, x)
                error = np.linalg.norm(reverse_link_sums(links, x, b) - want, axis=(-2, -1))
                assert np.all(error <= 4 * k * np.finfo(float).eps * scales)


def test_block_mask_usage_matches_the_dense_contraction(mixed_problems):
    # supports times the precoder row norms: the dense contraction up to
    # the rounding of the reordered sums
    rng = np.random.default_rng(43)
    for problem in pricing_problems(mixed_problems):
        assert problem.constraint_supports is not None
        for scale in (1e-6, 1.0, 1e4):
            precoders = problem.precoders(initialize_precoders(
                problem, AlgorithmConfig(initialization="random_orthonormal", init_seed=int(rng.integers(99)))))
            precoders = scale * precoders * rng.uniform(0.1, 2.0, precoders.shape[:-1])[..., None]
            want = dense_constraint_usage(problem, precoders)
            assert np.allclose(constraint_usage(problem, precoders), want, rtol=1e-14, atol=0.0)


def test_general_constraint_weights_take_the_dense_path():
    from netmimo.algorithms import _emmseia_solver

    rng = np.random.default_rng(42)
    h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    factors = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    first = np.diag([1.0, 0.0, 0.0]).astype(complex)
    weights = {
        "non_diagonal": tuple(f @ f.conj().T for f in factors),
        "overlapping": (np.eye(3, dtype=complex), first),
        "complex_diagonal": (np.diag([1.0, 2.0 + 1j, 0.0]), np.diag([0.0, 0.0, 1.0]).astype(complex)),
    }
    for constraints in weights.values():
        problem = InterferenceProblem.from_blocks(
            channels=((h,),), constraints=(constraints,), budgets=[1.0, 0.5], streams=[2],
            mse_weights=(np.eye(2),))
        assert problem.constraint_supports is None
        grams = np.eye(3, dtype=complex)[None] + 0.5
        rhs = rng.standard_normal((1, 3, 2)) + 1j * rng.standard_normal((1, 3, 2))
        for lam in ([0.3, 2.0], [0.0, 1.5]):
            lam = np.asarray(lam)
            assert np.array_equal(priced_weights(problem.constraints, None, lam), dense_priced_weights(problem, lam))
            assert np.array_equal(_emmseia_solver(problem, grams, rhs)(lam),
                                  dense_emmseia_solve_at(problem, grams, rhs, lam))
        precoders = rng.standard_normal((1, 3, 2)) + 1j * rng.standard_normal((1, 3, 2))
        assert np.array_equal(constraint_usage(problem, precoders), dense_constraint_usage(problem, precoders))


def rotate_transmit_spaces(problem, q):
    """The problem with user k's transmit space turned by the unitary q[k]:
    H_{l,k} -> H_{l,k} Q_k and Phi_{k,m} -> Q_k^H Phi_{k,m} Q_k."""
    qh = adjoint(q)
    return replace(problem, channels=problem.channels @ q[None],
                   constraints=qh[:, None] @ problem.constraints @ q[:, None])


def random_unitaries(rng, k, n):
    return np.linalg.qr(rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n)))[0]


@pytest.mark.parametrize("seed", range(3))
def test_rotated_transmit_spaces_solve_alike_on_general_weights(seed):
    # turning each transmit space by a unitary Q_k makes the block masks
    # general weights (no supports) of an equivalent problem: from the
    # turned start Q_k^H B_k^0, each dual-loop solver on the dense path
    # reaches the rates, usage and stop flag of the supports path
    _, problem = cellular_problem(seed)
    rng = np.random.default_rng(50 + seed)
    q = random_unitaries(rng, problem.num_users, problem.channels.shape[-1])
    rotated = rotate_transmit_spaces(problem, q)
    assert problem.constraint_supports is not None and rotated.constraint_supports is None
    for algorithm, objective, solver in (("dmmse", "wsmmse", dmmse_solve), ("dmmse", "srm", dmmse_solve),
                                         ("emmseia", "srm", emmseia_solve), ("pwf", "srm", pwf_solve)):
        config = AlgorithmConfig(algorithm=algorithm, objective=objective)
        initial = problem.precoders(initialize_precoders(problem, config))
        sol = solver(problem, config, list(initial))
        turned = solver(rotated, config, list(adjoint(q) @ initial))
        assert turned.converged == sol.converged
        assert sum_rate(rotated, turned.precoders) == pytest.approx(sum_rate(problem, sol.precoders), rel=1e-8)
        assert np.allclose(constraint_usage(rotated, turned.precoders), constraint_usage(problem, sol.precoders),
                           rtol=0, atol=1e-12)
    link = antenna_link(rng)
    q = random_unitaries(rng, 1, 4)[0]
    turned_link = replace(link, channel=link.channel @ q, constraints=adjoint(q) @ link.constraints @ q)
    assert turned_link.constraint_supports is None
    result, turned = solve_multi_constraint(link), solve_multi_constraint(turned_link)
    assert turned.converged == result.converged
    assert turned.wsmse == pytest.approx(result.wsmse, rel=1e-8)
    assert np.allclose(turned.usage, result.usage, rtol=0, atol=1e-12)


@pytest.mark.parametrize("algorithm", ["dmmse", "pwf"])
def test_pass_makes_one_decomposition(algorithm, monkeypatch):
    # per pass the interference covariances are Cholesky-factored, and the
    # transmit-side matrices (dmmse's pricing matrices F_k, pwf's
    # reversed-link covariances) are solved with rather than factored: the
    # only other decomposition is the eigh of the m_r x m_r
    # C_k^H F_k^{-1} C_k, and no SVD runs; pwf returns its last pass's
    # factors as the precoders
    _, problem = cellular_problem(0)
    k, mr = problem.num_users, problem.channels.shape[-2]
    calls = count_decompositions(monkeypatch)
    solver = dmmse_solve if algorithm == "dmmse" else pwf_solve
    sol = solver(problem, AlgorithmConfig(algorithm=algorithm, objective="srm" if algorithm == "pwf" else "wsmmse"))
    assert sol.iterations > 10
    assert calls == [("cholesky", (k, mr, mr)), ("eigh", (k, mr, mr))] * sol.iterations


@pytest.mark.parametrize("algorithm", ["dmmse", "emmseia"])
def test_srm_pass_evaluates_the_receive_side_once(algorithm, monkeypatch):
    # per srm pass: one solve for the MMSE equalizers, one for the gains
    # G_k that give the pass's rate and E_k = (I + G_k)^{-1}, one inverse for
    # E_k and one for the weights E_k^{-1}; dmmse adds the inverse of the
    # Cholesky factor of Omega_k and one (K, m_t, m_t) solve F_k^{-1} C_k,
    # emmseia the (K, m_t, m_t) solves of its multiplier search.  Each
    # stack's
    # equalizers are solved once, when the next pass or the returned
    # solution reads them; before the first pass come the starting gains,
    # and dmmse's diagonality test reads E_k of the last stack.
    _, problem = cellular_problem(0, nr=3)
    k, mr, mt = problem.num_users, problem.channels.shape[-2], problem.channels.shape[-1]
    d = problem.mse_weights.shape[-1]
    assert len({mr, mt, d}) == 3
    calls = count_decompositions(monkeypatch, names=("solve", "inv"))
    solver = dmmse_solve if algorithm == "dmmse" else emmseia_solve
    sol = solver(problem, AlgorithmConfig(algorithm=algorithm, objective="srm"))
    n = sol.iterations
    assert n > 10
    counts = {}
    for call in calls:
        counts[call] = counts.get(call, 0) + 1
    search = counts.pop(("solve", (k, mt, mt)), 0)
    if algorithm == "dmmse":
        assert search == n
        assert counts == {("solve", (k, mr, mr)): 2 * n + 2, ("inv", (k, d, d)): 2 * n + 1,
                          ("inv", (k, mr, mr)): n}
    else:
        assert search >= n
        assert counts == {("solve", (k, mr, mr)): 2 * n + 2, ("inv", (k, d, d)): 2 * n}


def random_pricing(rng, problem):
    """dmmse's pricing matrices F_k at a random stack: equalizers scaled by
    1e-3..1e3, random stream weights, and random_multipliers raised to
    LAMBDA_FLOOR (where dmmse keeps them) with about a third more at the
    floor; returns (F, lam, receive side)."""
    from netmimo.algorithms import _pricing_matrices
    from netmimo.model import reverse_link_sums

    rx = ReceiveSide(problem, problem.precoders(initialize_precoders(
        problem, AlgorithmConfig(initialization="random_orthonormal", init_seed=int(rng.integers(99))))))
    a = rx.equalizers * 10.0 ** rng.uniform(-3, 3)
    w = rng.uniform(0.0, 2.0, problem.mse_weights.shape[:2])
    ups = reverse_link_sums(problem.reverse_cross, (a * w[:, None, :]) @ adjoint(a))
    lam = np.maximum(random_multipliers(rng, problem.num_constraints), LAMBDA_FLOOR)
    lam[rng.random(lam.size) < 0.3] = LAMBDA_FLOOR
    return _pricing_matrices(problem, ups, lam), lam, rx


def whitened_oracle(f, c, weights):
    """The priced minimizer of one user by whitening: T = F^{-1/2}
    (psd_inv_sqrt), U and g the top-d left singular vectors of T C and
    their squared singular values, B = T U diag(sqrt p) with the unit-level
    waterfill on the gains above GAIN_RTOL, the largest weight on the
    strongest direction; returns (g, B)."""
    d = weights.size
    t = psd_inv_sqrt(f)
    left, sing, _ = np.linalg.svd(t @ c)
    gains, rank = sing[:d] ** 2, np.argsort(-weights, kind="stable")
    active = gains > GAIN_RTOL * max(1.0, gains[0])
    g = np.where(active, gains, 1.0)
    powers = np.where(active, np.maximum(np.sqrt(weights[rank] / g) - 1.0 / g, 0.0), 0.0)
    return gains, (t @ (left[:, :d] * np.sqrt(powers)))[:, np.argsort(rank)]


def test_solve_and_whitened_steps_agree_to_rounding(mixed_problems):
    # on positive definite F_k, users priced at LAMBDA_FLOOR among them,
    # the receive-dimension step gives the whitening oracle's gains and
    # transmit covariances B B^H within a multiple of kappa(F_k) eps, on
    # every F_k whose inverse root psd_inv_sqrt can take
    from netmimo.single_user import priced_directions

    rng = np.random.default_rng(45)
    eps = np.finfo(float).eps
    compared, floor_priced = 0, 0
    for problem in pricing_problems(mixed_problems):
        d = problem.mse_weights.shape[-1]
        for _ in range(20):
            f, lam, rx = random_pricing(rng, problem)
            c = receive_factors(rx.omegas, problem.direct_h)
            weights = rng.uniform(0.0, 2.0, (problem.num_users, d))
            weights[problem.stream_pad] = 0.0
            got = priced_minimizer(f, c, weights, stream_order(weights))
            gains = priced_directions(f, c, d)[2]
            # the smallest price on each user's own coordinates
            floor = lam @ problem.constraint_supports
            floor[problem.tx_pad] = np.inf
            floor = floor.min(axis=-1)
            evals = np.linalg.eigvalsh(f)
            for k in np.flatnonzero(psd_inv_sqrt_batch(f)[1]):
                bound = 20 * (evals[k, -1] / evals[k, 0]) * eps
                want_gains, want = whitened_oracle(f[k], c[k], weights[k])
                assert np.all(np.abs(gains[k] - want_gains) <= bound * want_gains[0]), k
                bbh = want @ want.conj().T
                assert np.linalg.norm(got[k] @ got[k].conj().T - bbh) <= bound * max(np.linalg.norm(bbh), 1e-300)
                compared += 1
                floor_priced += bool(floor[k] == LAMBDA_FLOOR)
    assert compared > 300 and floor_priced > 100, (compared, floor_priced)


def test_dmmse_step_rejects_a_non_finite_covariance():
    # Omega_k >= I always has a Cholesky factor; a NaN in it is a clear
    # numerical failure, not a silent NaN precoder, in dmmse's step and in
    # pwf's forward pass alike
    from netmimo.algorithms import _dmmse_precoder_step, _pwf_duals, _pwf_forward

    _, problem = cellular_problem(0)
    precoders = initialize_precoders(problem, AlgorithmConfig())
    rx = ReceiveSide(problem, precoders)
    duals = _pwf_duals(rx, 1.0)
    weights = np.ones(problem.mse_weights.shape[:2])
    lam = np.ones(problem.num_constraints)
    for where in ((1, 0, 0), (2, 1, 0)):
        bad = rx.omegas.copy()
        bad[where] = np.nan
        # the step reads the equalizers of the finite receive side and the bad Omega
        tampered = ReceiveSide(problem, precoders)
        tampered.equalizers, tampered.omegas = rx.equalizers, bad
        with pytest.raises(NumericalFailureError, match="Cholesky"):
            _dmmse_precoder_step(problem, tampered, weights, stream_order(weights), lam)
        with pytest.raises(NumericalFailureError, match="Cholesky"):
            _pwf_forward(problem, bad, duals, lam)


# Sum rate and converged flag of each solve on the mixed-dimension problems
# (default AlgorithmConfig), recorded from the per-user solver loops that the
# padded array form replaced.
PER_USER_RESULTS = {
    ("serving_sets", "dmmse", "wsmmse"): (10.717402075965998, True),
    ("serving_sets", "emmseia", "wsmmse"): (10.716029917566807, True),
    ("serving_sets", "dmmse", "srm"): (12.18010712637931, True),
    ("serving_sets", "emmseia", "srm"): (12.181082065143816, True),
    ("serving_sets", "pwf", "srm"): (12.180116917402984, True),
    ("sizes", "dmmse", "wsmmse"): (8.035104029928837, True),
    ("sizes", "emmseia", "wsmmse"): (8.039182567453398, True),
    ("sizes", "dmmse", "srm"): (9.215071612263147, True),
    ("sizes", "emmseia", "srm"): (9.216439962515707, True),
    ("sizes", "pwf", "srm"): (9.215122151352023, True),
}


@pytest.mark.parametrize("algorithm, objective", [("dmmse", "wsmmse"), ("emmseia", "wsmmse"),
                                                  ("dmmse", "srm"), ("emmseia", "srm"),
                                                  ("pwf", "srm")])
def test_array_and_per_user_paths_give_identical_solutions(algorithm, objective, mixed_problems):
    # users that differ in size run on the padded array form and reach the
    # rate and convergence the per-user loops reached
    solver = {"dmmse": dmmse_solve, "emmseia": emmseia_solve, "pwf": pwf_solve}[algorithm]
    cfg = AlgorithmConfig(algorithm=algorithm, objective=objective)
    for name, problem in mixed_problems.items():
        sol = solver(problem, cfg)
        assert [b.shape for b in sol.precoders] == list(zip(problem.tx_dims, problem.streams))
        assert [a.shape for a in sol.equalizers] == list(zip(problem.rx_dims, problem.streams))
        usage = constraint_usage(problem, sol.precoders)
        assert np.all(usage <= problem.budgets * (1.0 + cfg.constraint_tol))
        rate, converged = PER_USER_RESULTS[(name, algorithm, objective)]
        assert sol.converged == converged
        assert sum_rate(problem, sol.precoders) == pytest.approx(rate, rel=1e-6)


def test_solver_steps_leave_the_padding_alone(mixed_problems):
    from netmimo.algorithms import _dmmse_precoder_step, _mse_offdiag, _pwf_duals, _pwf_forward, _stream_weights
    from netmimo.model import cut_padding

    def padding(stack, rows, cols):
        """The entries of ``stack`` outside each user's leading block."""
        out = np.array(stack)
        for mat, r, c in zip(out, rows, cols):
            mat[:r, :c] = 0.0
        return out

    for problem in mixed_problems.values():
        tx, d = problem.tx_dims, problem.streams
        cut = initialize_precoders(problem, AlgorithmConfig(initialization="random_orthonormal",
                                                            init_seed=2))
        rx = ReceiveSide(problem, cut)
        equalizers = rx.equalizers
        lam = np.ones(problem.num_constraints)

        # dmmse: srm's E^{-1} is 1 on the padded streams, their weight is 0
        weights = _stream_weights(problem, rx.weights)
        for k, w in enumerate(weights):
            inverse = np.linalg.inv(mse_matrix_mmse(problem, cut, k))
            assert np.allclose(w[:d[k]], np.diag(inverse).real, rtol=1e-12, atol=0.0)
            assert not np.any(w[d[k]:])
        step = _dmmse_precoder_step(problem, rx, weights, stream_order(weights), lam)
        assert not np.any(padding(step, tx, d))
        # the diagonality test measures each user's own block; users without
        # padded streams are switched off, so a padded one sets the maximum
        padded_only = [b if streams < max(d) else 0 * b for b, streams in zip(cut, d)]
        worst = max(offdiag_mass(mse_matrix_mmse(problem, padded_only, k))
                    for k in range(problem.num_users))
        offdiag = _mse_offdiag(problem, ReceiveSide(problem, padded_only).mses)
        assert offdiag == pytest.approx(worst, rel=1e-12, abs=1e-300)

        mu = np.zeros(problem.num_constraints)
        mu[0] = 0.3  # one multiplier at zero
        update = emmseia_precoder_update(problem, equalizers, problem.mse_weights, mu)
        assert not np.any(padding(update, tx, d))

        # pwf: no power on padded transmit coordinates or padded streams
        factors = _pwf_forward(problem, rx.omegas, _pwf_duals(rx, 1.0), lam)[0]
        assert not np.any(padding(factors, tx, d))
        forward = factors @ factors.conj().swapaxes(-1, -2)
        assert not np.any(padding(forward, tx, tx))
        for c, streams in zip(cut_padding(forward, tx, tx), d):
            assert np.linalg.matrix_rank(c, tol=1e-9 * np.linalg.norm(c)) <= streams


@pytest.mark.parametrize("algorithm, max_outer, max_inner", [("dmmse", 5, 2), ("pwf", 12, 3)])
def test_iterations_obey_the_documented_bound(algorithm, max_outer, max_inner):
    # max_outer caps the pricing passes; each of at most MAX_POLISH_ROUNDS
    # polish runs adds up to max_inner more
    from netmimo.single_user import MAX_POLISH_ROUNDS

    _, problem = cellular_problem(0)
    solver = dmmse_solve if algorithm == "dmmse" else pwf_solve
    sol = solver(problem, AlgorithmConfig(algorithm=algorithm, objective="srm",
                                          max_outer=max_outer, max_inner=max_inner))
    assert max_outer < sol.iterations <= max_outer + MAX_POLISH_ROUNDS * max_inner


# ---------------------------------------------------------------------------
# golden digests of the dual-loop solvers
# ---------------------------------------------------------------------------

def _digest(*parts) -> str:
    """SHA-256 over the bytes of arrays and the text of everything else."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, (list, tuple)):
            sha.update(_digest(*part).encode())
        elif isinstance(part, np.ndarray):
            sha.update(str((part.dtype, part.shape)).encode())
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()


# links whose stream weights are not sorted, or whose constraints are not
# diagonal, by digest name
OFF_AXIS_LINKS = {
    **{f"link_w{i}": (antenna_link, (0.5, 2.0)) for i in range(4)},
    **{f"dense{i}": (dense_link, (1.0, 1.0)) for i in range(4)},
    **{f"dense_w{i}": (dense_link, (0.5, 2.0)) for i in range(4)},
}


# Recorded with numpy 2.4's bundled OpenBLAS on x86-64; another BLAS may round
# differently and needs its own recording.
GOLDEN_DIGESTS = {
    "cell0/dmmse/wsmmse":
        "88d04403a5807e0fc1613b07c9ff501045b34812e6553341a791f2eda36d9f33",
    "cell0/dmmse/srm":
        "fa56d02aa99118a62cfdae6a2b3adae4bc81f85f6b082c4d6c4caccfbbec2a28",
    "cell0/emmseia/wsmmse":
        "438584b8d07e668d599430a585f9dc7ce36ca0ca2aade7298c54b79003c5700e",
    "cell0/emmseia/srm":
        "62065a36ab0f8a21c3da3b6a8e7539636b3c19ca780d908a3ab3b82b3946d162",
    "cell0/pwf/srm":
        "7297dcd00926a5cadd2ed93e6b55fb62dde2a1cd61ee23416d3b978057df1c52",
    "cell1/dmmse/wsmmse":
        "7fbf74e05375c44f61d8a337c40cfc5f47643bf63e90225db5fb506db7cc6599",
    "cell1/dmmse/srm":
        "91f5cf837ec1f50578b4fe59dd039f0e5443cffca65c9df6c37a38a8b5dc3df3",
    "cell1/emmseia/wsmmse":
        "94a7dbc46751175bce346c24824d7ac73dbc0a8b37f141ef6b5ad8ae52434783",
    "cell1/emmseia/srm":
        "80e9189beced3e1355050c6b914464c384eb95ac2270d918473cd76235f9c55c",
    "cell1/pwf/srm":
        "aa15f528ba82e68b7e6d37cb1257eebb122ba179bac60ec66c989792e2b12637",
    "serving_sets/dmmse/wsmmse":
        "4255eea996ef355aeb35c4653719e5c3b9a58d8f9c435f8b32ed15051a6d6a34",
    "serving_sets/dmmse/srm":
        "bbb4269de750f98a071f805b55027969bedce180537fd9cc6a9119c1a0b838ad",
    "serving_sets/emmseia/wsmmse":
        "7ed7a8bcda470d6b847f381296e039f1da9df90711428246f3dc0d1077bc4082",
    "serving_sets/emmseia/srm":
        "576c084c7cc598f656cfbd2268ccade6850290b9f4b2bf8fd3a691090faccd8f",
    "serving_sets/pwf/srm":
        "8914cefbffc8667ae20968c5f544eee3a06d27c1c2c9768b3b84262fe7ab3f28",
    "sizes/dmmse/wsmmse":
        "b7b644db57372863f37160752821dba67de82c67ab242bc9d38e4f5bafd17a4f",
    "sizes/dmmse/srm":
        "d69f9ce95d2f08791f7f569ebfd5b440dde24c93694783d59a9725a768a8615b",
    "sizes/emmseia/wsmmse":
        "c36693086dc72ed75ef3e31eaed7151e5d7a4c0f5a7433b2b39098a757e19072",
    "sizes/emmseia/srm":
        "6003427380737b8a126f7f17666b4d4211433f6869a3585474e8fd6f94713bcf",
    "sizes/pwf/srm":
        "9382dec3b4284767fbf0a82e016f77a6fc5d92cb6a9b690bca4a3cd53cd4ad0c",
    "k10_kappa3/emmseia/wsmmse":
        "2a291ce68ff68a48ab5028e31b7d09296c0a046debf0fb7a0e71b14645c51143",
    "k10_kappa3/emmseia/srm":
        "c2edcc0c7ef1de290ffb37dec31e3e2b1120d7a3dc17a9ff255c779897a57d47",
    "k10_kappa5/emmseia/wsmmse":
        "a11fe38a03db0ba176950d921dcfec76024a301513f6d486e687d4b5efb47d68",
    "k10_kappa5/emmseia/srm":
        "197d9508ca55f0ffa498e29093375e4bf6434518e66d5970b711ceb1a11ee42d",
    "link0":
        "b15edb391935312c3bc8c59fb2da1915acaccc6d6409bcb92d219ee16dd68065",
    "link1":
        "453d592ffd379aa5a608ad24997e63e42194121cf960fd6f74216094c7b39c9f",
    "link2":
        "438fa160ab0423f85511f385c114edc14e734cd50e8f0bfef9bdea52b984ad7a",
    "link3":
        "6b633db3276fa4b9ca2e71abf738a43cb2530a3be52eca3578b201fcec0dbaf3",
    "link4":
        "cee061b851461a01af94fdb7539ac09fa53df2da3f378c269406bdbb2e8fff22",
    "link5":
        "1c739818e6865a4d814711bf856753177e513df542b8e3449099315ed6e6ba61",
    "link6":
        "12e1637b89a8d40953f0196e8ce562772c60b2ce2fadaddc70eae855ea74e2d8",
    "link7":
        "7cd132fc6c15da24fab70326ac7c78bc1370681cc53eff62f5d79bf199cd7e44",
    "link8":
        "7b2deca88a6e80537080e2ebabb07bf6fa81680646ebcf56029a97c1ed286ccc",
    "link9":
        "901ecf879fe4aee624791be658967fedf64fc6e27dd429fb1f2c80562f76b89d",
    "link10":
        "35b1f3024ef4ca9ba6beec1f5b658931632df62fe47b02b075cce1aa61b4a182",
    "link11":
        "b57816c4c548824accee1b4ad7a993cba8645770d845815b5d24fd7b922ad556",
    "link12":
        "f213f0b9b91ac58dded26ee27c41af103513dc77998ca3ad85fbe43a67fcd77b",
    "link13":
        "65b37a8d95202292ae30f4acda7a7ffbbdd9503b29e66952fad38227837e33e8",
    "link14":
        "3e309eadcfac711afb48bcf0b463eca1599a0fef308048ab16c8f1391e4c52ae",
    "link15":
        "c4671bbbc8237b58d01901be863e6382ef3f738ac73246cf6d33903de78d0cb3",
    "link16":
        "07f837ba307573f1d0e821b5e12f52df88313d8a57e25cef977cac7c7fbcb46e",
    "link17":
        "4226481141b0c673a7fafc848e2c931a7ba78c5341a93fbde6ac273f571faecc",
    "link18":
        "9d53511a00751661fb216f63114964329e8fbe16a95483101558d89512cd6423",
    "link19":
        "c5788cac8b3a337789c222f31cf3ab5bdf3361fab8b6ce188cbac558b5c7d389",
    "link_w0":
        "76ff37221426282bfd1e0f0b4910d75e6beee888fc516bf9e8389ed5a7e6c726",
    "link_w1":
        "20498cb3b3d01424862900fda1bcb52627ba9286bf4249a66494ecc30f3f37f9",
    "link_w2":
        "2a0a0fac6b0adfeb0151ca28cb2c3e1a8a0722de7c491482e35d58ab21d4b989",
    "link_w3":
        "c46e8d29744b0bc13e69618bd0357899cac7e387f8f30bad426c117303cc0633",
    "dense0":
        "2334825b9a9f68a638b78fe5f6a9ca5fe4744900b4136d7d8f133da0ddb17870",
    "dense1":
        "d6674e57fe5c2e593d0450bbdd685f7ca1b862ce759eba7bfbcd11a514af7117",
    "dense2":
        "89293893b786c24d8a0f7a60a7a616d723a95d50728953568f1e9c1a3fff8b10",
    "dense3":
        "af9153eeb8fdb8258444a7b6c44a7edcf06f030f23ae98539216b82617f829b1",
    "dense_w0":
        "452bc512c90201e572bdc204725e4a389a980c7fce70a08db2ff8cea30dcf8ce",
    "dense_w1":
        "a836a69d9715da293a9118ad284d4bc15de0e2b846483460591af439a91bebd3",
    "dense_w2":
        "1bb97f3cc03449addd97fffacce15aad729fbae01cbecd54ccc614d7c9996c6a",
    "dense_w3":
        "f4b771cab19bb52d93379102275c86ef322f386cc23f71ce02c7d5eb790bf55a",
}


def golden_cases(mixed_problems):
    """(name, digest) of every solve the golden digests cover."""
    problems = {"cell0": cellular_problem(0)[1], "cell1": cellular_problem(1)[1], **mixed_problems}
    runs = [("dmmse", "wsmmse", dmmse_solve), ("dmmse", "srm", dmmse_solve),
            ("emmseia", "wsmmse", emmseia_solve), ("emmseia", "srm", emmseia_solve),
            ("pwf", "srm", pwf_solve)]
    for pname, problem in problems.items():
        for algorithm, objective, solver in runs:
            sol = solver(problem, AlgorithmConfig(algorithm=algorithm, objective=objective, max_outer=300))
            yield (f"{pname}/{algorithm}/{objective}",
                   _digest(sol.precoders, np.asarray(sol.trace), sol.iterations, sol.converged,
                           sol.multipliers))
    # K = 10 cooperation draws whose users share transmit sets (8 sets at
    # kappa = 3, one at kappa = 5)
    for kappa in (3, 5):
        _, problem = cellular_problem(0, cluster_size=5, users_per_cell=2, cooperation_factor=kappa)
        for objective in ("wsmmse", "srm"):
            sol = emmseia_solve(problem, AlgorithmConfig(algorithm="emmseia", objective=objective, max_outer=300))
            yield (f"k10_kappa{kappa}/emmseia/{objective}",
                   _digest(sol.precoders, np.asarray(sol.trace), sol.iterations, sol.converged,
                           sol.multipliers))
    rng = np.random.default_rng(8)
    for i in range(20):
        result = solve_multi_constraint(antenna_link(rng))
        yield (f"link{i}", _digest(result.precoder, np.asarray(result.wsmse_trace), result.iterations,
                                   result.converged, result.multipliers))
    rng = np.random.default_rng(9)
    for name, (make, weights) in OFF_AXIS_LINKS.items():
        result = solve_multi_constraint(make(rng, weights))
        yield (name, _digest(result.precoder, np.asarray(result.wsmse_trace), result.iterations,
                             result.converged, result.multipliers))


def test_solvers_match_golden_digest(mixed_problems):
    # the dual-loop solvers reproduce the recorded precoders, traces,
    # iteration counts, stop flags and multipliers bit for bit
    got = dict(golden_cases(mixed_problems))
    assert got == GOLDEN_DIGESTS
