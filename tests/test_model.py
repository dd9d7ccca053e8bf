"""Model tests: stacked-problem construction and the error-covariance algebra."""

import numpy as np
import pytest

from netmimo import (
    ContractViolationError,
    InterferenceProblem,
    PartialCooperationSystem,
    ScenarioConfig,
    build_interference_problem,
    constraint_usage,
    interference_covariance,
    mmse_equalizer,
    mse_matrix,
    mse_matrix_mmse,
    realize,
    srm_weight_update,
    sum_rate,
    wsmse_objective,
)
from netmimo.linalg import adjoint, hermitian_part, weight_usage
from netmimo.model import LOG2, ReceiveSide, interference_covariances


def scalar_problem(h=1.0, g=1.0, k_users=2):
    """k_users scalar transmit/receive pairs: direct gains h, cross gains g."""
    chans = tuple(
        tuple(np.array([[complex(h if i == j else g)]]) for j in range(k_users))
        for i in range(k_users)
    )
    constraints = tuple(
        tuple(np.array([[1.0 + 0j]]) if m == i else np.array([[0.0 + 0j]]) for m in range(k_users))
        for i in range(k_users)
    )
    return InterferenceProblem.from_blocks(
        channels=chans,
        constraints=constraints,
        budgets=np.ones(k_users),
        streams=(1,) * k_users,
        mse_weights=tuple(np.eye(1) for _ in range(k_users)),
    )


def random_system(rng, m=2, k=3, nt=2, nr=2, kappa=2, d=1):
    chans = rng.standard_normal((k, m, nr, nt)) + 1j * rng.standard_normal((k, m, nr, nt))
    serving = []
    for i in range(k):
        picks = sorted(rng.choice(m, size=kappa, replace=False).tolist())
        serving.append(tuple(int(x) for x in picks))
    return PartialCooperationSystem(
        nt=nt, nr=nr, bs_power=np.full(m, 1.5), channels=chans,
        serving_sets=tuple(serving), streams=(d,) * k,
    )


def random_precoders(rng, problem, scale=1.0):
    out = []
    for k in range(problem.num_users):
        mt, d = problem.tx_dims[k], problem.streams[k]
        out.append(scale * (rng.standard_normal((mt, d)) + 1j * rng.standard_normal((mt, d))))
    return out


# ---------------------------------------------------------------------------
# stacked-problem construction
# ---------------------------------------------------------------------------

def test_build_two_bs_stacking():
    rng = np.random.default_rng(0)
    chans = rng.standard_normal((1, 2, 2, 2)) + 1j * rng.standard_normal((1, 2, 2, 2))
    system = PartialCooperationSystem(
        nt=2, nr=2, bs_power=[1.0, 1.0], channels=chans,
        serving_sets=((0, 1),), streams=(2,),
    )
    problem = build_interference_problem(system)
    assert problem.tx_dims == (4,)
    assert np.allclose(problem.channels[0][0], np.hstack([chans[0, 0], chans[0, 1]]))
    phi0, phi1 = problem.constraints[0]
    expected0 = np.zeros((4, 4))
    expected0[:2, :2] = np.eye(2)
    assert np.allclose(phi0, expected0)
    assert np.allclose(phi1, np.eye(4) - expected0)
    assert np.allclose(phi0 + phi1, np.eye(4))


def test_build_interference_channel_shape():
    # one BS per user: per-transmitter power with identity weights
    rng = np.random.default_rng(1)
    chans = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
    system = PartialCooperationSystem(
        nt=2, nr=2, bs_power=[1.0, 1.0], channels=chans,
        serving_sets=((0,), (1,)), streams=(1, 1),
    )
    problem = build_interference_problem(system)
    assert problem.tx_dims == (2, 2)
    assert np.allclose(problem.constraints[0][0], np.eye(2))
    assert np.allclose(problem.constraints[0][1], np.zeros((2, 2)))
    assert np.allclose(problem.constraints[1][1], np.eye(2))


def test_build_broadcast_shape():
    rng = np.random.default_rng(2)
    m, k = 3, 2
    chans = rng.standard_normal((k, m, 2, 2)) + 1j * rng.standard_normal((k, m, 2, 2))
    system = PartialCooperationSystem(
        nt=2, nr=2, bs_power=np.ones(m), channels=chans,
        serving_sets=((0, 1, 2), (0, 1, 2)), streams=(2, 2),
    )
    problem = build_interference_problem(system)
    assert problem.tx_dims == (m * 2, m * 2)
    for i in range(k):
        total = sum(problem.constraints[i])
        assert np.allclose(total, np.eye(m * 2))


def test_build_power_accounting_matches_physical_blocks():
    # oracle: per-BS power as the sum of the per-BS sub-block norms
    rng = np.random.default_rng(3)
    system = random_system(rng, m=3, k=4, nt=2, nr=2, kappa=2, d=1)
    problem = build_interference_problem(system)
    precoders = random_precoders(rng, problem)
    usage = constraint_usage(problem, precoders)
    nt = system.nt
    expected = np.zeros(system.num_bs)
    for k, sset in enumerate(system.serving_sets):
        for pos, m in enumerate(sset):
            block = precoders[k][pos * nt:(pos + 1) * nt, :]
            expected[m] += float(np.sum(np.abs(block) ** 2))
    assert np.allclose(usage, expected, atol=1e-12)


def test_invalid_system_rejected():
    rng = np.random.default_rng(4)
    chans = rng.standard_normal((1, 2, 2, 2)) + 1j * rng.standard_normal((1, 2, 2, 2))
    with pytest.raises(ContractViolationError):
        PartialCooperationSystem(nt=2, nr=2, bs_power=[1.0, 1.0], channels=chans,
                                 serving_sets=((0, 5),), streams=(1,))
    with pytest.raises(ContractViolationError):
        PartialCooperationSystem(nt=2, nr=2, bs_power=[1.0, 1.0], channels=chans,
                                 serving_sets=((0,),), streams=(4,))


def test_non_positive_budget_rejected():
    for budget in (0.0, -1.0, np.nan):
        with pytest.raises(ContractViolationError, match="budgets must be positive"):
            InterferenceProblem.from_blocks(
                channels=((np.eye(2, dtype=complex),),),
                constraints=((np.eye(2, dtype=complex),),),
                budgets=[budget], streams=[2], mse_weights=(np.eye(2),),
            )


# ---------------------------------------------------------------------------
# covariance algebra
# ---------------------------------------------------------------------------

def test_interference_covariance_single_user():
    problem = scalar_problem(k_users=1)
    omega = interference_covariance(problem, [np.array([[1.0 + 0j]])], 0)
    assert np.allclose(omega, np.eye(1))


def test_interference_covariance_scalar_pair():
    problem = scalar_problem(h=1.0, g=1.0)
    omega = interference_covariance(problem, [np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]])], 0)
    assert np.allclose(omega, [[2.0]])


def test_interference_covariance_matches_naive_sum():
    rng = np.random.default_rng(5)
    system = random_system(rng, m=2, k=3, nt=2, nr=2, kappa=1, d=1)
    problem = build_interference_problem(system)
    precoders = random_precoders(rng, problem)
    for k in range(3):
        omega = interference_covariance(problem, precoders, k)
        naive = np.eye(problem.rx_dims[k], dtype=complex)
        for l in range(3):
            if l != k:
                h = problem.channels[k][l]
                b = precoders[l]
                naive = naive + h @ b @ b.conj().T @ h.conj().T
        assert np.linalg.norm(omega - naive) <= 1e-12 * np.linalg.norm(naive)


def padded(mat, shape, diagonal=0.0):
    """``mat`` in the top-left corner of a ``shape`` matrix, ``diagonal`` on
    the rest of the diagonal and zero elsewhere."""
    out = np.zeros(shape, dtype=complex)
    np.fill_diagonal(out, diagonal)
    out[:mat.shape[0], :mat.shape[1]] = mat
    return out


def test_array_form_pads_mixed_dimensions(mixed_problems):
    rng = np.random.default_rng(6)
    system = random_system(rng, m=3, k=4, kappa=2, d=2)
    uniform = build_interference_problem(system)
    channels, constraints, _ = oracle_blocks(system)
    assert uniform.channels.shape == (4, 4, 2, 4) and uniform.constraints.shape == (4, 3, 4, 4)
    assert np.array_equal(uniform.channels[2, 1], channels[2][1])
    assert np.array_equal(uniform.cross[2, 1], channels[2][1])
    assert not np.any(uniform.cross[3, 3])
    assert np.array_equal(uniform.direct[3], channels[3][3])
    assert np.array_equal(uniform.direct_channel(3), channels[3][3])
    assert np.array_equal(uniform.constraints[1, 2], constraints[1][2])
    assert uniform.tx_pad[0].size == 0 and uniform.stream_pad[0].size == 0

    # transmit sizes 2/4/4/2, stream counts 1/2/3/2, three receive antennas
    problem = mixed_problems["serving_sets"]
    tx, d = problem.tx_dims, problem.streams
    assert problem.channels.shape == (4, 4, 3, 4) and problem.constraints.shape == (4, 3, 4, 4)
    assert problem.mse_weights.shape == (4, 3, 3)
    for k in range(4):
        for l in range(4):
            expected = padded(problem.channel(k, l), (3, 4))
            assert np.array_equal(problem.channels[k, l], expected)
            assert np.array_equal(problem.cross[k, l], 0 * expected if k == l else expected)
        assert np.array_equal(problem.direct[k], padded(problem.direct_channel(k), (3, 4)))
        for m in range(3):
            expected = padded(problem.constraints[k, m, :tx[k], :tx[k]], (4, 4))
            assert np.array_equal(problem.constraints[k, m], expected)
        assert np.array_equal(problem.mse_weights[k], padded(problem.mse_weights[k, :d[k], :d[k]], (3, 3)))
    assert list(zip(*problem.tx_pad)) == [(0, 2), (0, 3), (3, 2), (3, 3)]
    assert list(zip(*problem.stream_pad)) == [(0, 1), (0, 2), (1, 2), (3, 2)]

    # receive sizes 3/2/2 are padded too
    problem = mixed_problems["sizes"]
    assert problem.channels.shape == (3, 3, 3, 4)
    assert np.array_equal(problem.channels[1, 2], padded(problem.channel(1, 2), (3, 4)))
    assert list(zip(*problem.tx_pad)) == [(0, 2), (0, 3), (2, 3)]
    assert list(zip(*problem.stream_pad)) == [(0, 1)]


def oracle_blocks(system):
    """The stacked problem of ``system`` as per-user blocks, built the way
    the block-tuple form of build_interference_problem did: np.hstack rows
    of the serving channels, dense block-mask constraint weights and
    identity MSE weights."""
    nt, k_users = system.nt, system.num_users
    channels = tuple(tuple(np.hstack([system.channels[k, m] for m in system.serving_sets[l]])
                           for l in range(k_users)) for k in range(k_users))
    constraints = []
    for sset in system.serving_sets:
        row = []
        for m in range(system.num_bs):
            phi = np.zeros((len(sset) * nt, len(sset) * nt), dtype=complex)
            if m in sset:
                sl = slice(sset.index(m) * nt, (sset.index(m) + 1) * nt)
                phi[sl, sl] = np.eye(nt)
            row.append(phi)
        constraints.append(tuple(row))
    return channels, tuple(constraints), tuple(np.eye(d, dtype=complex) for d in system.streams)


def oracle_systems():
    """Drawn systems over sector counts 1/3/6, K = 3/7/10 and every
    cooperation factor up to 5."""
    for sectors in (1, 3, 6):
        for cluster, users in ((3, 1), (7, 1), (5, 2)):
            for kappa in range(1, min(cluster, 5) + 1):
                yield realize(ScenarioConfig(cluster_size=cluster, users_per_cell=users, nt=6, nr=2,
                                             streams=2, cooperation_factor=kappa, sectors=sectors,
                                             seed=100 * sectors + 10 * cluster + kappa))


def test_build_matches_block_oracle(mixed_systems):
    # the stored arrays are the oracle's blocks, zero-padded to the largest sizes
    systems = list(oracle_systems()) + list(mixed_systems.values())
    assert len(systems) == 41
    for system in systems:
        problem = build_interference_problem(system)
        channels, constraints, weights = oracle_blocks(system)
        tx = tuple(row.shape[1] for row in channels[0])
        mt, mr, d = max(tx), system.nr, max(system.streams)
        assert problem.tx_dims == tx and problem.rx_dims == (system.nr,) * system.num_users
        assert problem.streams == system.streams
        assert np.array_equal(problem.channels, [[padded(h, (mr, mt)) for h in row] for row in channels])
        assert np.array_equal(problem.constraints, [[padded(p, (mt, mt)) for p in row] for row in constraints])
        assert np.array_equal(problem.mse_weights, [padded(w, (d, d)) for w in weights])
        assert problem.channels.dtype == problem.constraints.dtype == problem.mse_weights.dtype == complex
        # the block input, padded once, is the same problem
        blocks = InterferenceProblem.from_blocks(channels, constraints, system.bs_power, system.streams, weights)
        for name in ("channels", "constraints", "budgets", "mse_weights", "tx_dims", "rx_dims", "streams"):
            assert np.array_equal(getattr(blocks, name), getattr(problem, name)), name


def test_batched_kernels_match_per_user_kernels_bit_for_bit():
    # on users of one size the receive side does the per-user arithmetic
    # from the same Omega_k; Omega_k itself sums the other users in one
    # matrix product, within a few K eps of the ascending-l loop
    rng = np.random.default_rng(7)
    problem = build_interference_problem(random_system(rng, m=3, k=4, kappa=2, d=2))
    precoders = random_precoders(rng, problem, scale=0.6)
    rx = ReceiveSide(problem, precoders)
    bound = 4 * problem.num_users * np.finfo(float).eps
    for k in range(problem.num_users):
        omega = interference_covariance(problem, precoders, k)
        assert np.linalg.norm(rx.omegas[k] - omega) <= bound * np.linalg.norm(omega)
    for batched, single in ((rx.equalizers, mmse_equalizer), (rx.mses, mse_matrix_mmse)):
        for k, x in enumerate(batched):
            assert np.array_equal(x, single(problem, precoders, k, omega=rx.omegas[k]))


RECEIVE_PARTS = ("omegas", "signals", "whitened", "gains", "mses", "weights", "equalizers", "rate", "usage",
                 "wsmse")


@pytest.mark.parametrize("part", RECEIVE_PARTS)
@pytest.mark.parametrize("name", ["uniform", "serving_sets", "sizes"])
def test_padded_kernels_match_per_user_references(name, part, mixed_problems):
    rng = np.random.default_rng(8)
    problem = mixed_problems.get(name) or build_interference_problem(random_system(rng, m=3, k=4, d=2))
    tx, rx_dims, d = problem.tx_dims, problem.rx_dims, problem.streams
    precoders = random_precoders(rng, problem, scale=0.6)
    equalizers = [rng.standard_normal((r, s)) + 1j * rng.standard_normal((r, s)) for r, s in zip(rx_dims, d)]
    rx = ReceiveSide(problem, precoders)

    def close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def user_block(k):
        """User k's block of the part from the per-user functions, and the
        padding's diagonal: the identity where the part inverts, else 0."""
        omega = interference_covariance(problem, precoders, k)
        s = problem.direct_channel(k) @ precoders[k]
        e = mse_matrix_mmse(problem, precoders, k)
        return {"omegas": (omega, 1.0), "signals": (s, 0.0), "whitened": (np.linalg.solve(omega, s), 0.0),
                "gains": (s.conj().T @ np.linalg.solve(omega, s), 0.0), "mses": (e, 1.0),
                "weights": (np.linalg.inv(e), 1.0),
                "equalizers": (mmse_equalizer(problem, precoders, k), 0.0)}[part]

    if part == "rate":
        rate = -sum(np.linalg.slogdet(mse_matrix_mmse(problem, precoders, k))[1]
                    for k in range(problem.num_users)) / np.log(2.0)
        assert rx.rate == sum_rate(problem, precoders) == pytest.approx(rate, rel=1e-12)
    elif part == "wsmse":
        wsmse = sum(np.trace(problem.mse_weights[k, :d[k], :d[k]] @ mse_matrix(problem, precoders, equalizers, k)).real
                    for k in range(problem.num_users))
        assert rx.wsmse(equalizers) == wsmse_objective(problem, precoders, equalizers)
        assert rx.wsmse(equalizers) == pytest.approx(wsmse, rel=1e-12)
    elif part == "usage":
        usage = [sum(np.trace(problem.constraints[k, m, :tx[k], :tx[k]] @ b @ b.conj().T).real
                     for k, b in enumerate(precoders)) for m in range(problem.num_constraints)]
        close(rx.usage, np.array(usage))
        assert np.array_equal(constraint_usage(problem, precoders), rx.usage)
    else:
        for k, got in enumerate(getattr(rx, part)):
            want, diagonal = user_block(k)
            rows, cols = want.shape
            close(got[:rows, :cols], want)
            assert np.array_equal(got, padded(got[:rows, :cols], got.shape, diagonal))


def test_mmse_equalizer_scalar_values():
    # interference-free pair: Omega = 1
    problem = scalar_problem(h=1.0, g=0.0)
    b = [np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]])]
    a = mmse_equalizer(problem, b, 0)
    assert np.allclose(a, [[0.5]])
    problem2 = scalar_problem(h=2.0, g=0.0)
    a2 = mmse_equalizer(problem2, b, 0)
    assert np.allclose(a2, [[0.4]])


def test_mse_matrix_zero_precoder():
    problem = scalar_problem()
    b = [np.zeros((1, 1), dtype=complex)] * 2
    a = [np.zeros((1, 1), dtype=complex)] * 2
    assert np.allclose(mse_matrix(problem, b, a, 0), np.eye(1))


def test_mse_matrix_scalar_value():
    # 0.25 - 0.5 - 0.5 + 0.25 + 1 = 0.5 with Omega = 1
    problem = scalar_problem(h=1.0, g=0.0)
    b = [np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]])]
    a = [np.array([[0.5 + 0j]]), np.array([[0.5 + 0j]])]
    assert np.allclose(mse_matrix(problem, b, a, 0), [[0.5]])


def test_mse_matrix_mmse_values():
    problem = scalar_problem(h=1.0, g=0.0)
    b = [np.zeros((1, 1), dtype=complex)] * 2
    assert np.allclose(mse_matrix_mmse(problem, b, 0), np.eye(1))
    b = [np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]])]
    assert np.allclose(mse_matrix_mmse(problem, b, 0), [[0.5]])


def test_mse_matrix_mmse_diagonal_case():
    problem = InterferenceProblem.from_blocks(
        channels=((np.diag([2.0, 1.0]).astype(complex),),),
        constraints=((np.eye(2, dtype=complex),),),
        budgets=[1.0], streams=[2], mse_weights=(np.eye(2),),
    )
    e = mse_matrix_mmse(problem, [np.eye(2, dtype=complex)], 0)
    assert np.allclose(e, np.diag([0.2, 0.5]))


def test_mmse_consistency_identity():
    # mse with the MMSE equalizer substituted equals the closed form
    rng = np.random.default_rng(6)
    for _ in range(20):
        system = random_system(rng, m=2, k=2, nt=2, nr=2, kappa=2, d=2)
        problem = build_interference_problem(system)
        precoders = random_precoders(rng, problem, scale=0.7)
        for k in range(2):
            a = mmse_equalizer(problem, precoders, k)
            equalizers = [a if i == k else np.zeros((2, problem.streams[i])) for i in range(2)]
            direct = mse_matrix(problem, precoders, equalizers, k)
            closed = mse_matrix_mmse(problem, precoders, k)
            assert np.linalg.norm(direct - closed) <= 1e-10


def test_mmse_optimality_and_contraction():
    # perturbing the MMSE equalizer never reduces the weighted error
    rng = np.random.default_rng(7)
    system = random_system(rng, m=2, k=2, nt=2, nr=2, kappa=2, d=2)
    problem = build_interference_problem(system)
    precoders = random_precoders(rng, problem, scale=0.5)
    equalizers = [mmse_equalizer(problem, precoders, k) for k in range(2)]
    base = wsmse_objective(problem, precoders, equalizers)
    for _ in range(100):
        k = int(rng.integers(0, 2))
        delta = rng.standard_normal(equalizers[k].shape) + 1j * rng.standard_normal(equalizers[k].shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        perturbed = [e.copy() for e in equalizers]
        perturbed[k] = perturbed[k] + delta
        assert wsmse_objective(problem, precoders, perturbed) >= base - 1e-12
    # with MMSE receivers every error covariance satisfies 0 < E <= I
    for k in range(2):
        evals = np.linalg.eigvalsh(mse_matrix_mmse(problem, precoders, k))
        assert np.all(evals > 0.0)
        assert np.all(evals <= 1.0 + 1e-10)


def test_wsmse_objective_values():
    problem = scalar_problem(h=1.0, g=1.0)
    zero_b = [np.zeros((1, 1), dtype=complex)] * 2
    zero_a = [np.zeros((1, 1), dtype=complex)] * 2
    assert wsmse_objective(problem, zero_b, zero_a) == pytest.approx(2.0)


def test_wsmse_matches_per_stream_oracle():
    # oracle: sum_j w_kj * MSE_kj from the diagonal entries
    rng = np.random.default_rng(8)
    system = random_system(rng, m=2, k=2, nt=2, nr=2, kappa=2, d=2)
    weights = tuple(np.diag(rng.uniform(0.2, 2.0, 2)).astype(complex) for _ in range(2))
    problem = build_interference_problem(system, mse_weights=weights)
    precoders = random_precoders(rng, problem, scale=0.5)
    equalizers = [mmse_equalizer(problem, precoders, k) for k in range(2)]
    expected = 0.0
    for k in range(2):
        e = mse_matrix(problem, precoders, equalizers, k)
        for j in range(2):
            expected += weights[k][j, j].real * e[j, j].real
    assert wsmse_objective(problem, precoders, equalizers) == pytest.approx(expected, abs=1e-12)


def test_sum_rate_values():
    problem = scalar_problem(h=1.0, g=0.0)
    zero_b = [np.zeros((1, 1), dtype=complex)] * 2
    assert sum_rate(problem, zero_b) == pytest.approx(0.0)
    # scalar: E = 0.5 -> one bit
    single = InterferenceProblem.from_blocks(
        channels=((np.array([[1.0 + 0j]]),),),
        constraints=((np.array([[1.0 + 0j]]),),),
        budgets=[1.0], streams=[1], mse_weights=(np.eye(1),),
    )
    assert sum_rate(single, [np.array([[1.0 + 0j]])]) == pytest.approx(1.0)
    # diagonal MSE matrix diag(0.5, 0.25) -> 3 bits
    diag = InterferenceProblem.from_blocks(
        channels=((np.diag([1.0, np.sqrt(3.0)]).astype(complex),),),
        constraints=((np.eye(2, dtype=complex),),),
        budgets=[2.0], streams=[2], mse_weights=(np.eye(2),),
    )
    assert sum_rate(diag, [np.eye(2, dtype=complex)]) == pytest.approx(3.0)


def test_sum_rate_unitary_invariance():
    rng = np.random.default_rng(9)
    system = random_system(rng, m=2, k=2, nt=2, nr=2, kappa=2, d=2)
    problem = build_interference_problem(system)
    precoders = random_precoders(rng, problem, scale=0.5)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    rotated = [b.copy() for b in precoders]
    rotated[0] = rotated[0] @ q
    assert sum_rate(problem, rotated) == pytest.approx(sum_rate(problem, precoders), rel=1e-10)


def test_constraint_usage_zero_and_unit_columns():
    rng = np.random.default_rng(10)
    system = random_system(rng, m=2, k=1, nt=2, nr=2, kappa=1, d=2)
    problem = build_interference_problem(system)
    assert np.allclose(constraint_usage(problem, [np.zeros((2, 2))]), [0.0, 0.0])
    b = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    usage = constraint_usage(problem, [b])
    served = system.serving_sets[0][0]
    assert usage[served] == pytest.approx(2.0)
    assert usage[1 - served] == pytest.approx(0.0)


def test_srm_weight_update_values():
    problem = scalar_problem(h=1.0, g=0.0)
    w = srm_weight_update(problem, [np.zeros((1, 1), dtype=complex)] * 2)
    assert np.allclose(w[0], np.eye(1))
    diag = InterferenceProblem.from_blocks(
        channels=((np.diag([1.0, np.sqrt(3.0)]).astype(complex),),),
        constraints=((np.eye(2, dtype=complex),),),
        budgets=[2.0], streams=[2], mse_weights=(np.eye(2),),
    )
    w2 = srm_weight_update(diag, [np.eye(2, dtype=complex)])
    assert np.allclose(w2[0], np.diag([2.0, 4.0]))


def reference_receive_side(problem, precoders):
    """Every :class:`ReceiveSide` part as the separate kernels evaluated it
    before they shared one evaluation: the gains solved afresh for the rate,
    again for the error covariances (made Hermitian there), and the MMSE
    equalizers from their own solve."""
    b = problem.precoders(precoders)
    omegas = interference_covariances(problem, b)
    hb = problem.direct @ b
    eye = np.eye(hb.shape[-1])
    whitened = np.linalg.solve(omegas, hb)
    gains = hermitian_part(adjoint(hb) @ whitened)
    rate = 0.0
    for value in np.linalg.slogdet(eye + gains)[1]:
        rate += value / LOG2
    g = adjoint(hb) @ np.linalg.solve(omegas, hb)
    mses = hermitian_part(np.linalg.inv(eye + 0.5 * (g + adjoint(g))))
    return {"omegas": omegas, "signals": hb, "whitened": whitened, "gains": gains, "mses": mses,
            "weights": hermitian_part(np.linalg.inv(mses)),
            "equalizers": np.linalg.solve(omegas + hb @ adjoint(hb), hb), "rate": float(rate),
            "usage": weight_usage(problem.constraints, problem.constraint_supports, b)}


def test_shared_receive_gains_give_the_bits_of_separate_evaluations(mixed_problems):
    # users of mixed sizes (padded transmit coordinates and streams) and the
    # K = 10 cooperation-sweep problems: every part of one receive side, read
    # in any order, and the one-call functions are the bits of separate
    # evaluations; each user's block of Omega_k, A_k and E_k is the per-user
    # reference's, within a few K eps where the users share their sizes (the
    # one-product sum of Omega_k against the ascending-l loop) and 1e-12
    # where the padded solves round differently
    rng = np.random.default_rng(31)
    cellular = [build_interference_problem(realize(ScenarioConfig(
        cluster_size=5, users_per_cell=2, nt=4, nr=2, streams=2, cooperation_factor=kappa,
        boundary_snr_db=20.0, seed=kappa))) for kappa in (1, 2, 5)]
    for problem in list(mixed_problems.values()) + cellular:
        tx, rx_dims, d = problem.tx_dims, problem.rx_dims, problem.streams
        for scale in (0.05, 0.6, 3.0):
            precoders = problem.precoders(random_precoders(rng, problem, scale))
            want = reference_receive_side(problem, precoders)
            for order in (list(want), list(want)[::-1]):
                rx = ReceiveSide(problem, precoders)
                for part in order:
                    assert np.array_equal(getattr(rx, part), want[part]), part
            assert sum_rate(problem, precoders) == want["rate"]
            assert np.array_equal(srm_weight_update(problem, precoders), want["weights"])
            assert np.array_equal(constraint_usage(problem, precoders), want["usage"])
            cut = [b[:t, :s] for b, t, s in zip(precoders, tx, d)]
            uniform = len({*tx}) == len({*rx_dims}) == len({*d}) == 1
            for k in range(problem.num_users):
                r = rx_dims[k]
                omega = interference_covariance(problem, cut, k)
                for got, single in ((rx.omegas[k][:r, :r], omega),
                                    (rx.equalizers[k][:r, :d[k]], mmse_equalizer(problem, cut, k, omega)),
                                    (rx.mses[k][:d[k], :d[k]], mse_matrix_mmse(problem, cut, k, omega))):
                    if uniform:
                        bound = 4 * problem.num_users * np.finfo(float).eps
                        assert np.linalg.norm(got - single) <= bound * np.linalg.norm(single)
                    else:
                        assert np.linalg.norm(got - single) <= 1e-12 * np.linalg.norm(single)


def test_stacks_with_the_wrong_user_count_or_oversized_blocks_are_rejected():
    # a one-user stack on a three-user problem used to be broadcast to every
    # user, and K - 1 users failed inside numpy with a bare ValueError
    problem = build_interference_problem(random_system(np.random.default_rng(12), m=2, k=3, d=1))
    b = np.full((problem.tx_dims[0], 1), 0.1, dtype=complex)
    a = np.ones((problem.rx_dims[0], 1), dtype=complex)
    for precoders in ([b], [b, b], [b] * 4, np.array([b] * 2)):
        for evaluate in (sum_rate, constraint_usage, srm_weight_update, ReceiveSide):
            with pytest.raises(ContractViolationError, match="blocks given for 3 users"):
                evaluate(problem, precoders)
        with pytest.raises(ContractViolationError, match="blocks given for 3 users"):
            wsmse_objective(problem, [b] * 3, [a] * len(precoders))
    wide = np.ones((problem.tx_dims[0], 2), dtype=complex)
    tall = np.ones((problem.channels.shape[-2] + 1, 1), dtype=complex)
    with pytest.raises(ContractViolationError, match="larger than"):
        sum_rate(problem, [b, b, wide])
    with pytest.raises(ContractViolationError, match="larger than"):
        wsmse_objective(problem, [b] * 3, [a, a, tall])
    assert sum_rate(problem, [b] * 3) > 0.0


def test_blocks_larger_than_their_users_own_sizes_are_rejected(mixed_problems):
    # user 0 of the sizes problem has m_t = 2, m_r = 3 and d = 1; a 4 x 2
    # block fits the padded (4, 2) shape, and its extra rows and column used
    # to ride user 0's padding (sum_rate 5.330 instead of 4.946)
    problem = mixed_problems["sizes"]
    blocks = [0.3 * np.ones((t, d), dtype=complex) for t, d in zip(problem.tx_dims, problem.streams)]
    assert sum_rate(problem, blocks) > 0.0
    for shape in ((4, 2), (2, 2), (3, 1)):
        oversized = [np.ones(shape, dtype=complex)] + blocks[1:]
        for evaluate in (sum_rate, constraint_usage, ReceiveSide):
            with pytest.raises(ContractViolationError, match="block 0 has shape"):
                evaluate(problem, oversized)
    equalizers = [np.ones((r, d), dtype=complex) for r, d in zip(problem.rx_dims, problem.streams)]
    with pytest.raises(ContractViolationError, match=r"block 1 has shape \(3, 2\), larger than \(2, 2\)"):
        wsmse_objective(problem, blocks, [equalizers[0], np.ones((3, 2), dtype=complex), equalizers[2]])


def test_padded_stacks_with_nonzero_padding_are_rejected(mixed_problems):
    # user 0 of the sizes problem has m_t = 2, m_r = 3 and d = 1, user 1
    # m_r = 2: an entry in their padding used to be taken as is
    problem = mixed_problems["sizes"]
    assert problem.padded and not build_interference_problem(random_system(np.random.default_rng(13))).padded
    rng = np.random.default_rng(14)
    precoders = problem.precoders(random_precoders(rng, problem))
    equalizers = problem.equalizers(
        [np.ones((r, d), dtype=complex) for r, d in zip(problem.rx_dims, problem.streams)])
    assert problem.precoders(precoders) is precoders and sum_rate(problem, precoders) > 0.0
    assert np.isfinite(wsmse_objective(problem, precoders, equalizers))
    for row, col in ((3, 0), (0, 1), (2, 1)):
        stained = precoders.copy()
        stained[0, row, col] = 1e-300
        for evaluate in (sum_rate, constraint_usage, ReceiveSide):
            with pytest.raises(ContractViolationError, match=r"block 0 has nonzero entries outside its \(2, 1\)"):
                evaluate(problem, stained)
    stained = equalizers.copy()
    stained[1, 2, 0] = 1.0
    with pytest.raises(ContractViolationError, match=r"block 1 has nonzero entries outside its \(2, 2\)"):
        wsmse_objective(problem, precoders, stained)
    # a NaN inside a user's own block is not padding
    inside = precoders.copy()
    inside[0, 1, 0] = np.nan
    assert problem.precoders(inside) is inside


def broadcast_interference_covariances(problem, precoders):
    """Omega_k from the broadcast product over the (K, K) (victim, source)
    pairs, cross[k, l] @ B_l: one small product per pair."""
    hb = problem.cross @ problem.precoders(precoders)
    k, _, mr, d = hb.shape
    r = hb.swapaxes(1, 2).reshape(k, mr, k * d)
    return hermitian_part(problem.rx_eye + r @ adjoint(r))


def broadcast_reverse_link_sums(channels, mats, base=None):
    """base + P_k^H Q_k with Q_k = [X_0 H_{0,k}; ...; X_{K-1} H_{K-1,k}],
    the blocks X_l H_{l,k} from the broadcast product over the (K, K)
    pairs."""
    sources = np.ascontiguousarray(channels.swapaxes(0, 1))
    k, _, mr, mt = sources.shape
    stacked_h = np.ascontiguousarray(adjoint(sources.reshape(k, k * mr, mt)))
    out = stacked_h @ (np.asarray(mats) @ sources).reshape(k, k * mr, mt)
    return out if base is None else base + out


def test_per_source_layouts_give_the_bits_of_the_pairwise_products(mixed_problems):
    from netmimo.model import reverse_link_sums

    problems = [build_interference_problem(realize(ScenarioConfig(
        cluster_size=5, users_per_cell=2, nt=4, nr=2, streams=2, cooperation_factor=kappa, seed=70 + kappa)))
        for kappa in (1, 2, 3, 5)] + list(mixed_problems.values())
    rng = np.random.default_rng(15)
    for problem in problems:
        k, mr, mt = problem.num_users, problem.channels.shape[-2], problem.channels.shape[-1]
        for scale in (1e-3, 1.0, 30.0):
            precoders = random_precoders(rng, problem, scale)
            assert np.array_equal(interference_covariances(problem, precoders),
                                  broadcast_interference_covariances(problem, precoders))
        x = rng.standard_normal((k, mr, mr)) + 1j * rng.standard_normal((k, mr, mr))
        base = rng.standard_normal((k, mt, mt)) + 1j * rng.standard_normal((k, mt, mt))
        for channels, links in ((problem.channels, problem.reverse_channels), (problem.cross, problem.reverse_cross)):
            for b in (None, base, base[0]):
                assert np.array_equal(reverse_link_sums(links, x, b), broadcast_reverse_link_sums(channels, x, b))
