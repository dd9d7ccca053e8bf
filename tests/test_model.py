"""Model tests: stacked-problem construction and the error-covariance algebra."""

import numpy as np
import pytest

from netmimo import (
    ContractViolationError,
    InterferenceProblem,
    PartialCooperationSystem,
    build_interference_problem,
    constraint_usage,
    interference_covariance,
    mmse_equalizer,
    mse_matrix,
    mse_matrix_mmse,
    problem_from_json,
    problem_to_json,
    srm_weight_update,
    sum_rate,
    wsmse_objective,
)
from netmimo.model import interference_covariances, mmse_equalizers, mse_matrices_mmse


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
    return InterferenceProblem(
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
    for budget in (0.0, -1.0):
        with pytest.raises(ContractViolationError):
            InterferenceProblem(
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
    uniform = build_interference_problem(random_system(rng, m=3, k=4, kappa=2, d=2))
    arrays = uniform.arrays
    assert arrays.channels.shape == (4, 4, 2, 4) and arrays.constraints.shape == (4, 3, 4, 4)
    assert np.array_equal(arrays.channels[2, 1], uniform.channels[2][1])
    assert np.array_equal(arrays.cross[2, 1], uniform.channels[2][1])
    assert not np.any(arrays.cross[3, 3])
    assert np.array_equal(arrays.direct[3], uniform.direct_channel(3))
    assert np.array_equal(arrays.constraints[1, 2], uniform.constraints[1][2])
    assert arrays.tx_pad[0].size == 0 and arrays.stream_pad[0].size == 0

    # transmit sizes 2/4/4/2, stream counts 1/2/3/2, three receive antennas
    problem = mixed_problems["serving_sets"]
    arrays = problem.arrays
    assert arrays.channels.shape == (4, 4, 3, 4) and arrays.constraints.shape == (4, 3, 4, 4)
    assert arrays.mse_weights.shape == (4, 3, 3)
    for k in range(4):
        for l in range(4):
            expected = padded(problem.channels[k][l], (3, 4))
            assert np.array_equal(arrays.channels[k, l], expected)
            assert np.array_equal(arrays.cross[k, l], 0 * expected if k == l else expected)
        assert np.array_equal(arrays.direct[k], padded(problem.direct_channel(k), (3, 4)))
        for m in range(3):
            assert np.array_equal(arrays.constraints[k, m], padded(problem.constraints[k][m], (4, 4)))
        assert np.array_equal(arrays.mse_weights[k], padded(problem.mse_weights[k], (3, 3)))
    assert list(zip(*arrays.tx_pad)) == [(0, 2), (0, 3), (3, 2), (3, 3)]
    assert list(zip(*arrays.stream_pad)) == [(0, 1), (0, 2), (1, 2), (3, 2)]

    # receive sizes 3/2/2 are padded too
    problem = mixed_problems["sizes"]
    arrays = problem.arrays
    assert arrays.channels.shape == (3, 3, 3, 4)
    assert np.array_equal(arrays.channels[1, 2], padded(problem.channels[1][2], (3, 4)))
    assert list(zip(*arrays.tx_pad)) == [(0, 2), (0, 3), (2, 3)]
    assert list(zip(*arrays.stream_pad)) == [(0, 1)]


def test_batched_kernels_match_per_user_kernels_bit_for_bit():
    # on users of one size the batched kernels do the per-user arithmetic
    rng = np.random.default_rng(7)
    problem = build_interference_problem(random_system(rng, m=3, k=4, kappa=2, d=2))
    precoders = random_precoders(rng, problem, scale=0.6)
    omegas = interference_covariances(problem, precoders)
    for k in range(problem.num_users):
        assert np.array_equal(omegas[k], interference_covariance(problem, precoders, k))
    for batched, single in ((mmse_equalizers, mmse_equalizer), (mse_matrices_mmse, mse_matrix_mmse)):
        for k, x in enumerate(batched(problem, precoders, omegas)):
            assert np.array_equal(x, single(problem, precoders, k, omega=omegas[k]))


@pytest.mark.parametrize("name", ["uniform", "serving_sets", "sizes"])
def test_padded_kernels_match_per_user_references(name, mixed_problems):
    rng = np.random.default_rng(8)
    problem = mixed_problems.get(name) or build_interference_problem(random_system(rng, m=3, k=4, d=2))
    tx, rx, d = problem.tx_dims, problem.rx_dims, problem.streams
    precoders = random_precoders(rng, problem, scale=0.6)
    equalizers = [rng.standard_normal((r, s)) + 1j * rng.standard_normal((r, s)) for r, s in zip(rx, d)]

    def close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    # each user's block matches the per-user function; the padding is the
    # identity where the kernel inverts and zero elsewhere
    omegas = interference_covariances(problem, precoders)
    equalizers_mmse = mmse_equalizers(problem, precoders, omegas)
    mses = mse_matrices_mmse(problem, precoders, omegas)
    weights = srm_weight_update(problem, precoders, omegas)
    for k in range(problem.num_users):
        omega = interference_covariance(problem, precoders, k)
        close(omegas[k][:rx[k], :rx[k]], omega)
        assert np.array_equal(omegas[k], padded(omegas[k][:rx[k], :rx[k]], omegas[k].shape, 1.0))
        close(equalizers_mmse[k][:rx[k], :d[k]], mmse_equalizer(problem, precoders, k))
        a = equalizers_mmse[k]
        assert np.array_equal(a, padded(a[:rx[k], :d[k]], a.shape))
        e = mse_matrix_mmse(problem, precoders, k)
        close(mses[k][:d[k], :d[k]], e)
        assert np.array_equal(mses[k], padded(mses[k][:d[k], :d[k]], mses[k].shape, 1.0))
        close(weights[k][:d[k], :d[k]], np.linalg.inv(e))
        assert np.array_equal(weights[k], padded(weights[k][:d[k], :d[k]], weights[k].shape, 1.0))

    rate = -sum(np.linalg.slogdet(mse_matrix_mmse(problem, precoders, k))[1]
                for k in range(problem.num_users)) / np.log(2.0)
    assert sum_rate(problem, precoders) == pytest.approx(rate, rel=1e-12)
    wsmse = sum(np.trace(problem.mse_weights[k] @ mse_matrix(problem, precoders, equalizers, k)).real
                for k in range(problem.num_users))
    assert wsmse_objective(problem, precoders, equalizers) == pytest.approx(wsmse, rel=1e-12)
    usage = [sum(np.trace(problem.constraints[k][m] @ b @ b.conj().T).real
                 for k, b in enumerate(precoders)) for m in range(problem.num_constraints)]
    close(constraint_usage(problem, precoders), np.array(usage))


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
    problem = InterferenceProblem(
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
    single = InterferenceProblem(
        channels=((np.array([[1.0 + 0j]]),),),
        constraints=((np.array([[1.0 + 0j]]),),),
        budgets=[1.0], streams=[1], mse_weights=(np.eye(1),),
    )
    assert sum_rate(single, [np.array([[1.0 + 0j]])]) == pytest.approx(1.0)
    # diagonal MSE matrix diag(0.5, 0.25) -> 3 bits
    diag = InterferenceProblem(
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
    diag = InterferenceProblem(
        channels=((np.diag([1.0, np.sqrt(3.0)]).astype(complex),),),
        constraints=((np.eye(2, dtype=complex),),),
        budgets=[2.0], streams=[2], mse_weights=(np.eye(2),),
    )
    w2 = srm_weight_update(diag, [np.eye(2, dtype=complex)])
    assert np.allclose(w2[0], np.diag([2.0, 4.0]))


def test_problem_serialization_round_trip():
    rng = np.random.default_rng(11)
    system = random_system(rng, m=2, k=2, nt=2, nr=2, kappa=2, d=2)
    problem = build_interference_problem(system)
    text = problem_to_json(problem)
    again = problem_from_json(text)
    assert problem_to_json(again) == text
    for k in range(2):
        for l in range(2):
            assert np.array_equal(problem.channels[k][l], again.channels[k][l])
        for m in range(2):
            assert np.array_equal(problem.constraints[k][m], again.constraints[k][m])
    assert np.array_equal(problem.budgets, again.budgets)
