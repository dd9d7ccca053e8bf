"""Problems shared by the model and solver tests."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from netmimo import InterferenceProblem, PartialCooperationSystem, build_interference_problem, linalg
from netmimo.single_user import SingleUserProblem


def mixed_serving_system():
    """Four users of a three-BS system with serving-set sizes 1/2/2/1 and
    stream counts 1/2/3/2, two transmit and three receive antennas."""
    rng = np.random.default_rng(12)
    chans = rng.standard_normal((4, 3, 3, 2)) + 1j * rng.standard_normal((4, 3, 3, 2))
    return PartialCooperationSystem(nt=2, nr=3, bs_power=[1.0, 2.0, 1.5], channels=chans,
                                    serving_sets=((0,), (0, 1), (1, 2), (2,)),
                                    streams=(1, 2, 3, 2))


def mixed_stream_system():
    """Three users, each served by two of three BSs, with stream counts
    1/3/2, three transmit and three receive antennas."""
    rng = np.random.default_rng(14)
    chans = rng.standard_normal((3, 3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3, 3))
    return PartialCooperationSystem(nt=3, nr=3, bs_power=[1.0, 1.0, 2.0], channels=chans,
                                    serving_sets=((0, 1), (1, 2), (0, 2)), streams=(1, 3, 2))


def mixed_serving_problem():
    """The stacked problem of :func:`mixed_serving_system`: transmit sizes
    2/4/4/2, three receive antennas."""
    return build_interference_problem(mixed_serving_system())


def mixed_size_problem():
    """Three users that differ in transmit (2/4/3), receive (3/2/2) and
    stream (1/2/2) sizes, with two diagonal constraints and unequal MSE
    weights."""
    rng = np.random.default_rng(13)
    tx, rx, d = (2, 4, 3), (3, 2, 2), (1, 2, 2)
    chans = tuple(
        tuple(rng.standard_normal((rx[k], tx[l])) + 1j * rng.standard_normal((rx[k], tx[l]))
              for l in range(3))
        for k in range(3)
    )
    constraints = []
    for k in range(3):
        first = (np.arange(tx[k]) < tx[k] // 2).astype(float)
        constraints.append((np.diag(first).astype(complex), np.diag(1.0 - first).astype(complex)))
    return InterferenceProblem.from_blocks(
        channels=chans, constraints=tuple(constraints), budgets=[1.0, 1.5], streams=d,
        mse_weights=(np.eye(1), np.diag([1.0, 0.5]), np.diag([2.0, 1.0])))


def antenna_link(rng, weights=(1.0, 1.0)):
    """A 4x2 link at 10 dB with one power budget per transmit antenna."""
    scale = np.sqrt(10.0 / 2.0)
    h = scale * (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    return SingleUserProblem(
        channel=h, noise_cov=np.eye(2, dtype=complex),
        constraints=tuple(np.diag(np.eye(4)[i]).astype(complex) for i in range(4)),
        budgets=np.full(4, 0.25), weights=np.asarray(weights), streams=2,
    )


def dense_link(rng, weights=(1.0, 1.0)):
    """A 4x2 link at 10 dB with three rank-2 Hermitian PSD constraints that
    have off-diagonal entries (their sum is PD)."""
    scale = np.sqrt(10.0 / 2.0)
    h = scale * (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    factors = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    return SingleUserProblem(
        channel=h, noise_cov=np.eye(2, dtype=complex),
        constraints=tuple(0.25 * f @ f.conj().T for f in factors),
        budgets=np.array([0.5, 0.3, 0.4]), weights=np.asarray(weights), streams=2,
    )


def count_decompositions(monkeypatch, names=("eigh", "svd", "cholesky")) -> list:
    """Record (name, shape) of every call of the :mod:`netmimo.linalg`
    kernels ``names`` (by default eigh, svd and cholesky) made after this,
    in call order: every netmimo module-level name bound to a kernel is
    rebound to a counting wrapper."""
    calls = []
    modules = [module for name, module in sys.modules.items() if name.startswith("netmimo")]
    for name in names:
        kernel = getattr(linalg, name)

        def counting(a, *args, _name=name, _wrapped=kernel):
            calls.append((_name, np.shape(a)))
            return _wrapped(a, *args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture(scope="session")
def mixed_systems():
    """Physical systems whose users differ in serving-set size or stream
    count, keyed by what differs; every d_k is at most nt, so each
    (user, BS) pair can carry its own d_k orthonormal columns."""
    return {"serving_sets": replace(mixed_serving_system(), streams=(1, 2, 2, 1)),
            "streams": mixed_stream_system()}


@pytest.fixture(scope="session")
def mixed_problems():
    """Problems whose users differ in size, keyed by what differs."""
    return {"serving_sets": mixed_serving_problem(), "sizes": mixed_size_problem()}
