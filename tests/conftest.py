"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import native
from repro.core.exploration import ExplorationProtocol
from repro.core.imitation import ImitationProtocol
from repro.games.latency import ConstantLatency, LinearLatency, MonomialLatency
from repro.games.network import braess_network_game
from repro.games.singleton import SingletonCongestionGame, make_linear_singleton
from repro.games.symmetric import make_symmetric_game


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def linear_singleton() -> SingletonCongestionGame:
    """A small linear singleton game: 30 players, 3 links with speeds 1, 2, 4."""
    return make_linear_singleton(30, [1.0, 2.0, 4.0])


@pytest.fixture
def quadratic_singleton() -> SingletonCongestionGame:
    """A singleton game with quadratic latencies (elasticity 2)."""
    return SingletonCongestionGame(
        24, [MonomialLatency(1.0, 2.0), MonomialLatency(2.0, 2.0), MonomialLatency(0.5, 2.0)]
    )


@pytest.fixture
def mixed_singleton() -> SingletonCongestionGame:
    """A singleton game mixing constant, linear and quadratic links."""
    return SingletonCongestionGame(
        20, [ConstantLatency(8.0), LinearLatency(1.0, 0.0), MonomialLatency(0.25, 2.0)]
    )


@pytest.fixture
def two_path_network():
    """A tiny symmetric game with two overlapping two-resource strategies."""
    return make_symmetric_game(
        10,
        {
            "shared": LinearLatency(1.0, 0.0),
            "top": LinearLatency(2.0, 0.0),
            "bottom": ConstantLatency(6.0),
        },
        {
            "via-top": ["shared", "top"],
            "via-bottom": ["shared", "bottom"],
        },
    )


@pytest.fixture
def braess_game():
    """The Braess network with 12 players."""
    return braess_network_game(12)


@pytest.fixture
def imitation_protocol() -> ImitationProtocol:
    """Default imitation protocol."""
    return ImitationProtocol()


@pytest.fixture
def aggressive_imitation() -> ImitationProtocol:
    """Imitation protocol with lambda = 1 and no nu threshold (moves fast)."""
    return ImitationProtocol(lambda_=1.0, use_nu_threshold=False)


@pytest.fixture
def exploration_protocol() -> ExplorationProtocol:
    """Default exploration protocol."""
    return ExplorationProtocol()


def pytest_generate_tests(metafunc):
    """Where numba is installed, run every ``native_kernel`` test under both
    the interpreted and the compiled kernel."""
    if "native_kernel" in metafunc.fixturenames and native.NUMBA_AVAILABLE:
        metafunc.parametrize("native_kernel", ["interpreted", "jit"],
                             indirect=True)


@pytest.fixture
def native_kernel(request, monkeypatch):
    """Make ``backend="native"`` run the fused kernel on every host.

    ``"interpreted"`` (the default, and the only mode without numba) puts
    the plain-Python ``_chunk_loops``/``_seed_loops`` where the compiled
    kernel goes, so the kernel's body runs uncompiled; ``"jit"`` keeps the
    compiled kernel.  Interpreted, ``_seed_loops`` seeds the global
    ``np.random`` stream, which is restored afterwards.  What
    ``engine_runtime_info`` reports is left alone.
    """
    mode = getattr(request, "param", "interpreted")
    if mode == "jit":
        yield mode
        return
    state = np.random.get_state()
    monkeypatch.setattr(native, "_chunk_loops_jit", native._chunk_loops)
    monkeypatch.setattr(native, "_seed_loops_jit", native._seed_loops)
    try:
        yield mode
    finally:
        np.random.set_state(state)


@pytest.fixture
def batch_round(monkeypatch):
    """Make ``backend="native"`` run as on a numba-free host, on every host."""
    monkeypatch.setattr(native, "_chunk_loops_jit", None)
    monkeypatch.setattr(native, "_seed_loops_jit", None)
