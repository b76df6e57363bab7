"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

import repro
import repro.operators.plan as plan_module
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_cluster() -> Cluster:
    return Cluster(3, laptop_machine(cores=4))


@pytest.fixture
def cluster4() -> Cluster:
    return Cluster(4, laptop_machine(cores=4))


@pytest.fixture
def chain12_basis() -> repro.SymmetricBasis:
    group = chain_symmetries(12, momentum=0, parity=0, inversion=0)
    return repro.SymmetricBasis(group, hamming_weight=6)


@pytest.fixture
def chain12_operator(chain12_basis) -> repro.Operator:
    return repro.Operator(repro.heisenberg_chain(12), chain12_basis)


@contextmanager
def _plan_budget(nbytes: int):
    """Plans made inside get a budget of exactly ``nbytes``: the host
    memory reader they are sized by returns ``nbytes / PLAN_MEMORY_SHARE``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            plan_module, "available_memory",
            lambda: round(nbytes / plan_module.PLAN_MEMORY_SHARE),
        )
        yield


@pytest.fixture(scope="session")
def plan_budget():
    """``with plan_budget(nbytes):`` sets the budget of the plans made inside
    (session-scoped, so hypothesis tests take it too)."""
    return _plan_budget


def random_state_batch(
    rng: np.random.Generator, n_sites: int, size: int = 256
) -> np.ndarray:
    """Uniform random basis states on ``n_sites`` bits."""
    return rng.integers(0, 1 << n_sites, size=size, dtype=np.uint64)
