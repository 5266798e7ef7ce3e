"""Shared fixtures for the test suite."""

import multiprocessing

import numpy as np
import pytest

from repro import Mesh2D, Torus2D, make_category_workload
from repro.harness import shutdown_workers


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def mesh4():
    return Mesh2D(4)


@pytest.fixture
def mesh8():
    return Mesh2D(8)


@pytest.fixture
def torus4():
    return Torus2D(4)


@pytest.fixture
def heavy_workload16(rng):
    """A 16-node workload of high-network-intensity applications."""
    return make_category_workload("H", 16, rng)


@pytest.fixture
def light_workload16(rng):
    """A 16-node workload of CPU-bound applications."""
    return make_category_workload("L", 16, rng)


@pytest.fixture
def fresh_workers():
    """Start and end without a kept ``run_jobs`` pool.

    A kept worker is a snapshot of this process at its fork: a test that
    patches module state for its workers must fork them after the patch,
    and must not leave patched workers to the next test.
    """
    shutdown_workers()
    yield
    shutdown_workers()


@pytest.fixture
def worker_pids():
    """Callable returning the pids of this process's live pool workers."""
    return lambda: {
        child.pid for child in multiprocessing.active_children()
    }
