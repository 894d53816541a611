"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.core.parameters import AvailabilityParameters, paper_parameters
from repro.storage.raid import RaidGeometry


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for stochastic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def paper_params() -> AvailabilityParameters:
    """The paper's default RAID5(3+1) parameter set (hep = 0.001)."""
    return paper_parameters()


@pytest.fixture
def raid5_geometry() -> RaidGeometry:
    """RAID5(3+1) geometry used throughout the paper."""
    return RaidGeometry.raid5(3)


@pytest.fixture
def raid1_geometry() -> RaidGeometry:
    """RAID1(1+1) geometry used in the Fig. 6 comparison."""
    return RaidGeometry.raid1(2)


@pytest.fixture
def fast_failure_params() -> AvailabilityParameters:
    """Exaggerated rates so Monte Carlo runs see events quickly."""
    return paper_parameters(disk_failure_rate=1e-4, hep=0.05)


def _shm_entries() -> set[str]:
    shm_dir = Path("/dev/shm")
    return {entry.name for entry in shm_dir.iterdir()} if shm_dir.is_dir() else set()


@pytest.fixture
def no_shared_memory(monkeypatch):
    """Context manager failing its block if a shared-memory segment is made or left.

    Shards get their rows by pickling or through in-process views, never
    through a segment.  Inside the block, creating a ``SharedMemory`` in this
    process (or in a worker forked from it) raises and is recorded; on leaving
    it, whether the block returned or raised, no segment may have been created
    and ``/dev/shm`` must hold nothing new.  The checks run in the test body,
    so a leak fails the test itself.
    """

    @contextmanager
    def guard():
        attempts: list[tuple] = []

        def forbidden(*args, **kwargs):
            attempts.append((args, kwargs))
            raise AssertionError("a shared-memory segment was created")

        before = _shm_entries()
        with monkeypatch.context() as patch:
            patch.setattr(shared_memory, "SharedMemory", forbidden)
            try:
                yield
            finally:
                assert attempts == []
                assert _shm_entries() <= before

    return guard
