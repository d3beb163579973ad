"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.grid.testbeds import cluster_testbed, egee_like_testbed, ideal_testbed
from repro.services.base import LocalService
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams


@pytest.fixture
def engine() -> Engine:
    """A fresh simulation engine."""
    return Engine()


@pytest.fixture
def streams() -> RandomStreams:
    """Deterministic random streams."""
    return RandomStreams(seed=1234)


@pytest.fixture
def ideal_grid(engine):
    """Zero-overhead, infinite-capacity grid."""
    return ideal_testbed(engine)


@pytest.fixture
def cluster_grid(engine, streams):
    """Low-latency single-site cluster."""
    return cluster_testbed(engine, streams)


@pytest.fixture
def submitted():
    """``watch(grid)``: the list every description *grid* is submitted
    from then on is appended to.  A finished job's ledger row keeps no
    description, so tests of what was submitted read it here."""

    def watch(grid):
        descriptions = []
        submit = grid.submit

        def recording(description):
            descriptions.append(description)
            return submit(description)

        grid.submit = recording
        return descriptions

    return watch


@pytest.fixture
def egee_grid(engine, streams):
    """Small EGEE-like grid (no background load for determinism)."""
    return egee_like_testbed(
        engine, streams, n_sites=3, workers_per_ce=8, with_background_load=False
    )


@pytest.fixture
def cache_dir(request, tmp_path):
    """Throwaway directory for FileStore-backed cache tests.

    Tagged with the ``cache_files`` marker so disk-writing cache tests
    are greppable (``pytest -m cache_files``) and guaranteed isolated:
    every test gets its own tmp_path-backed directory and never shares
    entries with another test.
    """
    request.node.add_marker(pytest.mark.cache_files)
    directory = tmp_path / "result-cache"
    directory.mkdir()
    return directory


@pytest.fixture
def local_factory(engine):
    """Service factory producing constant-duration local stubs.

    ``factory(name, inputs, outputs)`` -> LocalService with duration 1s,
    which is what the workflow patterns module expects.
    """

    def factory(name, inputs, outputs):
        return LocalService(engine, name, tuple(inputs), tuple(outputs), duration=1.0)

    return factory
