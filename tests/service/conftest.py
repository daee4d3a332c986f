"""Service-test fixtures: no worker subprocess may outlive its test."""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.service.backends import worker_children


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail any test that leaves a replica worker running or unreaped."""
    yield
    if Path("/proc/self/stat").exists():
        assert worker_children() == [], "a worker subprocess outlived its test"
