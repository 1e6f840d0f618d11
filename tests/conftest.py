"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.net.network import UniformRandomDelay


@pytest.fixture
def unit_inputs_n4():
    """Four well-spread inputs in [0, 1]."""
    return [0.0, 0.25, 0.75, 1.0]


@pytest.fixture
def unit_inputs_n7():
    """Seven inputs in [0, 1] with maximal spread."""
    return [0.0, 0.1, 0.35, 0.5, 0.65, 0.9, 1.0]


@pytest.fixture
def random_delays():
    """A seeded random delay model (deterministic across runs)."""
    return UniformRandomDelay(low=0.1, high=2.0, seed=42)


def assert_execution_ok(result, context=""):
    """Assert that an execution met all correctness conditions, with context."""
    assert result.ok, f"{context}: {result.report.summary()} / {result.report.violations}"
