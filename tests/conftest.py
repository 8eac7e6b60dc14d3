"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import pytest

from repro.sim.adversary import (
    CrashMidBroadcast,
    FixedSchedule,
    KillActive,
    RandomCrashes,
)
from repro.sim.crashes import CrashDirective


def adversary_battery(t: int):
    """Factories for the standard adversary battery used across protocol
    tests (mirrors the E1/E2 sweeps of ``scenarios/paper_claims.json``)."""
    return [
        lambda: None,
        lambda: RandomCrashes(max(1, t // 2), max_action_index=20),
        lambda: KillActive(t - 1, actions_before_kill=2),
        lambda: KillActive(t - 1, actions_before_kill=1),
        lambda: CrashMidBroadcast(list(range(min(6, t)))),
    ]


def all_but_one_dead(t: int) -> FixedSchedule:
    """Every process except the last crashes before doing anything."""
    return FixedSchedule([CrashDirective(pid=pid, at_round=0) for pid in range(t - 1)])


@pytest.fixture
def seeds():
    return range(5)
