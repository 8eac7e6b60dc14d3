"""Byzantine agreement via work protocols (Section 5)."""

import pytest

from repro.agreement.byzantine import ByzantineAgreement
from repro.analysis import bounds
from repro.errors import ConfigurationError
from repro.sim.adversary import (
    CrashMidBroadcast,
    FixedSchedule,
    KillActive,
    RandomCrashes,
    compose,
)
from repro.sim.crashes import CrashDirective, CrashPhase

N_SYS, T = 20, 5


@pytest.mark.parametrize("protocol", ["A", "B", "C"])
def test_validity_failure_free(protocol):
    outcome = ByzantineAgreement(N_SYS, T, protocol=protocol).run(99, seed=1)
    assert outcome.agreement
    assert outcome.decided_value == 99
    assert len(outcome.decisions) == N_SYS
    assert outcome.valid_for(99)


@pytest.mark.parametrize("protocol", ["A", "B", "C"])
def test_agreement_when_general_crashes_mid_broadcast(protocol):
    adversary = FixedSchedule(
        [CrashDirective(pid=0, at_round=0, phase=CrashPhase.DURING_SEND)]
    )
    outcome = ByzantineAgreement(N_SYS, T, protocol=protocol).run(
        99, adversary=adversary, seed=2
    )
    assert outcome.general_crashed
    assert outcome.agreement  # everyone decides the same (possibly default)
    assert outcome.valid_for(99)  # vacuously: the general crashed


@pytest.mark.parametrize("protocol", ["A", "B", "C"])
@pytest.mark.parametrize("seed", range(5))
def test_agreement_under_random_sender_crashes(protocol, seed):
    adversary = RandomCrashes(T, max_action_index=10, victims=list(range(T + 1)))
    outcome = ByzantineAgreement(N_SYS, T, protocol=protocol).run(
        7, adversary=adversary, seed=seed
    )
    assert outcome.agreement, outcome.decisions
    assert outcome.valid_for(7)


@pytest.mark.parametrize("protocol", ["A", "B", "C"])
def test_agreement_under_kill_active_sender(protocol):
    outcome = ByzantineAgreement(N_SYS, T, protocol=protocol).run(
        5, adversary=KillActive(T, actions_before_kill=2), seed=3
    )
    assert outcome.agreement
    assert outcome.valid_for(5)


@pytest.mark.parametrize("protocol", ["A", "B", "C"])
@pytest.mark.parametrize("seed", range(3))
def test_message_complexity_under_sender_crashes(protocol, seed):
    """Section 5's message bounds (n + O(t sqrt t) via A and B, n + O(t log t)
    via C) while up to t of the t + 1 senders crash, mid-broadcast too."""
    n_system, t = 16, 5
    adversary = RandomCrashes(t, max_action_index=12, victims=range(t + 1))
    outcome = ByzantineAgreement(n_system, t, protocol=protocol).run(
        7, adversary=adversary, seed=seed
    )
    assert outcome.agreement, outcome.decisions
    assert outcome.valid_for(7)
    bound = bounds.byzantine_messages(n_system, t, protocol)
    assert bound.holds_for(outcome.metrics.messages_total)


def test_every_process_is_informed_failure_free():
    outcome = ByzantineAgreement(N_SYS, T, protocol="B").run(31, seed=5)
    assert set(outcome.decisions) == set(range(N_SYS))
    assert set(outcome.decisions.values()) == {31}


def test_uninformed_senders_spread_default_value():
    # The general informs nobody (crashes before its broadcast): the
    # senders still run the protocol and everyone decides the default 0.
    adversary = FixedSchedule(
        [CrashDirective(pid=0, at_round=0, phase=CrashPhase.BEFORE_ACTION)]
    )
    outcome = ByzantineAgreement(N_SYS, T, protocol="B").run(
        88, adversary=adversary, seed=6
    )
    assert outcome.agreement
    assert outcome.decided_value == 0


def test_mixed_crashes_including_mid_checkpoint():
    adversary = compose(
        FixedSchedule([CrashDirective(pid=0, at_round=0, phase=CrashPhase.DURING_SEND)]),
        CrashMidBroadcast(list(range(1, T))),
    )
    for protocol in ("A", "B", "C"):
        outcome = ByzantineAgreement(N_SYS, T, protocol=protocol).run(
            12, adversary=adversary, seed=7
        )
        assert outcome.agreement, (protocol, outcome.decisions)


def test_rejects_too_small_system():
    with pytest.raises(ConfigurationError):
        ByzantineAgreement(4, 5, protocol="B")


def test_rejects_unknown_protocol():
    with pytest.raises(ConfigurationError):
        ByzantineAgreement(10, 3, protocol="D").run(1)


def test_decide_round_covers_protocol_bound():
    ba = ByzantineAgreement(N_SYS, T, protocol="B")
    assert ba.decide_round() > 3 * N_SYS  # at least the B round bound
