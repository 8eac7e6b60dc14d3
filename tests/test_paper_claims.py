"""The paper's quantitative claims E1-E17, asserted over one pinned suite.

``scenarios/paper_claims.json`` holds every claim's workload as data.
Each entry runs once here through :func:`repro.api.run_scenarios`.
Every run is checked against its protocol's theorem bounds by
:func:`repro.analysis.verify.verify_run`; the claims that compare
entries (orderings, fitted exponents, cost-model winners) are plain
asserts below.  The suite's exact pins, enforced by
``tests/test_suites.py`` and ``repro suite check``, catch drift in the
measured values themselves.

Two claims live elsewhere: E10 (Byzantine agreement, Section 5) is
``tests/test_byzantine.py::test_message_complexity_under_sender_crashes``,
and E13 (deadline fast-forward) is ``paper_battery.json``'s
``c-exponential-rounds`` pin.  ``docs/suites.md`` maps each claim to its
theorem and entries.
"""

import math
from pathlib import Path

import pytest

from repro.analysis import bounds
from repro.analysis.effort import EffortModel, cheapest
from repro.analysis.scaling import fit_power_law
from repro.analysis.verify import verify_run
from repro.api import ResultSet, run_scenarios
from repro.sim.actions import MessageKind
from repro.suites import load_suite

SUITE = load_suite(Path(__file__).resolve().parents[1] / "scenarios" / "paper_claims.json")

#: Protocols ``verify_run`` has no rules for; their entries are covered by
#: the claim asserts below (E15's naive spreader).
UNVERIFIED = {"C-naive"}


@pytest.fixture(scope="module")
def runs():
    """Entry name -> :class:`ResultSet` of its runs; each entry runs once."""
    out = {}
    for entry in SUITE.entries:
        scenarios = entry.scenarios()
        out[entry.name] = ResultSet(list(zip(scenarios, run_scenarios(scenarios))))
    return out


def worst(runs, name, measure):
    return runs[name].worst()[measure]


def only(runs, name):
    """The result of a single-scenario entry."""
    (result,) = runs[name].results
    return result


def reverted(result):
    """Protocol D fell back to Protocol A: checkpoint traffic was sent."""
    metrics = result.metrics
    return (
        metrics.messages_of(MessageKind.PARTIAL_CHECKPOINT)
        + metrics.messages_of(MessageKind.FULL_CHECKPOINT)
    ) > 0


@pytest.mark.parametrize(
    "entry",
    [e for e in SUITE.entries if e.scenarios()[0].protocol not in UNVERIFIED],
    ids=lambda entry: entry.name,
)
def test_every_run_meets_its_theorem_bounds(runs, entry):
    for scenario, result in runs[entry.name]:
        failures = result.metrics.crashes if scenario.protocol == "D" else None
        report = verify_run(
            result, scenario.protocol, scenario.n, scenario.t, failures=failures
        )
        assert report.ok, (scenario.to_dict(), report.failures())
        assert result.completed


def test_e4_batched_reporting_sends_fewer_messages(runs):
    assert worst(runs, "e4-c-batched-t8-n128", "messages") < worst(
        runs, "e4-c-t8-n128", "messages"
    )


def test_e6_more_than_half_failing_reverts(runs):
    assert reverted(only(runs, "e6-d-reversion"))


def test_e7_failure_free_is_exact(runs):
    n, t = 64, 8
    metrics = only(runs, "e7-d-failure-free").metrics
    assert metrics.work_total == n
    assert metrics.retire_round + 1 == n // t + 2
    assert metrics.messages_total <= 2 * t * t


def test_e7_one_failure(runs):
    n, t = 64, 8
    result = only(runs, "e7-d-one-failure")
    metrics = result.metrics
    assert result.completed
    assert metrics.work_total <= n + n // t
    assert metrics.retire_round + 1 <= n // t + math.ceil(n / (t * (t - 1))) + 6
    assert metrics.messages_total <= 5 * t * t


def test_e8_protocols_beat_the_straw_men(runs):
    effort = {
        protocol: worst(runs, f"e8-{protocol}", "effort")
        for protocol in ("replicate", "naive", "a", "b", "c")
    }
    assert effort["a"] < effort["replicate"]
    assert effort["b"] < effort["replicate"]
    assert effort["c"] < effort["naive"]
    assert effort["c"] < effort["replicate"]


def _meets_a_bounds(runs, name):
    """(work within 3n', messages within 9 t sqrt t) for one E9 entry."""
    scenario, _ = runs[name].entries[0]
    return (
        bounds.protocol_a_work(scenario.n, scenario.t).holds_for(worst(runs, name, "work")),
        bounds.protocol_a_messages(scenario.n, scenario.t).holds_for(
            worst(runs, name, "messages")
        ),
    )


def test_e9_single_level_checkpointing_cannot_meet_both_bounds(runs):
    single_level = [name for name in runs if name.startswith("e9-naive-t16-")]
    # The extremes fail their respective bounds.
    assert not _meets_a_bounds(runs, "e9-naive-t16-interval1")[1]
    assert not _meets_a_bounds(runs, "e9-naive-t16-interval256")[0]
    # The two-level scheme meets both and beats every single-level interval.
    assert _meets_a_bounds(runs, "e9-a-t16") == (True, True)
    assert worst(runs, "e9-a-t16", "effort") < min(
        worst(runs, name, "effort") for name in single_level
    )
    # At t = 361 the window is closed: every interval fails a bound.
    crossover = [name for name in runs if name.startswith("e9-naive-t361-")]
    assert len(crossover) == 4
    for name in crossover:
        assert _meets_a_bounds(runs, name) != (True, True), name


def test_e12_reversion_grows_more_eager_with_the_threshold(runs):
    flags = {}
    for threshold in (0.25, 0.5, 0.75):
        result = only(runs, f"e12-d-threshold{threshold}")
        assert result.completed
        flags[threshold] = reverted(result)
    assert flags == {0.25: False, 0.5: True, 0.75: True}


def test_e14_the_cost_model_picks_the_winner(runs):
    profiles = {
        protocol: (worst(runs, f"e14-{protocol.lower()}", "work"),
                   worst(runs, f"e14-{protocol.lower()}", "messages"))
        for protocol in ("replicate", "A", "B", "C", "D")
    }
    winners = [
        cheapest(profiles, EffortModel(work_weight=1.0, message_weight=weight))
        for weight in (0.0, 0.1, 1.0, 10.0, 100.0)
    ]
    assert len(set(winners)) >= 2
    # Expensive messages favour the silent baseline.
    assert winners[-1] == "replicate"


def test_e15_naive_spreading_is_quadratic_protocol_c_linear(runs):
    ts = [8, 16, 32]
    naive = [only(runs, f"e15-c-naive-t{t}") for t in ts]
    assert all(result.completed for result in naive)
    naive_fit = fit_power_law(ts, [float(r.metrics.work_total) for r in naive])
    c_fit = fit_power_law(ts, [float(worst(runs, f"e15-c-t{t}", "work")) for t in ts])
    assert naive_fit.exponent > 1.6
    assert c_fit.exponent < 1.3


def test_e16_only_protocol_d_keeps_aps_near_effort(runs):
    aps = {
        protocol: only(runs, f"e16-{protocol}").metrics.available_processor_steps
        for protocol in ("a", "c", "d")
    }
    assert aps["d"] < aps["a"]
    assert aps["d"] < aps["c"]
    assert aps["c"] > 10 * aps["d"]
    assert aps["c"] > 10**6  # exponential deadlines dominate


def test_e17_message_growth_exponents_are_ordered(runs):
    ts = [9, 16, 36]
    exponent = {
        protocol: fit_power_law(
            ts, [float(worst(runs, f"e17-{protocol}-t{t}", "messages")) for t in ts]
        ).exponent
        for protocol in ("a", "b", "c", "d")
    }
    assert exponent["c"] + 0.3 < exponent["a"]
    assert exponent["c"] + 0.3 < exponent["b"]
    assert exponent["a"] + 0.3 < exponent["d"]
    assert exponent["b"] + 0.3 < exponent["d"]
