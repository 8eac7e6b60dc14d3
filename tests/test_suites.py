"""The suite subsystem: loader validation, regression pins, parallel runs.

Three guarantees are pinned here:

* malformed suite files fail with *named* ``ConfigurationError``s that
  say which file/entry/field is wrong;
* ``suite check`` fails (API and CLI) the moment an observed worst-case
  metric drifts from its pin, and ``--update-pins`` rebaselines;
* parallel execution is **bit-identical** to serial execution for every
  registered protocol - the multiprocessing executor is pure fan-out.
"""

import json
import sys

import pytest

from repro.api import Scenario, Sweep, run_scenarios
from repro.core.registry import available_protocols, get_entry
from repro.errors import ConfigurationError
from repro.sim.adversary import RandomCrashes
from repro.suites import (
    PIN_MEASURES,
    SUITE_FORMAT_VERSION,
    Suite,
    discover_suites,
    load_suite,
)
from repro.__main__ import main as cli_main

SHIPPED_SUITES = sorted(p.name for p in discover_suites("scenarios"))


def _suite_dict(**overrides):
    data = {
        "suite": "test-suite",
        "version": SUITE_FORMAT_VERSION,
        "entries": [
            {
                "name": "one",
                "scenario": {"protocol": "A", "n": 16, "t": 4, "seed": 1},
            }
        ],
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------
# Loader validation
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("suite"), "requires field(s) ['suite']"),
        (lambda d: d.pop("entries"), "requires field(s) ['entries']"),
        (lambda d: d.update(version=99), "format version 99"),
        (lambda d: d.update(version="1"), "must be an integer"),
        (lambda d: d.update(entries=[]), "non-empty list"),
        (lambda d: d.update(extra=1), "unknown field(s) ['extra']"),
        (lambda d: d["entries"][0].pop("name"), "non-empty 'name'"),
        (lambda d: d["entries"][0].pop("scenario"), "exactly one of 'scenario' or 'sweep'"),
        (
            lambda d: d["entries"][0].update(sweep={"base": {}}),
            "exactly one of 'scenario' or 'sweep'",
        ),
        (lambda d: d["entries"][0].update(typo=1), "unknown field(s) ['typo']"),
        (lambda d: d["entries"][0].update(pins=[1]), "'pins' of entry 0"),
        (
            lambda d: d["entries"][0].update(pins={"latency": 3}),
            "unknown pin measure(s) ['latency']",
        ),
        (
            lambda d: d["entries"][0].update(pins={"work": "fast"}),
            "must be a number",
        ),
        (
            lambda d: d["entries"][0]["scenario"].pop("protocol"),
            "requires field(s) ['protocol']",
        ),
        (
            lambda d: d["entries"].append(dict(d["entries"][0])),
            "duplicate entry name 'one'",
        ),
    ],
)
def test_malformed_suites_raise_named_errors(mutate, fragment):
    data = _suite_dict()
    mutate(data)
    with pytest.raises(ConfigurationError) as excinfo:
        Suite.from_dict(data)
    assert fragment in str(excinfo.value)


def test_unparseable_json_file_names_the_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_suite(path)


def test_unknown_extension_rejected(tmp_path):
    path = tmp_path / "suite.yaml"
    path.write_text("{}")
    with pytest.raises(ConfigurationError, match=".json or .toml"):
        load_suite(path)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs 3.11+")
def test_toml_suites_load(tmp_path):
    path = tmp_path / "suite.toml"
    path.write_text(
        "\n".join(
            [
                'suite = "toml-suite"',
                "version = 1",
                "[[entries]]",
                'name = "one"',
                "[entries.scenario]",
                'protocol = "A"',
                "n = 16",
                "t = 4",
                "seed = 1",
                "[entries.pins]",
                "work = 16",
            ]
        )
    )
    suite = load_suite(path)
    assert suite.name == "toml-suite"
    assert suite.entries[0].pins == {"work": 16}


def test_round_trip_through_to_dict():
    suite = Suite.from_dict(_suite_dict())
    assert Suite.from_dict(suite.to_dict()).to_dict() == suite.to_dict()


# ---------------------------------------------------------------------
# Pins
# ---------------------------------------------------------------------


def test_correct_pins_pass_and_wrong_pins_fail():
    data = _suite_dict()
    baseline = Suite.from_dict(data).run()
    observed = baseline.entries[0].observed

    data["entries"][0]["pins"] = {
        "work": observed["work"],
        "messages": observed["messages"],
    }
    assert Suite.from_dict(data).run().passed

    data["entries"][0]["pins"] = {"work": observed["work"] + 1}
    report = Suite.from_dict(data).run()
    assert not report.passed
    (message,) = report.failures()
    assert message.startswith("test-suite/one: work: observed")


def test_suite_check_cli_fails_on_broken_pin(tmp_path, capsys):
    data = _suite_dict()
    data["entries"][0]["pins"] = {"effort": 1}  # deliberately broken
    path = tmp_path / "broken_pin.json"
    path.write_text(json.dumps(data))

    assert cli_main(["suite", "check", str(path)]) == 1
    captured = capsys.readouterr()
    assert "effort: observed" in captured.err

    # ``suite run`` reports but does not enforce pins.
    assert cli_main(["suite", "run", str(path)]) == 0


def test_update_pins_rebaselines_the_file(tmp_path, capsys):
    path = tmp_path / "suite.json"
    data = _suite_dict()
    # Entry 'one' deliberately pins only effort (with a broken value);
    # a second, unpinned entry must gain the full measure set.
    data["entries"][0]["pins"] = {"effort": 1}
    data["entries"].append(
        {"name": "two", "scenario": {"protocol": "B", "n": 16, "t": 4, "seed": 2}}
    )
    path.write_text(json.dumps(data))

    assert cli_main(["suite", "check", str(path), "--update-pins"]) == 0
    rewritten = load_suite(path)
    # The explicit pin selection survives rebaselining ...
    assert set(rewritten.entries[0].pins) == {"effort"}
    # ... while unpinned entries are baselined on every measure.
    assert set(rewritten.entries[1].pins) == set(PIN_MEASURES)
    assert cli_main(["suite", "check", str(path)]) == 0
    capsys.readouterr()


def test_update_pins_report_artifact_reflects_new_pins(tmp_path, capsys):
    suite_path = tmp_path / "suite.json"
    data = _suite_dict()
    data["entries"][0]["pins"] = {"work": 999999}  # stale pin being replaced
    suite_path.write_text(json.dumps(data))
    out_path = tmp_path / "report.json"

    rc = cli_main(
        ["suite", "check", str(suite_path), "--update-pins", "--out", str(out_path)]
    )
    capsys.readouterr()
    assert rc == 0
    (report,) = json.loads(out_path.read_text())
    # The artifact must diff against the rewritten pins, not the stale ones.
    assert report["passed"] is True
    assert report["entries"][0]["failures"] == []
    assert report["entries"][0]["pins"] == {
        "work": report["entries"][0]["observed"]["work"]
    }


def test_update_pins_refuses_incomplete_runs(tmp_path, capsys):
    data = _suite_dict()
    data["entries"][0]["scenario"].update(
        adversary={"kind": "fixed-schedule", "directives": [
            {"pid": pid, "at_round": 0} for pid in range(4)
        ]},
        allow_total_failure=True,
    )
    path = tmp_path / "suite.json"
    original = json.dumps(data)
    path.write_text(original)

    assert cli_main(["suite", "check", str(path), "--update-pins"]) == 2
    assert "refusing to rebaseline" in capsys.readouterr().err
    assert path.read_text() == original  # file untouched


def test_suite_list_fails_on_invalid_files(tmp_path, capsys):
    (tmp_path / "good.json").write_text(json.dumps(_suite_dict()))
    (tmp_path / "bad.json").write_text("{broken")
    assert cli_main(["suite", "list", str(tmp_path)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_update_pins_rejects_non_json_suites_before_running(capsys):
    # The early check needs no file on disk: it must fire before any run.
    rc = cli_main(["suite", "check", "nonexistent.toml", "--update-pins"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "convert the suite to .json" in err


def test_incomplete_runs_fail_even_without_pins():
    data = _suite_dict()
    # Every process dies: the run cannot complete its work units.
    data["entries"][0]["scenario"].update(
        adversary={"kind": "fixed-schedule", "directives": [
            {"pid": 0, "at_round": 0}, {"pid": 1, "at_round": 0},
            {"pid": 2, "at_round": 0}, {"pid": 3, "at_round": 0},
        ]},
        allow_total_failure=True,
    )
    report = Suite.from_dict(data).run()
    assert not report.passed
    assert "not every run completed" in report.failures()[0]


# ---------------------------------------------------------------------
# Shipped suites: the regression-pin catalog must hold
# ---------------------------------------------------------------------


def test_shipped_suite_files_are_discovered():
    assert SHIPPED_SUITES == [
        "adversary_grid.json",
        "adversary_recovery.json",
        "async_delay.json",
        "paper_battery.json",
        "paper_claims.json",
    ]


@pytest.mark.parametrize("name", SHIPPED_SUITES)
def test_shipped_suites_pass_their_pins(name):
    suite = load_suite(f"scenarios/{name}")
    assert all(entry.pins for entry in suite.entries), "shipped entries must be pinned"
    report = suite.run()
    assert report.passed, report.failures()


def test_suite_cli_list_shows_shipped_suites(capsys):
    assert cli_main(["suite", "list"]) == 0
    out = capsys.readouterr().out
    for name in SHIPPED_SUITES:
        assert name in out


# ---------------------------------------------------------------------
# Parallel execution is bit-identical to serial
# ---------------------------------------------------------------------


def _small_scenario(name: str) -> Scenario:
    entry = get_entry(name)
    if entry.engine == "async":
        return Scenario(
            protocol=name,
            n=24,
            t=4,
            seed=3,
            delay="uniform:0.5,2.0",
            crash_times={0: 3.0},
            failure_detector={"min_delay": 1.0, "max_delay": 4.0},
        )
    options = {}
    if name == "d-dynamic":
        options = {"schedule": "arrivals:0x24", "cycle_length": 8}
    return Scenario(
        protocol=name,
        n=24,
        t=4,
        seed=3,
        adversary="random:2,max_action_index=8",
        options=options,
    )


@pytest.mark.parametrize("name", available_protocols())
def test_parallel_sweep_metrics_equal_serial_for(name):
    sweep = Sweep(base=_small_scenario(name), seeds=[0, 1, 2])
    serial = sweep.run()
    parallel = sweep.run(workers=2)
    assert [r.to_dict() for r in parallel.results] == [
        r.to_dict() for r in serial.results
    ]
    assert parallel.worst() == serial.worst()
    assert parallel.mean() == serial.mean()


def _strip_timing(report: dict) -> dict:
    """Drop the wall-clock fields: only they may differ across runs."""
    report.pop("workers", None)
    for entry in report["entries"]:
        entry.pop("seconds", None)
    return report


@pytest.mark.parametrize(
    "name", ["paper_battery.json", "adversary_recovery.json"]
)
def test_parallel_suite_report_equals_serial_report(name):
    suite = load_suite(f"scenarios/{name}")
    serial = _strip_timing(suite.run().as_dict())
    parallel = _strip_timing(suite.run(workers=4).as_dict())
    assert parallel == serial


def test_live_adversary_instances_cannot_ship_to_workers():
    scenarios = [
        Scenario(protocol="A", n=16, t=4, adversary=RandomCrashes(2), seed=s)
        for s in range(2)
    ]
    # Serial execution is fine ...
    assert all(result.completed for result in run_scenarios(scenarios))
    # ... but parallel execution requires serializable scenarios.
    with pytest.raises(ConfigurationError, match="does not serialize"):
        run_scenarios(scenarios, workers=2)


# ---------------------------------------------------------------------
# Per-entry workers hints + the wall-clock seconds column
# ---------------------------------------------------------------------


@pytest.mark.parametrize("bad", ["2", 0, -1, True, 1.5])
def test_workers_hint_is_validated(bad):
    data = _suite_dict()
    data["entries"][0]["workers"] = bad
    with pytest.raises(ConfigurationError, match="'workers' of entry 0"):
        Suite.from_dict(data)


def test_workers_hint_round_trips_and_is_honored(monkeypatch):
    data = _suite_dict()
    data["entries"][0]["workers"] = 2
    data["entries"].append(
        {"name": "two", "scenario": {"protocol": "A", "n": 16, "t": 4, "seed": 2}}
    )
    suite = Suite.from_dict(data)
    assert suite.entries[0].workers == 2
    assert suite.entries[1].workers is None
    assert Suite.from_dict(suite.to_dict()).to_dict() == suite.to_dict()

    # The executor must pass each entry's effective worker count through.
    import repro.suites as suites_module

    seen = []

    def spy_run_scenarios(scenarios, *, workers=None, cache=None):
        seen.append(workers)
        return [scenario.run() for scenario in scenarios]

    monkeypatch.setattr(suites_module, "run_scenarios", spy_run_scenarios)
    report = suite.run(workers=3)
    assert seen == [2, 3]  # entry hint wins; suite-level value is the default
    assert report.passed


def test_entry_reports_carry_wall_clock_seconds():
    report = Suite.from_dict(_suite_dict()).run()
    entry = report.entries[0]
    assert entry.seconds >= 0.0
    payload = entry.as_dict()
    assert isinstance(payload["seconds"], float)
    assert "seconds" in report.table()


# ---------------------------------------------------------------------
# suite diff: per-entry metric deltas across two report artifacts
# ---------------------------------------------------------------------


from repro.suites import diff_reports  # noqa: E402


def _report_payload(**tweaks):
    entry = {
        "name": "one",
        "kind": "scenario",
        "runs": 1,
        "observed": {
            "work": 16, "messages": 6, "effort": 22,
            "rounds": 20, "redundant_work": 0, "crashes": 0,
        },
        "pins": {},
        "all_completed": True,
        "seconds": 0.05,
        "failures": [],
        "passed": True,
    }
    entry.update(tweaks.pop("entry", {}))
    report = {
        "suite": "test-suite",
        "version": 1,
        "workers": 1,
        "total_runs": 1,
        "passed": True,
        "entries": [entry],
    }
    report.update(tweaks)
    return [report]


def test_diff_equal_reports_passes():
    diff = diff_reports(_report_payload(), _report_payload())
    assert diff.passed
    assert diff.regressions() == []
    assert "no metric changes" in diff.table()


def test_diff_flags_metric_regressions_and_improvements():
    new = _report_payload(
        entry={"observed": {
            "work": 20, "messages": 5, "effort": 25,
            "rounds": 20, "redundant_work": 0, "crashes": 0,
        }}
    )
    diff = diff_reports(_report_payload(), new)
    assert not diff.passed
    regressed = {d.measure for d in diff.deltas if d.regressed}
    improved = {d.measure for d in diff.deltas if not d.regressed}
    assert regressed == {"work", "effort"}
    assert improved == {"messages"}
    assert any("work 16 -> 20" in msg for msg in diff.regressions())


def test_diff_seconds_never_regress():
    new = _report_payload(entry={"seconds": 99.0})
    diff = diff_reports(_report_payload(), new)
    assert diff.passed
    assert [d.measure for d in diff.seconds] == ["seconds"]


def test_diff_flags_structural_regressions():
    # Entry disappeared.
    new = _report_payload()
    new[0]["entries"] = []
    diff = diff_reports(_report_payload(), new)
    assert not diff.passed
    assert any("missing" in msg for msg in diff.regressions())
    # Completion flipped.
    new = _report_payload(entry={"all_completed": False})
    diff = diff_reports(_report_payload(), new)
    assert any("completed" in msg for msg in diff.regressions())
    # New entries are informational, not regressions.
    old = _report_payload()
    new = _report_payload()
    new[0]["entries"].append(dict(new[0]["entries"][0], name="fresh"))
    diff = diff_reports(old, new)
    assert diff.passed
    assert any("fresh" in note for note in diff.informational)


def test_diff_rejects_malformed_artifacts():
    with pytest.raises(ConfigurationError, match="suite-report list"):
        diff_reports("nonsense", _report_payload())
    with pytest.raises(ConfigurationError, match="missing the 'suite'"):
        diff_reports([{"entries": []}], _report_payload())


def test_suite_diff_cli_round_trip(tmp_path, capsys):
    """End to end: run a suite twice with --out, then diff the artifacts."""
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(_suite_dict()))
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    assert cli_main(["suite", "run", str(suite_path), "--out", str(old_path)]) == 0
    assert cli_main(["suite", "run", str(suite_path), "--out", str(new_path)]) == 0
    capsys.readouterr()

    # Identical commits: no regressions, exit 0.
    assert cli_main(["suite", "diff", str(old_path), str(new_path)]) == 0
    assert "no metric changes" in capsys.readouterr().out

    # Tamper with the new artifact to simulate a work regression.
    payload = json.loads(new_path.read_text())
    payload[0]["entries"][0]["observed"]["work"] += 5
    new_path.write_text(json.dumps(payload))
    assert cli_main(["suite", "diff", str(old_path), str(new_path), "--json"]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.err
    machine = json.loads(captured.out)
    assert machine["passed"] is False
    assert machine["deltas"][0]["measure"] == "work"


def test_suite_diff_cli_names_unreadable_artifacts(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    rc = cli_main(["suite", "diff", str(missing), str(missing)])
    assert rc == 2
    assert "cannot read report artifact" in capsys.readouterr().err
