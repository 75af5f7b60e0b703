"""Fault-injection harness tests: DSL, determinism, identity-freedom."""

import json
from dataclasses import fields

import pytest

from repro.experiments.scenarios import get_scenario
from repro.runtime import faults
from repro.runtime.executor import ParallelExecutor
from repro.runtime.faults import (
    ENV_VAR,
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedTaskError,
)
from repro.runtime.task import ExperimentTask


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    """Every test starts without an inherited plan or counters."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


class TestSpecParsing:
    def test_occurrence_clause(self):
        plan = FaultPlan.parse("worker-crash@2")
        rule = plan.rules["worker-crash"]
        assert rule.occurrences == frozenset({2})

    def test_full_grammar(self):
        plan = FaultPlan.parse("worker-crash@2;task-error@1,4;corrupt-write@3")
        assert plan.rules["worker-crash"].occurrences == frozenset({2})
        assert plan.rules["task-error"].occurrences == frozenset({1, 4})
        assert plan.rules["corrupt-write"].occurrences == frozenset({3})

    def test_a_plan_holds_occurrences_only(self):
        # No probability, no seed: a fault fires by occurrence or never.
        assert [f.name for f in fields(FaultRule)] == ["kind", "occurrences"]
        assert [f.name for f in fields(FaultPlan)] == [
            "rules", "spec", "counters",
        ]

    def test_kinds_are_the_four_local_ones(self):
        assert faults.KINDS == (
            "task-error", "worker-crash", "corrupt-read", "corrupt-write",
        )

    @pytest.mark.parametrize("kind", faults.KINDS)
    def test_every_kind_parses(self, kind):
        plan = FaultPlan.parse(f"{kind}@1,3")
        rule = plan.rules[kind]
        assert rule.kind == kind
        assert rule.occurrences == frozenset({1, 3})
        assert [plan.check(kind) is not None for _ in range(3)] == [
            True, False, True,
        ]

    @pytest.mark.parametrize("kind", faults.KINDS)
    def test_no_kind_takes_a_parameter(self, kind):
        # A '=param' suffix once fed the stall kind; on every remaining
        # kind it fails loudly instead of being dropped.
        with pytest.raises(FaultSpecError, match="=0.5"):
            FaultPlan.parse(f"{kind}@1=0.5")

    def test_whitespace_and_empty_clauses_tolerated(self):
        plan = FaultPlan.parse(" task-error@1 ; ; ")
        assert set(plan.rules) == {"task-error"}

    @pytest.mark.parametrize(
        "spec",
        [
            "task-error",  # missing matcher
            "explode@1",  # unknown kind
            "task-error@0",  # occurrences are 1-based
            "task-error@x",  # not a number
            "task-error@1=0.5",  # no kind takes a parameter
            "task-error@p0.5=1",
            "task-error@1;task-error@2",  # duplicate clause
            # Retired probability matcher and seed clause: occurrence
            # lists are the only matcher.
            "task-error@p0.5",
            "task-error@p1.5",
            "corrupt-write@p0.1;seed=7",
            "seed=3",
            "seed=x",
            # Retired network kinds: a stale spec fails instead of
            # silently injecting nothing.
            "conn-drop@1",
            "frame-corrupt@1",
            "delay@1",
            "partition@1",
            "stall@1",
        ],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)


class TestOccurrenceCounting:
    def test_nth_occurrence_fires_exactly_once(self):
        plan = FaultPlan.parse("task-error@2")
        fired = [plan.check("task-error") is not None for _ in range(4)]
        assert fired == [False, True, False, False]

    def test_unconfigured_kinds_are_not_counted(self):
        plan = FaultPlan.parse("task-error@2")
        # Crash sites are visited but carry no rule: they must not shift
        # the task-error numbering.
        assert plan.check("worker-crash") is None
        assert plan.check("task-error") is None
        assert plan.check("task-error") is not None


class TestInjectionSites:
    def test_task_error_fires_in_driver_process(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "task-error@1")
        faults.reset()
        with pytest.raises(InjectedTaskError):
            faults.maybe_inject_task_fault("t")
        faults.maybe_inject_task_fault("t")  # occurrence 2: no fault

    def test_crash_faults_never_fire_in_the_driver(self, monkeypatch):
        # A worker-crash plan in the main process must be inert —
        # otherwise degrading to serial execution would kill the campaign.
        monkeypatch.setenv(ENV_VAR, "worker-crash@1")
        faults.reset()
        for _ in range(3):
            faults.maybe_inject_task_fault("t")  # would os._exit in a worker

    def test_corrupt_bytes_flips_payload(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "corrupt-write@1")
        faults.reset()
        data = b'{"ok": true}'
        corrupted = faults.maybe_corrupt_bytes(faults.KIND_CORRUPT_WRITE, data)
        assert corrupted != data and len(corrupted) == len(data)
        # Occurrence 2: untouched.
        assert faults.maybe_corrupt_bytes(faults.KIND_CORRUPT_WRITE, data) == data

    def test_corrupt_file_in_place(self, monkeypatch, tmp_path):
        target = tmp_path / "entry.json"
        target.write_bytes(b'{"ok": true}')
        monkeypatch.setenv(ENV_VAR, "corrupt-read@1")
        faults.reset()
        faults.maybe_corrupt_file(target)
        with pytest.raises(json.JSONDecodeError):
            json.loads(target.read_bytes())

    def test_no_plan_is_a_noop(self):
        assert faults.active_plan() is None
        faults.maybe_inject_task_fault("t")
        assert faults.maybe_corrupt_bytes(faults.KIND_CORRUPT_WRITE, b"x") == b"x"

    def test_malformed_env_spec_raises_at_first_site(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus@1")
        faults.reset()
        with pytest.raises(FaultSpecError):
            faults.maybe_inject_task_fault("t")


def _in_worker(_item):
    return faults.in_worker_process()


class TestWorkerDetection:
    def test_driver_is_not_a_worker(self):
        assert not faults.in_worker_process()

    def test_pool_worker_is_a_worker(self):
        session = ParallelExecutor(jobs=1).open_session()
        try:
            assert session.map(_in_worker, [0, 1]) == [True, True]
        finally:
            session.close()


class TestIdentityFreedom:
    def test_faults_env_never_enters_task_fingerprints(self, monkeypatch):
        task = ExperimentTask.create(
            scenario=get_scenario("E"), profile="tiny", seed=7
        )
        baseline_key = task.key()
        baseline_fingerprint = task.fingerprint()
        monkeypatch.setenv(ENV_VAR, "worker-crash@2;task-error@1")
        faults.reset()
        assert task.key() == baseline_key
        assert task.fingerprint() == baseline_fingerprint
        serialised = json.dumps(task.fingerprint())
        assert "fault" not in serialised and "retry" not in serialised
