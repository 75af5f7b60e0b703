"""Fault-injection harness tests: DSL, determinism, identity-freedom."""

import json

import pytest

from repro.experiments.scenarios import get_scenario
from repro.runtime import faults
from repro.runtime.executor import ParallelExecutor
from repro.runtime.faults import (
    ENV_VAR,
    FaultPlan,
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
        assert rule.probability is None
        assert plan.seed == 0

    def test_full_grammar(self):
        plan = FaultPlan.parse(
            "worker-crash@2;task-error@1,4;corrupt-write@p0.1;seed=7"
        )
        assert plan.rules["task-error"].occurrences == frozenset({1, 4})
        assert plan.rules["corrupt-write"].probability == 0.1
        assert plan.seed == 7

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
            "task-error@p1.5",  # probability out of range
            "task-error@1=0.5",  # no kind takes a parameter
            "task-error@p0.5=1",
            "task-error@1;task-error@2",  # duplicate clause
            "seed=x",  # bad seed
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

    def test_probability_matcher_is_deterministic(self):
        outcomes_a = [
            FaultPlan.parse("task-error@p0.5;seed=3").check("task-error")
            is not None
            for _ in range(1)
        ]
        plan_b = FaultPlan.parse("task-error@p0.5;seed=3")
        fires_a = [
            FaultPlan.parse("task-error@p0.5;seed=3")
            .rules["task-error"]
            .fires(n, 3)
            for n in range(1, 50)
        ]
        fires_b = [plan_b.rules["task-error"].fires(n, 3) for n in range(1, 50)]
        assert fires_a == fires_b
        assert any(fires_a) and not all(fires_a)  # a real coin, same every run
        assert outcomes_a  # parsed fine

    def test_seed_changes_probability_outcomes(self):
        fires = {
            seed: tuple(
                FaultPlan.parse(f"task-error@p0.5;seed={seed}")
                .rules["task-error"]
                .fires(n, seed)
                for n in range(1, 50)
            )
            for seed in (0, 1)
        }
        assert fires[0] != fires[1]


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
        monkeypatch.setenv(ENV_VAR, "worker-crash@2;task-error@1;seed=9")
        faults.reset()
        assert task.key() == baseline_key
        assert task.fingerprint() == baseline_fingerprint
        serialised = json.dumps(task.fingerprint())
        assert "fault" not in serialised and "retry" not in serialised
