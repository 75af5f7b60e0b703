"""The two option values: structural identity and knob locality.

Both tests are built to fail:

* **Identity is structural.**  ``ExperimentTask.fingerprint()`` is
  computed from the identity fields plus ``measurement`` and never sees
  ``execution`` — so *every* field of :class:`ExecutionOptions` must
  leave the key alone and *every* field of :class:`MeasurementSpec` must
  move it.  Two literal keys recorded before the refactor pin the
  encoding itself.
* **Knobs are declared once.**  The field names of the two dataclasses
  may appear as function parameters or dataclass fields only where a
  knob is declared (``options.py``), exposed (``api.py``, ``cli.py``)
  or consumed (the leaves below).  Re-threading one through the layers
  in between — ``sweep.py``, ``task.py``, ``runner.py`` … — fails here.
"""

import ast
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.experiments.scenarios import get_scenario
from repro.options import ExecutionOptions, MeasurementSpec
from repro.runtime.resilience import RetryPolicy
from repro.runtime.task import ExperimentTask

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: A non-default value for every field of the two dataclasses; a field
#: added without an entry here fails the completeness checks below.
OTHER_EXECUTION = {
    "jobs": 4,
    "flow_jobs": 2,
    "retries": RetryPolicy(max_attempts=7),
}
OTHER_MEASUREMENT = {
    "algorithm": "push_relabel",
    "connectivity": "estimate",
    "sample_pairs": 64,
    "ci_level": 0.9,
}


def make_task(measurement=MeasurementSpec(), execution=ExecutionOptions()):
    return ExperimentTask.create(
        get_scenario("E").with_overrides(bucket_size=5), "tiny", 7,
        measurement=measurement, execution=execution,
    )


class TestNoDispatchKnobs:
    """Dispatch has one shape and one order: no option picks another."""

    def test_execution_options_are_the_three_remaining_knobs(self):
        names = [f.name for f in fields(ExecutionOptions)]
        assert names == ["jobs", "flow_jobs", "retries"]

    @pytest.mark.parametrize(
        "name, value",
        [("schedule", "cheapest"), ("batch", "auto"), ("backend", "local")],
    )
    def test_removed_dispatch_fields_are_rejected(self, name, value):
        with pytest.raises(TypeError):
            ExecutionOptions(**{name: value})


class TestIdentityIsStructural:
    def test_every_field_has_a_non_default_value(self):
        assert set(OTHER_EXECUTION) == {f.name for f in fields(ExecutionOptions)}
        assert set(OTHER_MEASUREMENT) == {f.name for f in fields(MeasurementSpec)}
        for name, value in {**OTHER_EXECUTION, **OTHER_MEASUREMENT}.items():
            owner = ExecutionOptions if name in OTHER_EXECUTION else MeasurementSpec
            assert value != getattr(owner(), name), name

    @pytest.mark.parametrize("name", sorted(OTHER_EXECUTION))
    def test_execution_fields_never_change_the_key(self, name):
        changed = make_task(
            execution=replace(ExecutionOptions(), **{name: OTHER_EXECUTION[name]})
        )
        assert changed.key() == make_task().key()
        assert changed == make_task()  # the same experiment, not just the same key

    def test_all_execution_fields_together_never_change_the_key(self):
        changed = make_task(execution=ExecutionOptions(**OTHER_EXECUTION))
        assert changed.fingerprint() == make_task().fingerprint()

    @pytest.mark.parametrize("name", sorted(OTHER_MEASUREMENT))
    def test_measurement_fields_change_the_key(self, name):
        # sample_pairs / ci_level only exist under estimate mode.
        base = MeasurementSpec(connectivity="estimate")
        if name == "connectivity":
            base = MeasurementSpec()
        changed = replace(base, **{name: OTHER_MEASUREMENT[name]})
        assert make_task(changed).key() != make_task(base).key()
        assert make_task(changed) != make_task(base)

    def test_exact_mode_ignores_the_sampling_fields(self):
        exact = MeasurementSpec(sample_pairs=64, ci_level=0.9)
        assert make_task(exact).key() == make_task().key()

    def test_pinned_keys_from_before_the_refactor(self):
        # Recorded at the parent commit (edc532c) with
        # ExperimentTask.create(scenario, "tiny", 7) and the same task with
        # connectivity="estimate", sample_pairs=64.
        assert make_task().key() == (
            "056cfb85a11bf0865aa89b95203f28b8f836b2ba032b263101e2d3b2e068e80a"
        )
        estimate = MeasurementSpec(connectivity="estimate", sample_pairs=64)
        assert make_task(estimate).key() == (
            "90c01bac56c12a76543ddbab1092f0d89d923bcfb3e739848e1ab91d2813796f"
        )

    def test_exact_kademlia_fingerprint_keeps_the_legacy_encoding(self):
        fingerprint = make_task().fingerprint()
        assert sorted(fingerprint) == [
            "algorithm", "format", "keep_snapshots", "profile", "scenario", "seed",
        ]
        assert "protocol" not in fingerprint["scenario"]
        assert make_task(
            MeasurementSpec(connectivity="estimate", sample_pairs=64)
        ).fingerprint()["connectivity"] == {
            "mode": "estimate", "sample_pairs": 64, "ci_level": 0.95,
        }

    def test_unknown_mode_is_rejected_where_it_is_declared(self):
        with pytest.raises(ValueError, match="must be 'exact' or 'estimate'"):
            MeasurementSpec(connectivity="guess")


# ----------------------------------------------------------------------
KNOBS = (
    {f.name for f in fields(ExecutionOptions)}
    | {f.name for f in fields(MeasurementSpec)}
    | {"retry_policy"}  # what Campaign and the facade call ``retries``
)

#: Where a knob may be named: declared, exposed, or consumed.
DECLARED_OR_EXPOSED = {"options.py", "api.py", "cli.py"}
CONSUMING_LEAVES = {
    "core/analyzer.py",
    "core/estimation.py",
    "runtime/pairflow.py",
    "runtime/campaign.py",
    "runtime/executor.py",
    "runtime/resilience.py",
    # ``algorithm`` is consumed by the max-flow layer itself.
    "core/vertex_connectivity.py",
    "graph/maxflow/base.py",
}
#: Same word, different thing: ``resilience_of(connectivity: int)`` takes
#: a measured kappa, not the measurement mode.
HOMONYMS = {"core/resilience.py": {"connectivity"}}

#: The layers between the entry points and the leaves: they pass the two
#: values whole and may not even read a field off them.
PASS_THROUGH = (
    "experiments/sweep.py",
    "experiments/replication.py",
    "experiments/runner.py",
    "runtime/task.py",
)
THREADED_KNOBS = KNOBS - {"algorithm"}  # task labels name the algorithm


def _declared_names(tree: ast.AST):
    """Function parameters and annotated class-level fields of a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            arguments = node.args
            for argument in (
                arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            ):
                yield argument.arg
        elif isinstance(node, ast.ClassDef):
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    yield statement.target.id


def _parse(relative: str) -> ast.AST:
    return ast.parse((SOURCE_ROOT / relative).read_text(encoding="utf-8"))


class TestKnobLocality:
    def test_knobs_are_named_only_where_declared_exposed_or_consumed(self):
        allowed = DECLARED_OR_EXPOSED | CONSUMING_LEAVES
        offenders = {}
        for path in sorted(SOURCE_ROOT.rglob("*.py")):
            relative = path.relative_to(SOURCE_ROOT).as_posix()
            if relative in allowed:
                continue
            named = set(_declared_names(_parse(relative))) & KNOBS
            named -= HOMONYMS.get(relative, set())
            if named:
                offenders[relative] = sorted(named)
        assert not offenders, (
            "knobs re-declared outside repro.options / the facade / the "
            f"consuming leaves: {offenders}"
        )

    @pytest.mark.parametrize("relative", PASS_THROUGH)
    def test_pass_through_layers_never_touch_a_field(self, relative):
        touched = set()
        for node in ast.walk(_parse(relative)):
            if isinstance(node, ast.Attribute) and node.attr in THREADED_KNOBS:
                touched.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg in THREADED_KNOBS:
                touched.add(node.arg)
        assert not touched, f"{relative} reads or forwards {sorted(touched)}"

    def test_campaign_task_builders_take_the_values_whole(self):
        builders = {
            node.name: node
            for node in ast.walk(_parse("runtime/campaign.py"))
            if isinstance(node, ast.FunctionDef)
            and node.name in ("sweep_tasks", "replication_tasks")
        }
        assert set(builders) == {"sweep_tasks", "replication_tasks"}
        for name, node in builders.items():
            assert not set(_declared_names(node)) & KNOBS, name
