"""Import budget: a process loads what it runs, and a timed call imports nothing.

``import repro.api`` loads the snapshot-analysis path only; the simulator,
Kademlia, the campaign/cache runtime, the extension studies and
Chord/Pastry load the first time a caller names them.  ``import
repro.cli`` leaves Kademlia, the experiment runner and the campaign/cache
runtime to the commands that run them.  Every check runs in a fresh
interpreter, because this test process has long since imported
everything, and counts modules rather than seconds, so it does not
depend on the speed of the host.

The last group pins the rule that keeps cold-start numbers honest: the
first call of an entry point imports no ``repro`` module, because the
import its caller already made loaded everything the call runs.

No process maps OpenSSL: SHA-256 comes from ``repro.digest`` (the
interpreter's built-in module), so neither ``hashlib`` nor its
``_hashlib`` extension — about 3.6 MiB of libcrypto in every process —
may load after ``import repro.api``, ``import repro.cli`` or any first
call below, the campaign's set-up and call included.  An ``import
hashlib`` put back into ``simulator/random_source.py`` or
``runtime/cache.py`` fails that check.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"

#: Modules (and their submodules) ``import repro.api`` must not load.
OFF_THE_ANALYSIS_PATH = (
    "repro.experiments.runner",
    "repro.experiments.simulation",
    "repro.kademlia",
    "repro.simulator",
    "repro.runtime.campaign",
    "repro.runtime.cache",
    "repro.extensions",
    "repro.overlay.chord",
    "repro.overlay.pastry",
    "socket",
)

#: Modules (and their submodules) ``import repro.cli`` must not load: each
#: command imports the simulation and campaign layers it runs.
OFF_THE_CLI_IMPORT = (
    "repro.kademlia",
    "repro.runtime.campaign",
    "repro.runtime.cache",
    "repro.experiments.runner",
)

#: Modules that map OpenSSL's libcrypto; no path of the program loads them.
HASHLIB_MODULES = ("hashlib", "_hashlib")

#: ``__all__`` names without a ``__module__`` of their own.
CONSTANT_HOMES = {
    "PROFILES": "repro.experiments.profiles",
    "SCENARIOS": "repro.experiments.scenarios",
}

#: Prints the modules the import statement loads, as JSON.
LOADED_BY = """
import json, sys
{statement}
print(json.dumps(sorted(sys.modules)))
"""

SNAPSHOT_SETUP = """
from repro import api
snapshot = api.synthetic_snapshot(120, contacts_per_node=8, seed=3)
snapshot.save(path)
"""

CAMPAIGN_SETUP = """
from repro import api
from repro.experiments.sweep import sweep_tasks
tasks = sweep_tasks(api.get_scenario("E"), [{"bucket_size": 5}], profile="tiny", seed=1)
"""

CAMPAIGN_CALL = """
from repro.experiments.report import format_table2
with api.open_campaign(jobs=1, cache_dir=path.parent / "cache") as campaign:
    results = campaign.run(tasks)
format_table2(results)
"""

#: Set-up, then the first call, then the ``repro`` modules the call loaded
#: and every module loaded by then.
FIRST_CALL = """
import json, sys
from pathlib import Path
path = Path(sys.argv[1]) / "snapshot.json"
{setup}
before = set(sys.modules)
{call}
print(json.dumps([
    sorted(name for name in set(sys.modules) - before if name.split(".")[0] == "repro"),
    sorted(sys.modules),
]))
"""

FIRST_CALLS = {
    "analyze_snapshot-sampled": (
        SNAPSHOT_SETUP, "api.analyze_snapshot(path, sample_fraction=0.1, seed=3)"
    ),
    "analyze_snapshot-estimate": (
        SNAPSHOT_SETUP,
        'api.analyze_snapshot(path, connectivity="estimate", sample_pairs=24, seed=3)',
    ),
    "estimate_connectivity": (
        SNAPSHOT_SETUP, "api.estimate_connectivity(snapshot, sample_pairs=24, seed=3)"
    ),
    "open_campaign-format_table2": (CAMPAIGN_SETUP, CAMPAIGN_CALL),
}


def run_fresh(script: str, *args: str):
    """Run ``script`` in a fresh interpreter; return the JSON of its last line."""
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE_ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def off_path(loaded, forbidden):
    return [
        name for name in loaded
        if any(name == root or name.startswith(root + ".") for root in forbidden)
    ]


class TestWhatAnImportLoads:
    def test_api_loads_the_snapshot_analysis_path_only(self):
        loaded = run_fresh(LOADED_BY.format(statement="import repro.api"))
        assert off_path(loaded, OFF_THE_ANALYSIS_PATH) == []

    def test_cli_leaves_the_pool_machinery_and_socket_unloaded(self):
        loaded = run_fresh(LOADED_BY.format(statement="import repro.cli"))
        assert off_path(
            loaded, ("multiprocessing", "concurrent.futures.process", "socket")
        ) == []

    def test_cli_loads_no_simulation_or_campaign_module(self):
        loaded = run_fresh(LOADED_BY.format(statement="import repro.cli"))
        assert off_path(loaded, OFF_THE_CLI_IMPORT) == []

    @pytest.mark.parametrize("statement", ["import repro.api", "import repro.cli"])
    def test_no_entry_point_loads_hashlib(self, statement):
        loaded = run_fresh(LOADED_BY.format(statement=statement))
        assert off_path(loaded, HASHLIB_MODULES) == []

    def test_there_is_no_tcp_backend_to_load(self):
        assert importlib.util.find_spec("repro.runtime.distributed") is None

    def test_every_api_name_resolves_to_its_defining_object(self):
        script = """
import importlib, json, repro.api as api
homes = json.loads(CONSTANT_HOMES)
mismatched = []
for name in api.__all__:
    value = getattr(api, name)
    home = homes.get(name) or value.__module__
    if getattr(importlib.import_module(home), name, None) is not value:
        mismatched.append(name)
namespace = {}
exec("from repro.api import *", namespace)
print(json.dumps([mismatched, sorted(set(api.__all__) - set(namespace))]))
""".replace("CONSTANT_HOMES", repr(json.dumps(CONSTANT_HOMES)))
        mismatched, not_starred = run_fresh(script)
        assert mismatched == []
        assert not_starred == []


@pytest.fixture(scope="module")
def first_call(tmp_path_factory):
    """Runs a ``FIRST_CALLS`` entry once in a fresh interpreter; returns what loaded."""
    outcomes = {}

    def run(name):
        if name not in outcomes:
            setup, call = FIRST_CALLS[name]
            outcomes[name] = run_fresh(
                FIRST_CALL.format(setup=setup, call=call), str(tmp_path_factory.mktemp(name))
            )
        return outcomes[name]

    return run


@pytest.mark.parametrize("name", FIRST_CALLS)
def test_first_call_imports_no_repro_module(name, first_call):
    imported_by_call, _ = first_call(name)
    assert imported_by_call == []


@pytest.mark.parametrize("name", FIRST_CALLS)
def test_first_call_loads_no_hashlib(name, first_call):
    _, loaded = first_call(name)
    assert off_path(loaded, HASHLIB_MODULES) == []
