"""One benchmark operation in a fresh interpreter.

``python3 bench/worker.py <workload> <seed> <instance> <mode> <tmp-root>``
sets the instance up (imports, input generation, temporary directory),
makes the one timed user-level call, checks its outputs and prints one
JSON object as the last line of standard output.  Modes:

``plain``   the untraced operation: ``setup_s``, ``wall_s``, ``cpu_s``,
            ``peak_rss_mb`` and the output summary.
``obs``     the same call between ``obs.enable()`` and ``obs.disable()``,
            plus the program's public counters.
``traced``  the staged replay and the per-layer probes (``bench.layers``).

Repeats run in fresh interpreters because repeats inside one process
drifted from 8.4 s to 11.9 s on identical work while the benchmark was
sized.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = ROOT / "src"
EXPECTED_DIR = ROOT / "bench" / "expected"


def _expected_identity(workload_name: str, seed: int, instance: int):
    """Committed outputs for this instance, or None when none were captured."""
    path = EXPECTED_DIR / f"{workload_name}.json"
    if not path.exists():
        return None
    expected = json.loads(path.read_text(encoding="utf-8"))
    if expected["seed"] != seed or instance >= len(expected["instances"]):
        return None
    return expected["instances"][instance]


def _cpu_seconds() -> float:
    """User + system CPU of this process and of the children it has waited for."""
    return sum(os.times()[:4])


def _peak_rss_mb() -> float:
    """Largest resident set among this process and its waited-for children.

    This process's own peak is read from ``VmHWM``: ``ru_maxrss`` survives
    ``exec`` and would report the orchestrator's size (it holds the 64 MiB
    calibration table) for an operation that stays below it.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own_kb = int(line.split()[1])
    except OSError:
        pass  # not Linux: keep ru_maxrss
    return max(own_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run(workload_name: str, seed: int, instance: int, mode: str, tmp_root: Path) -> dict:
    # Import the benchmark as the package ``bench``: with the script's
    # directory on the path, ``bench/trace.py`` would shadow the standard
    # library's ``trace``.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(SOURCE_ROOT))
    # The program reads scheduling and observability knobs from REPRO_*
    # variables; the benchmark's inputs are its arguments only.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]

    from bench.workloads import BY_NAME, instance_seed

    workload = BY_NAME[workload_name]
    own_seed = instance_seed(seed, instance)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=tmp_root))
    try:
        inputs = workload.setup(own_seed, tmp)
        record = {"setup_s": time.perf_counter() - _STARTED}

        if mode == "traced":
            from bench.layers import traced_round

            record.update(traced_round(workload, inputs, own_seed, tmp, SOURCE_ROOT))
            return record

        registry = None
        if mode == "obs":
            from repro import obs

            registry = obs.enable()
        cpu_before = _cpu_seconds()
        started = time.perf_counter()
        outputs = workload.call(inputs)
        record["wall_s"] = time.perf_counter() - started
        record["cpu_s"] = _cpu_seconds() - cpu_before
        record["peak_rss_mb"] = _peak_rss_mb()
        if registry is not None:
            record["obs_counters"] = registry.snapshot()["counters"]
            obs.disable()

        summary = workload.summarize(outputs)
        checks = workload.check(summary)
        expected = _expected_identity(workload_name, seed, instance)
        if expected is not None:
            checks.append(("outputs equal bench/expected", summary["identity"] == expected))
        record.update(summary)
        record["phases"] = outputs["phases"]
        record["checks"] = checks
        return record
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv: list) -> int:
    workload_name, seed, instance, mode, tmp_root = argv
    record = run(workload_name, int(seed), int(instance), mode, Path(tmp_root))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
