"""Tests of the distributed executor backend and shared cache tier.

Three layers, mirroring the module's robustness model:

* frame codec — checksummed round-trips, every kind of damage surfacing
  as a retryable :class:`ConnectionError`;
* coordinator protocol — lease expiry and reassignment, first-result-wins
  dedupe, bounded-assignment escalation, exercised by scripted fake
  workers over real sockets;
* end-to-end — spawned loopback worker fleets running real campaigns,
  byte-identical to serial runs even under injected network chaos and
  mid-campaign worker kills (the acceptance scenario), degrading to
  local execution when the fleet is unrecoverable.
"""

import socket
import threading
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro.experiments.persistence import trajectory_digest
from repro.experiments.scenarios import get_scenario
from repro.runtime import faults
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import Campaign
from repro.runtime.distributed import (
    Coordinator,
    DistributedExecutor,
    FrameChecksumError,
    FrameProtocolError,
    RemoteCacheTier,
    RemoteTaskError,
    WORKER_LOST_EXIT_CODE,
    WorkerLostError,
    _Call,
    parse_address,
    recv_frame,
    run_worker,
    send_frame,
    serve_cache,
)
from repro.runtime.executor import EXECUTOR_BACKENDS, make_executor
from repro.runtime.resilience import RetryPolicy, is_retryable
from repro.runtime.task import ExperimentTask, execute_task

#: Fast, jitter-free policy for chaos runs (see tests/runtime/test_chaos.py).
CHAOS_POLICY = RetryPolicy(
    max_attempts=12, base_delay=0.01, max_delay=0.05, jitter=0.0
)


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


def tiny_tasks(bucket_sizes=(3, 5)):
    base = get_scenario("E")
    return [
        ExperimentTask.create(
            scenario=base.with_overrides(bucket_size=k),
            profile="tiny",
            seed=11,
        )
        for k in bucket_sizes
    ]


def digests_of(results):
    return [trajectory_digest(result) for result in results]


def golden_digests(tasks):
    return digests_of(Campaign().run(tasks))


def _free_port() -> int:
    """A port that was just free (and is closed again by the time we use
    it — good enough to test connection refusal)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            message = {"kind": "call", "items": list(range(100)), "blob": b"x" * 4096}
            send_frame(a, message)
            assert recv_frame(b) == message
        finally:
            a.close()
            b.close()

    def test_corrupted_payload_raises_checksum_error(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"kind": "ready"})
            raw = bytearray(b.recv(1 << 16))
            raw[-1] ^= 0xFF  # damage the payload, keep the header
            c, d = socket.socketpair()
            c.sendall(bytes(raw))
            with pytest.raises(FrameChecksumError):
                recv_frame(d)
            c.close()
            d.close()
        finally:
            a.close()
            b.close()

    def test_bad_magic_raises_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"NOPE" + b"\x00" * 32)
            with pytest.raises(FrameProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_truncated_stream_raises_protocol_error(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"kind": "ready"})
            prefix = b.recv(10)  # less than a header
            c, d = socket.socketpair()
            c.sendall(prefix)
            c.close()  # EOF mid-frame
            with pytest.raises(FrameProtocolError):
                recv_frame(d)
            d.close()
        finally:
            a.close()
            b.close()

    def test_frame_errors_are_retryable_connection_errors(self):
        for error in (
            FrameChecksumError("mismatch"),
            FrameProtocolError("bad magic"),
            WorkerLostError("leases exhausted"),
        ):
            assert isinstance(error, ConnectionError)
            assert is_retryable(error)
        assert is_retryable(RemoteTaskError("remote infra", retryable=True))
        assert not is_retryable(RemoteTaskError("remote task bug"))

    def test_parse_address(self):
        assert parse_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
        assert parse_address("example.org:1") == ("example.org", 1)
        for bogus in ("localhost", ":8000", "host:port", "host:0", "host:70000"):
            with pytest.raises(ValueError):
                parse_address(bogus)


# ----------------------------------------------------------------------
# Coordinator protocol (scripted fake workers over real sockets)
# ----------------------------------------------------------------------
def _plus_one(x):
    return x + 1


def _double(x):
    return x * 2


def _identity(x):
    return x


def _connect_worker(coordinator):
    sock = socket.create_connection(coordinator.address, timeout=5.0)
    sock.settimeout(10.0)
    send_frame(sock, {"kind": "hello", "role": "worker"})
    welcome = recv_frame(sock)
    assert welcome["kind"] == "welcome"
    return sock


def _lease_call(sock):
    send_frame(sock, {"kind": "ready"})
    message = recv_frame(sock)
    assert message["kind"] == "call"
    return message


@pytest.fixture
def coordinator():
    coordinator = Coordinator(
        heartbeat_interval=0.05,
        lease_timeout=0.4,
        max_assignments=4,
        poll_interval=0.02,
    )
    coordinator.start()
    yield coordinator
    coordinator.close()


class TestCoordinator:
    def test_dispatch_and_result(self, coordinator):
        future = coordinator.submit(_plus_one, 41)
        sock = _connect_worker(coordinator)
        call = _lease_call(sock)
        value = call["fn"](call["item"])
        send_frame(sock, {"kind": "result", "call_id": call["call_id"],
                          "ok": True, "value": value})
        assert future.result(timeout=5.0) == 42
        sock.close()

    def test_worker_error_reaches_the_future(self, coordinator):
        future = coordinator.submit(_identity, None)
        sock = _connect_worker(coordinator)
        call = _lease_call(sock)
        send_frame(sock, {"kind": "result", "call_id": call["call_id"],
                          "ok": False, "error": ValueError("task bug")})
        with pytest.raises(ValueError, match="task bug"):
            future.result(timeout=5.0)
        sock.close()

    def test_dead_worker_lease_reassigned_to_survivor(self, coordinator):
        future = coordinator.submit(_double, 21)
        victim = _connect_worker(coordinator)
        leased = _lease_call(victim)
        victim.close()  # crash without a result: lease must move on
        survivor = _connect_worker(coordinator)
        call = _lease_call(survivor)  # blocks until the lease is requeued
        assert call["call_id"] == leased["call_id"]
        send_frame(survivor, {"kind": "result", "call_id": call["call_id"],
                              "ok": True, "value": call["fn"](call["item"])})
        assert future.result(timeout=5.0) == 42
        survivor.close()

    def test_silent_worker_expires_its_lease(self, coordinator):
        future = coordinator.submit(_identity, "payload")
        silent = _connect_worker(coordinator)
        _lease_call(silent)
        # No heartbeat, no result: a partitioned worker.  The lease
        # expires after lease_timeout and a live worker takes over.
        survivor = _connect_worker(coordinator)
        call = _lease_call(survivor)
        send_frame(survivor, {"kind": "result", "call_id": call["call_id"],
                              "ok": True, "value": "done"})
        assert future.result(timeout=5.0) == "done"
        silent.close()
        survivor.close()

    def test_heartbeats_keep_a_slow_lease_alive(self, coordinator):
        future = coordinator.submit(_identity, "slow")
        sock = _connect_worker(coordinator)
        call = _lease_call(sock)
        # Work for several lease lifetimes, kept alive by heartbeats.
        for _ in range(3):
            time.sleep(0.3)
            send_frame(sock, {"kind": "heartbeat"}, inject=False)
        send_frame(sock, {"kind": "result", "call_id": call["call_id"],
                          "ok": True, "value": "finished"})
        assert future.result(timeout=5.0) == "finished"
        assert not future.exception()
        sock.close()

    def test_assignment_cap_escalates_as_retryable(self):
        coordinator = Coordinator(
            heartbeat_interval=0.05, lease_timeout=0.3,
            max_assignments=1, poll_interval=0.02,
        )
        coordinator.start()
        try:
            future = coordinator.submit(_identity, None)
            doomed = _connect_worker(coordinator)
            _lease_call(doomed)
            doomed.close()
            error = future.exception(timeout=5.0)
            assert isinstance(error, WorkerLostError)
            assert is_retryable(error)
        finally:
            coordinator.close()

    def test_first_result_wins_duplicates_dropped(self):
        coordinator = Coordinator()
        call = _Call(call_id=7, fn=str, item=1)
        call.future.set_running_or_notify_cancel()
        coordinator._settle(call, {"ok": True, "value": "first"})
        coordinator._settle(call, {"ok": True, "value": "late duplicate"})
        coordinator._settle(call, {"ok": False, "error": ValueError("late")})
        assert call.future.result() == "first"

    def test_mark_broken_fails_pending_and_future_submits(self, coordinator):
        future = coordinator.submit(_identity, None)
        coordinator.mark_broken("fleet gone")
        with pytest.raises(BrokenExecutor):
            future.result(timeout=5.0)
        with pytest.raises(BrokenExecutor):
            coordinator.submit(_identity, None)

    def test_close_settles_abandoned_futures(self):
        coordinator = Coordinator()
        coordinator.start()
        future = coordinator.submit(_identity, None)
        coordinator.close()
        assert future.cancelled() or isinstance(
            future.exception(), BrokenExecutor
        )

    def test_liveness_knob_validation(self):
        with pytest.raises(ValueError):
            Coordinator(heartbeat_interval=1.0, lease_timeout=0.5)
        with pytest.raises(ValueError):
            Coordinator(max_assignments=0)
        with pytest.raises(ValueError):
            DistributedExecutor(workers=0)


class TestWorkerLoop:
    def test_reconnect_budget_exhaustion_exit_code(self, monkeypatch):
        monkeypatch.setenv(faults.WORKER_ENV_VAR, "1")
        code = run_worker(
            "127.0.0.1", _free_port(),
            reconnect_attempts=1, reconnect_delay=0.01, connect_timeout=0.2,
        )
        assert code == WORKER_LOST_EXIT_CODE


# ----------------------------------------------------------------------
# End-to-end: spawned loopback fleets
# ----------------------------------------------------------------------
def _loopback_executor(**overrides):
    options = dict(
        workers=2, heartbeat_interval=0.1, lease_timeout=1.0,
    )
    options.update(overrides)
    return DistributedExecutor(**options)


class TestDistributedCampaigns:
    def test_make_executor_backends(self):
        assert "distributed" in EXECUTOR_BACKENDS
        executor = make_executor(3, backend="distributed")
        assert isinstance(executor, DistributedExecutor)
        assert executor.worker_count == 3
        with pytest.raises(ValueError):
            make_executor(2, backend="carrier-pigeon")

    def test_matches_serial_digests(self):
        tasks = tiny_tasks(bucket_sizes=(3, 5, 8))
        golden = golden_digests(tasks)
        with Campaign(executor=_loopback_executor()) as campaign:
            results = campaign.run(tasks)
        assert digests_of(results) == golden

    @pytest.mark.parametrize("bucket_sizes", [(3,), (3, 5), (3, 5, 8)])
    def test_multi_task_lease_settles_in_one_frame(self, bucket_sizes):
        # The session speaks lists of pairs: every task of the list goes
        # out in one lease, one frame and one execute_task_batch call.
        tasks = tiny_tasks(bucket_sizes=bucket_sizes)
        golden = golden_digests(tasks)
        session = _loopback_executor().open_task_session()
        try:
            pairs = session.submit_batch(list(enumerate(tasks))).result(
                timeout=120
            )
        finally:
            session.close()
        assert [index for index, _ in pairs] == list(range(len(tasks)))
        assert digests_of([result for _, result in pairs]) == golden

    def test_network_chaos_heals_to_golden_digests(self, monkeypatch, tmp_path):
        """The acceptance scenario: a 2-worker loopback campaign under
        connection drops, frame corruption and worker crashes converges
        to byte-identical results, and the survivor cache is clean."""
        tasks = tiny_tasks()
        golden = golden_digests(tasks)
        monkeypatch.setenv(
            faults.ENV_VAR, "conn-drop@2;frame-corrupt@1;worker-crash@2"
        )
        faults.reset()
        cache = ResultCache(tmp_path / "cache")
        with Campaign(
            executor=_loopback_executor(),
            cache=cache, retry_policy=CHAOS_POLICY,
        ) as campaign:
            results = campaign.run(tasks)
        assert digests_of(results) == golden
        assert cache.verify().clean

    def test_mid_campaign_worker_kill_loses_no_cached_work(self, tmp_path):
        """Killing a worker mid-campaign (SIGKILL, no goodbye) must not
        lose completed work: already-cached results stay cached, the
        victim's lease is reassigned, and the run still converges."""
        tasks = tiny_tasks(bucket_sizes=(3, 5, 8, 10))
        golden = golden_digests(tasks)
        cache_dir = tmp_path / "cache"
        campaign = Campaign(
            executor=_loopback_executor(),
            cache=ResultCache(cache_dir), retry_policy=CHAOS_POLICY,
        )
        killed = []

        def kill_first_worker(event):
            if event.status == "completed" and not killed:
                session = campaign._task_session._session
                session._processes[0].kill()
                killed.append(True)

        campaign.progress = kill_first_worker
        try:
            results = campaign.run(tasks)
        finally:
            campaign.close()
        assert killed, "no completion event ever fired"
        assert digests_of(results) == golden

        # Every task landed durably; a warm rerun is pure cache hits.
        rerun_cache = ResultCache(cache_dir)
        assert rerun_cache.info().entries == len(tasks)
        with Campaign(cache=rerun_cache) as warm:
            warm_results = warm.run(tasks)
        assert digests_of(warm_results) == golden
        assert rerun_cache.stats.hits == len(tasks)

    def test_workerless_fleet_degrades_to_local_execution(self):
        """No worker ever connects: the session breaks, the campaign's
        respawn ladder reopens, and the executor hands out a local
        session instead — the run completes anyway."""
        tasks = tiny_tasks()
        golden = golden_digests(tasks)
        executor = _loopback_executor(
            spawn_workers=False, worker_wait_timeout=0.5,
        )
        with Campaign(
            executor=executor, retry_policy=CHAOS_POLICY
        ) as campaign:
            results = campaign.run(tasks)
        assert digests_of(results) == golden
        assert executor.degraded


# ----------------------------------------------------------------------
# Shared cache tier
# ----------------------------------------------------------------------
@pytest.fixture
def shared_tier(tmp_path):
    """A live ``serve_cache`` thread; yields (directory, port)."""
    directory = tmp_path / "shared"
    stop = threading.Event()
    bound = {}
    ready = threading.Event()

    def _ready(address):
        bound["port"] = address[1]
        ready.set()

    thread = threading.Thread(
        target=serve_cache,
        args=(directory,),
        kwargs=dict(shard_depth=2, ready=_ready, stop=stop.is_set),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=5.0)
    yield directory, bound["port"]
    stop.set()
    thread.join(timeout=5.0)


class TestSharedCacheTier:
    def test_put_through_and_remote_hit(self, shared_tier, tmp_path):
        directory, port = shared_tier
        task = tiny_tasks(bucket_sizes=(3,))[0]
        result = execute_task(task)

        writer = ResultCache(
            tmp_path / "l1-writer", remote=RemoteCacheTier("127.0.0.1", port)
        )
        writer.put(task, result)
        assert writer.stats.remote_puts == 1
        # The serving directory sharded the entry by fingerprint prefix.
        shard = directory / task.key()[:2] / f"{task.key()}.json"
        assert shard.is_file()

        reader = ResultCache(
            tmp_path / "l1-reader", remote=RemoteCacheTier("127.0.0.1", port)
        )
        fetched = reader.get(task)
        assert fetched is not None
        assert trajectory_digest(fetched) == trajectory_digest(result)
        assert reader.stats.remote_hits == 1
        assert reader.stats.hits == 1
        # The remote hit was re-written locally: the next get is pure L1.
        again = reader.get(task)
        assert again is not None
        assert reader.stats.remote_hits == 1

    def test_corrupt_remote_entry_is_never_served(self, shared_tier, tmp_path):
        directory, port = shared_tier
        task = tiny_tasks(bucket_sizes=(3,))[0]
        result = execute_task(task)
        writer = ResultCache(
            tmp_path / "l1-writer", remote=RemoteCacheTier("127.0.0.1", port)
        )
        writer.put(task, result)
        shard = directory / task.key()[:2] / f"{task.key()}.json"
        shard.write_bytes(faults.corrupt_payload(shard.read_bytes()))

        reader = ResultCache(
            tmp_path / "l1-reader", remote=RemoteCacheTier("127.0.0.1", port)
        )
        assert reader.get(task) is None  # verified, rejected, recomputable
        assert reader.stats.remote_hits == 0
        assert reader.stats.misses == 1
        assert not shard.exists()  # quarantined server-side

    def test_dead_tier_degrades_to_local_only(self, tmp_path):
        tier = RemoteCacheTier("127.0.0.1", _free_port(), timeout=0.2)
        assert tier.get_raw("deadbeef") is None
        assert tier.put_raw("deadbeef", b"payload") is False
        cache = ResultCache(tmp_path / "l1", remote=tier)
        task = tiny_tasks(bucket_sizes=(3,))[0]
        result = execute_task(task)
        cache.put(task, result)  # must not raise
        assert cache.get(task) is not None  # local path unaffected
