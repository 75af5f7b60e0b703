"""``repro.runtime.distributed`` — a fault-tolerant TCP executor backend.

The ROADMAP's remote-backend note said it outright: *"a remote backend
only has to map transport errors onto the existing retryable
classification."*  This module is that mapping, engineered for failure
first.  A :class:`DistributedExecutor` runs a small TCP **coordinator**
in the campaign driver and dispatches :func:`execute_task_batch` calls
to worker processes started via the ``repro worker`` CLI entrypoint —
by default loopback subprocesses the executor spawns and supervises
itself, but any reachable process that connects speaks the same
protocol.

Robustness model (every layer assumes the one below it lies):

* **Frames** — every message is a length-prefixed frame carrying a
  sha256 checksum of its payload.  A mismatch raises
  :class:`FrameChecksumError`, a :class:`ConnectionError` subclass, so
  the link is dropped and the work re-dispatched: a corrupt frame is
  indistinguishable from a lost one, by design.
* **Leases** — a dispatched batch is a *lease*, renewed by worker
  heartbeats.  A dead, stalled or partitioned worker stops renewing;
  the coordinator requeues the batch for reassignment.  Duplicate
  results (a partitioned worker finishing late) are deduped
  first-result-wins — safe because tasks are deterministic, so
  duplicates are identical by construction.
* **Retry ladder** — every transport failure surfaces as a retryable
  error (:class:`ConnectionError` / ``TimeoutError`` / errors with
  ``retryable=True``), healed by :class:`Campaign`'s existing
  retry/hedge machinery with no distributed special-casing.
* **Degrade ladder** — a worker process that dies is respawned within
  a bounded budget; once the budget is exhausted and the fleet is gone
  the coordinator breaks (pending work fails with ``BrokenExecutor``)
  and the *next* ``open_task_session()`` returns a local
  :class:`ParallelExecutor` session, so a campaign never strands.

The same frame codec also carries a **shared cache tier**: a
:class:`RemoteCacheTier` client gives a local :class:`ResultCache` a
remote get/put back end (the local directory is the L1), and
:func:`serve_cache` / the coordinator's cache role serve a directory to
remote peers.  Every remote read is checksum-verified before use and
corrupt entries are quarantined exactly like local ones, so a shared
tier can be written by any number of concurrent, crashing peers without
a lock.

Security note: frames carry pickled payloads, which can execute
arbitrary code when loaded.  The protocol authenticates nothing — run
it only on loopback or a trusted private network, like
``multiprocessing`` itself.

Like every scheduling knob, none of this enters task fingerprints:
worker placement, lease timeouts and cache tiers may change *when and
where* a task runs, never a bit of its result.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.runtime import faults
from repro.runtime.cache import ResultCache
from repro.runtime.executor import (
    ExecutionSession,
    Executor,
    ParallelExecutor,
    TaskSession,
)

logger = logging.getLogger("repro.runtime.distributed")

# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
#: Magic prefix of every frame (protocol/version tag).
FRAME_MAGIC = b"RPF1"

#: Bytes of the sha256 digest carried per frame.
FRAME_CHECKSUM_BYTES = 16

#: Header layout: magic, payload length, checksum prefix.
_HEADER = struct.Struct(f"!4sQ{FRAME_CHECKSUM_BYTES}s")

#: Upper bound on a single frame payload (a batch of tiny-profile tasks
#: is a few KiB; anything near this limit is a protocol error, not work).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Exit code of a worker that exhausted its reconnect budget.
WORKER_LOST_EXIT_CODE = 1


class FrameError(ConnectionError):
    """A frame-level protocol failure.

    Subclasses :class:`ConnectionError` so :func:`is_retryable` — and
    every ``except OSError`` transport handler — treats a mangled link
    exactly like a dropped one.
    """

    retryable = True


class FrameChecksumError(FrameError):
    """A received frame failed its sha256 verification."""


class FrameProtocolError(FrameError):
    """A received frame was structurally invalid (bad magic/length/pickle)."""


class WorkerLostError(ConnectionError):
    """A batch exhausted its lease-reassignment budget.

    Retryable: the campaign charges an attempt and re-dispatches, which
    is the correct escalation when every worker that leased the batch
    died.
    """

    retryable = True


class RemoteTaskError(RuntimeError):
    """A worker-side task error whose exception object did not survive
    pickling; carries the remote traceback summary instead.

    ``retryable`` mirrors the remote classification so the campaign
    treats the stand-in exactly like the original.
    """

    def __init__(self, message: str, retryable: bool = False) -> None:
        super().__init__(message)
        self.retryable = retryable


def _checksum(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()[:FRAME_CHECKSUM_BYTES]


def send_frame(
    sock: socket.socket,
    message: Dict[str, Any],
    *,
    lock: Optional[threading.Lock] = None,
    inject: bool = True,
) -> None:
    """Serialise ``message`` and send it as one checksummed frame.

    ``inject=True`` routes the send through the fault plan's frame site
    (``conn-drop`` / ``frame-corrupt`` / ``delay`` / ``partition``);
    heartbeats pass ``inject=False`` so occurrence numbering never
    depends on wall-clock heartbeat cadence.  ``lock`` serialises sends
    when a heartbeat thread shares the socket.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    checksum = _checksum(payload)
    if inject:
        # May sleep, raise InjectedConnectionError, or corrupt the
        # payload *after* the checksum was computed — the receiver then
        # detects the mismatch, which is the point.
        payload = faults.maybe_inject_frame_fault(payload)
    frame = _HEADER.pack(FRAME_MAGIC, len(payload), checksum) + payload
    if lock is not None:
        with lock:
            sock.sendall(frame)
    else:
        sock.sendall(frame)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise FrameProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Receive one frame; verify and deserialise its payload.

    Raises :class:`FrameChecksumError` on digest mismatch and
    :class:`FrameProtocolError` on structural damage; both are
    :class:`ConnectionError` subclasses — callers drop the link and let
    the lease/retry machinery re-dispatch.
    """
    header = _recv_exact(sock, _HEADER.size)
    magic, length, checksum = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameProtocolError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise FrameProtocolError(f"frame of {length} bytes exceeds limit")
    payload = _recv_exact(sock, length)
    if _checksum(payload) != checksum:
        raise FrameChecksumError("frame checksum mismatch")
    try:
        message = pickle.loads(payload)
    except Exception as error:
        raise FrameProtocolError(f"undecodable frame payload: {error!r}")
    if not isinstance(message, dict):
        raise FrameProtocolError(
            f"frame payload is {type(message).__name__}, expected dict"
        )
    return message


def parse_address(text: str) -> Tuple[str, int]:
    """Parse a ``host:port`` string (the ``--connect`` CLI format)."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in {text!r}") from None
    if not 0 < port < 65536:
        raise ValueError(f"port out of range in {text!r}")
    return host, port


def _portable_error(error: BaseException) -> BaseException:
    """Return ``error`` if it survives a pickle round-trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        from repro.runtime.resilience import is_retryable

        return RemoteTaskError(
            f"{type(error).__name__}: {error}", retryable=is_retryable(error)
        )


# ----------------------------------------------------------------------
# Coordinator (driver side)
# ----------------------------------------------------------------------
@dataclass
class _Call:
    """One leased unit of work (a whole task batch per lease)."""

    call_id: int
    fn: Callable[[Any], Any]
    item: Any
    future: Future = field(default_factory=Future)
    assignments: int = 0
    started: bool = False


class _LeaseExpired(ConnectionError):
    """Internal: a worker stopped renewing its lease."""


class Coordinator:
    """TCP work-queue server living in the campaign driver process.

    Accepts ``worker`` connections (leased batch dispatch, heartbeat
    liveness) and ``cache`` connections (shared-tier get/put against
    ``cache``, when given).  Thread-per-connection: the scale target is
    a fleet of workers, not C10K.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_interval: float = 0.25,
        lease_timeout: float = 2.0,
        max_assignments: int = 4,
        poll_interval: float = 0.1,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if lease_timeout <= heartbeat_interval:
            raise ValueError(
                f"lease_timeout ({lease_timeout}) must exceed "
                f"heartbeat_interval ({heartbeat_interval})"
            )
        if max_assignments < 1:
            raise ValueError(
                f"max_assignments must be >= 1, got {max_assignments}"
            )
        self._host = host
        self._requested_port = port
        self.heartbeat_interval = heartbeat_interval
        self.lease_timeout = lease_timeout
        self._max_assignments = max_assignments
        self._poll_interval = poll_interval
        self._cache = cache
        self._obs = obs.active()

        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._closing = threading.Event()
        self._broken = threading.Event()
        self._broken_reason = ""

        self._queue: deque = deque()
        self._queue_lock = threading.Lock()
        self._queue_cond = threading.Condition(self._queue_lock)
        self._settle_lock = threading.Lock()
        self._next_call_id = 0
        self._live_workers = 0
        self._last_worker_seen = time.monotonic()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._requested_port))
        listener.listen(64)
        listener.settimeout(self._poll_interval)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept",
            daemon=True,
        )
        self._accept_thread.start()
        logger.debug("coordinator listening on %s:%d", *self.address)

    @property
    def address(self) -> Tuple[str, int]:
        assert self._listener is not None, "coordinator not started"
        host, port = self._listener.getsockname()[:2]
        return host, port

    @property
    def broken(self) -> bool:
        return self._broken.is_set()

    @property
    def live_workers(self) -> int:
        return self._live_workers

    @property
    def last_worker_seen(self) -> float:
        return self._last_worker_seen

    def close(self) -> None:
        """Stop accepting, release workers, settle abandoned futures."""
        if self._closing.is_set():
            return
        self._closing.set()
        with self._queue_cond:
            self._queue_cond.notify_all()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._listener is not None:
            self._listener.close()
        for thread in list(self._conn_threads):
            thread.join(timeout=5.0)
        # Futures the caller abandoned (e.g. a campaign tearing down
        # after an error) must still settle — a waiter blocked on one
        # would otherwise hang forever.
        with self._queue_lock:
            leftovers = list(self._queue)
            self._queue.clear()
        for call in leftovers:
            if not call.future.done() and not call.future.cancel():
                call.future.set_exception(
                    BrokenExecutor("coordinator closed with work pending")
                )

    def mark_broken(self, reason: str) -> None:
        """Fail pending work; subsequent submits raise ``BrokenExecutor``.

        Called by the worker supervisor when the respawn budget is
        exhausted and the fleet is gone — the distributed equivalent of
        a broken process pool, healed by the same campaign ladder.
        """
        if self._broken.is_set():
            return
        self._broken_reason = reason
        self._broken.set()
        self._inc("distributed.broken_sessions")
        logger.warning("distributed session broken: %s", reason)
        with self._queue_lock:
            pending = list(self._queue)
            self._queue.clear()
        for call in pending:
            if not call.future.done():
                call.future.set_exception(BrokenExecutor(reason))
        with self._queue_cond:
            self._queue_cond.notify_all()

    # -- work queue -----------------------------------------------------
    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future:
        """Queue one call for lease-based dispatch; return its future."""
        if self._broken.is_set():
            raise BrokenExecutor(
                self._broken_reason or "distributed session broken"
            )
        if self._closing.is_set():
            raise RuntimeError("coordinator is closed")
        with self._queue_lock:
            call = _Call(call_id=self._next_call_id, fn=fn, item=item)
            self._next_call_id += 1
            self._queue.append(call)
            self._queue_cond.notify()
        return call.future

    def _next_call(self) -> Optional[_Call]:
        """Block until a dispatchable call is available (or shutdown)."""
        with self._queue_cond:
            while not self._closing.is_set() and not self._broken.is_set():
                while self._queue:
                    call = self._queue.popleft()
                    if call.future.done():
                        continue
                    if not call.started:
                        if not call.future.set_running_or_notify_cancel():
                            continue
                        call.started = True
                    return call
                self._queue_cond.wait(timeout=self._poll_interval)
        return None

    def _requeue(self, call: _Call) -> None:
        """Return a leased call to the queue after its worker was lost."""
        if call.future.done():
            return
        if self._broken.is_set():
            call.future.set_exception(
                BrokenExecutor(self._broken_reason or "session broken")
            )
            return
        self._inc("distributed.leases_reassigned")
        if call.assignments >= self._max_assignments:
            # Escalate to the campaign: retryable, charged an attempt.
            call.future.set_exception(
                WorkerLostError(
                    f"batch lost after {call.assignments} lease "
                    f"assignments (workers died or partitioned)"
                )
            )
            return
        logger.info(
            "reassigning call %d (assignment %d)",
            call.call_id, call.assignments + 1,
        )
        with self._queue_cond:
            self._queue.appendleft(call)
            self._queue_cond.notify()

    def _settle(self, call: _Call, message: Dict[str, Any]) -> None:
        """Deliver a worker result — first result wins, duplicates drop."""
        with self._settle_lock:
            if call.future.done():
                # A partitioned worker finished late after reassignment;
                # results are identical by construction, so dropping the
                # duplicate is sound.
                self._inc("distributed.duplicate_results")
                return
            if message.get("ok"):
                call.future.set_result(message.get("value"))
            else:
                error = message.get("error")
                if not isinstance(error, BaseException):
                    error = RemoteTaskError("worker reported an opaque failure")
                call.future.set_exception(error)

    # -- connection handling -------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing.is_set():
            try:
                conn, addr = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=self._handle_connection, args=(conn, addr),
                name=f"repro-coordinator-conn-{addr[1]}", daemon=True,
            )
            self._conn_threads.append(thread)
            thread.start()

    def _handle_connection(
        self, conn: socket.socket, addr: Tuple[str, int]
    ) -> None:
        try:
            conn.settimeout(self.lease_timeout)
            hello = recv_frame(conn)
            role = hello.get("role", "worker")
            send_frame(
                conn,
                {"kind": "welcome",
                 "heartbeat_interval": self.heartbeat_interval},
            )
            if role == "cache":
                self._serve_cache_conn(conn)
            else:
                self._serve_worker_conn(conn, hello)
        except (OSError, EOFError) as error:
            logger.debug("connection %s dropped: %s", addr, error)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _serve_worker_conn(
        self, conn: socket.socket, hello: Dict[str, Any]
    ) -> None:
        self._inc("distributed.workers_connected")
        with self._queue_lock:
            self._live_workers += 1
            self._last_worker_seen = time.monotonic()
        current: Optional[_Call] = None
        lease_deadline = 0.0
        ready_deadline = time.monotonic() + 2.0 * self.lease_timeout
        conn.settimeout(self._poll_interval)
        try:
            while not self._closing.is_set() and not self._broken.is_set():
                if current is None:
                    try:
                        message = recv_frame(conn)
                    except TimeoutError:
                        if time.monotonic() > ready_deadline:
                            raise _LeaseExpired("worker never became ready")
                        continue
                    if message.get("kind") != "ready":
                        continue
                    call = self._next_call()
                    if call is None:
                        break  # closing or broken
                    call.assignments += 1
                    try:
                        send_frame(
                            conn,
                            {"kind": "call", "call_id": call.call_id,
                             "fn": call.fn, "item": call.item},
                        )
                    except BaseException:
                        current = call
                        raise
                    current = call
                    lease_deadline = time.monotonic() + self.lease_timeout
                    self._inc("distributed.leases_assigned")
                else:
                    try:
                        message = recv_frame(conn)
                    except TimeoutError:
                        if time.monotonic() > lease_deadline:
                            raise _LeaseExpired(
                                f"lease on call {current.call_id} expired"
                            )
                        continue
                    kind = message.get("kind")
                    if kind == "heartbeat":
                        lease_deadline = (
                            time.monotonic() + self.lease_timeout
                        )
                        self._last_worker_seen = time.monotonic()
                        self._inc("distributed.heartbeats")
                    elif kind == "result":
                        self._settle(current, message)
                        current = None
                        ready_deadline = (
                            time.monotonic() + 2.0 * self.lease_timeout
                        )
            # Clean release: tell an idle worker to exit (data frames
            # only — a worker mid-call finds out when its result send
            # fails and its reconnect is refused).
            if current is None and not self._broken.is_set():
                try:
                    send_frame(conn, {"kind": "shutdown"}, inject=False)
                except OSError:
                    pass
        except _LeaseExpired as error:
            logger.warning("worker lease lost: %s", error)
            self._inc("distributed.workers_lost")
        except (OSError, EOFError) as error:
            logger.info("worker connection failed: %s", error)
            self._inc("distributed.workers_lost")
        finally:
            with self._queue_lock:
                self._live_workers -= 1
            if current is not None:
                self._requeue(current)

    def _serve_cache_conn(self, conn: socket.socket) -> None:
        """Serve shared-tier get/put requests against the local cache."""
        if self._cache is None:
            raise FrameProtocolError("no cache attached to this coordinator")
        serve_cache_connection(
            conn, self._cache, idle_timeout=10.0 * self.lease_timeout,
            stop=lambda: self._closing.is_set(),
        )

    def _inc(self, name: str, value: int = 1) -> None:
        if self._obs is not None:
            self._obs.inc(name, value)


# ----------------------------------------------------------------------
# Worker (remote side) — the ``repro worker`` CLI entrypoint
# ----------------------------------------------------------------------
#: Seconds an idle worker waits for a call before treating the
#: coordinator as gone and reconnecting.
WORKER_IDLE_TIMEOUT = 300.0


def _serve_coordinator(
    sock: socket.socket,
    heartbeat_override: Optional[float] = None,
    idle_timeout: float = WORKER_IDLE_TIMEOUT,
) -> bool:
    """Run the worker protocol over one connection.

    Returns ``True`` when the coordinator sent a clean ``shutdown``
    frame; transport failures raise and the caller reconnects.
    """
    send_lock = threading.Lock()
    sock.settimeout(idle_timeout)
    send_frame(
        sock, {"kind": "hello", "role": "worker", "pid": os.getpid()},
        lock=send_lock,
    )
    welcome = recv_frame(sock)
    if welcome.get("kind") != "welcome":
        raise FrameProtocolError(f"expected welcome, got {welcome.get('kind')!r}")
    heartbeat_interval = heartbeat_override or float(
        welcome.get("heartbeat_interval") or 0.25
    )
    while True:
        send_frame(sock, {"kind": "ready"}, lock=send_lock)
        message = recv_frame(sock)
        kind = message.get("kind")
        if kind == "shutdown":
            return True
        if kind != "call":
            continue
        # Heartbeats renew the lease while the batch runs; they bypass
        # fault injection (see send_frame) and never kill the worker —
        # a send failure just stops the beat, and the failure surfaces
        # on the result send.
        stop_beat = threading.Event()

        def _beat() -> None:
            while not stop_beat.wait(heartbeat_interval):
                try:
                    send_frame(
                        sock, {"kind": "heartbeat"},
                        lock=send_lock, inject=False,
                    )
                except OSError:
                    return

        beat_thread = threading.Thread(target=_beat, daemon=True)
        beat_thread.start()
        try:
            fn = message["fn"]
            try:
                value = fn(message["item"])
                reply = {
                    "kind": "result", "call_id": message["call_id"],
                    "ok": True, "value": value,
                }
            except Exception as error:  # noqa: BLE001 — forwarded, not hidden
                reply = {
                    "kind": "result", "call_id": message["call_id"],
                    "ok": False, "error": _portable_error(error),
                }
        finally:
            stop_beat.set()
            beat_thread.join(timeout=2.0)
        send_frame(sock, reply, lock=send_lock)


def run_worker(
    host: str,
    port: int,
    *,
    heartbeat_interval: Optional[float] = None,
    reconnect_attempts: int = 8,
    reconnect_delay: float = 0.05,
    connect_timeout: float = 5.0,
    idle_timeout: float = WORKER_IDLE_TIMEOUT,
) -> int:
    """Main loop of a ``repro worker`` process.

    Connects to the coordinator, serves leased batches, and reconnects
    with bounded exponential backoff whenever the link drops (connection
    reset, frame corruption, coordinator restart).  Returns ``0`` after
    a clean coordinator shutdown, :data:`WORKER_LOST_EXIT_CODE` once the
    reconnect budget is exhausted.
    """
    # Mark the process as a worker so crash faults can find it and the
    # executor layers know not to install signal handlers of their own.
    os.environ.setdefault(faults.WORKER_ENV_VAR, "1")
    failures = 0
    while True:
        try:
            sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as error:
            failures += 1
            if failures > reconnect_attempts:
                logger.error(
                    "worker giving up after %d failed connects: %s",
                    failures, error,
                )
                return WORKER_LOST_EXIT_CODE
            time.sleep(min(reconnect_delay * (2.0 ** failures), 1.0))
            continue
        try:
            clean = _serve_coordinator(
                sock,
                heartbeat_override=heartbeat_interval,
                idle_timeout=idle_timeout,
            )
            if clean:
                logger.info("worker received shutdown; exiting")
                return 0
        except (OSError, EOFError) as error:
            failures += 1
            logger.info(
                "worker link lost (%s); reconnect %d/%d",
                error, failures, reconnect_attempts,
            )
            if failures > reconnect_attempts:
                return WORKER_LOST_EXIT_CODE
            time.sleep(min(reconnect_delay * (2.0 ** failures), 1.0))
        finally:
            try:
                sock.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Shared cache tier
# ----------------------------------------------------------------------
def serve_cache_connection(
    conn: socket.socket,
    cache: ResultCache,
    *,
    idle_timeout: float = 30.0,
    stop: Optional[Callable[[], bool]] = None,
) -> None:
    """Serve shared-tier requests over one connection until EOF/stop.

    Every ``get`` re-verifies the entry checksum on the serving side
    (corrupt entries are quarantined and reported missing); every
    ``put`` verifies before the atomic write, so a corrupt frame can
    never become a durable cache entry.
    """
    conn.settimeout(min(idle_timeout, 1.0))
    deadline = time.monotonic() + idle_timeout
    while stop is None or not stop():
        try:
            message = recv_frame(conn)
        except TimeoutError:
            if time.monotonic() > deadline:
                return
            continue
        deadline = time.monotonic() + idle_timeout
        kind = message.get("kind")
        if kind == "cache-get":
            raw = cache.get_raw(str(message.get("key", "")))
            send_frame(
                conn,
                {"kind": "cache-entry", "key": message.get("key"),
                 "found": raw is not None, "data": raw},
            )
        elif kind == "cache-put":
            stored = cache.put_raw(
                str(message.get("key", "")), message.get("data") or b""
            )
            send_frame(conn, {"kind": "cache-ok", "stored": stored})
        elif kind == "shutdown":
            return
        else:
            raise FrameProtocolError(f"unexpected cache request {kind!r}")


def serve_cache(
    directory: os.PathLike,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    shard_depth: int = 0,
    ready: Optional[Callable[[Tuple[str, int]], None]] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> None:
    """Serve a cache directory as a standalone shared tier (blocking).

    The ``repro cache serve`` CLI entrypoint.  ``ready`` (if given) is
    called with the bound address once listening — tests use it to
    learn the ephemeral port; ``stop`` is polled to end the loop.
    """
    cache = ResultCache(directory, shard_depth=shard_depth)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(16)
    listener.settimeout(0.2)
    if ready is not None:
        ready(listener.getsockname()[:2])
    logger.info("serving cache %s on %s:%d", directory,
                *listener.getsockname()[:2])
    threads: List[threading.Thread] = []

    def _serve_one(conn: socket.socket) -> None:
        try:
            hello = recv_frame(conn)
            if hello.get("role") != "cache":
                raise FrameProtocolError("expected a cache-role hello")
            send_frame(conn, {"kind": "welcome", "heartbeat_interval": 0.0})
            serve_cache_connection(conn, cache, stop=stop)
        except (OSError, EOFError) as error:
            logger.debug("cache connection dropped: %s", error)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    try:
        while stop is None or not stop():
            try:
                conn, _addr = listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=_serve_one, args=(conn,), daemon=True
            )
            threads.append(thread)
            thread.start()
    finally:
        listener.close()
        for thread in threads:
            thread.join(timeout=2.0)
        cache.sync_persistent_stats()


class RemoteCacheTier:
    """Client of a shared cache tier, pluggable into :class:`ResultCache`.

    Duck-typed to the two methods :class:`ResultCache` calls
    (``get_raw`` / ``put_raw``).  Transport failures are *never* fatal:
    a broken shared tier degrades to local-only caching (a miss costs a
    recompute, not a campaign).  The connection is lazy and re-dialled
    after any failure.
    """

    def __init__(
        self, host: str, port: int, *, timeout: float = 5.0
    ) -> None:
        self._address = (host, port)
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._obs = obs.active()

    @property
    def address(self) -> Tuple[str, int]:
        return self._address

    def _connection(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                self._address, timeout=self._timeout
            )
            sock.settimeout(self._timeout)
            send_frame(sock, {"kind": "hello", "role": "cache"})
            welcome = recv_frame(sock)
            if welcome.get("kind") != "welcome":
                sock.close()
                raise FrameProtocolError("shared tier rejected the handshake")
            self._sock = sock
        return self._sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def get_raw(self, key: str) -> Optional[bytes]:
        """Fetch raw entry bytes, or ``None`` on miss *or* any failure."""
        with self._lock:
            try:
                sock = self._connection()
                send_frame(sock, {"kind": "cache-get", "key": key})
                reply = recv_frame(sock)
            except (OSError, EOFError) as error:
                logger.warning("shared cache get failed: %s", error)
                self._drop()
                self._inc("cache.remote_errors")
                return None
        if reply.get("kind") != "cache-entry" or not reply.get("found"):
            return None
        data = reply.get("data")
        return data if isinstance(data, bytes) else None

    def put_raw(self, key: str, data: bytes) -> bool:
        """Best-effort push of raw entry bytes to the shared tier."""
        with self._lock:
            try:
                sock = self._connection()
                send_frame(sock, {"kind": "cache-put", "key": key,
                                  "data": data})
                reply = recv_frame(sock)
            except (OSError, EOFError) as error:
                logger.warning("shared cache put failed: %s", error)
                self._drop()
                self._inc("cache.remote_errors")
                return False
        return bool(reply.get("stored"))

    def close(self) -> None:
        with self._lock:
            self._drop()

    def _inc(self, name: str, value: int = 1) -> None:
        if self._obs is not None:
            self._obs.inc(name, value)


# ----------------------------------------------------------------------
# DistributedExecutor
# ----------------------------------------------------------------------
def _package_root() -> str:
    """Directory containing the ``repro`` package (for worker PYTHONPATH)."""
    return str(Path(__file__).resolve().parent.parent.parent)


class _CoordinatorSession(ExecutionSession):
    """Execution session dispatching calls through a coordinator.

    Owns the coordinator, the spawned worker processes and the
    supervisor thread; ``close()`` tears all of it down.  The generic
    :class:`ExecutionSession` surface means :class:`TaskSession` — and
    with it the whole campaign driver — needs no distributed awareness.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        executor: "DistributedExecutor",
        processes: List[subprocess.Popen],
        worker_command: Optional[List[str]],
        worker_env: Optional[Dict[str, str]],
    ) -> None:
        self._coordinator = coordinator
        self._executor = executor
        self._processes = processes
        self._worker_command = worker_command
        self._worker_env = worker_env
        self._closing = threading.Event()
        self._obs = obs.active()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-distributed-supervisor",
            daemon=True,
        )
        self._supervisor.start()

    # -- ExecutionSession interface ------------------------------------
    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future:
        return self._coordinator.submit(fn, item)

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        futures = [self.submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            raise

    def close(self) -> None:
        if self._closing.is_set():
            return
        self._closing.set()
        self._coordinator.close()
        self._supervisor.join(timeout=5.0)
        for process in self._processes:
            if process.poll() is None:
                try:
                    process.terminate()
                    process.wait(timeout=2.0)
                except (OSError, subprocess.TimeoutExpired):
                    process.kill()
                    process.wait(timeout=2.0)

    # -- worker supervision --------------------------------------------
    def _supervise(self) -> None:
        """Respawn dead workers within budget; break the session beyond it.

        The budget is owned by the *executor* and cumulative across its
        sessions — a crash-looping fleet must not reset its allowance by
        breaking and reopening.
        """
        spawned = self._worker_command is not None
        while not self._closing.is_set():
            time.sleep(self._coordinator._poll_interval)
            if self._closing.is_set() or self._coordinator.broken:
                return
            live = 0
            for index, process in enumerate(self._processes):
                if process.poll() is None:
                    live += 1
                    continue
                if not spawned:
                    continue
                if self._executor.consume_respawn():
                    logger.warning(
                        "worker %d exited with code %s; respawning",
                        index, process.returncode,
                    )
                    self._inc("distributed.worker_respawns")
                    self._processes[index] = subprocess.Popen(
                        self._worker_command,
                        env=self._worker_env,
                        stdout=subprocess.DEVNULL,
                    )
                    live += 1
            if spawned and live == 0 and self._executor.respawns_exhausted:
                self._coordinator.mark_broken(
                    "worker respawn budget exhausted and fleet lost"
                )
                self._executor.note_exhausted()
                return
            if (
                not spawned
                and self._coordinator.live_workers == 0
                and time.monotonic() - self._coordinator.last_worker_seen
                > self._executor.worker_wait_timeout
            ):
                self._coordinator.mark_broken(
                    f"no worker connected within "
                    f"{self._executor.worker_wait_timeout:.0f}s"
                )
                self._executor.note_exhausted()
                return

    def _inc(self, name: str, value: int = 1) -> None:
        if self._obs is not None:
            self._obs.inc(name, value)


class DistributedExecutor(Executor):
    """Executor dispatching task batches to TCP workers via a coordinator.

    Parameters
    ----------
    workers:
        Fleet size.  With ``spawn_workers=True`` (the default) that many
        loopback ``repro worker`` subprocesses are started and
        supervised per session; with ``False`` the executor only listens
        and any externally started worker (``repro worker --connect
        host:port``) may join.
    heartbeat_interval / lease_timeout:
        Liveness knobs: workers heartbeat every ``heartbeat_interval``
        seconds while executing; a lease not renewed within
        ``lease_timeout`` is reassigned.  Identity-free, like every
        scheduling knob.
    max_assignments:
        Lease reassignments per batch before the coordinator escalates
        the loss to the campaign as a retryable error.
    max_worker_respawns:
        Cumulative dead-worker respawns per executor (default
        ``2 * workers``).  Beyond it a dead fleet breaks the session and
        the next ``open_task_session()`` degrades to a local
        :class:`ParallelExecutor` — a campaign never strands.
    cache:
        Optional :class:`ResultCache` served to workers/peers as the
        shared tier over the same socket.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 0.25,
        lease_timeout: float = 2.0,
        max_assignments: int = 4,
        max_worker_respawns: Optional[int] = None,
        spawn_workers: bool = True,
        worker_wait_timeout: float = 60.0,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.host = host
        self.port = port
        self.heartbeat_interval = heartbeat_interval
        self.lease_timeout = lease_timeout
        self.max_assignments = max_assignments
        self.max_worker_respawns = (
            max_worker_respawns if max_worker_respawns is not None
            else 2 * workers
        )
        self.spawn_workers = spawn_workers
        self.worker_wait_timeout = worker_wait_timeout
        self.cache = cache
        self._respawn_lock = threading.Lock()
        self._respawns_used = 0
        self._exhausted = False
        self._obs = obs.active()

    @property
    def worker_count(self) -> int:  # type: ignore[override]
        return self.workers

    # -- respawn budget (cumulative across sessions) -------------------
    def consume_respawn(self) -> bool:
        with self._respawn_lock:
            if self._respawns_used >= self.max_worker_respawns:
                return False
            self._respawns_used += 1
            return True

    @property
    def respawns_exhausted(self) -> bool:
        with self._respawn_lock:
            return self._respawns_used >= self.max_worker_respawns

    def note_exhausted(self) -> None:
        self._exhausted = True

    @property
    def degraded(self) -> bool:
        """Whether the executor has fallen back to local execution."""
        return self._exhausted

    # -- sessions -------------------------------------------------------
    def open_task_session(self) -> TaskSession:
        """Open a distributed task session — or a local one when degraded.

        The final rung of the heal ladder: after retry, lease
        reassignment and worker respawn have all been exhausted, the
        campaign's ``respawn_session()`` lands here and gets a local
        :class:`ParallelExecutor` session instead of another doomed
        fleet.
        """
        if self._exhausted:
            logger.warning(
                "distributed backend exhausted its worker respawn budget; "
                "degrading to a local ParallelExecutor(jobs=%d)",
                self.workers,
            )
            if self._obs is not None:
                self._obs.inc("distributed.degraded_local")
            return ParallelExecutor(jobs=self.workers).open_task_session()
        return TaskSession(self._open_coordinator_session())

    def open_session(self, initializer=None, initargs=()) -> ExecutionSession:
        """Generic sessions fall back to the in-process serial default.

        Distributed workers do not support per-worker initializers (the
        pair-flow engine ships snapshots that way); experiment tasks
        need none, so only :meth:`open_task_session` is distributed.
        """
        return super().open_session(initializer, initargs)

    def _open_coordinator_session(self) -> _CoordinatorSession:
        coordinator = Coordinator(
            self.host, self.port,
            heartbeat_interval=self.heartbeat_interval,
            lease_timeout=self.lease_timeout,
            max_assignments=self.max_assignments,
            cache=self.cache,
        )
        coordinator.start()
        host, port = coordinator.address
        processes: List[subprocess.Popen] = []
        command: Optional[List[str]] = None
        env: Optional[Dict[str, str]] = None
        if self.spawn_workers:
            command = [
                sys.executable, "-m", "repro.cli", "worker",
                "--connect", f"{host}:{port}",
            ]
            env = dict(os.environ)
            parts = env.get("PYTHONPATH", "")
            root = _package_root()
            if root not in parts.split(os.pathsep):
                env["PYTHONPATH"] = (
                    root + (os.pathsep + parts if parts else "")
                )
            env[faults.WORKER_ENV_VAR] = "1"
            try:
                for _ in range(self.workers):
                    processes.append(
                        subprocess.Popen(
                            command, env=env, stdout=subprocess.DEVNULL
                        )
                    )
            except BaseException:
                coordinator.close()
                for process in processes:
                    process.kill()
                raise
        return _CoordinatorSession(
            coordinator, self, processes, command, env
        )
