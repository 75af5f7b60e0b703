"""Deterministic discrete-event simulation engine.

This package is the stand-in for PeerSim's event-driven simulator
("EDSimulator"/"EDProtocol") used by the paper.  It provides:

* :class:`~repro.simulator.engine.Simulator` — the event loop with a
  simulated clock measured in **minutes** (matching the paper's time axis);
* :class:`~repro.simulator.events.Event` — scheduled callbacks with stable
  tie-breaking so runs are reproducible;
* :class:`~repro.simulator.random_source.RandomSource` — a root seed fanned
  out into named, independent random streams (churn, traffic, loss, ...);
* :class:`~repro.simulator.transport.Transport` — message delivery with
  per-one-way-message loss and delivery statistics;
* :class:`~repro.simulator.control.PeriodicControl` — PeerSim-style controls
  executed at fixed intervals (used for snapshots and churn);
* :class:`~repro.simulator.network.Network` — the registry of live nodes.

Design note: Kademlia RPCs are executed as *synchronous round-trips*
(`Transport.rpc`) at the simulated instant of the initiating action, rather
than as separately scheduled message events.  The paper studies dynamics on
a minute time-scale, where RPC latencies (milliseconds) are negligible; the
synchronous abstraction preserves exactly the state the analysis depends on
(routing-table contents, staleness counters, loss effects) while keeping
pure-Python simulations tractable.
"""
