"""Orchestration of one overlay simulation.

:class:`OverlaySimulation` wires an overlay protocol (Kademlia, Chord or
Pastry — anything implementing :class:`repro.overlay.base.OverlayProtocol`),
churn, traffic and loss models onto the discrete-event engine:

* the *setup phase* schedules every initial node's join at a uniformly
  random time, bootstrapping from a uniformly random already-joined node;
* a per-minute *traffic control* schedules each alive node's lookups and
  disseminations at random times within the coming minute (paper: 10
  lookups and 1 dissemination per node and minute);
* a per-minute *churn control* schedules node joins/leaves according to the
  churn scenario, also at random times within the minute;
* every node runs a periodic *maintenance refresh* (Kademlia's bucket
  refresh, paper: every 60 minutes; Chord's stabilisation; Pastry's row
  repair), scheduled relative to its own join time;
* *snapshots* capture all alive nodes' routing tables at fixed intervals.

A simulation holds only what can still act.  A node that leaves is closed
at once (:meth:`~repro.simulator.protocol.Protocol.close` empties its
routing state and store) and stays in the registry as an address that
fails; :meth:`OverlaySimulation.close` tears a finished run down.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.churn.bootstrap import RandomBootstrapPolicy
from repro.core.incremental import IncrementalGraphMaintainer
from repro.churn.churn_model import ChurnScenario, JOIN, LEAVE
from repro.churn.loss import MessageLossModel
from repro.churn.traffic import DISSEMINATE, LOOKUP, TrafficModel
from repro.experiments.snapshot import RoutingTableSnapshot
from repro.kademlia.config import KademliaConfig
from repro.kademlia.node_id import generate_node_id
from repro.kademlia.protocol import KademliaProtocol
from repro.overlay.base import OverlayProtocol
from repro.simulator.engine import Simulator
from repro.simulator.network import Network
from repro.simulator.node import SimNode
from repro.simulator.random_source import RandomSource
from repro.simulator.transport import Transport


class OverlaySimulation:
    """A running overlay network with its environment models.

    ``config`` is the protocol's own configuration object (it must expose
    ``bit_length``, ``id_space_size`` and ``refresh_interval_minutes``);
    ``protocol_factory`` builds one protocol instance per node.  The
    protocol name defaults to the factory's ``protocol_name`` attribute —
    plain-function factories (the hardening extensions wrap
    ``KademliaProtocol`` in closures) fall back to Kademlia.

    A departed node's protocol is closed right after its ``on_leave``; its
    maintenance timers keep firing, as no-ops, until the run ends.  Call
    :meth:`close` once the run is over: the pending events, the nodes and
    the protocols refer to one another, and only the teardown lets them go
    without a garbage-collector pass.
    """

    def __init__(
        self,
        config: KademliaConfig,
        loss: MessageLossModel,
        traffic: TrafficModel,
        churn: ChurnScenario,
        random_source: Optional[RandomSource] = None,
        protocol_factory: Callable[[int, KademliaConfig], OverlayProtocol] = KademliaProtocol,
        maintenance: Sequence = (),
        protocol_name: Optional[str] = None,
    ) -> None:
        self.config = config
        self.loss = loss
        self.traffic = traffic
        self.churn = churn
        self.random = random_source or RandomSource(0)
        self.protocol_factory = protocol_factory
        if protocol_name is None:
            protocol_name = getattr(
                protocol_factory, "protocol_name", KademliaProtocol.protocol_name
            )
        self.protocol_name = protocol_name
        #: Extension maintenance policies (see ``repro.extensions``); each is
        #: applied to every alive node once per its ``interval_minutes``.
        self.maintenance = list(maintenance)

        self.simulator = Simulator()
        self.network = Network()
        self.transport = Transport(
            self.network,
            loss_probability=loss.one_way_probability,
            rng=self.random.stream("loss"),
            protocol_name=self.protocol_name,
        )
        self._bootstrap_policy = RandomBootstrapPolicy(self.random.stream("bootstrap"))
        self._id_rng = self.random.stream("node-ids")
        self._churn_rng = self.random.stream("churn")
        self._traffic_rng = self.random.stream("traffic")
        self._refresh_rng = self.random.stream("refresh")
        self._maintenance_rng = self.random.stream("maintenance")
        self._data_rng = self.random.stream("data")
        self._used_ids: set = set()
        self._traffic_labels: Dict[str, str] = {}
        #: Maintains the connectivity graph incrementally across snapshots
        #: (rows rebuilt only for routing tables whose membership changed).
        self.graph_maintainer = IncrementalGraphMaintainer(self.protocol_name)
        self.joins = 0
        self.leaves = 0
        self.snapshots_taken = 0

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def _new_protocol(self, time: float) -> OverlayProtocol:
        node_id = generate_node_id(
            self.config.bit_length, self._id_rng, exclude=self._used_ids
        )
        self._used_ids.add(node_id)
        node = SimNode(node_id, joined_at=time)
        protocol = self.protocol_factory(node_id, self.config)
        protocol.bind(self.transport, self.simulator.clock)
        node.register_protocol(self.protocol_name, protocol)
        self.network.add_node(node)
        return protocol

    def join_new_node(self) -> OverlayProtocol:
        """Create a node, pick a random alive bootstrap node and join now.

        Also schedules the new node's periodic maintenance refresh.
        """
        time = self.simulator.now
        protocol = self._new_protocol(time)
        bootstrap_id = self._bootstrap_policy.select(self.network, protocol.node_id)
        protocol.join(bootstrap_id)
        protocol.on_join(time)
        self.joins += 1
        self._schedule_refresh(protocol)
        self._schedule_maintenance(protocol)
        return protocol

    def remove_random_node(self) -> Optional[int]:
        """Remove a uniformly random alive node (churn leave action)."""
        victim = self.network.random_alive_node(self._churn_rng)
        if victim is None:
            return None
        self.network.remove_node(victim.node_id, self.simulator.now)
        protocol = victim.protocols.get(self.protocol_name)
        if protocol is not None:
            protocol.on_leave(self.simulator.now)
            protocol.close()
        self.leaves += 1
        return victim.node_id

    def _schedule_refresh(self, protocol: OverlayProtocol) -> None:
        """Schedule the node's periodic maintenance refresh from its join time on."""
        interval = self.config.refresh_interval_minutes

        def _refresh() -> None:
            node = self.network.get(protocol.node_id)
            if node.alive:
                protocol.maintenance_refresh(self._refresh_rng)

        self.simulator.schedule_periodic(
            interval, _refresh, label=f"refresh:{protocol.node_id:x}"
        )

    def _schedule_maintenance(self, protocol: OverlayProtocol) -> None:
        """Schedule the extension maintenance policies for one node."""
        for policy in self.maintenance:

            def _apply(policy=policy, protocol=protocol) -> None:
                node = self.network.get(protocol.node_id)
                if node.alive:
                    policy.apply(protocol, self._maintenance_rng)

            self.simulator.schedule_periodic(
                policy.interval_minutes,
                _apply,
                label=f"maintenance:{protocol.node_id:x}",
            )

    # ------------------------------------------------------------------
    # Phase scheduling
    # ------------------------------------------------------------------
    def schedule_setup(self, node_count: int, setup_duration: float) -> None:
        """Schedule the initial joins uniformly over the setup phase."""
        rng = self.random.stream("setup")
        join_times = sorted(rng.uniform(0.0, setup_duration) for _ in range(node_count))
        for join_time in join_times:
            self.simulator.schedule_at(join_time, self.join_new_node, label="setup-join")

    def schedule_traffic(self, start: float, end: float) -> None:
        """Schedule the per-minute traffic control over ``[start, end)``."""
        if not self.traffic.enabled:
            return

        def _minute_tick() -> None:
            minute_start = self.simulator.now
            for node in self.network.alive_nodes():
                protocol = node.protocol(self.protocol_name)
                actions = self.traffic.minute_actions(minute_start, self._traffic_rng)
                for action_time, kind in actions:
                    self._schedule_traffic_action(protocol, action_time, kind)

        self.simulator.schedule_periodic(
            1.0, _minute_tick, start=start, end=end - 1.0, label="traffic"
        )

    def _schedule_traffic_action(
        self, protocol: OverlayProtocol, action_time: float, kind: str
    ) -> None:
        # The callback and its operands ride on the event itself (no
        # per-action closure): traffic actions are the most numerous
        # scheduled events of a run.
        label = self._traffic_labels.get(kind)
        if label is None:
            label = self._traffic_labels[kind] = f"traffic-{kind}"
        self.simulator.schedule_at(
            action_time,
            self._run_traffic_action,
            label=label,
            args=(protocol, kind),
        )

    def _run_traffic_action(self, protocol: OverlayProtocol, kind: str) -> None:
        node = self.network.get(protocol.node_id)
        if not node.alive:
            return
        target = self._data_rng.randrange(self.config.id_space_size)
        if kind == LOOKUP:
            protocol.lookup(target)
        elif kind == DISSEMINATE:
            protocol.disseminate(target, value={"origin": protocol.node_id})

    def schedule_churn(self, start: float, end: float) -> None:
        """Schedule the per-minute churn control over ``[start, end)``."""
        if not self.churn.is_active:
            return

        def _minute_tick() -> None:
            minute_start = self.simulator.now
            for action_time, kind in self.churn.minute_actions(
                minute_start, self._churn_rng
            ):
                if kind == JOIN:
                    self.simulator.schedule_at(
                        action_time, self.join_new_node, label="churn-join"
                    )
                elif kind == LEAVE:
                    self.simulator.schedule_at(
                        action_time, self.remove_random_node, label="churn-leave"
                    )

        self.simulator.schedule_periodic(
            1.0, _minute_tick, start=start, end=end - 1.0, label="churn"
        )

    def schedule_snapshots(
        self,
        times: List[float],
        callback: Callable[[RoutingTableSnapshot], None],
    ) -> None:
        """Invoke ``callback`` with a routing-table snapshot at each time."""

        def _make_snapshot() -> None:
            callback(self.take_snapshot())

        for time in times:
            self.simulator.schedule_at(time, _make_snapshot, label="snapshot")

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def take_snapshot(self) -> RoutingTableSnapshot:
        """Capture the routing tables of all currently alive nodes."""
        self.snapshots_taken += 1
        tables: Dict[int, List[int]] = {}
        for node in self.network.alive_nodes():
            protocol = node.protocol(self.protocol_name)
            tables[node.node_id] = protocol.routing_table_snapshot()
        return RoutingTableSnapshot.capture(
            self.simulator.now, tables, self.protocol_name
        )

    def connectivity_graph(self):
        """Return the current connectivity graph, maintained incrementally.

        Equal in content and vertex order to
        ``build_connectivity_graph(tables of the alive nodes)`` but only
        rows whose routing-table membership changed since the previous call
        are rebuilt.  The returned graph is **live** — it is mutated by the
        next call, so use it before the simulation advances (the runner
        analyzes each snapshot synchronously).
        """
        return self.graph_maintainer.refresh(self.network)

    def alive_protocols(self) -> List[OverlayProtocol]:
        """Return the protocol objects of all alive nodes."""
        return [
            node.protocol(self.protocol_name)
            for node in self.network.alive_nodes()
        ]

    def run_until(self, end_time: float) -> None:
        """Advance the simulation to ``end_time``."""
        self.simulator.run_until(end_time)

    def close(self) -> None:
        """Tear the finished simulation down; it cannot run again.

        Drops the pending events (their callbacks refer back to this
        object), closes every protocol and empties the node registry (node,
        protocol, transport and registry refer to one another).  The
        counters — events processed, transport statistics, joins and
        leaves — stay readable.
        """
        self.simulator.clear_pending()
        protocol_name = self.protocol_name
        for node in self.network:
            protocol = node.protocols.get(protocol_name)
            if protocol is not None:
                protocol.close()
        self.network.clear()
