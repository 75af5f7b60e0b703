"""Protocol-agnostic overlay seam and the overlay registry.

The resilience pipeline is protocol-shaped, not protocol-specific: it
needs a join/leave lifecycle, routing-state capture (``node_id ->
[contact_ids]``), lookup issuing with virtual-latency accounting, a
periodic maintenance hook, and a ``snapshot_version`` for the
incremental graph maintainer.  :class:`repro.overlay.base.OverlayProtocol`
makes that interface explicit; this package ships three implementations
behind one registry:

* ``kademlia`` — the paper's protocol (k-buckets; XOR metric),
* ``chord`` — successor lists + finger tables (clockwise ring metric),
* ``pastry`` — leaf sets + routing rows (prefix-then-ring metric).

:func:`get_overlay` resolves a protocol name to an
:class:`OverlayDescriptor`, which builds the per-node configuration from
the scenario's protocol dimensions (``bucket_size`` maps onto each
protocol's redundancy analogue: Chord's successor count, Pastry's leaf
set size) and supplies the protocol factory the simulation instantiates
per node.  Every protocol's classes are imported lazily, so a Kademlia
run never loads Chord or Pastry (and :mod:`repro.kademlia.protocol`
imports :mod:`repro.overlay.base`: an eager import would be circular).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, List

from repro.overlay.base import (
    LookupResult,
    OverlayProtocol,
    RoutedOverlayProtocol,
)

__all__ = [
    "LookupResult",
    "OverlayDescriptor",
    "OverlayProtocol",
    "RoutedOverlayProtocol",
    "get_overlay",
    "overlay_names",
]


@dataclass(frozen=True)
class OverlayDescriptor:
    """One registered overlay protocol.

    ``config_builder`` maps the scenario's protocol dimensions onto the
    protocol's own configuration type (every builder accepts the same
    keyword set; Kademlia-only knobs such as ``refresh_all_buckets`` are
    ignored by the others).  ``factory_resolver`` returns the
    ``(node_id, config) -> protocol`` callable — resolved lazily so no
    descriptor imports its protocol's modules at module load.
    """

    name: str
    description: str
    config_builder: Callable[..., Any]
    factory_resolver: Callable[[], Callable[[int, Any], OverlayProtocol]]

    def build_config(
        self,
        *,
        bit_length: int,
        bucket_size: int,
        alpha: int,
        staleness_limit: int,
        bootstrap_reseed: bool,
        refresh_interval_minutes: float = 60.0,
        refresh_all_buckets: bool = False,
    ) -> Any:
        """Build the per-node protocol configuration for one scenario."""
        return self.config_builder(
            bit_length=bit_length,
            bucket_size=bucket_size,
            alpha=alpha,
            staleness_limit=staleness_limit,
            bootstrap_reseed=bootstrap_reseed,
            refresh_interval_minutes=refresh_interval_minutes,
            refresh_all_buckets=refresh_all_buckets,
        )

    def protocol_factory(self) -> Callable[[int, Any], OverlayProtocol]:
        """Return the ``(node_id, config) -> protocol`` constructor."""
        return self.factory_resolver()


def _kademlia_config(**kwargs: Any) -> Any:
    from repro.kademlia.config import KademliaConfig

    return KademliaConfig(
        bit_length=kwargs["bit_length"],
        bucket_size=kwargs["bucket_size"],
        alpha=kwargs["alpha"],
        staleness_limit=kwargs["staleness_limit"],
        refresh_interval_minutes=kwargs["refresh_interval_minutes"],
        refresh_all_buckets=kwargs["refresh_all_buckets"],
        bootstrap_reseed=kwargs["bootstrap_reseed"],
    )


def _chord_config(**kwargs: Any) -> Any:
    from repro.overlay.chord import ChordConfig

    return ChordConfig(
        bit_length=kwargs["bit_length"],
        successor_count=kwargs["bucket_size"],
        alpha=kwargs["alpha"],
        staleness_limit=kwargs["staleness_limit"],
        refresh_interval_minutes=kwargs["refresh_interval_minutes"],
        bootstrap_reseed=kwargs["bootstrap_reseed"],
    )


def _pastry_config(**kwargs: Any) -> Any:
    from repro.overlay.pastry import PastryConfig

    return PastryConfig(
        bit_length=kwargs["bit_length"],
        leaf_set_size=kwargs["bucket_size"],
        alpha=kwargs["alpha"],
        staleness_limit=kwargs["staleness_limit"],
        refresh_interval_minutes=kwargs["refresh_interval_minutes"],
        bootstrap_reseed=kwargs["bootstrap_reseed"],
    )


_OVERLAYS: Dict[str, OverlayDescriptor] = {
    "kademlia": OverlayDescriptor(
        name="kademlia",
        description="Kademlia: k-buckets over the XOR metric (the paper's protocol)",
        config_builder=_kademlia_config,
        factory_resolver=lambda: import_module("repro.kademlia.protocol").KademliaProtocol,
    ),
    "chord": OverlayDescriptor(
        name="chord",
        description="Chord: successor lists + finger tables on a clockwise ring",
        config_builder=_chord_config,
        factory_resolver=lambda: import_module("repro.overlay.chord").ChordProtocol,
    ),
    "pastry": OverlayDescriptor(
        name="pastry",
        description="Pastry: leaf sets + prefix routing rows",
        config_builder=_pastry_config,
        factory_resolver=lambda: import_module("repro.overlay.pastry").PastryProtocol,
    ),
}


def get_overlay(name: str) -> OverlayDescriptor:
    """Return the named overlay descriptor."""
    try:
        return _OVERLAYS[name]
    except KeyError:
        raise KeyError(
            f"unknown overlay protocol {name!r}; available: {overlay_names()}"
        ) from None


def overlay_names() -> List[str]:
    """All registered protocol names, Kademlia (the default) first."""
    return ["kademlia", "chord", "pastry"]
