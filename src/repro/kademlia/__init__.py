"""Kademlia protocol implementation.

A from-scratch implementation of the Kademlia distributed hash table
(Maymounkov & Mazières, 2002) with exactly the parameters the paper varies:

* ``b`` — identifier bit-length (default 160),
* ``k`` — bucket size / replication factor (default 20),
* ``alpha`` — request parallelism of iterative lookups (default 3),
* ``s`` — staleness limit: consecutive failed round-trips before a contact
  is dropped from the routing table (default 5).

The protocol plugs into the :mod:`repro.simulator` substrate: RPCs travel
through :class:`repro.simulator.transport.Transport`, which applies the
message-loss model and resolves dead nodes.
"""
