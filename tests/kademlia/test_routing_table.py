"""Tests for the routing table."""

import random

from hypothesis import given, settings, strategies as st

from repro.kademlia.config import KademliaConfig
from repro.kademlia.node_id import bucket_index, xor_distance
from repro.kademlia.routing_table import RoutingTable


def make_table(owner=0, k=4, b=16, s=2):
    config = KademliaConfig(bit_length=b, bucket_size=k, alpha=3, staleness_limit=s)
    return RoutingTable(owner, config)


class TestAddRemove:
    def test_owner_never_added(self):
        table = make_table(owner=7)
        assert not table.add_contact(7, time=0.0)
        assert table.contact_count() == 0

    def test_add_and_contains(self):
        table = make_table()
        assert table.add_contact(9, time=0.0)
        assert table.contains(9)
        assert table.contact_count() == 1

    def test_contacts_routed_to_correct_bucket(self):
        table = make_table(owner=0)
        table.add_contact(0b1, 0.0)       # bucket 0
        table.add_contact(0b100, 0.0)     # bucket 2
        occupancy = table.occupancy_by_bucket()
        assert occupancy == {0: 1, 2: 1}

    def test_bucket_capacity_enforced_per_bucket(self):
        table = make_table(owner=0, k=2, b=8)
        # Bucket 7 covers ids in [128, 255]; only 2 of these 4 fit.
        added = [table.add_contact(value, 0.0) for value in (128, 129, 130, 131)]
        assert added.count(True) == 2
        # A contact for another bucket still fits.
        assert table.add_contact(1, 0.0)

    def test_remove_contact(self):
        table = make_table()
        table.add_contact(5, 0.0)
        assert table.remove_contact(5)
        assert not table.remove_contact(5)
        assert not table.remove_contact(table.owner_id)

    def test_record_failure_drops_after_staleness_limit(self):
        table = make_table(s=2)
        table.add_contact(5, 0.0)
        assert not table.record_failure(5)
        assert table.record_failure(5)
        assert not table.contains(5)

    def test_record_success_refreshes(self):
        table = make_table(s=2)
        table.add_contact(5, 0.0)
        table.record_failure(5)
        assert table.record_success(5, time=2.0)
        # The failure streak is reset, so two more failures are needed again.
        assert not table.record_failure(5)
        assert table.record_failure(5)


class TestClosestContacts:
    def test_closest_sorted_by_xor_distance(self):
        table = make_table(owner=0, k=8)
        for value in (1, 2, 3, 12, 13, 40, 41):
            table.add_contact(value, 0.0)
        closest = table.closest_contacts(target_id=13, count=3)
        assert closest == [13, 12, 9] or closest[0] == 13
        distances = [xor_distance(c, 13) for c in closest]
        assert distances == sorted(distances)

    def test_closest_defaults_to_bucket_size(self):
        table = make_table(owner=0, k=3)
        for value in range(1, 10):
            table.add_contact(value, 0.0)
        assert len(table.closest_contacts(target_id=1)) == 3

    def test_closest_with_fewer_contacts_than_count(self):
        table = make_table()
        table.add_contact(1, 0.0)
        assert table.closest_contacts(5, count=10) == [1]

    def test_cache_consistency_after_mutations(self):
        """The cached flat contact list must track adds, removals and staleness drops."""
        table = make_table(owner=0, k=4, s=1)
        for value in (1, 2, 3, 4):
            table.add_contact(value, 0.0)
        assert sorted(table.contact_ids()) == [1, 2, 3, 4]
        table.remove_contact(2)
        assert sorted(table.contact_ids()) == [1, 3, 4]
        table.record_failure(3)  # s=1: dropped immediately
        assert sorted(table.contact_ids()) == [1, 4]
        table.add_contact(9, 1.0)
        assert sorted(table.contact_ids()) == [1, 4, 9]
        assert sorted(table.closest_contacts(0, count=10)) == [1, 4, 9]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=2**16 - 1), unique=True,
                    min_size=1, max_size=40),
           st.integers(min_value=0, max_value=2**16 - 1))
    def test_closest_matches_brute_force(self, contacts, target):
        table = make_table(owner=0, k=64)
        for contact in contacts:
            table.add_contact(contact, 0.0)
        expected = sorted(table.contact_ids(), key=lambda c: c ^ target)[:5]
        assert table.closest_contacts(target, count=5) == expected


class TestNoStaleMembers:
    """The table evicts at the staleness limit, so it never holds a stale contact.

    This is why ``add_contact`` may reject on a full bucket without looking
    for a stale member to replace (``KBucket.add`` step 3 is unreachable
    through the table).
    """

    OPERATIONS = st.lists(
        st.tuples(
            st.sampled_from(
                ["add_contact", "record_failure", "record_success",
                 "remove_contact", "refresh_contacts"]
            ),
            # 6-bit ids, k = 2: buckets fill up and failures hit members.
            st.integers(min_value=1, max_value=63),
        ),
        max_size=120,
    )

    @settings(max_examples=120, deadline=None)
    @given(OPERATIONS, st.integers(min_value=1, max_value=4))
    def test_no_member_ever_reaches_the_limit(self, operations, limit):
        table = make_table(owner=0, k=2, b=6, s=limit)
        for step, (operation, node_id) in enumerate(operations):
            if operation == "remove_contact":
                table.remove_contact(node_id)
            elif operation == "record_failure":
                table.record_failure(node_id)
            elif operation == "refresh_contacts":
                table.refresh_contacts([node_id, node_id ^ 1], float(step), {node_id})
            else:
                getattr(table, operation)(node_id, float(step))
            for bucket in table.buckets():
                assert len(bucket) <= 2
                for contact in bucket.contacts():
                    assert contact.consecutive_failures < limit
            assert sorted(table.contact_ids()) == sorted(table._contact_index)

    def test_full_bucket_rejects_without_evicting(self):
        table = make_table(owner=0, k=2, b=8, s=3)
        assert table.add_contact(128, 0.0) and table.add_contact(129, 0.0)
        table.record_failure(128)
        table.record_failure(128)   # streak 2 of 3: failing, but a member
        version = table.membership_version
        assert not table.add_contact(130, 1.0)
        assert table.contact_ids() == [128, 129]
        assert table.membership_version == version


class TestRefreshContacts:
    def test_moves_members_in_the_given_order_and_skips_strangers(self):
        table = make_table(owner=0, k=4, b=8, s=3)
        for node_id in (128, 129, 130, 131):
            table.add_contact(node_id, 0.0)
        table.record_failure(129)
        table.record_failure(131)
        version = table.membership_version
        moved = table.refresh_contacts([131, 200, 0, 129, 128], 5.0, keep_streak={131})
        assert moved == 3
        bucket = table.bucket_for(128)
        assert bucket.contact_ids() == [130, 131, 129, 128]
        assert [c.last_seen for c in bucket.contacts()] == [0.0, 5.0, 5.0, 5.0]
        assert [c.consecutive_failures for c in bucket.contacts()] == [0, 1, 0, 0]
        assert not table.contains(200)
        assert table.membership_version == version


class TestFindNodeReply:
    """``find_node_reply`` is ``add_contact`` + ``closest_contacts``, state included."""

    @staticmethod
    def state(table):
        return (
            [
                (bucket.index, [
                    (c.node_id, c.consecutive_failures, c.last_seen, c.added_at)
                    for c in bucket.contacts()
                ])
                for bucket in table.buckets()
            ],
            table.membership_version,
            table._contacts_cache,  # raw: when it was rebuilt shows in its order
        )

    # 6-bit ids, k = 2: senders are known, new, rejected by a full bucket, or
    # the owner itself; moves and failures in between leave the cache stale,
    # removals leave it missing.
    STEPS = st.lists(
        st.tuples(
            st.sampled_from(["reply", "reply", "add_contact", "record_failure", "remove_contact"]),
            st.integers(min_value=0, max_value=63),
            st.integers(min_value=0, max_value=63),
        ),
        max_size=60,
    )

    @settings(max_examples=150, deadline=None)
    @given(STEPS)
    def test_matches_the_two_calls_it_stands_for(self, steps):
        table = make_table(owner=5, k=2, b=6, s=2)
        oracle = make_table(owner=5, k=2, b=6, s=2)
        for clock, (operation, node_id, target) in enumerate(steps):
            time = float(clock)
            if operation == "reply":
                oracle.add_contact(node_id, time)
                expected = oracle.closest_contacts(target)
                assert table.find_node_reply(node_id, target, time) == expected
            elif node_id != 5:
                for twin in (table, oracle):
                    if operation == "add_contact":
                        twin.add_contact(node_id, time)
                    else:
                        getattr(twin, operation)(node_id)
            assert self.state(table) == self.state(oracle)


class TestRefreshTargets:
    def test_refresh_targets_fall_into_their_buckets(self):
        table = make_table(owner=0b1010, k=4, b=12)
        for value in (1, 7, 100, 2000):
            table.add_contact(value, 0.0)
        rng = random.Random(0)
        targets = table.refresh_targets(rng)
        # One target per non-empty bucket plus one random exploration id.
        assert len(targets) == len(table.occupancy_by_bucket()) + 1

    def test_refresh_all_buckets_mode(self):
        config = KademliaConfig(bit_length=12, bucket_size=4, refresh_all_buckets=True)
        table = RoutingTable(0, config)
        targets = table.refresh_targets(random.Random(0))
        assert len(targets) == 12
        for index, target in enumerate(targets):
            assert bucket_index(0, target) == index
