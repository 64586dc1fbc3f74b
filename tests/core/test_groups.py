"""Tests for multicast group management."""

import pytest

from repro.core import BROADCAST_GROUP_ID, GroupTable, MulticastGroup
from repro.sim import RandomStreams


def test_members_sorted_and_deduped():
    group = MulticastGroup(1, [9, 3, 7, 3])
    assert group.members == [3, 7, 9]
    assert group.size == 3


def test_lowest_highest():
    group = MulticastGroup(1, [5, 2, 8])
    assert group.lowest == 2
    assert group.highest == 8


def test_membership_and_index():
    group = MulticastGroup(1, [5, 2, 8])
    assert 5 in group
    assert 4 not in group
    assert group.index_of(5) == 1
    with pytest.raises(ValueError):
        group.index_of(99)


def test_group_id_range():
    with pytest.raises(ValueError):
        MulticastGroup(-1, [1, 2])
    with pytest.raises(ValueError):
        MulticastGroup(256, [1, 2])
    MulticastGroup(0, [1, 2])
    MulticastGroup(255, [1, 2])


def test_group_needs_two_members():
    with pytest.raises(ValueError):
        MulticastGroup(1, [4])
    with pytest.raises(ValueError):
        MulticastGroup(1, [4, 4])


def test_table_add_and_lookup():
    table = GroupTable()
    table.add(1, [1, 2, 3])
    table.add(2, [2, 4])
    assert 1 in table
    assert len(table) == 2
    assert table.gids == [1, 2]
    assert table.group(1).members == [1, 2, 3]


def test_table_duplicate_gid_rejected():
    table = GroupTable()
    table.add(1, [1, 2])
    with pytest.raises(ValueError):
        table.add(1, [3, 4])


def test_table_broadcast_id_reserved():
    table = GroupTable()
    with pytest.raises(ValueError):
        table.add(BROADCAST_GROUP_ID, [1, 2])


def test_table_remove():
    table = GroupTable()
    table.add(1, [1, 2])
    table.remove(1)
    assert 1 not in table
    with pytest.raises(KeyError):
        table.remove(1)
    with pytest.raises(KeyError):
        table.group(1)


def test_groups_of_host():
    table = GroupTable()
    table.add(1, [1, 2, 3])
    table.add(2, [3, 4])
    table.add(3, [5, 6])
    gids = sorted(g.gid for g in table.groups_of(3))
    assert gids == [1, 2]
    assert table.groups_of(9) == []


def test_groups_of_keeps_registration_order():
    """Sources draw ``choice(groups_of(host))``, so the order is part of
    every traffic sample path: registration order, not gid order."""
    table = GroupTable()
    table.add(7, [1, 2])
    table.add(3, [1, 4])
    table.add(5, [2, 4])
    table.add(1, [1, 5])
    assert [g.gid for g in table.groups_of(1)] == [7, 3, 1]
    assert [g.gid for g in table.groups_of(4)] == [3, 5]


def test_membership_follows_remove_member():
    table = GroupTable()
    group = table.add(1, [1, 2, 3])
    table.add(2, [2, 3])
    assert 1 in group
    group.remove_member(1)
    assert 1 not in group
    assert 2 in group
    assert table.groups_of(1) == []
    group.remove_member(3)
    assert [g.gid for g in table.groups_of(3)] == [2]


def test_random_groups_figure10_shape():
    """The Figure 10 setup: ten groups of ten members chosen at random."""
    table = GroupTable()
    stream = RandomStreams(seed=3).stream("groups")
    hosts = list(range(100, 164))
    groups = table.random_groups(range(1, 11), hosts, 10, stream)
    assert len(groups) == 10
    for group in groups:
        assert group.size == 10
        assert all(m in hosts for m in group.members)


def test_random_groups_too_large():
    table = GroupTable()
    stream = RandomStreams(seed=3).stream("groups")
    with pytest.raises(ValueError):
        table.random_groups([1], [1, 2, 3], 4, stream)


def test_remove_member_keeps_order():
    group = MulticastGroup(1, [30, 10, 20, 40])
    group.remove_member(20)
    assert group.members == [10, 30, 40]
    assert group.lowest == 10


def test_remove_member_unknown_host_rejected():
    group = MulticastGroup(1, [1, 2, 3])
    with pytest.raises(ValueError):
        group.remove_member(99)


def test_remove_member_never_empties_group():
    group = MulticastGroup(1, [1, 2])
    group.remove_member(2)
    with pytest.raises(ValueError):
        group.remove_member(1)
