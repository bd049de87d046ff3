"""Cluster port ranges stay clear of the kernel's ephemeral range.

A node's outbound dial takes its local port from the ephemeral range; a
listening range inside it can lose a port to a sibling's dial before the
node that owns it binds (``[Errno 98] address already in use``).
"""

import pytest

from repro.net import bench
from repro.net.bench import PORT_CEILING, ephemeral_port_range, pick_base_port


def overlaps(base, count, low, high):
    return base <= high and base + count - 1 >= low


def test_picked_range_never_overlaps_the_ephemeral_range():
    low, high = ephemeral_port_range()
    for count in (1, 9, 13):
        for _ in range(20):
            base = pick_base_port(count)
            assert not overlaps(base, count, low, high)
            assert base + count - 1 <= PORT_CEILING


@pytest.mark.parametrize("ephemeral", [(20100, 65535), (1024, 60999), (32768, 60999)])
def test_any_kernel_range_is_avoided(monkeypatch, ephemeral):
    monkeypatch.setattr(bench, "ephemeral_port_range", lambda: ephemeral)
    for _ in range(10):
        assert not overlaps(pick_base_port(9), 9, *ephemeral)


def test_no_room_outside_the_ephemeral_range_is_an_error(monkeypatch):
    monkeypatch.setattr(bench, "ephemeral_port_range", lambda: (1024, 65535))
    with pytest.raises(RuntimeError):
        pick_base_port(9)
