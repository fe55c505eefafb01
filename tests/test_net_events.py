"""Event queue ordering and cancellation."""

import pytest

from repro.net.events import EventQueue


def test_fires_in_time_order():
    queue = EventQueue()
    order = []
    queue.push(3.0, lambda: order.append("c"))
    queue.push(1.0, lambda: order.append("a"))
    queue.push(2.0, lambda: order.append("b"))
    while (event := queue.pop()) is not None:
        event.callback()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    queue = EventQueue()
    order = []
    for label in "abc":
        queue.push(1.0, lambda lbl=label: order.append(lbl))
    while (event := queue.pop()) is not None:
        event.callback()
    assert order == ["a", "b", "c"]


def test_cancelled_events_skipped():
    queue = EventQueue()
    fired = []
    queue.push(1.0, lambda: fired.append("keep"))
    drop = queue.push(0.5, lambda: fired.append("drop"))
    drop.cancel()
    # The cancelled head is skipped: the next pop is the live event.
    head = queue.pop()
    assert head is not None and head.time == 1.0
    head.callback()
    assert queue.pop() is None
    assert fired == ["keep"]


def test_empty_queue():
    queue = EventQueue()
    assert queue.pop() is None
    assert len(queue) == 0
    # A queue holding only cancelled events pops as empty too.
    queue.push(1.0, lambda: None).cancel()
    assert queue.pop() is None


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        EventQueue().push(-1.0, lambda: None)
