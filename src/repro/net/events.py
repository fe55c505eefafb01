"""Deterministic discrete-event queue.

Events fire in (time, sequence) order; the sequence number makes
simultaneous events deterministic, so a seeded simulation always replays
identically — a property every experiment and test in this repository
relies on.

The heap stores plain ``(time, sequence, event)`` tuples rather than
rich comparable objects: ``heapq`` then compares floats and ints in C
instead of calling a generated dataclass ``__lt__`` per sift step, which
is the single hottest comparison site in a million-event run.  The
:class:`Event` handle returned by :meth:`EventQueue.push` still carries
the callback and supports cancellation, so the public API is unchanged.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable


class Event:
    """A scheduled callback handle; never compared, only carried."""

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the queue drops it instead of firing it."""
        self.cancelled = True

    def fire(self) -> Any:
        """Invoke the callback with its bound arguments."""
        return self.callback(*self.args)


class EventQueue:
    """A min-heap of ``(time, sequence, Event)`` tuples, stably ordered."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``.

        Passing the arguments here (rather than closing over them in a
        lambda) avoids one closure allocation per scheduled message on
        the simulator's hottest path.
        """
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, sequence, callback, args)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def push_batch(
        self,
        times: list[float],
        callback: Callable[..., Any],
        args_list: list[tuple[Any, ...]],
    ) -> list[Event]:
        """Schedule one ``callback(*args)`` per ``(time, args)`` pair.

        Sequence numbers are assigned in list order, exactly as if
        :meth:`push` had been called once per entry — a batched relay
        fan-out is therefore indistinguishable from per-neighbor
        scheduling.  Batching hoists the heap/sequence lookups out of
        the loop and returns the :class:`Event` slab in list order.
        """
        if times and min(times) < 0:
            raise ValueError("cannot schedule events at negative times")
        heap = self._heap
        heappush = heapq.heappush
        sequence = self._sequence
        slab = []
        append = slab.append
        for time, args in zip(times, args_list):
            event = Event(time, sequence, callback, args)
            heappush(heap, (time, sequence, event))
            sequence += 1
            append(event)
        self._sequence = sequence
        return slab

    def pop(self) -> Event | None:
        """Remove and return the next live event, or None when empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                return event
        return None
