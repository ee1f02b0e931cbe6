"""Capacity-limited resource for the discrete-event engine.

:class:`Resource` is a SimPy-style FIFO resource: a fixed number of
slots, a wait queue, and requests that are events — processes
``yield`` them and resume once granted.  ``Resource.request()`` works
as a context manager so usage follows the familiar
``with res.request() as req: yield req`` idiom.  The event-level
supernode model (:mod:`repro.streaming.multiplex`) uses one as a
shared uplink.
"""

from __future__ import annotations

from .engine import Environment, Event

__all__ = ["Request", "Release", "Resource"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource.queue.append(self)
        resource._trigger_requests()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot (or abandon the queue position)."""
        self.resource.release(self)


class Release(Event):
    """Event that fires once a :class:`Request` has been released."""

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        self._ok = True
        self._value = None
        self.env.schedule(self)


class Resource:
    """A capacity-limited resource with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot; the returned event fires once granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Release a granted slot or withdraw a queued request."""
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            self.queue.remove(request)
        self._trigger_requests()
        return Release(self, request)

    def _trigger_requests(self) -> None:
        while len(self.users) < self._capacity and self.queue:
            request = self.queue.pop(0)
            self.users.append(request)
            request.succeed()
