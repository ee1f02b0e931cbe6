"""Discrete-event simulation engine.

A from-scratch implementation of the process-based discrete-event
simulation style popularised by SimPy.  The paper's streaming-level
experiments need an event engine (segment deliveries, buffer drains,
rate-adaptation decisions happen at irregular instants); SimPy is not a
dependency, so this module provides the subset of its primitives those
models use:

* :class:`Environment` — the event loop and simulation clock.
* :class:`Event` — a one-shot occurrence carrying a value or an error.
* :class:`Timeout` — an event that fires after a delay.
* :class:`Process` — a generator-driven coroutine that suspends on events.

The engine is deterministic: events scheduled at the same time fire in
scheduling order (a monotone tie-break counter guarantees this).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from .. import obs

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "StopSimulation",
    "EmptySchedule",
]

# Scheduling priorities: urgent events (process resumptions) run before
# normal events scheduled at the same instant, mirroring SimPy.
URGENT = 0
NORMAL = 1

_PENDING = object()  # sentinel: event value not yet decided


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at ``until``."""


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*; they may be *triggered* with a value
    (:meth:`succeed`) or an exception (:meth:`fail`).  Once triggered they
    are placed on the environment's queue and *processed* at the current
    simulation instant, running all registered callbacks.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value or an error."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so it is not re-raised."""
        self._defused = True

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=NORMAL)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units from now."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, priority=NORMAL, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Initialize(Event):
    """Internal event that starts a freshly created :class:`Process`."""

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A process: a generator driven by the events it yields.

    The process itself is an event that triggers when the generator
    returns (value = the ``return`` value) or raises (failure).
    """

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or error) of ``event``."""
        env = self.env
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The event failed; throw the error into the generator
                    # (which may catch it and continue).
                    event._defused = True
                    exc = event._value
                    next_event = self._generator.throw(type(exc), exc, None)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env.schedule(self, priority=NORMAL)
                break
            except BaseException as error:
                self._ok = False
                self._value = error
                self._defused = False
                env.schedule(self, priority=NORMAL)
                break

            if not isinstance(next_event, Event):
                error = RuntimeError(
                    f"process yielded a non-event: {next_event!r}")
                try:
                    self._generator.throw(RuntimeError, error, None)
                except BaseException as bubbled:
                    self._ok = False
                    self._value = bubbled
                    env.schedule(self, priority=NORMAL)
                break

            if next_event.callbacks is not None:
                # Pending or triggered-but-unprocessed: wait for it.
                next_event.callbacks.append(self._resume)
                break
            # Already processed: loop and feed its value straight back in.
            event = next_event


class Environment:
    """The simulation environment: clock plus event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator)

    # -- scheduling and stepping ------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Place ``event`` on the queue ``delay`` time units from now."""
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next event; raise :class:`EmptySchedule` if none."""
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None

        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure crashes the simulation, as in SimPy.
            exc = event._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a time (run up to
        that instant), or an :class:`Event` (run until it is processed and
        return its value).  The events this call processed are added to
        ``repro_des_events_total`` once, when it returns or raises.
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:  # already processed
                    return stop.value
                stop.callbacks.append(self._stop_callback)
            else:
                horizon = float(until)
                if horizon <= self._now:
                    raise ValueError(
                        f"until ({horizon}) must be greater than now ({self._now})")
                stop = Event(self)
                stop._ok = True
                stop._value = None
                self.schedule(stop, priority=URGENT, delay=horizon - self._now)
                stop.callbacks.append(self._stop_callback)

        processed = self.events_processed
        try:
            while True:
                self.step()
        except StopSimulation as signal:
            return signal.args[0] if signal.args else None
        except EmptySchedule:
            if stop is not None and isinstance(until, Event):
                raise RuntimeError(
                    "no more events scheduled but the until-event never fired")
            return None
        finally:
            obs.get_registry().counter("repro_des_events_total").inc(
                self.events_processed - processed)

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        raise event._value
