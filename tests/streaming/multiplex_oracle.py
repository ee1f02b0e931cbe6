"""Frozen oracle: the event-level supernode multiplexer.

Verbatim copies, taken when they left ``src/``, of
``repro.streaming.multiplex`` (``MultiplexConfig``, ``PlayerOutcome``,
``simulate_supernode``) and of the FIFO ``Resource`` primitive
(``Request``, ``Release``) from ``repro.sim.resources`` that only the
multiplexer used.  The macro estimate approximates a supernode serving
k players with a fair upload share and an M/D/1 waiting factor; this
packet-level model, one shared uplink with every player's frames
queued through it FIFO on the event loop of ``engine_oracle.py``
(``tests/sim``), checks that approximation from below
(``test_multiplex.py``).  Do not edit this file to follow the live
code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.streaming.video import FRAME_RATE_FPS
from repro.workload.games import Game

from ..sim.engine_oracle import Environment, Event
from .event_session_oracle import Segment


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


@dataclass(frozen=True)
class MultiplexConfig:
    """One shared-uplink simulation."""

    #: The supernode's total upload (Mbit/s); throttling pre-applied.
    upload_mbps: float
    #: One game per connected player.
    games: tuple[Game, ...]
    #: One-way path latency per player (ms); scalar applies to all.
    path_latency_ms: float = 18.0
    duration_s: float = 30.0

    def __post_init__(self) -> None:
        if self.upload_mbps <= 0:
            raise ValueError("upload must be positive")
        if not self.games:
            raise ValueError("at least one player is required")
        if self.path_latency_ms < 0:
            raise ValueError("latency must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class PlayerOutcome:
    """Per-player QoS from the event-level run."""

    player: int
    game: str
    continuity: float
    mean_delay_ms: float
    packets: int


def simulate_supernode(config: MultiplexConfig,
                       rng: np.random.Generator) -> list[PlayerOutcome]:
    """Run the shared-uplink simulation and score every player.

    Every player's stream emits one packet per frame at 30 fps; packets
    serialise FIFO through the single uplink resource at the wire rate.
    A packet is on time when its total delay (queueing + serialisation +
    path) fits the game's Table-2 delivery deadline.
    """
    env = Environment()
    uplink = Resource(env, capacity=1)
    wire_mbps = config.upload_mbps
    delays: dict[int, list[float]] = {i: [] for i in range(len(config.games))}

    def deliver(env: Environment, player: int, service_s: float,
                generated: float):
        with uplink.request() as slot:
            yield slot
            yield env.timeout(service_s)
        delays[player].append((env.now - generated) * 1000.0
                              + config.path_latency_ms)

    def stream(env: Environment, player: int, game: Game):
        """Open-loop encoder: frames appear at exactly 30 fps whether or
        not the uplink keeps up — laggards queue and go late."""
        segment = Segment(0, game.quality, 1.0)
        service_s = segment.packet_size_bits / (wire_mbps * 1e6)
        frame_gap = 1.0 / FRAME_RATE_FPS
        # Desynchronise the streams like real encoders.
        yield env.timeout(float(rng.uniform(0.0, frame_gap)))
        while env.now < config.duration_s:
            env.process(deliver(env, player, service_s, env.now))
            yield env.timeout(frame_gap)

    for player, game in enumerate(config.games):
        env.process(stream(env, player, game))
    # Let the backlog drain (bounded: run past the generation horizon).
    env.run(until=config.duration_s + 30.0)

    outcomes = []
    for player, game in enumerate(config.games):
        values = np.asarray(delays[player])
        if values.size == 0:
            outcomes.append(PlayerOutcome(player, game.name, 0.0, 0.0, 0))
            continue
        on_time = float(np.mean(values <= game.latency_requirement_ms))
        outcomes.append(PlayerOutcome(
            player=player, game=game.name, continuity=on_time,
            mean_delay_ms=float(values.mean()), packets=int(values.size)))
    return outcomes
