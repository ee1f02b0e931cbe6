"""Cloud substrate: datacenters, game-state servers, update traffic."""

from .datacenter import DEFAULT_SERVERS_PER_DATACENTER, Datacenter
from .regions import KdTreePartitioner, Region2D
from .gamestate import UPDATE_MESSAGE_BITS_PER_SUPERNODE
from .server import SERVER_HOP_MS, GameServer

__all__ = [
    "KdTreePartitioner",
    "Region2D",
    "DEFAULT_SERVERS_PER_DATACENTER",
    "Datacenter",
    "UPDATE_MESSAGE_BITS_PER_SUPERNODE",
    "SERVER_HOP_MS",
    "GameServer",
]
