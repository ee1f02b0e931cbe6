"""Social substrate: friendship graphs and communities."""

from .communities import (
    DEFAULT_MISS_LIMIT,
    DEFAULT_SWAP_ATTEMPTS,
    Partition,
    greedy_modularity_reference,
    modularity,
    paper_partition,
    random_partition,
)
from .graph import FriendGraph, generate_friend_graph

__all__ = [
    "DEFAULT_MISS_LIMIT",
    "DEFAULT_SWAP_ATTEMPTS",
    "Partition",
    "greedy_modularity_reference",
    "modularity",
    "paper_partition",
    "random_partition",
    "FriendGraph",
    "generate_friend_graph",
]
