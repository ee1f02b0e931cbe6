"""Core entities: the connection kinds of a session.

Supernodes are not objects: they are the rows of the cloud's supernode
table, :class:`~repro.core.columns.SupernodePool`, and every stage
passes supernode ids.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["ConnectionKind"]


class ConnectionKind(Enum):
    """Where a player's game video comes from."""

    SUPERNODE = "supernode"
    CLOUD = "cloud"
    CDN = "cdn"
