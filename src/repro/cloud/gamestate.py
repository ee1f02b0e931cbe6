"""Game-state traffic: the update messages the cloud pushes to supernodes.

In CloudFog the cloud keeps the authoritative MMOG state: it collects
player actions, computes "the new game state of the virtual world
(including the new shape and position of objects and states of avatars)"
(§3.1) and pushes compact *update messages* to supernodes (bandwidth Λ
per supernode, §3.1.2).  Supernodes hold world replicas they update from
those messages and render per-player views.

The bandwidth accounting (Eq. 2) charges those messages as the constant
Λ below.  A world model that steps avatars and sizes the deltas checks
the constant in the tests (``tests/cloud/gamestate_oracle.py``).
"""

from __future__ import annotations

__all__ = ["UPDATE_MESSAGE_BITS_PER_SUPERNODE"]

#: Λ — bandwidth for the cloud to send update information to one
#: supernode per unit time (§3.1.2).  Update messages carry object/avatar
#: deltas, not video: ~50 kbit/s, orders of magnitude below the
#: 300–1800 kbit/s video rates of Table 2.
UPDATE_MESSAGE_BITS_PER_SUPERNODE = 50_000.0
