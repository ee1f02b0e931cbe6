"""Per-player candidate supernode lists — §3.2.2 churn management.

The paper's players keep a *candidate supernode list*: the qualified
supernodes (delay ≤ L_max) learned during selection.  The list drives
churn handling:

* "When a normal node disconnects from its supernode, it first tries to
  find [a] qualified supernode from its candidate supernode list by
  choosing the one with high preference ranking and available capacity.
  If it fails ..., it contacts the cloud to find a new supernode."
* "When a new supernode is deployed ... the cloud notifies the normal
  nodes that are physically close to the new supernode, and these
  normal nodes test the transmission delay ... the supernode will be
  added to the normal node's supernode candidate list if the
  transmission delay is less than L_max."

A migration served from the local list skips the cloud round trip —
that, plus the fact that no game state lives on supernodes, is why the
paper's migrations finish in ~0.8 s.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from operator import attrgetter

__all__ = ["CandidateEntry", "CandidateManager"]

_by_delay = attrgetter("delay_ms")


class CandidateEntry(namedtuple("CandidateEntry",
                                ("supernode_id", "delay_ms"))):
    """One remembered candidate: supernode id plus measured delay.

    A namedtuple, not a dataclass: entries are constructed millions of
    times per simulated day on the join path, and tuple construction is
    ~2× cheaper than a frozen dataclass ``__init__``.  ``_make`` (used
    by :meth:`CandidateManager.remember`, which validates delays in
    bulk) skips the ``__new__`` range check entirely.
    """

    __slots__ = ()

    def __new__(cls, supernode_id: int, delay_ms: float):
        if delay_ms < 0:
            raise ValueError("delay must be non-negative")
        return tuple.__new__(cls, (supernode_id, delay_ms))


@dataclass
class CandidateManager:
    """All players' candidate lists, bounded per player."""

    max_entries: int = 8
    _lists: dict[int, list[CandidateEntry]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")

    def remember(self, player: int,
                 candidates: list[tuple[int, float]]) -> None:
        """Merge freshly probed (supernode id, delay) pairs.

        Keeps the ``max_entries`` lowest-delay candidates; a re-probed
        supernode's delay is updated in place, and a tie keeps the
        listed entry ahead of the newcomer.  Probe delays are geometric
        and static, so most calls change nothing and return after one
        look-up per pair, before any entry is built or sorted: every
        pair already listed at the same delay, or — once the list is
        full — unlisted and no closer than its worst entry, which the
        merge would sort past the cut.
        """
        existing = self._lists.get(player)
        if existing is not None:
            listed = {sn_id: delay for sn_id, delay in existing}
            worst = (existing[-1].delay_ms
                     if len(existing) == self.max_entries else None)
            for sn_id, delay in candidates:
                known = listed.get(sn_id)
                if known is None:
                    if worst is None or not delay >= worst:
                        break  # may enter the list
                elif known != delay:
                    break  # a listed supernode's delay changed
            else:
                return
        make = CandidateEntry._make
        entries = ({} if existing is None
                   else {e.supernode_id: e for e in existing})
        for sn_id, delay in candidates:
            if delay < 0:
                raise ValueError("delay must be non-negative")
            prev = entries.get(sn_id)
            if prev is None or prev.delay_ms != delay:
                entries[sn_id] = make((sn_id, float(delay)))
        ranked = sorted(entries.values(), key=_by_delay)
        self._lists[player] = ranked[:self.max_entries]

    def forget_supernodes(self, supernode_ids: set[int]) -> None:
        """Drop several supernodes from every list in one pass.

        Mass failures (a whole wave of crashed supernodes) would
        otherwise rescan every player's list once per dead node.
        """
        if not supernode_ids:
            return
        for player, entries in self._lists.items():
            kept = [e for e in entries
                    if e.supernode_id not in supernode_ids]
            if len(kept) != len(entries):
                self._lists[player] = kept

    def candidates(self, player: int) -> list[CandidateEntry]:
        """The player's list, best (lowest delay) first."""
        return list(self._lists.get(player, ()))

    def notify_new_supernode(self, supernode_id: int, delay_by_player:
                             dict[int, float], l_max_by_player:
                             dict[int, float]) -> int:
        """§3.2.2 deployment notification.

        ``delay_by_player`` holds the measured transmission delay for
        each *notified* (nearby) player; the supernode joins a player's
        list when the delay clears that player's L_max.  Returns how
        many lists grew.
        """
        added = 0
        for player, delay in delay_by_player.items():
            l_max = l_max_by_player.get(player)
            if l_max is None or delay > l_max:
                continue
            self.remember(player, [(supernode_id, delay)])
            if any(e.supernode_id == supernode_id
                   for e in self._lists.get(player, ())):
                added += 1
        return added
