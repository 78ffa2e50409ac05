"""First-in first-out replacement."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.lru import fill_in_order


class FIFO(ReplacementPolicy):
    """FIFO: evict the line that was filled longest ago.

    Policy state is the tuple of line indices ordered from last-in to
    first-in.  Hits do not modify the state (the defining difference from
    LRU); misses are LRU's.
    """

    name = "fifo"

    def initial_state(self, assoc: int) -> Tuple[int, ...]:
        return tuple(range(assoc))

    def on_hit(self, state: Tuple[int, ...], assoc: int,
               line: int) -> Tuple[int, ...]:
        return state

    def on_miss(self, state: Tuple[int, ...], assoc: int,
                occupied: Optional[Sequence[bool]]):
        return fill_in_order(state, occupied)
