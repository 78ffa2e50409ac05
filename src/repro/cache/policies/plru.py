"""Tree-based Pseudo-LRU replacement.

PLRU approximates LRU with ``assoc - 1`` tree bits arranged as a complete
binary tree over the lines.  Each inner node's bit points towards the
subtree that should be victimised next.  On an access, the bits along the
path to the accessed line are flipped to point *away* from it.

This is the policy of the L1 caches of most recent Intel
microarchitectures (paper Sec. 2.1 and [3]).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.cache.policies.base import ReplacementPolicy


def _touch_masks(assoc: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Per-line ``(keep, point)`` masks: touching ``line`` maps a state
    to ``state & keep[line] | point[line]`` — the bits on the line's
    root path are cleared, then set where they must point away."""
    num_inner = assoc - 1
    full = (1 << num_inner) - 1
    keep, point = [], []
    for line in range(assoc):
        path = away = 0
        node = line + num_inner  # leaf position in heap order
        while node > 0:
            parent = (node - 1) // 2
            path |= 1 << parent
            if node == 2 * parent + 1:  # went left: point right (1)
                away |= 1 << parent
            node = parent
        keep.append(full & ~path)
        point.append(away)
    return tuple(keep), tuple(point)


class PLRU(ReplacementPolicy):
    """Tree-based Pseudo-LRU for power-of-two associativities.

    Policy state is an ``int`` whose bit ``k`` is the direction bit of
    inner node ``k`` in heap order (root = node 0).  Bit value 0 means
    "victim is in the left subtree", 1 means right.  Hits and fills
    apply per-line masks, computed once per associativity.
    """

    name = "plru"

    def __init__(self):
        # assoc -> _touch_masks(assoc), filled by initial_state, which
        # every cache set calls before its first transition.
        self._masks = {}

    def initial_state(self, assoc: int) -> int:
        if assoc & (assoc - 1):
            raise ValueError("PLRU requires a power-of-two associativity")
        if assoc not in self._masks:
            self._masks[assoc] = _touch_masks(assoc)
        return 0

    def on_hit(self, state: int, assoc: int, line: int) -> int:
        keep, point = self._masks[assoc]
        return state & keep[line] | point[line]

    def on_miss(self, state: int, assoc: int,
                occupied: Optional[Sequence[bool]]):
        if occupied is not None and False in occupied:
            line = occupied.index(False)
        else:
            # Follow the direction bits from the root to a leaf.
            node = 0
            num_inner = assoc - 1
            while node < num_inner:
                node = 2 * node + 1 + (state >> node & 1)
            line = node - num_inner
        keep, point = self._masks[assoc]
        return line, state & keep[line] | point[line]
