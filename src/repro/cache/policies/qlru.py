"""Quad-age LRU replacement (RRIP-style 2-bit ages).

Quad-age LRU, as deployed in recent Intel L2/L3 caches [39, 40], tracks a
2-bit *age* per line (0 = most recently useful, 3 = next victim).  The
variant implemented here follows SRRIP with "hit priority" and the
insertion age used by Intel's QLRU variants observed by nanoBench-style
measurements:

* hit: the line's age is reset to 0;
* miss: the victim is the lowest-indexed line of age 3 — if none exists,
  all ages are incremented until one reaches 3 (aging sweep);
* fill: the new line enters with age 2 (long re-reference interval), which
  is what yields the scan/thrash resistance the paper observes in Fig. 6
  and Fig. 10.

The state is the tuple of ages; like every policy here it never observes
block identities (data independence holds by construction).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.cache.policies.base import ReplacementPolicy

MAX_AGE = 3
INSERT_AGE = 2


class QLRU(ReplacementPolicy):
    """Quad-age LRU (2-bit SRRIP-HP with insertion age 2)."""

    name = "qlru"

    def initial_state(self, assoc: int) -> Tuple[int, ...]:
        return (MAX_AGE,) * assoc

    def on_hit(self, state: Tuple[int, ...], assoc: int,
               line: int) -> Tuple[int, ...]:
        if state[line] == 0:
            return state
        return state[:line] + (0,) + state[line + 1:]

    def on_miss(self, state: Tuple[int, ...], assoc: int,
                occupied: Optional[Sequence[bool]]):
        if occupied is not None and False in occupied:
            line = occupied.index(False)
        else:
            # The aging sweep adds MAX_AGE - max(ages) to every age; the
            # victim is the lowest-indexed line that was oldest.
            oldest = max(state)
            line = state.index(oldest)
            if oldest < MAX_AGE:
                bump = MAX_AGE - oldest
                state = tuple(age + bump for age in state)
        return line, state[:line] + (INSERT_AGE,) + state[line + 1:]
