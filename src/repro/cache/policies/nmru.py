"""Not-most-recently-used (NMRU/PLRUm-style) replacement.

NMRU only protects the most recently used line: on a miss, some line
other than the MRU line is evicted (here: the lowest-indexed non-MRU
line, a common deterministic hardware choice).  The policy appears in
the WCET literature the paper cites (Guan et al. [31]; Monniaux &
Touzeau [46] analyse its complexity) and demonstrates the paper's claim
that any data-independent policy slots into warping simulation: the
policy state is just the MRU line index, blind to block identities.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.cache.policies.base import ReplacementPolicy


class NMRU(ReplacementPolicy):
    """NMRU: evict the lowest-indexed line that is not the MRU line."""

    name = "nmru"

    def initial_state(self, assoc: int) -> Optional[int]:
        if assoc < 2:
            raise ValueError("NMRU needs at least two ways")
        return None  # no MRU line yet

    def on_hit(self, state: Optional[int], assoc: int,
               line: int) -> Optional[int]:
        return line

    def on_miss(self, state: Optional[int], assoc: int,
                occupied: Optional[Sequence[bool]]
                ) -> Tuple[int, Optional[int]]:
        if occupied is not None and False in occupied:
            line = occupied.index(False)
        else:
            line = 1 if state == 0 else 0
        return line, line
