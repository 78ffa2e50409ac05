"""The replacement-policy interface."""

from __future__ import annotations

import abc
from typing import Hashable, Optional, Sequence


class ReplacementPolicy(abc.ABC):
    """Replacement policy operating on line indices only.

    The cache set (:class:`repro.cache.cache.CacheSetState`, or
    :class:`repro.simulation.symbolic.SymbolicSetState`) owns the
    mapping from lines to blocks; the policy owns an opaque, hashable,
    immutable *policy state* and two transitions:

    * :meth:`on_hit` — a cached line was accessed;
    * :meth:`on_miss` — a block is allocated: pick the line to fill
      (evicting its block if it holds one) and update the state.

    Transitions are pure functions of ``(state, line)`` and of
    ``(state, occupied)``: they never see block identities, so
    Property 1 (data independence) holds by construction, and they never
    depend on anything but their arguments, so callers may pass
    ``occupied=None`` for a full set instead of materialising a list of
    ``True`` (the common case once a cache has warmed up), and the tree
    and symbolic engines can share one policy object.
    """

    #: registry name, e.g. "lru"
    name: str = "abstract"

    @abc.abstractmethod
    def initial_state(self, assoc: int) -> Hashable:
        """Policy state of an empty set with ``assoc`` ways.

        Every set calls this before its first transition, so a policy
        may prepare per-associativity tables here (PLRU's masks)."""

    @abc.abstractmethod
    def on_hit(self, state: Hashable, assoc: int, line: int) -> Hashable:
        """State after a hit on ``line``."""

    @abc.abstractmethod
    def on_miss(self, state: Hashable, assoc: int,
                occupied: Optional[Sequence[bool]]) -> tuple:
        """Handle a miss: pick the fill line and produce the next state.

        Returns ``(line, new_state)`` where ``line`` is the way to fill
        (evicting its current block if occupied) and ``new_state`` is the
        policy state *after* the fill.  ``occupied[l]`` tells whether line
        ``l`` currently holds a block, and ``occupied=None`` means every
        line does; implementations must prefer an empty line if one
        exists (real caches fill invalid ways first).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
