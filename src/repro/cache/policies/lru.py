"""Least-recently-used replacement."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.cache.policies.base import ReplacementPolicy


def move_to_front(state: Tuple[int, ...], line: int) -> Tuple[int, ...]:
    """``state`` with ``line`` moved to position 0, the rest in order."""
    if state[0] == line:
        return state
    index = state.index(line)
    return (line,) + state[:index] + state[index + 1:]


def fill_in_order(state: Tuple[int, ...],
                  occupied: Optional[Sequence[bool]]):
    """Miss transition of the order-based policies (LRU, FIFO).

    Fills the last empty line in ``state`` order if one exists
    (deterministic fill-invalid-first), otherwise evicts the last line,
    and moves the filled line to the front.
    """
    if occupied is not None and False in occupied:
        line = next(l for l in reversed(state) if not occupied[l])
        return line, move_to_front(state, line)
    line = state[-1]
    return line, (line,) + state[:-1]


class LRU(ReplacementPolicy):
    """LRU: evict the line whose last access is furthest in the past.

    The policy state is the tuple of line indices ordered from
    most-recently-used to least-recently-used (the order encoding the
    paper describes in Section 2.1).
    """

    name = "lru"

    def initial_state(self, assoc: int) -> Tuple[int, ...]:
        return tuple(range(assoc))

    def on_hit(self, state: Tuple[int, ...], assoc: int,
               line: int) -> Tuple[int, ...]:
        return move_to_front(state, line)

    def on_miss(self, state: Tuple[int, ...], assoc: int,
                occupied: Optional[Sequence[bool]]):
        return fill_in_order(state, occupied)
