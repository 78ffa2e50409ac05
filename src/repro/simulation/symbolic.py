"""Symbolic cache states (paper Section 5.2).

A *symbolic memory block* is represented as the pair
``(access_node, point)`` — the access node whose access function produced
the block and the (absolute) iteration point of the most recent access
that filled/refreshed the line.  Interpreting such a symbol at a shifted
iteration point yields the shifted concrete block, which is exactly the
concretisation function gamma of the paper:

    gamma((node, point), shift) = node.block_at(point + shift)

Storing *absolute* points makes iterator advancement free (the paper's
"determine the updated symbolic cache state only on demand", footnote 2):
relative offsets are only materialised when a loop node hashes the state.

The symbolic cache performs concrete updates under the hood (appendix A.3's
constructive ``SymUpCache``): lines additionally store the concrete block
for lookup, so hit/miss classification is exact while symbols ride along
for match detection.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import obs
from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    InclusionPolicy,
    WritePolicy,
)
from repro.cache.policies import ReplacementPolicy, policy_by_name
from repro.polyhedral.model import AccessNode

#: A symbolic memory block: (access node, absolute iteration point).
SymBlock = Tuple[AccessNode, Tuple[int, ...]]


class SnapshotKey:
    """A cache state's match key (:meth:`SymbolicCache.snapshot_key`).

    Keys compare by their parts.  The hash is combined from the sets'
    cached part hashes, so hashing a key (once per history lookup and
    once per store under match detection) costs one step per set instead
    of rehashing every line's symbol.
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple, hash_value: int):
        self.parts = parts
        self._hash = hash_value

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (other.__class__ is SnapshotKey
                and self._hash == other._hash
                and self.parts == other.parts)


class SymbolicSetState:
    """One cache set holding concrete blocks and their symbols."""

    __slots__ = ("assoc", "blocks", "syms", "policy_state", "version",
                 "_key_cache")

    def __init__(self, assoc: int, policy: ReplacementPolicy):
        self.assoc = assoc
        self.blocks: List[Optional[int]] = [None] * assoc
        self.syms: List[Optional[SymBlock]] = [None] * assoc
        self.policy_state = policy.initial_state(assoc)
        self.version = 0
        # depth -> (version, canonical part, max own-coordinate or None,
        # hash of the canonical part)
        self._key_cache: dict = {}

    def access(self, policy: ReplacementPolicy, block: int, sym: SymBlock,
               allocate: bool) -> bool:
        """Concrete update + re-symbolisation (SymUpSet); returns hit."""
        try:
            # list.index scans at C speed — this lookup runs once per
            # simulated access and dominates the symbolic hot path.
            line = self.blocks.index(block)
        except ValueError:
            if allocate:
                self.fill(policy, block, sym)
            return False
        self.version += 1
        self.policy_state = policy.on_hit(self.policy_state,
                                          self.assoc, line)
        self.syms[line] = sym
        return True

    def fill(self, policy: ReplacementPolicy, block: int,
             sym: SymBlock) -> Optional[Tuple[int, SymBlock]]:
        """Allocate a line for ``block`` (not cached); returns the
        displaced ``(block, sym)`` pair, or None if the line was empty."""
        self.version += 1
        blocks = self.blocks
        syms = self.syms
        if None in blocks:
            line, self.policy_state = policy.on_miss(
                self.policy_state, self.assoc,
                [content is not None for content in blocks])
            victim = None
        else:
            line, self.policy_state = policy.on_miss(
                self.policy_state, self.assoc, None)
            victim = (blocks[line], syms[line])
        blocks[line] = block
        syms[line] = sym
        return victim

    def canonical_key(self, depth: int) -> Tuple:
        """``(version, canonical part, max own coordinate, hash of the
        canonical part)`` of this set's match key at loop depth ``depth``
        (cached until the set changes).

        Two set states produce equal keys (within one execution of the
        hashing loop, i.e. for a fixed iterator prefix) iff their symbols
        agree after re-basing onto the current iteration — the symbolic
        equality of Theorem 3.  The key splits into the *canonical part*,
        which depends only on the contents, and a scalar that re-bases
        the warped iterator (see :meth:`SymbolicCache.snapshot_key`):
        symbol coordinates other than the loop's own dim are kept
        absolute (the prefix is fixed within an execution; deeper
        coordinates repeat exactly across matching iterations), while
        own-dim coordinates are normalised by the set's maximum own
        coordinate, whose offset from the current iterator value is the
        scalar.
        """
        cached = self._key_cache.get(depth)
        if cached is not None and cached[0] == self.version:
            return cached
        own_index = depth - 1
        syms = self.syms
        # A symbol keys as (node, own offset, coordinates before, after)
        # — the re-based point, without concatenating a new tuple; nodes
        # compare by identity.
        owns = [sym[1][own_index] for sym in syms
                if sym is not None and len(sym[1]) > own_index]
        max_own = max(owns) if owns else None
        canonical = [
            (sym[0], sym[1][own_index] - max_own,
             sym[1][:own_index], sym[1][depth:])
            if sym is not None and len(sym[1]) > own_index else sym
            for sym in syms
        ]
        canonical.append(self.policy_state)
        canonical = tuple(canonical)
        cached = self._key_cache[depth] = (self.version, canonical, max_own,
                                           hash(canonical))
        return cached

    def clone(self) -> "SymbolicSetState":
        copy = SymbolicSetState.__new__(SymbolicSetState)
        copy.assoc = self.assoc
        copy.blocks = list(self.blocks)
        copy.syms = list(self.syms)
        copy.policy_state = self.policy_state
        copy.version = self.version + 1
        copy._key_cache = {}
        return copy


class SymbolicCache:
    """A set-associative cache over symbolic blocks (one level)."""

    __slots__ = ("config", "policy", "sets", "mru_set", "hits", "misses")

    def __init__(self, config: CacheConfig):
        self.config = config
        self.policy = policy_by_name(config.policy)
        self.sets = [SymbolicSetState(config.assoc, self.policy)
                     for _ in range(config.num_sets)]
        self.mru_set = 0
        self.hits = 0
        self.misses = 0

    def access(self, block: int, sym: SymBlock, is_write: bool) -> bool:
        allocate = (not is_write
                    or self.config.write_policy is WritePolicy.WRITE_ALLOCATE)
        index = self.config.index_of(block)
        self.mru_set = index
        hit = self.sets[index].access(self.policy, block, sym, allocate)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def access_capture(self, block: int, sym: SymBlock, is_write: bool):
        """Like :meth:`access`, but also returns the evicted entry.

        Returns ``(hit, victim)`` where ``victim`` is the displaced
        ``(block, sym)`` pair, or None when nothing was evicted (hit,
        non-allocating write miss, or an empty line filled).  Mirrors
        :meth:`CacheHierarchy._lookup_and_update` on the symbolic side.
        """
        index = self.config.index_of(block)
        self.mru_set = index
        set_state = self.sets[index]
        if set_state.access(self.policy, block, sym, False):
            self.hits += 1
            return True, None
        self.misses += 1
        if (is_write and self.config.write_policy
                is not WritePolicy.WRITE_ALLOCATE):
            return False, None
        return False, set_state.fill(self.policy, block, sym)

    def probe_extract(self, block: int) -> bool:
        """Exclusive-hierarchy lookup: a hit removes the block.

        Counts a hit or a miss; on a hit the line is cleared without
        touching the policy state (mirroring the concrete hierarchy's
        victim-cache semantics).
        """
        index = self.config.index_of(block)
        self.mru_set = index
        set_state = self.sets[index]
        for line, content in enumerate(set_state.blocks):
            if content == block:
                set_state.version += 1
                set_state.blocks[line] = None
                set_state.syms[line] = None
                self.hits += 1
                return True
        self.misses += 1
        return False

    def insert_victim(self, block: int, sym: SymBlock):
        """Exclusive-hierarchy spill: allocate an evicted entry here.

        Not a demand access: hit/miss counters stay untouched.  Returns
        the displaced ``(block, sym)`` pair (to cascade into the next
        level) or None.
        """
        index = self.config.index_of(block)
        self.mru_set = index
        set_state = self.sets[index]
        if set_state.access(self.policy, block, sym, False):
            return None
        return set_state.fill(self.policy, block, sym)

    def invalidate(self, block: int) -> None:
        """Inclusive-hierarchy back-invalidation: drop a block if present.

        Leaves the policy state untouched, mirroring the concrete
        hierarchy's ``_invalidate``.
        """
        set_state = self.sets[self.config.index_of(block)]
        for line, content in enumerate(set_state.blocks):
            if content == block:
                set_state.version += 1
                set_state.blocks[line] = None
                set_state.syms[line] = None
                return

    # -- match detection ----------------------------------------------------------

    def snapshot_key(self, depth: int,
                     current: Tuple[int, ...]) -> SnapshotKey:
        """Rotation-canonical state key (paper Sec. 5.3).

        Hashing starts at the most-recently-accessed set and cycles, so
        two states that are equal up to a rotation of the cache sets
        produce the same key; the rotation offset is recovered from the
        difference of the two states' ``mru_set`` values.  Each set
        contributes its canonical part and the offset of its maximum
        own-dim coordinate from ``current`` (see
        :meth:`SymbolicSetState.canonical_key`).
        """
        obs.count("sym.snapshot_keys")
        own = current[depth - 1]
        sets = self.sets
        mru = self.mru_set
        parts = []
        hashes = []
        for state in sets[mru:] + sets[:mru]:
            _, canonical, max_own, part_hash = state.canonical_key(depth)
            scalar = None if max_own is None else max_own - own
            parts.append(canonical)
            parts.append(scalar)
            hashes.append(part_hash)
            hashes.append(scalar)
        return SnapshotKey(tuple(parts), hash(tuple(hashes)))

    # -- warping -----------------------------------------------------------------------

    def apply_rotation(self, rotation: int, delta: Tuple[int, ...],
                       count: int) -> None:
        """Apply pi^count: rotate sets and shift symbol points.

        ``rotation`` is the per-application set rotation (blocks move
        ``rotation`` sets forward), ``delta`` the per-application iterator
        increment of the warping loop (padded/truncated per symbol as
        needed), ``count`` the number of applications (n in Theorem 4).
        """
        obs.count("sym.rotations")
        num_sets = self.config.num_sets
        total_rot = (rotation * count) % num_sets
        shift_blocks_cache: dict = {}
        new_sets: List[Optional[SymbolicSetState]] = [None] * num_sets
        block_size = self.config.block_size
        for index, set_state in enumerate(self.sets):
            target = (index + total_rot) % num_sets
            moved = set_state.clone()
            for line, sym in enumerate(moved.syms):
                if sym is None:
                    continue
                node, point = sym
                key = id(node)
                if key not in shift_blocks_cache:
                    shift = sum(
                        c * d for c, d in zip(node.coeff_vector(), delta)
                    )
                    if (shift * count) % block_size != 0:
                        raise ValueError(
                            "warp applied with non-block-aligned shift"
                        )
                    shift_blocks_cache[key] = (shift * count) // block_size
                new_point = tuple(
                    value + delta[k] * count if k < len(delta) else value
                    for k, value in enumerate(point)
                )
                moved.syms[line] = (node, new_point)
                moved.blocks[line] = (moved.blocks[line]
                                      + shift_blocks_cache[key])
            new_sets[target] = moved
        self.sets = new_sets  # type: ignore[assignment]
        self.mru_set = (self.mru_set + total_rot) % num_sets

    def reset(self) -> None:
        self.sets = [SymbolicSetState(self.config.assoc, self.policy)
                     for _ in range(self.config.num_sets)]
        self.mru_set = 0
        self.hits = 0
        self.misses = 0

    def concretize(self, depth: int,
                   at_point: Tuple[int, ...]) -> List[List[Optional[int]]]:
        """gamma: evaluate all symbols at a (possibly past) loop point.

        ``at_point`` replaces the first ``depth`` coordinates of each
        symbol's stored point by ``stored - current + at``; callers pass
        relative evaluation through :func:`evaluate_symbol` instead for
        single entries.  (Used by tests.)
        """
        contents: List[List[Optional[int]]] = []
        for set_state in self.sets:
            row: List[Optional[int]] = []
            for sym in set_state.syms:
                if sym is None:
                    row.append(None)
                else:
                    node, point = sym
                    shifted = tuple(
                        at_point[k] if k < depth else value
                        for k, value in enumerate(point)
                    )
                    row.append(node.block_at(shifted,
                                             self.config.block_size))
            contents.append(row)
        return contents


def evaluate_symbol(sym: SymBlock, depth: int,
                    current: Tuple[int, ...], at: Tuple[int, ...],
                    block_size: int) -> int:
    """gamma for one symbol: evaluate as if the loop iterators were ``at``.

    The symbol stores the absolute point of its last access under the
    *current* iteration ``current``; re-basing the first ``depth``
    coordinates onto ``at`` yields the concrete block the same symbol
    denotes at iteration ``at`` (Theorem 3's correspondence).
    """
    node, point = sym
    rebased = tuple(
        value - current[k] + at[k] if k < depth else value
        for k, value in enumerate(point)
    )
    return node.block_at(rebased, block_size)


class SymbolicHierarchy:
    """N symbolic caches under a configurable inclusion policy.

    Mirrors :class:`repro.cache.hierarchy.CacheHierarchy` access for
    access: NINE descends on misses; INCLUSIVE back-invalidates the
    victims of outer-level evictions; EXCLUSIVE moves outer-level hits
    into the L1 and cascades eviction victims outwards.  All three stay
    data-independent and bijection-compatible (the paper's Sec. 2.3
    remark), so all three remain warpable.
    """

    __slots__ = ("config", "inclusion", "_levels")

    def __init__(self, config: HierarchyConfig,
                 inclusion: Optional[InclusionPolicy] = None):
        self.config = config
        self.inclusion = (InclusionPolicy.parse(inclusion)
                          if inclusion is not None
                          else config.inclusion)
        self._levels = tuple(SymbolicCache(cfg) for cfg in config.levels)

    @property
    def levels(self) -> Tuple[SymbolicCache, ...]:
        return self._levels

    @property
    def l1(self) -> SymbolicCache:
        return self._levels[0]

    @property
    def l2(self) -> SymbolicCache:
        return self._levels[1]

    def access(self, block: int, sym: SymBlock, is_write: bool) -> bool:
        """Access a block; returns the L1 hit flag."""
        if self.inclusion is InclusionPolicy.NINE:
            return self._access_nine(block, sym, is_write)
        if self.inclusion is InclusionPolicy.INCLUSIVE:
            return self._access_inclusive(block, sym, is_write)
        return self._access_exclusive(block, sym, is_write)

    def _access_nine(self, block: int, sym: SymBlock,
                     is_write: bool) -> bool:
        hit1 = self._levels[0].access(block, sym, is_write)
        hit = hit1
        for level in self._levels[1:]:
            if hit:
                break
            hit = level.access(block, sym, is_write)
        return hit1

    def _access_inclusive(self, block: int, sym: SymBlock,
                          is_write: bool) -> bool:
        # The L1's own victim is irrelevant (nothing is shallower), so
        # only outer levels pay for victim capture.
        hit1 = self._levels[0].access(block, sym, is_write)
        if hit1:
            return True
        for index in range(1, len(self._levels)):
            hit, victim = self._levels[index].access_capture(
                block, sym, is_write)
            if not hit and victim is not None:
                for shallower in self._levels[:index]:
                    shallower.invalidate(victim[0])
            if hit:
                break
        return False

    def _access_exclusive(self, block: int, sym: SymBlock,
                          is_write: bool) -> bool:
        hit1, victim = self._levels[0].access_capture(block, sym,
                                                      is_write)
        if hit1:
            return True
        for level in self._levels[1:]:
            if level.probe_extract(block):
                break
        for level in self._levels[1:]:
            if victim is None:
                break
            victim = level.insert_victim(victim[0], victim[1])
        return False

    def reset(self) -> None:
        for level in self._levels:
            level.reset()


class SingleLevel:
    """Adapter giving a single cache the same interface as a hierarchy."""

    __slots__ = ("cache",)

    def __init__(self, config: CacheConfig):
        self.cache = SymbolicCache(config)

    def access(self, block: int, sym: SymBlock, is_write: bool) -> bool:
        return self.cache.access(block, sym, is_write)

    @property
    def levels(self) -> Tuple[SymbolicCache, ...]:
        return (self.cache,)

    def reset(self) -> None:
        self.cache.reset()
