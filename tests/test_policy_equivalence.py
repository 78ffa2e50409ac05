"""Closed-form policy transitions against loop-based references.

The tree engine and the symbolic engine share one policy object per
cache, so the miss-for-miss differential tests cannot catch a transition
bug both engines would share.  This module pins every policy's
``on_hit``/``on_miss`` to straightforward loop implementations of the
same policies (kept here, test-local, as the reference): exhaustively
over all states where the state space is small, on a seeded sample
where it is not, for full sets (``occupied=None`` and an all-True list)
and for partly full sets.
"""

import itertools
import random

import pytest

from repro.cache.policies import FIFO, LRU, NMRU, PLRU, QLRU

# -- reference implementations (the loop forms the closed forms replace) -------


def ref_lru_hit(state, line):
    if state and state[0] == line:
        return state
    return (line,) + tuple(l for l in state if l != line)


def ref_lru_miss(state, assoc, occupied):
    empty = [l for l in state if not occupied[l]]
    line = empty[-1] if empty else state[-1]
    return line, ref_lru_hit(state, line)


def ref_fifo_miss(state, assoc, occupied):
    empty = [l for l in state if not occupied[l]]
    line = empty[-1] if empty else state[-1]
    if state and state[0] == line:
        return line, state
    return line, (line,) + tuple(l for l in state if l != line)


def ref_plru_touch(state, assoc, line):
    num_inner = assoc - 1
    node = line + num_inner
    while node > 0:
        parent = (node - 1) // 2
        if node == 2 * parent + 2:
            state &= ~(1 << parent)
        else:
            state |= 1 << parent
        node = parent
    return state


def ref_plru_miss(state, assoc, occupied):
    line = None
    for cand in range(assoc):
        if not occupied[cand]:
            line = cand
            break
    if line is None:
        node = 0
        num_inner = assoc - 1
        while node < num_inner:
            node = 2 * node + 1 + ((state >> node) & 1)
        line = node - num_inner
    return line, ref_plru_touch(state, assoc, line)


def ref_qlru_hit(state, line):
    if state[line] == 0:
        return state
    ages = list(state)
    ages[line] = 0
    return tuple(ages)


def ref_qlru_miss(state, assoc, occupied):
    for line in range(assoc):
        if not occupied[line]:
            ages = list(state)
            ages[line] = 2
            return line, tuple(ages)
    ages = list(state)
    while all(age < 3 for age in ages):
        ages = [age + 1 for age in ages]
    line = next(l for l in range(assoc) if ages[l] >= 3)
    ages[line] = 2
    return line, tuple(ages)


def ref_nmru_miss(state, assoc, occupied):
    for line in range(assoc):
        if not occupied[line]:
            return line, line
    victim = next(line for line in range(assoc) if line != state)
    return victim, victim


# -- occupancy patterns ------------------------------------------------------------


def partial_patterns(assoc):
    """Every occupancy with at least one empty line (assoc <= 6), else
    every single-empty-line pattern plus the empty set."""
    if assoc <= 6:
        for bits in itertools.product((False, True), repeat=assoc):
            if False in bits:
                yield list(bits)
        return
    yield [False] * assoc
    for empty in range(assoc):
        yield [line != empty for line in range(assoc)]


def check_miss(policy, reference, state, assoc):
    full = [True] * assoc
    expected = reference(state, assoc, full)
    assert policy.on_miss(state, assoc, None) == expected, state
    assert policy.on_miss(state, assoc, full) == expected, state
    for occupied in partial_patterns(assoc):
        assert (policy.on_miss(state, assoc, occupied)
                == reference(state, assoc, occupied)), (state, occupied)


# -- PLRU: every state x line, assoc 2..16 ------------------------------------------


@pytest.mark.parametrize("assoc", [2, 4, 8, 16])
def test_plru_matches_tree_walk(assoc):
    policy = PLRU()
    policy.initial_state(assoc)
    for state in range(1 << (assoc - 1)):
        for line in range(assoc):
            assert (policy.on_hit(state, assoc, line)
                    == ref_plru_touch(state, assoc, line)), (state, line)
        check_miss(policy, ref_plru_miss, state, assoc)


# -- LRU / FIFO: every permutation for assoc <= 6, sampled at 8 and 16 --------------


def order_states(assoc):
    if assoc <= 6:
        return itertools.permutations(range(assoc))
    rng = random.Random(assoc)
    return (tuple(rng.sample(range(assoc), assoc)) for _ in range(200))


@pytest.mark.parametrize("assoc", [1, 2, 3, 4, 5, 6, 8, 16])
def test_lru_matches_reference(assoc):
    policy = LRU()
    for state in order_states(assoc):
        for line in range(assoc):
            assert policy.on_hit(state, assoc, line) == \
                ref_lru_hit(state, line)
        check_miss(policy, ref_lru_miss, state, assoc)


@pytest.mark.parametrize("assoc", [1, 2, 3, 4, 5, 6, 8, 16])
def test_fifo_matches_reference(assoc):
    policy = FIFO()
    for state in order_states(assoc):
        for line in range(assoc):
            assert policy.on_hit(state, assoc, line) == state
        check_miss(policy, ref_fifo_miss, state, assoc)


# -- QLRU: every age vector for assoc <= 5, sampled at 8 ---------------------------


@pytest.mark.parametrize("assoc", [1, 2, 3, 4, 5, 8])
def test_qlru_matches_reference(assoc):
    policy = QLRU()
    if assoc <= 5:
        states = itertools.product(range(4), repeat=assoc)
    else:
        rng = random.Random(assoc)
        states = (tuple(rng.randrange(4) for _ in range(assoc))
                  for _ in range(500))
    for state in states:
        for line in range(assoc):
            assert policy.on_hit(state, assoc, line) == \
                ref_qlru_hit(state, line)
        check_miss(policy, ref_qlru_miss, state, assoc)


# -- NMRU: every MRU line (and none), assoc 2..8 ------------------------------------


@pytest.mark.parametrize("assoc", [2, 3, 4, 8])
def test_nmru_matches_reference(assoc):
    policy = NMRU()
    for state in [None, *range(assoc)]:
        for line in range(assoc):
            assert policy.on_hit(state, assoc, line) == line
        check_miss(policy, ref_nmru_miss, state, assoc)
