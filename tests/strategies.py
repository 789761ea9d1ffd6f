"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

import string

import hypothesis.strategies as st

from gotas import (
    BinaryRelation,
    Gotas,
    Universe,
    generate_topology,
    topology_from_relation,
    validate_order,
)


def _universe(size: int) -> Universe:
    return Universe(string.ascii_lowercase[:size])


@st.composite
def universe_with_subsets(draw, max_size: int = 6, count: int = 2):
    """A universe together with ``count`` subsets of it."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    u = _universe(size)
    subsets = tuple(
        u.from_bits(draw(st.integers(min_value=0, max_value=u.full_mask)))
        for _ in range(count)
    )
    return (u, *subsets)


@st.composite
def universe_with_base(draw, max_size: int = 6, max_generators: int = 4):
    """A universe with a random generator family for a topology."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    u = _universe(size)
    count = draw(st.integers(min_value=0, max_value=max_generators))
    base = [
        u.from_bits(draw(st.integers(min_value=0, max_value=u.full_mask)))
        for _ in range(count)
    ]
    return u, base


@st.composite
def topology_with_subsets(draw, max_size: int = 6, count: int = 2):
    u, base = draw(universe_with_base(max_size=max_size))
    topology = generate_topology(u, base)
    subsets = tuple(
        u.from_bits(draw(st.integers(min_value=0, max_value=u.full_mask)))
        for _ in range(count)
    )
    return (u, topology, *subsets)


@st.composite
def order_with_subset(draw, max_size: int = 5):
    """A random partial order (DAG over the index order, closed reflexively
    and transitively) together with one subset."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    u = _universe(size)
    order = _draw_order(draw, u)
    a = u.from_bits(draw(st.integers(min_value=0, max_value=u.full_mask)))
    return u, order, a


def _draw_order(draw, u: Universe):
    size = u.size
    succ = [1 << i for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if draw(st.booleans()):
                succ[i] |= 1 << j
    for k in range(size):
        for i in range(size):
            if succ[i] >> k & 1:
                succ[i] |= succ[k]
    pairs = {(i, j) for i in range(size) for j in range(size) if succ[i] >> j & 1}
    return validate_order(u, pairs)


@st.composite
def spaces(draw, max_size: int = 11):
    """A space built either from a generator family or from a binary
    relation, with a random partial order."""
    if draw(st.booleans()):
        u, base = draw(universe_with_base(max_size=max_size))
        topology = generate_topology(u, base)
    else:
        u = _universe(draw(st.integers(min_value=1, max_value=max_size)))
        cells = st.tuples(st.integers(0, u.size - 1), st.integers(0, u.size - 1))
        pairs = draw(st.lists(cells, max_size=2 * u.size))
        topology = topology_from_relation(BinaryRelation(u, pairs))
    return Gotas(u, topology, _draw_order(draw, u))
