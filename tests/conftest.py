from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import settings

from gotas import Batch, Gotas, Topology, Universe, equality_order, generate_topology, validate_order
from gotas.oracle import oracle_table, random_space

# Every hypothesis test draws the same examples on each run; a test's own
# @settings override only the values it names.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_DOC = REPO_ROOT / "examples" / "ex-3-24.json"

EXAMPLE_UNIVERSE = ["a", "b", "c", "d"]
EXAMPLE_BASE = [["a"], ["a", "b"], ["c", "d"]]
EXAMPLE_ORDER = [
    ("a", "a"), ("b", "b"), ("c", "c"), ("d", "d"),
    ("a", "b"), ("b", "d"), ("a", "d"), ("a", "c"), ("c", "d"),
]


def make_example_space() -> Gotas:
    """The worked four-element space used throughout the golden tests."""
    u = Universe(EXAMPLE_UNIVERSE)
    topology = generate_topology(u, [u.subset(labels) for labels in EXAMPLE_BASE])
    order = validate_order(u, [(u.index(x), u.index(y)) for x, y in EXAMPLE_ORDER])
    return Gotas(u, topology, order)


def oracle_rows(g: Gotas) -> dict:
    """``oracle_table(g)`` read as rows: per direction, the r_lower and
    r_upper bitmask of every subset, in a list indexed by its bitmask."""
    u = g.universe
    return {d: tuple(Batch(u, cols, 1 << u.size).rows() for cols in pair)
            for d, pair in oracle_table(g).items()}


def make_probe_space() -> Gotas:
    """Three elements, opens {{}, {a}, {b}, {a, b}, U}, equality order.

    The smallest space on which the gamma upper approximation escapes the
    semi upper approximation (take A = {a}); used both to document that
    divergence and to give the corrupted-operator fixture something to
    trip over.
    """
    u = Universe(["a", "b", "c"])
    topology = generate_topology(u, [u.subset(["a"]), u.subset(["b"])])
    return Gotas(u, topology, equality_order(u))


def acceptance_spaces() -> list[tuple[str, Gotas]]:
    """The worked example plus 51 seeded random spaces of sizes 3, 4, 5."""
    spaces = [("worked example", make_example_space())]
    rng = random.Random(0)
    sizes = (3, 4, 5)
    for i in range(51):
        size = sizes[i % 3]
        spaces.append((f"random space #{i} (size {size})", random_space(rng, size)))
    return spaces


@pytest.fixture
def space() -> Gotas:
    return make_example_space()


@pytest.fixture
def probe() -> Gotas:
    return make_probe_space()


@pytest.fixture
def example_doc() -> Path:
    return EXAMPLE_DOC


@pytest.fixture
def no_open_listing(monkeypatch) -> None:
    """Makes any listing of a topology's opens fail the test."""
    def refuse(self, limit=None):
        raise AssertionError("the opens were listed")

    monkeypatch.setattr(Topology, "open_masks", refuse)
