"""Seeded inputs for the three workloads.

Everything here is a pure function of (workload, seed, rounds) and uses its
own generators, not the program's: a change to ``gotas.oracle``'s random
spaces cannot change a workload. Imports nothing from ``gotas``.

A run is a list of *rounds*. Every round of a workload issues the same
kinds of request in the same order, so a run's mix does not depend on its
length.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from reference import Space

# Requests per second on a 2-core x86 machine; sets how many rounds fill
# the requested run length (the work itself never depends on the clock).
ROUNDS_PER_SECOND = {"sweep": 2.5, "verify": 1.6, "load": 2.1}
ROUND_LENGTH = {"sweep": 1, "verify": 3, "load": 4}
MIN_REQUESTS = 40  # below this a tail percentile has too few samples

SWEEP_SIZE = 5  # exhaustive cost per space: ~17, ~85, ~350 ms at n = 3, 4, 5
CHECK_SIZE, CHECK_SAMPLES = 16, 256
ORACLE_SIZE = 8
# Load: one size per document kind, as the build cost grows steeply with it
# (a relation's fixpoint with n, a chain's order check with n⁴). Random
# preorders as relations give a fixpoint cost with half the spread of
# arbitrary reflexive relations of the same size and opens count.
RELATION_SIZE, RELATION_P, RELATION_OPENS = 12, 0.15, (600, 800)
CHAIN_SIZE, CHAIN_MAX_OPENS = 33, 64


@dataclass
class Request:
    kind: str  # "check", "sample", "oracle", "topology" or "analyze"
    doc: dict
    name: str  # file name of the document inside the run directory
    args: list[str]  # CLI arguments after the document path
    subset: int = 0  # analyze only: the bitmask of --set


def _labels(n: int) -> list[str]:
    return list(string.ascii_lowercase[:n]) if n <= 26 else [f"e{i}" for i in range(n)]


def _order(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Random partial order: forward edges of a random permutation, each
    with probability p, transitively closed; loops are left implicit."""
    perm = rng.sample(range(n), n)
    succ = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                succ[perm[i]] |= 1 << perm[j]
    for k in range(n):
        for i in range(n):
            if succ[i] >> k & 1:
                succ[i] |= succ[k]
    return [(x, y) for x in range(n) for y in range(n) if succ[x] >> y & 1]


def _chain(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A total order over all n points, in random order."""
    perm = rng.sample(range(n), n)
    return [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]


def _doc(labels, order, *, base=None, relation=None) -> dict:
    doc = {"universe": labels}
    if base is not None:
        doc["base"] = [[labels[i] for i in range(len(labels)) if g >> i & 1] for g in base]
    else:
        doc["relation"] = [[labels[x], labels[y]] for x, y in relation]
    doc["order"] = [[labels[x], labels[y]] for x, y in order]
    return doc


def base_doc(rng: random.Random, n: int, generators: int, order_p: float) -> dict:
    """``generators`` generators, each point kept with probability 1/2,
    plus a random order."""
    base = [rng.getrandbits(n) for _ in range(generators)]
    return _doc(_labels(n), _order(rng, n, order_p), base=base)


def relation_doc(rng: random.Random, n: int, opens: tuple[int, int]) -> dict:
    """A random preorder on n points taken as the relation (reflexive and
    transitive, so each right neighbourhood is a minimal neighbourhood),
    redrawn until its topology has between opens[0] and opens[1] opens; with
    a sparse random order."""
    lo, hi = opens
    while True:
        pairs = [(x, x) for x in range(n)] + _order(rng, n, RELATION_P)
        doc = _doc(_labels(n), _order(rng, n, 0.15), relation=pairs)
        if lo <= len(Space(doc).opens) <= hi:
            return doc


def chain_doc(rng: random.Random, n: int) -> dict:
    """n points under a total order, from 1-3 generators giving at most 64
    opens: the order, not the topology, carries the build cost."""
    while True:
        base = [rng.getrandbits(n) for _ in range(rng.randint(1, 3))]
        doc = _doc(_labels(n), _chain(rng, n), base=base)
        if len(Space(doc).opens) <= CHAIN_MAX_OPENS:
            return doc


def _analyze(rng: random.Random, doc: dict, name: str) -> Request:
    n = len(doc["universe"])
    subset = 0
    while subset == 0:
        subset = rng.getrandbits(n)
    labels = ",".join(doc["universe"][i] for i in range(n) if subset >> i & 1)
    return Request("analyze", doc, name, ["analyze", "--set", labels, "--format", "json"], subset)


def _round(workload: str, rng: random.Random, r: int) -> list[Request]:
    # Generator counts cycle with the round number rather than being drawn,
    # so that every run has the same make-up.
    generators = 1 + r % 4
    if workload == "sweep":
        doc = base_doc(rng, SWEEP_SIZE, generators, 0.5)
        return [Request("check", doc, f"s{r}.json", ["check", "--exhaustive", "--format", "json"])]
    if workload == "verify":
        doc = base_doc(rng, CHECK_SIZE, generators, 0.1)
        seed = str(rng.randrange(1 << 16))
        check = Request("sample", doc, f"c{r}.json",
                        ["check", "--samples", str(CHECK_SAMPLES), "--seed", seed, "--format", "json"])
        oracles = [Request("oracle", base_doc(rng, ORACLE_SIZE, 1 + (r + 2 * k) % 4, 0.3),
                           f"o{r}-{k}.json", ["oracle-diff"]) for k in range(2)]
        return [check, *oracles]
    if workload == "load":
        # A fresh document per request: the tail is then set by more
        # independent documents.
        rels = [relation_doc(rng, RELATION_SIZE, RELATION_OPENS) for _ in range(2)]
        chains = [chain_doc(rng, CHAIN_SIZE) for _ in range(2)]
        return [
            Request("topology", rels[0], f"r{r}.json", ["topology"]),
            _analyze(rng, rels[1], f"ra{r}.json"),
            Request("topology", chains[0], f"k{r}.json", ["topology"]),
            _analyze(rng, chains[1], f"ka{r}.json"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def rounds_for(workload: str, seconds: int) -> int:
    rounds = round(seconds * ROUNDS_PER_SECOND[workload])
    return max(rounds, -(-MIN_REQUESTS // ROUND_LENGTH[workload]))


def make_rounds(workload: str, seed: int, rounds: int) -> list[list[Request]]:
    """``rounds`` rounds of requests; the same seed gives the same inputs."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return [_round(workload, rng, r) for r in range(rounds)]

