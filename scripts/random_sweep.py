#!/usr/bin/env python3
"""Sweep the law catalogue over randomly generated spaces.

Runs the exhaustive checker on a batch of seeded random spaces and prints,
per law, how many spaces produced a counterexample. Useful for exploring
which laws survive beyond the worked example; the gamma-vs-semi upper chain
is the one that does not.

    python3 scripts/random_sweep.py --count 100 --sizes 3,4,5 --seed 0
"""

from __future__ import annotations

import argparse
import random
import time
from collections import Counter

from gotas.oracle import POWERSET_CAP, PROPOSITION_IDS, check_propositions, random_space


def run(count: int, sizes: tuple[int, ...], seed: int, show_witnesses: int) -> int:
    rng = random.Random(seed)
    failing_spaces = Counter()
    witnesses: list[str] = []
    started = time.monotonic()
    for i in range(count):
        size = sizes[i % len(sizes)]
        space = random_space(rng, size)
        label = f"space #{i} (size {size})"
        for report in check_propositions(space, space_label=label):
            if not report.passed:
                failing_spaces[report.proposition] += 1
                if len(witnesses) < show_witnesses:
                    v = report.violations[0]
                    witnesses.append(f"{report.proposition} @ {v.space}: {v.detail}")
    elapsed = time.monotonic() - started

    print(f"{count} spaces, sizes {sizes}, seed {seed}, {elapsed:.1f}s")
    for pid in PROPOSITION_IDS:
        print(f"  {pid:<9} failed on {failing_spaces.get(pid, 0)} spaces")
    if witnesses:
        print("sample witnesses:")
        for line in witnesses:
            print(f"  {line}")
    return 1 if failing_spaces else 0


def _sizes(text: str) -> tuple[int, ...]:
    # argparse reports a ValueError or ArgumentTypeError here as a usage error.
    sizes = tuple(int(s) for s in text.split(","))
    if not all(1 <= size <= POWERSET_CAP for size in sizes):
        raise argparse.ArgumentTypeError(f"sizes must lie within 1-{POWERSET_CAP}: {text}")
    return sizes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--sizes", type=_sizes, default=(3, 4, 5),
                        help=f"comma separated universe sizes within 1-{POWERSET_CAP}, cycled")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--show-witnesses", type=int, default=3)
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error(f"argument --count: must be at least 1: {args.count}")
    if args.show_witnesses < 0:
        parser.error(f"argument --show-witnesses: must be at least 0: {args.show_witnesses}")
    return run(**vars(args))


if __name__ == "__main__":
    raise SystemExit(main())
