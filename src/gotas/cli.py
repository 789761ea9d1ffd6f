"""Command line front end.

Reads a space document (JSON), builds the space and runs reports or
checks. Exit codes are a stable contract: 0 success / all checks pass,
1 check failure, 2 input error.

Building is two steps. ``parse_document`` checks the shape of the JSON
object and returns it, with its options filled in. ``build_space`` then
resolves each label once, straight into bitmasks: the minimal
neighborhoods of the topology and the up-/down-sets of the order.

Document schema::

    {
      "universe": ["a", "b", "c", "d"],
      "base":     [["a"], ["a", "b"], ["c", "d"]],   # or "relation"
      "relation": [["a", "b"], ["b", "b"]],          # mutually exclusive with "base"
      "order":    [["a", "b"], ["b", "d"]],
      "options":  {"auto_reflexive": true}           # optional
    }
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import NoReturn

import click

from . import oracle
from .approximations import (
    DIRECTION_ORDER,
    FAMILY_ORDER,
    Direction,
    Gotas,
    OperatorFamily,
    full_report,
)
from .order import validate_order
from .topology import BinaryRelation, generate_topology, topology_from_relation
from .universe import Subset, Universe

EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
# A sampled check's memory grows with the sample count: 65536 samples on 200 points
# peak near 220 MB.
MAX_SAMPLES = 1 << 16
# The most opens `topology` lists; n points can carry up to 2**n.
MAX_OPENS = 1 << 16


class DocumentError(ValueError):
    """A space document failed to parse or validate."""


def _check_pairs(value: object, name: str) -> None:
    if not isinstance(value, list):
        raise DocumentError(f"field {name!r} must be a list of label pairs")
    for entry in value:
        if not (type(entry) is list and len(entry) == 2
                and type(entry[0]) is str and type(entry[1]) is str):
            raise DocumentError(f"field {name!r}: {entry!r} is not a pair of labels")


def parse_document(text: str, source: str = "<document>") -> dict:
    """The document's JSON object, once its shape is checked, with
    ``options`` filled in. Labels are resolved later, by ``build_space``."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"{source}: line {e.lineno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise DocumentError(f"{source}: top level must be an object")

    known = {"universe", "relation", "base", "order", "options"}
    for key in raw:
        if key not in known:
            raise DocumentError(f"{source}: unknown field {key!r}")

    universe = raw.get("universe")
    if not (
        isinstance(universe, list)
        and universe
        and all(isinstance(x, str) for x in universe)
    ):
        raise DocumentError(f"{source}: field 'universe' must be a nonempty list of labels")

    has_relation = "relation" in raw
    if has_relation == ("base" in raw):
        raise DocumentError(f"{source}: exactly one of 'relation' or 'base' is required")

    if has_relation:
        _check_pairs(raw["relation"], "relation")
    else:
        base = raw["base"]
        if not isinstance(base, list):
            raise DocumentError(f"{source}: field 'base' must be a list of label lists")
        for entry in base:
            if not (isinstance(entry, list) and all(isinstance(x, str) for x in entry)):
                raise DocumentError(f"{source}: field 'base': {entry!r} is not a label list")

    if "order" not in raw:
        raise DocumentError(f"{source}: field 'order' is required")
    _check_pairs(raw["order"], "order")

    options = raw.setdefault("options", {})
    if not isinstance(options, dict):
        raise DocumentError(f"{source}: field 'options' must be an object")
    for key in options:
        if key != "auto_reflexive":
            raise DocumentError(f"{source}: unknown option {key!r}")
    if not isinstance(options.setdefault("auto_reflexive", True), bool):
        raise DocumentError(f"{source}: option 'auto_reflexive' must be a boolean")
    return raw


def load_document(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror}") from None
    return parse_document(text, source=str(path))


def build_space(doc: dict) -> Gotas:
    """The space of a document from ``parse_document``; each label is
    resolved once, straight into the bitmasks of the topology and order."""
    universe = Universe(doc["universe"])
    index = universe.index
    if "relation" in doc:
        topology = topology_from_relation(BinaryRelation.from_labels(universe, doc["relation"]))
    else:
        topology = generate_topology(universe, map(universe.subset, doc["base"]))
    order = validate_order(
        universe,
        [(index(x), index(y)) for x, y in doc["order"]],
        auto_reflexive=doc["options"]["auto_reflexive"],
    )
    return Gotas(universe, topology, order)


def load_space(path: str | Path) -> Gotas:
    return build_space(load_document(path))


def _fail_input(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT_ERROR)


def _space_or_exit(path: str) -> Gotas:
    try:
        return load_space(path)
    except ValueError as e:
        _fail_input(str(e))


def _parse_set(g: Gotas, labels: str) -> Subset:
    names = [part.strip() for part in labels.split(",") if part.strip()]
    return g.universe.subset(names)


# The sets of an analyze row, as JSON keys and table columns.
_REGIONS = ("lower", "upper", "boundary", "positive", "negative")

_FAMILY_CHOICES = {f.value: f for f in FAMILY_ORDER}
_DIRECTION_CHOICES = {d.value: d for d in DIRECTION_ORDER}


@click.group()
def main() -> None:
    """Rough approximation reports and law checks over ordered topological
    spaces described by JSON documents."""


@main.command("topology")
@click.argument("file", type=click.Path())
def cmd_topology(file: str) -> None:
    """Print every open set of the generated topology."""
    g = _space_or_exit(file)
    opens = g.topology.open_masks(MAX_OPENS)
    if opens is None:
        _fail_input(f"the topology has more than {MAX_OPENS} opens, too many to list")
    click.echo("\n".join([*map(g.universe.text, opens), f"count: {len(opens)}"]))


def _report_rows(g: Gotas, a: Subset, family: OperatorFamily | None, direction: Direction | None):
    table = full_report(g, a)
    for (fam, d), report in table.items():
        if family is not None and fam is not family:
            continue
        if direction is not None and d is not direction:
            continue
        yield fam, d, report


@main.command("analyze")
@click.argument("file", type=click.Path())
@click.option("--set", "set_labels", required=True,
              help="Comma separated element labels; empty string for the empty set.")
@click.option("--family", type=click.Choice(sorted(_FAMILY_CHOICES)), default=None,
              help="Restrict to one operator family.")
@click.option("--direction", type=click.Choice(sorted(_DIRECTION_CHOICES)), default=None,
              help="Restrict to one direction.")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
def cmd_analyze(file: str, set_labels: str, family: str | None, direction: str | None,
                fmt: str) -> None:
    """Approximation report for one subset: lower/upper approximations,
    regions, accuracy and exactness per family and direction."""
    g = _space_or_exit(file)
    try:
        a = _parse_set(g, set_labels)
    except ValueError as e:
        _fail_input(str(e))
    fam = _FAMILY_CHOICES[family] if family else None
    d = _DIRECTION_CHOICES[direction] if direction else None
    rows = list(_report_rows(g, a, fam, d))

    if fmt == "json":
        payload = {
            "set": list(a.members()),
            "rows": [
                {
                    "family": f.label,
                    "direction": dd.label,
                    **{name: list(getattr(r, name).members()) for name in _REGIONS},
                    "accuracy": str(r.accuracy),
                    "exact": r.exact,
                }
                for f, dd, r in rows
            ],
        }
        click.echo(json.dumps(payload, indent=2))
        return

    headers = ("family", "dir", *_REGIONS, "accuracy", "exactness")
    body = [
        (
            f.label,
            dd.label,
            *(str(getattr(r, name)) for name in _REGIONS),
            str(r.accuracy),
            "exact" if r.exact else "rough",
        )
        for f, dd, r in rows
    ]
    widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
              for i, h in enumerate(headers)]
    click.echo(f"A = {a}")
    click.echo("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in body:
        click.echo("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


@main.command("check")
@click.argument("file", type=click.Path())
@click.option("--exhaustive", is_flag=True,
              help="All subsets and all pairs; universe size capped.")
@click.option("--samples", type=int, default=None,
              help="Check N random subsets/pairs instead of all of them.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for sampled mode.")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@click.option("--corrupt-gamma", is_flag=True, hidden=True)
def cmd_check(file: str, exhaustive: bool, samples: int | None, seed: int,
              fmt: str, corrupt_gamma: bool) -> None:
    """Run the law catalogue; exit 0 only if every law holds."""
    if exhaustive and samples is not None:
        _fail_input("--exhaustive and --samples are mutually exclusive")
    if samples is not None and samples < 1:
        _fail_input("--samples must be positive")
    if samples is not None and samples > MAX_SAMPLES:
        _fail_input(f"--samples must be at most {MAX_SAMPLES}")
    g = _space_or_exit(file)
    if samples is None and not exhaustive and g.universe.size > oracle.EXHAUSTIVE_CAP:
        samples = 256
    suite = oracle.corrupted_suite() if corrupt_gamma else None
    try:
        reports = oracle.check_propositions(
            g, suite=suite, samples=samples, rng=random.Random(seed)
        )
    except oracle.CapExceededError as e:
        _fail_input(str(e))

    all_pass = all(r.passed for r in reports)
    if fmt == "json":
        payload = {
            "mode": "exhaustive" if samples is None else f"sampled:{samples}",
            "seed": seed,
            "all_pass": all_pass,
            "propositions": [
                {
                    "id": r.proposition,
                    "instances": r.instances,
                    "pass": r.passed,
                    "violations": [
                        {"space": v.space, "detail": v.detail} for v in r.violations
                    ],
                }
                for r in reports
            ],
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            click.echo(f"{r.proposition:<9} {r.instances:>6} instances  {status}")
            for v in r.violations:
                click.echo(f"          witness: {v.detail}")
        click.echo("result: " + ("all laws hold" if all_pass else "violations found"))
    if not all_pass:
        sys.exit(EXIT_CHECK_FAILED)


@main.command("oracle-diff")
@click.argument("file", type=click.Path())
def cmd_oracle_diff(file: str) -> None:
    """Compare the fast base operators against the powerset oracle on every
    subset, both operators, both directions."""
    g = _space_or_exit(file)
    try:
        comparisons, mismatches = oracle.oracle_diff(g)
    except oracle.CapExceededError as e:
        _fail_input(str(e))
    for line in mismatches:
        click.echo(line)
    click.echo(f"{len(mismatches)} mismatches / {comparisons} comparisons")
    if mismatches:
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
