"""Command line front end.

Reads a space document (JSON), builds the space and runs reports or
checks. Exit codes are a stable contract: 0 success / all checks pass,
1 check failure, 2 input or usage error.

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

import argparse
import codecs
import json
import os
import random
import reprlib
import sys
from collections.abc import Iterable
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from typing import NoReturn

from . import oracle
from .approximations import (
    DIRECTION_ORDER,
    FAMILY_ORDER,
    Gotas,
    full_report,
)
from .order import validate_order
from .topology import BinaryRelation, generate_topology, topology_from_relation
from .universe import Subset, Universe, flags

EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
# A sampled check's memory grows with the sample count: 65536 samples on a 200-point
# sparse relation take about 0.8 s and peak near 152 MB (BENCH_38.json). Its pairs
# come from one getrandbits block of 2n bits per sample, at most 2**29 bits under
# this cap and MAX_POINTS; getrandbits takes a C int.
MAX_SAMPLES = 1 << 16
# The most opens `topology` lists; n points can carry up to 2**n. Listing the 65536
# opens of the 16-point discrete space takes 45-70 ms and peaks near 30 MB.
MAX_OPENS = 1 << 16
# The most labels a universe may hold. The kernel's closure takes n**2 steps, most
# of the 5.8 s (86 MB peak) of `check` on a 4096-point identity relation (BENCH_37.json).
MAX_POINTS = 1 << 12


class DocumentError(ValueError):
    """A space document failed to parse or validate."""


# Writes a malformed entry into its error message: nested lists as [...], at
# most four items, long strings cut, so the message stays short.
_ENTRY = reprlib.Repr()
_ENTRY.maxlevel, _ENTRY.maxlist = 1, 4


def _check_pairs(value: object, name: str, source: str) -> None:
    if not isinstance(value, list):
        raise DocumentError(f"{source}: field {name!r} must be a list of label pairs")
    for entry in value:
        if not (type(entry) is list and len(entry) == 2
                and type(entry[0]) is str and type(entry[1]) is str):
            raise DocumentError(
                f"{source}: field {name!r}: {_ENTRY.repr(entry)} is not a pair of labels")


def parse_document(text: str, source: str = "<document>") -> dict:
    """The document's JSON object, once its shape is checked and each
    universe label is valid Unicode and one ``--set`` can name, with
    ``options`` filled in.
    Labels are resolved later, by ``build_space``."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"{source}: line {e.lineno}: {e.msg}") from None
    except RecursionError:
        raise DocumentError(f"{source}: nested too deeply") from None
    except ValueError:  # an integer literal past Python's limit on digits
        raise DocumentError(f"{source}: an integer literal is too long") from None
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
    if len(universe) > MAX_POINTS:
        raise DocumentError(f"{source}: field 'universe' holds more than {MAX_POINTS} labels")
    for label in universe:
        # --set splits on commas and strips each name, so it could not name these.
        if not label or label.strip() != label or "," in label:
            raise DocumentError(
                f"{source}: field 'universe': label {reprlib.repr(label)} is empty, "
                "holds a comma or starts or ends with whitespace")
    try:  # JSON admits a lone surrogate such as "\ud800", which no output can write
        "".join(universe).encode("utf-8")
    except UnicodeEncodeError as e:
        label = next(x for x in universe if e.object[e.start] in x)
        raise DocumentError(f"{source}: field 'universe': label {reprlib.repr(label)} "
                            "is not valid Unicode") from None

    has_relation = "relation" in raw
    if has_relation == ("base" in raw):
        raise DocumentError(f"{source}: exactly one of 'relation' or 'base' is required")

    if has_relation:
        _check_pairs(raw["relation"], "relation", source)
    else:
        base = raw["base"]
        if not isinstance(base, list):
            raise DocumentError(f"{source}: field 'base' must be a list of label lists")
        for entry in base:
            if not (isinstance(entry, list) and all(isinstance(x, str) for x in entry)):
                raise DocumentError(
                    f"{source}: field 'base': {_ENTRY.repr(entry)} is not a label list")

    if "order" not in raw:
        raise DocumentError(f"{source}: field 'order' is required")
    _check_pairs(raw["order"], "order", source)

    options = raw.setdefault("options", {})
    if not isinstance(options, dict):
        raise DocumentError(f"{source}: field 'options' must be an object")
    for key in options:
        if key != "auto_reflexive":
            raise DocumentError(f"{source}: unknown option {key!r}")
    if not isinstance(options.setdefault("auto_reflexive", True), bool):
        raise DocumentError(f"{source}: option 'auto_reflexive' must be a boolean")
    return raw


def build_space(doc: dict) -> Gotas:
    """The space of a document from ``parse_document``; each label is
    resolved once, straight into the bitmasks of the topology and order."""
    universe = Universe(doc["universe"])
    if "relation" in doc:
        topology = topology_from_relation(BinaryRelation.from_labels(universe, doc["relation"]))
    else:
        topology = generate_topology(universe, map(universe.subset, doc["base"]))
    order = validate_order(universe, BinaryRelation.from_labels(universe, doc["order"]),
                           auto_reflexive=doc["options"]["auto_reflexive"])
    return Gotas(universe, topology, order)


def load_space(path: str | os.PathLike[str]) -> Gotas:
    """The space of the document at ``path``; every input error names it
    as given."""
    name = str(path)
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise DocumentError(f"cannot read {name}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise DocumentError(f"{name}: byte {e.start} is not valid UTF-8") from None
    doc = parse_document(text, source=name)
    try:
        return build_space(doc)
    except ValueError as e:
        raise DocumentError(f"{name}: {e}") from None


def _echo(text: str) -> None:
    """Writes a line to stdout as is, ANSI-like sequences in labels included."""
    sys.stdout.write(text + "\n")


def _fail_input(message: str) -> NoReturn:
    sys.stderr.write(f"error: {message}\n")
    sys.exit(EXIT_INPUT_ERROR)


def _space_or_exit(path: str) -> Gotas:
    try:
        return load_space(path)
    except ValueError as e:
        _fail_input(str(e))


def _parse_set(g: Gotas, labels: str) -> Subset:
    names = [part.strip() for part in labels.split(",") if part.strip()]
    return g.universe.subset(names)


def _array(items: Iterable[str], indent: str) -> str:
    """The JSON array of ``items``, each written already, laid out as
    ``json.dumps(..., indent=2)`` lays out an array on a line that starts
    with ``indent``; ``[]`` for no items."""
    text = (",\n  " + indent).join(items)
    return f"[\n  {indent}{text}\n{indent}]" if text else "[]"


def _labels(u: Universe, bits: int, indent: str) -> str:
    """The labels of ``bits`` as a JSON array, laid out as ``_array`` lays it out."""
    return _array(compress(u.encoded, flags(bits)), indent)


# The two reports that --format json prints, each written as
# json.dumps(payload, indent=2) writes it: strings by encode_basestring_ascii,
# ints by %d, booleans from _BOOL and arrays by _array.
_BOOL = ("false", "true")
_ANALYZE = '{\n  "set": %s,\n  "rows": %s\n}'
_ROW = ('{\n      "family": %s,\n      "direction": %s,\n      "lower": %s,\n'
        '      "upper": %s,\n      "boundary": %s,\n      "positive": %s,\n'
        '      "negative": %s,\n      "accuracy": %s,\n      "exact": %s\n    }')
_CHECK = '{\n  "mode": %s,\n  "seed": %d,\n  "all_pass": %s,\n  "propositions": %s\n}'
_PROPOSITION = ('{\n      "id": %s,\n      "instances": %d,\n      "pass": %s,\n'
                '      "violations": %s\n    }')
_VIOLATION = '{\n          "space": %s,\n          "detail": %s\n        }'

# The sets of an analyze row, as table columns and, in this order, _ROW's keys.
_REGIONS = ("lower", "upper", "boundary", "positive", "negative")

_FAMILY_CHOICES = {f.value: f for f in FAMILY_ORDER}
_DIRECTION_CHOICES = {d.value: d for d in DIRECTION_ORDER}


def cmd_topology(file: str) -> None:
    """Print every open set of the generated topology."""
    g = _space_or_exit(file)
    opens = g.topology.open_masks(MAX_OPENS)
    if opens is None:
        _fail_input(f"the topology has more than {MAX_OPENS} opens, too many to list")
    _echo(f"{g.universe.texts(opens)}\ncount: {len(opens)}")


def cmd_analyze(file: str, set_labels: str, family: str | None, direction: str | None,
                fmt: str) -> None:
    """Approximation report for one subset: lower/upper approximations,
    regions, accuracy and exactness per family and direction."""
    g = _space_or_exit(file)
    try:
        a = _parse_set(g, set_labels)
    except ValueError as e:
        _fail_input(str(e))
    fam, d = _FAMILY_CHOICES.get(family), _DIRECTION_CHOICES.get(direction)
    rows = [(f, dd, r) for (f, dd), r in full_report(g, a).items()
            if fam in (None, f) and d in (None, dd)]

    if fmt == "json":  # rows share most sets, so each distinct set is written once
        masks = [[getattr(r, name).bits for name in _REGIONS] for _, _, r in rows]
        arrays = {m: _labels(g.universe, m, "      ") for m in set(chain.from_iterable(masks))}
        written = [_ROW % (encode_basestring_ascii(f.label), encode_basestring_ascii(dd.label),
                           *map(arrays.__getitem__, row),
                           encode_basestring_ascii(str(r.accuracy)), _BOOL[r.exact])
                   for (f, dd, r), row in zip(rows, masks)]
        _echo(_ANALYZE % (_labels(g.universe, a.bits, "  "), _array(written, "  ")))
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
    lines = ("  ".join(map(str.ljust, row, widths)).rstrip() for row in (headers, *body))
    _echo("\n".join((f"A = {a}", *lines)))


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
    if samples is None and not exhaustive and g.universe.size > oracle.POWERSET_CAP:
        samples = 256
    suite = oracle.corrupted_suite() if corrupt_gamma else None
    try:
        reports = oracle.check_propositions(
            g, suite=suite, samples=samples,
            rng=None if samples is None else random.Random(seed), space_label=file)
    except oracle.CapExceededError as e:
        _fail_input(str(e))

    all_pass = all(r.passed for r in reports)
    if fmt == "json":
        mode = "exhaustive" if samples is None else f"sampled:{samples}"
        written = [
            _PROPOSITION % (encode_basestring_ascii(r.proposition), r.instances, _BOOL[r.passed],
                            _array([_VIOLATION % (encode_basestring_ascii(v.space),
                                                  encode_basestring_ascii(v.detail))
                                    for v in r.violations], "      ") if r.violations else "[]")
            for r in reports]
        _echo(_CHECK % (encode_basestring_ascii(mode), seed, _BOOL[all_pass],
                        _array(written, "  ")))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            _echo(f"{r.proposition:<9} {r.instances:>6} instances  {status}")
            for v in r.violations:
                _echo(f"          witness: {v.detail}")
        _echo("result: " + ("all laws hold" if all_pass else "violations found"))
    if not all_pass:
        sys.exit(EXIT_CHECK_FAILED)


def cmd_oracle_diff(file: str) -> None:
    """Compare the fast base operators against the powerset oracle on every
    subset, both operators, both directions."""
    g = _space_or_exit(file)
    try:
        comparisons, mismatches = oracle.oracle_diff(g)
    except oracle.CapExceededError as e:
        _fail_input(str(e))
    for line in mismatches:
        _echo(line)
    _echo(f"{len(mismatches)} mismatches / {comparisons} comparisons")
    if mismatches:
        sys.exit(EXIT_CHECK_FAILED)


_PARSER = argparse.ArgumentParser(
    prog="gotas", allow_abbrev=False, description="Rough approximation reports and law "
    "checks over ordered topological spaces described by JSON documents.")
_COMMANDS = _PARSER.add_subparsers(metavar="COMMAND", required=True)
# Options that take the next token as their value, even `-a`, which argparse reads as an option.
_VALUED: set[str] = set()


def _command(name: str, run, *options: tuple[str, dict]) -> None:
    """Adds ``run`` as command ``name``, its help taken from its docstring."""
    sub = _COMMANDS.add_parser(name, allow_abbrev=False, help=run.__doc__.partition(".")[0],
                               description=run.__doc__)
    sub.add_argument("file", metavar="FILE")
    for flag, spec in options:
        sub.add_argument(flag, **spec)
    _VALUED.update(flag for flag, spec in options if "action" not in spec)
    sub.set_defaults(run=run)


_FORMAT = ("--format", {"dest": "fmt", "choices": ("table", "json"), "default": "table"})
_command("topology", cmd_topology)
_command("analyze", cmd_analyze,
         ("--set", {"dest": "set_labels", "required": True, "metavar": "LABELS",
                    "help": "Comma separated element labels; empty string for the empty set."}),
         ("--family", {"choices": _FAMILY_CHOICES, "help": "Restrict to one operator family."}),
         ("--direction", {"choices": _DIRECTION_CHOICES, "help": "Restrict to one direction."}),
         _FORMAT)
_command("check", cmd_check,
         ("--exhaustive", {"action": "store_true",
                           "help": "All subsets and all pairs; universe size capped."}),
         ("--samples", {"type": int, "metavar": "N",
                        "help": "Check N random subsets/pairs instead of all of them."}),
         ("--seed", {"type": int, "default": 0, "help": "Seed for sampled mode (default: 0)."}),
         _FORMAT, ("--corrupt-gamma", {"action": "store_true", "help": argparse.SUPPRESS}))
_command("oracle-diff", cmd_oracle_diff)


def main(args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Runs the command line ``args`` (default ``sys.argv[1:]``) and exits with its
    code. ``main.main`` is this function, which the benchmark calls; usage lines
    name ``gotas`` whatever ``prog_name``."""
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure and codecs.lookup(sys.stdout.encoding).name != "utf-8":
        reconfigure(encoding="utf-8")  # labels need not be ASCII or Latin-1
    tokens = list(sys.argv[1:] if args is None else args)
    for i in range(len(tokens) - 1):  # `--opt value` becomes `--opt=value`, None
        if tokens[i] in _VALUED:
            tokens[i:i + 2] = f"{tokens[i]}={tokens[i + 1]}", None
    try:
        try:
            options = vars(_PARSER.parse_args([t for t in tokens if t is not None]))
            options.pop("run")(**options)
        finally:
            sys.stdout.flush()
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
    except BrokenPipeError:  # the reader is gone: let the flush at exit go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        sys.exit(0)
    sys.exit(1)


main.main = main

if __name__ == "__main__":
    main()
