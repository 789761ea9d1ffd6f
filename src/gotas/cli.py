"""Command line front end.

Reads a space document (JSON), builds the space and runs reports or
checks, or runs the checks on seeded random spaces. Exit codes are a
stable contract: 0 success / all checks pass, 1 check failure, 2 input or
usage error. A command returns its output text and its exit code,
``EXIT_CHECK_FAILED`` when a check fails, and raises ``InputError`` on
input it cannot use; the parser raises ``UsageError``. ``main`` alone
writes stdout, writes the error lines and exits; only --help writes and
exits on its own, with 0.

``COMMANDS`` is the table of the five commands: each one's function and
its ``Option``s. ``parse_command_line`` reads a command line from it in
one pass over the tokens, and the usage lines and --help are written
from it.

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

import codecs
import json
import os
import reprlib
import sys
from collections.abc import Callable, Iterable, Sequence
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, NoReturn

# The package registers `gotas.oracle` lazily: this binds the module object,
# and its code runs on the first read of it by `check`, `oracle-diff` or `sweep`.
from . import oracle
from .approximations import FAMILY_ORDER, Direction, Gotas, OperatorFamily, full_report
from .order import validate_order
from .topology import BinaryRelation, generate_topology, topology_from_relation
from .universe import Universe, flags

EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
# A sampled check's memory grows with the samples and the points: 65536 samples on a
# sparse relation (n loops, n random pairs) peak near 154 MB in 0.69 s at 200 points,
# 289 MB in 1.3 s at 400 and 557 MB in 3.1 s at 800, about 0.67 MB a point, so roughly
# 2.8 GB at MAX_POINTS (BENCH_52.json). Its pairs are one getrandbits block of 2n bits
# per sample, at most 2**29 bits under this cap and MAX_POINTS (getrandbits takes a C int).
MAX_SAMPLES = 1 << 16
# The most opens `topology` lists; n points can carry up to 2**n. Listing the 65536
# opens of the 16-point discrete space takes 45-70 ms and peaks near 30 MB.
MAX_OPENS = 1 << 16
# The most labels a universe may hold. The kernel's closure takes c**2 steps for the c
# classes of points with equal N(x), n**2 only when every N(x) differs: `check` takes
# 4.2-5.9 s, 4.9 s in the median, with a 117 MB peak, on a 4096-point identity relation,
# where c = n (BENCH_52.json), and 0.37-0.40 s on `"base": []`, where c = 1
# (BENCH_41.json).
MAX_POINTS = 1 << 12


class InputError(ValueError):
    """Input the program cannot use: a document that fails to read, parse or
    build, a ``--set`` or ``--samples`` value it refuses, or a result past a cap."""


class UsageError(Exception):
    """A refused command line: ``args`` are the command's name, or None, and the message."""


# Writes a malformed entry into its error message: nested lists as [...], at
# most four items, long strings cut, so the message stays short.
_ENTRY = reprlib.Repr()
_ENTRY.maxlevel, _ENTRY.maxlist = 1, 4


def _check_pairs(value: object, name: str) -> None:
    if not isinstance(value, list):
        raise InputError(f"field {name!r} must be a list of label pairs")
    for entry in value:
        if not (type(entry) is list and len(entry) == 2
                and type(entry[0]) is str and type(entry[1]) is str):
            raise InputError(f"field {name!r}: {_ENTRY.repr(entry)} is not a pair of labels")


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; a key it repeats is refused, where JSON would keep the last value."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"key {reprlib.repr(key)} is repeated")
        obj[key] = value
    return obj


# Built once: ``json.loads`` builds a decoder on each call that passes a hook.
_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def parse_document(text: str) -> dict:
    """The document's JSON object, once its shape is checked and each
    universe label is valid Unicode and one ``--set`` can name, with
    ``options`` filled in.
    Labels are resolved later, by ``build_space``."""
    if text.startswith("\ufeff"):  # json.loads's own check, which .decode lacks
        raise InputError("line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)")
    try:
        raw = _DECODER.decode(text)
    except InputError:  # a repeated key, which the arm for long integers must not take
        raise
    except json.JSONDecodeError as e:
        raise InputError(f"line {e.lineno}: {e.msg}") from None
    except RecursionError:
        raise InputError("nested too deeply") from None
    except ValueError:  # an integer literal past Python's limit on digits
        raise InputError("an integer literal is too long") from None
    if not isinstance(raw, dict):
        raise InputError("top level must be an object")

    known = {"universe", "relation", "base", "order", "options"}
    for key in raw:
        if key not in known:
            raise InputError(f"unknown field {reprlib.repr(key)}")

    universe = raw.get("universe")
    if not (
        isinstance(universe, list)
        and universe
        and all(isinstance(x, str) for x in universe)
    ):
        raise InputError("field 'universe' must be a nonempty list of labels")
    if len(universe) > MAX_POINTS:
        raise InputError(f"field 'universe' holds more than {MAX_POINTS} labels")
    for label in universe:
        # --set splits on commas and strips each name, so it could not name these.
        if not label or label.strip() != label or "," in label:
            raise InputError(f"field 'universe': label {reprlib.repr(label)} is empty, "
                             "holds a comma or starts or ends with whitespace")
    try:  # JSON admits a lone surrogate such as "\ud800", which no output can write
        "".join(universe).encode("utf-8")
    except UnicodeEncodeError as e:
        label = next(x for x in universe if e.object[e.start] in x)
        raise InputError(f"field 'universe': label {reprlib.repr(label)} "
                         "is not valid Unicode") from None

    has_relation = "relation" in raw
    if has_relation == ("base" in raw):
        raise InputError("exactly one of 'relation' or 'base' is required")

    if has_relation:
        _check_pairs(raw["relation"], "relation")
    else:
        base = raw["base"]
        if not isinstance(base, list):
            raise InputError("field 'base' must be a list of label lists")
        for entry in base:
            if not (isinstance(entry, list) and all(isinstance(x, str) for x in entry)):
                raise InputError(f"field 'base': {_ENTRY.repr(entry)} is not a label list")

    if "order" not in raw:
        raise InputError("field 'order' is required")
    _check_pairs(raw["order"], "order")

    options = raw.setdefault("options", {})
    if not isinstance(options, dict):
        raise InputError("field 'options' must be an object")
    for key in options:
        if key != "auto_reflexive":
            raise InputError(f"unknown option {reprlib.repr(key)}")
    if not isinstance(options.setdefault("auto_reflexive", True), bool):
        raise InputError("option 'auto_reflexive' must be a boolean")
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
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: byte {e.start} is not valid UTF-8") from None
    except (OSError, ValueError) as e:  # open raises ValueError for a path holding a NUL byte
        raise InputError(f"cannot read {path}: {getattr(e, 'strerror', e)}") from None
    try:
        return build_space(parse_document(text))
    except ValueError as e:
        raise InputError(f"{path}: {e}") from None


def _array(items: Iterable[str], indent: str) -> str:
    """The JSON array of ``items``, each written already, laid out as
    ``json.dumps(..., indent=2)`` lays out an array on a line that starts
    with ``indent``; ``[]`` for no items."""
    text = (",\n  " + indent).join(items)
    return f"[\n  {indent}{text}\n{indent}]" if text else "[]"


def _labels(encoded: Sequence[str], bits: int, indent: str) -> str:
    """The labels of ``bits`` as a JSON array, laid out as ``_array`` lays it
    out; ``encoded[x]`` is label x as JSON text."""
    return _array(compress(encoded, flags(bits)), indent)


# The two reports that --format json prints, each written as
# json.dumps(payload, indent=2) writes it: strings by encode_basestring_ascii,
# ints by %d, booleans from _BOOL, arrays by _array, and a failing law's
# "violations", the one-item array of its witness, by _VIOLATIONS.
_BOOL = ("false", "true")
_ANALYZE = '{\n  "set": %s,\n  "rows": %s\n}'
_ROW = ('{\n      "family": %s,\n      "direction": %s,\n      "lower": %s,\n'
        '      "upper": %s,\n      "boundary": %s,\n      "positive": %s,\n'
        '      "negative": %s,\n      "accuracy": %s,\n      "exact": %s\n    }')
_CHECK = '{\n  "mode": %s,\n  "seed": %d,\n  "all_pass": %s,\n  "propositions": %s\n}'
_PROPOSITION = ('{\n      "id": %s,\n      "instances": %d,\n      "pass": %s,\n'
                '      "violations": %s\n    }')
_VIOLATIONS = '[\n        {\n          "space": %s,\n          "detail": %s\n        }\n      ]'

# The sets of an analyze row, as table columns and, in this order, _ROW's keys.
_REGIONS = ("lower", "upper", "boundary", "positive", "negative")


def cmd_topology(file: str) -> tuple[str, int]:
    """Print every open set of the generated topology."""
    g = load_space(file)
    opens = g.topology.open_masks(MAX_OPENS)
    if opens is None:
        raise InputError(f"the topology has more than {MAX_OPENS} opens, too many to list")
    return f"{g.universe.texts(opens)}\ncount: {len(opens)}", 0


def cmd_analyze(file: str, set_labels: str, family: str | None = None,
                direction: str | None = None, fmt: str = "table") -> tuple[str, int]:
    """Approximation report for one subset: lower/upper approximations,
    regions, accuracy and exactness per family and direction."""
    g = load_space(file)
    try:
        a = g.universe.subset(filter(None, map(str.strip, set_labels.split(","))))
    except ValueError as e:
        raise InputError(str(e)) from None
    families = FAMILY_ORDER if family is None else (OperatorFamily(family),)
    rows = [(f, d, r) for (f, d), r in full_report(g, a, families).items()
            if direction in (None, d.value)]

    if fmt == "json":  # rows share most sets, so each distinct set is written once
        encoded = tuple(map(encode_basestring_ascii, g.universe.labels))
        masks = [[getattr(r, name).bits for name in _REGIONS] for _, _, r in rows]
        arrays = {m: _labels(encoded, m, "      ") for m in set(chain.from_iterable(masks))}
        written = [_ROW % (encode_basestring_ascii(f.label), encode_basestring_ascii(d.label),
                           *map(arrays.__getitem__, row),
                           encode_basestring_ascii(str(r.accuracy)), _BOOL[r.exact])
                   for (f, d, r), row in zip(rows, masks)]
        return _ANALYZE % (_labels(encoded, a.bits, "  "), _array(written, "  ")), 0

    headers = ("family", "dir", *_REGIONS, "accuracy", "exactness")
    body = [
        (
            f.label,
            d.label,
            *(str(getattr(r, name)) for name in _REGIONS),
            str(r.accuracy),
            "exact" if r.exact else "rough",
        )
        for f, d, r in rows
    ]
    widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(headers)]
    lines = ("  ".join(map(str.ljust, row, widths)).rstrip() for row in (headers, *body))
    return "\n".join((f"A = {a}", *lines)), 0


def cmd_check(file: str, exhaustive: bool = False, samples: int | None = None, seed: int = 0,
              fmt: str = "table", corrupt_gamma: bool = False) -> tuple[str, int]:
    """Run the law catalogue; exit 0 only if every law holds."""
    if exhaustive and samples is not None:
        raise InputError("--exhaustive and --samples are mutually exclusive")
    if samples is not None and samples < 1:
        raise InputError("--samples must be positive")
    if samples is not None and samples > MAX_SAMPLES:
        raise InputError(f"--samples must be at most {MAX_SAMPLES}")
    g = load_space(file)
    if samples is None and not exhaustive and g.universe.size > oracle.POWERSET_CAP:
        samples = 256
    suite = oracle.corrupted_suite() if corrupt_gamma else None
    try:
        reports = oracle.check_propositions(g, suite=suite, samples=samples, seed=seed)
    except oracle.CapExceededError as e:
        raise InputError(str(e)) from None

    all_pass = all(r.passed for r in reports)
    if fmt == "json":
        mode = "exhaustive" if samples is None else f"sampled:{samples}"
        space = encode_basestring_ascii(file)
        written = [
            _PROPOSITION % (encode_basestring_ascii(r.proposition), r.instances, _BOOL[r.passed],
                            "[]" if r.passed else
                            _VIOLATIONS % (space, encode_basestring_ascii(str(r.witness))))
            for r in reports]
        text = _CHECK % (encode_basestring_ascii(mode), seed, _BOOL[all_pass],
                         _array(written, "  "))
    else:
        text = "".join(f"{r.proposition:<9} {r.instances:>6} instances  " +
                       ("PASS\n" if r.passed else f"FAIL\n          witness: {r.witness}\n")
                       for r in reports)
        text += "result: " + ("all laws hold" if all_pass else "violations found")
    return text, 0 if all_pass else EXIT_CHECK_FAILED


def cmd_oracle_diff(file: str) -> tuple[str, int]:
    """Compare the fast base operators against the powerset oracle on every
    subset, both operators, both directions."""
    g = load_space(file)
    try:
        comparisons, mismatches = oracle.oracle_diff(g)
    except oracle.CapExceededError as e:
        raise InputError(str(e)) from None
    text = "\n".join((*mismatches, f"{len(mismatches)} mismatches / {comparisons} comparisons"))
    return text, EXIT_CHECK_FAILED if mismatches else 0


def cmd_sweep(count: int = 100, sizes: str = "3,4,5", seed: int = 0,
              show_witnesses: int = 3) -> tuple[str, int]:
    """Run the law catalogue on seeded random spaces and count, per law, the
    spaces where it fails; exit 0 only if no law fails. The spaces take the
    sizes in turn."""
    import random  # here, so that topology and analyze load none

    if count < 1:
        raise InputError("--count must be positive")
    if show_witnesses < 0:
        raise InputError("--show-witnesses must not be negative")
    try:
        cycle = tuple(map(int, sizes.split(",")))
    except ValueError:  # not an integer, or one past Python's limit on digits
        cycle = ()
    if not cycle or not all(1 <= size <= oracle.POWERSET_CAP for size in cycle):
        raise InputError(f"--sizes must be comma separated sizes within "
                         f"1-{oracle.POWERSET_CAP}: {sizes}")
    rng = random.Random(seed)
    failing = dict.fromkeys(oracle.PROPOSITION_IDS, 0)
    witnesses = []
    for i in range(count):
        size = cycle[i % len(cycle)]
        for r in oracle.check_propositions(oracle.random_space(rng, size)):
            if not r.passed:
                failing[r.proposition] += 1
                if len(witnesses) < show_witnesses:
                    witnesses.append(f"  {r.proposition} @ space #{i} (size {size}): {r.witness}")
    lines = [f"{count} spaces, sizes {cycle}, seed {seed}",
             *(f"  {pid:<9} failed on {n} spaces" for pid, n in failing.items())]
    if witnesses:
        lines += ["sample witnesses:", *witnesses]
    return "\n".join(lines), EXIT_CHECK_FAILED if any(failing.values()) else 0


class Option(NamedTuple):
    """One option of a command: ``flag`` sets the keyword ``dest`` of the
    command's function, which gives the default. ``kind`` is ``bool`` for a
    switch, which takes no value; ``str`` or ``int`` for a value, converted
    by it; or the tuple of the values allowed."""
    flag: str
    dest: str
    kind: type | tuple[str, ...]
    metavar: str = ""
    help: str = ""
    required: bool = False
    hidden: bool = False

    def shown(self) -> str:
        """The flag and metavar, as the usage line and help show them."""
        if self.kind is bool:
            return self.flag
        return f"{self.flag} {self.metavar or '{%s}' % ','.join(self.kind)}"


_FORMAT = Option("--format", "fmt", ("table", "json"), help="Output layout (default: table).")
# The command table: each command's function and options. It drives
# `parse_command_line`, the usage lines and --help; each command's help is
# its function's docstring.
COMMANDS: dict[str, tuple[Callable[..., tuple[str, int]], tuple[Option, ...]]] = {
    "topology": (cmd_topology, ()),
    "analyze": (cmd_analyze, (
        Option("--set", "set_labels", str, "LABELS",
               "Comma separated element labels; empty string for the empty set.", required=True),
        Option("--family", "family", tuple(f.value for f in OperatorFamily),
               help="Restrict to one operator family."),
        Option("--direction", "direction", tuple(d.value for d in Direction),
               help="Restrict to one direction."),
        _FORMAT)),
    "check": (cmd_check, (
        Option("--exhaustive", "exhaustive", bool,
               help="All subsets and all pairs; universe size capped."),
        Option("--samples", "samples", int, "N",
               "Check N random subsets/pairs instead of all of them."),
        Option("--seed", "seed", int, "SEED", "Seed for sampled mode (default: 0)."),
        _FORMAT,
        Option("--corrupt-gamma", "corrupt_gamma", bool, hidden=True))),
    "oracle-diff": (cmd_oracle_diff, ()),
    "sweep": (cmd_sweep, (
        Option("--count", "count", int, "N", "Number of random spaces (default: 100)."),
        Option("--sizes", "sizes", str, "SIZES", "Space sizes, comma separated (default: 3,4,5)."),
        Option("--seed", "seed", int, "SEED", "Seed of the random spaces (default: 0)."),
        Option("--show-witnesses", "show_witnesses", int, "N", "Witnesses shown (default: 3)."))),
}
_HELP = ("-h", "--help")


def _takes_file(run: Callable[..., tuple[str, int]]) -> bool:
    """Whether a command reads a FILE: its function's first parameter is ``file``."""
    return run.__code__.co_varnames[:1] == ("file",)


def _usage(name: str | None) -> str:
    if name is None:
        return "usage: gotas [-h] COMMAND ..."
    run, options = COMMANDS[name]
    shown = [o.shown() if o.required else f"[{o.shown()}]" for o in options if not o.hidden]
    if _takes_file(run):
        shown.append("FILE")
    return " ".join(("usage: gotas", name, "[-h]", *shown))


def _listing(rows: list[tuple[str, str]]) -> str:
    width = max(len(left) for left, _ in rows) + 2
    return "".join(f"  {left:<{width}}{right}".rstrip() + "\n" for left, right in rows)


def _help(name: str | None) -> NoReturn:
    """Writes the help of command ``name``, or of the program, to stdout and exits 0."""
    options: tuple[Option, ...] = ()
    if name is None:
        text = ("Rough approximation reports and law checks over ordered topological spaces\n"
                "described by JSON documents.\n\ncommands:\n" + _listing(
                    [(cmd, " ".join(run.__doc__.partition(".")[0].split()))
                     for cmd, (run, _) in COMMANDS.items()]))
    else:
        run, options = COMMANDS[name]
        text = "\n".join(line.strip() for line in run.__doc__.splitlines()) + "\n"
    rows = [("-h, --help", "show this help message and exit"),
            *((o.shown(), o.help) for o in options if not o.hidden)]
    try:
        sys.stdout.write(f"{_usage(name)}\n\n{text}\noptions:\n{_listing(rows)}")
    except OSError:  # a closed stdout pipe: help still exits 0, quietly
        pass
    sys.exit(0)


def _value(name: str, option: Option, value: str) -> str | int:
    """``value`` as ``option`` takes it; a ``UsageError`` if it cannot."""
    if option.kind is int:
        try:
            return int(value)
        except ValueError:
            raise UsageError(name, f"argument {option.flag}: invalid int value: {value!r}")
    if option.kind is not str and value not in option.kind:
        raise UsageError(name, f"argument {option.flag}: invalid choice: {value!r} "
                               f"(choose from {', '.join(map(repr, option.kind))})")
    return value


def parse_command_line(tokens: Sequence[str]) -> tuple[Callable[..., tuple[str, int]], dict]:
    """The function of the command that ``tokens`` name, with its keyword
    arguments, from one pass over the tokens. FILE, for a command that
    reads one, is given once, before or after the options; a value option
    takes ``--opt value`` or ``--opt=value``, the value as is; a switch
    takes no value; a repeated option keeps its last value; ``--`` ends the
    options. -h/--help exits 0 with the help; a ``UsageError`` is raised as
    soon as a value is refused, otherwise once every token is read."""
    if not tokens:
        raise UsageError(None, "the following arguments are required: COMMAND")
    name = tokens[0]
    if name in _HELP:
        _help(None)
    if name not in COMMANDS:
        raise UsageError(None, f"argument COMMAND: invalid choice: {name!r} "
                               f"(choose from {', '.join(map(repr, COMMANDS))})")
    run, options = COMMANDS[name]
    flags = {o.flag: o for o in options}
    takes_file = _takes_file(run)
    kwargs: dict = {}
    file, extras, ended = None, [], False
    rest = iter(tokens[1:])
    for token in rest:
        if token == "--" and not ended:
            ended = True
        elif ended or token[:1] != "-" or token == "-":
            if file is None and takes_file:
                file = token
            else:
                extras.append(token)
        else:
            flag, eq, value = token.partition("=")
            option = flags.get(flag)
            if option is None:
                if token in _HELP:
                    _help(name)
                extras.append(token)
            elif option.kind is bool:
                if eq:
                    raise UsageError(name, f"argument {flag}: ignored explicit argument {value!r}")
                kwargs[option.dest] = True
            else:
                if not eq:
                    value = next(rest, None)
                    if value is None:
                        raise UsageError(name, f"argument {flag}: expected one argument")
                kwargs[option.dest] = _value(name, option, value)
    missing = [o.flag for o in options if o.required and o.dest not in kwargs]
    if file is None and takes_file:
        missing.insert(0, "FILE")
    if missing:
        raise UsageError(name, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(name, f"unrecognized arguments: {' '.join(extras)}")
    return run, {"file": file, **kwargs} if takes_file else kwargs


def main(args: Sequence[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Runs the command line ``args`` (default ``sys.argv[1:]``), writes its output
    or its error line and exits with its code. ``main.main`` is this function, which
    the benchmark calls; usage lines name ``gotas`` whatever ``prog_name``."""
    for stream in sys.stdout, sys.stderr:  # labels need not be ASCII or Latin-1
        reconfigure = getattr(stream, "reconfigure", None)
        if reconfigure and codecs.lookup(stream.encoding).name != "utf-8":
            reconfigure(encoding="utf-8", errors=stream.errors)
    try:
        try:
            run, kwargs = parse_command_line(sys.argv[1:] if args is None else args)
            text, code = run(**kwargs)
            sys.stdout.write(text + "\n")
        finally:
            sys.stdout.flush()
    except UsageError as e:
        name, message = e.args
        prog = "gotas" if name is None else f"gotas {name}"
        sys.stderr.write(f"{_usage(name)}\n{prog}: error: {message}\n")
        code = EXIT_INPUT_ERROR
    except InputError as e:
        sys.stderr.write(f"error: {e}\n")
        code = EXIT_INPUT_ERROR
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        code = EXIT_INPUT_ERROR
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
        code = 1
    except BrokenPipeError:  # the reader is gone: let the flush at exit go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


main.main = main

if __name__ == "__main__":
    main()
