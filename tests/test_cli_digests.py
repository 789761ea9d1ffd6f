"""The CLI's bytes on a seeded corpus of documents, pinned by digest.

Each case runs one command in process on one document and hashes its exit
code, stdout and stderr. The document is always written to the same
relative path, ``doc.json``, so error lines do not depend on where the test
runs. ``cli_digests.json`` holds the expected digests: a change to any
output, message or exit code on the corpus shows up as a mismatched case.

For a deliberate change of output, ``PYTHONPATH=src python
tests/test_cli_digests.py`` rewrites that table from the current code and
prints the name of each case it adds, changes or removes. With ``--check``
it only compares: it prints each mismatched case and a count, and exits 1
if there is any. That needs no pytest, so it runs under every Python the
project supports (``test_python_versions.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from cli_invoke import invoke

TABLE = Path(__file__).with_name("cli_digests.json")
DOC = "doc.json"

COMMANDS = {
    "topology": ["topology", DOC],
    "analyze": ["analyze", DOC, "--set", "{set}"],
    "analyze-json": ["analyze", DOC, "--set", "{set}", "--format", "json"],
    "check": ["check", DOC, "--format", "json"],
    "check-samples": ["check", DOC, "--format", "json", "--samples", "32"],
    "check-corrupt": ["check", DOC, "--format", "json", "--corrupt-gamma"],
    "oracle-diff": ["oracle-diff", DOC],
}

WORKED_EXAMPLE = {
    "universe": ["a", "b", "c", "d"],
    "base": [["a"], ["a", "b"], ["c", "d"]],
    "order": [["a", "b"], ["b", "d"], ["a", "d"], ["a", "c"], ["c", "d"]],
}
# Opens {}, {a}, {b}, {a, b}, U under equality: laws 3.21 and 3.25 fail.
PROBE = {"universe": ["a", "b", "c"], "base": [["a"], ["b"]], "order": []}
# 22 points, past the powerset cap: laws 3.21 and 3.25 fail only at {a} and
# at {b1, ..., b20}, which no random draw is likely to hit.
_BS = [f"b{k}" for k in range(1, 21)]
NEEDLE = {"universe": ["a", "c", *_BS], "base": [["a"], _BS], "order": []}
_PAIR = {"universe": ["a", "b"], "base": [["a"]], "order": [["a", "b"]]}


def _order(rng: random.Random, labels: list[str]) -> list[list[str]]:
    """A random partial order as label pairs: forward edges over the label
    order, closed transitively, loops left to ``auto_reflexive``."""
    n = len(labels)
    up = [{j for j in range(i + 1, n) if rng.random() < 0.4} for i in range(n)]
    for i in reversed(range(n)):
        for j in sorted(up[i]):
            up[i] |= up[j]
    return [[labels[i], labels[j]] for i in range(n) for j in sorted(up[i])]


def _random_doc(rng: random.Random, size: int, relation: bool,
                reflexive: bool) -> tuple[str, str]:
    """A random base or relation document of ``size`` points, with its
    loops listed and ``auto_reflexive`` off if ``reflexive``, and random
    ``--set`` labels. Past 26 points the labels are e0, e1, ..."""
    labels = [chr(ord("a") + k) if size <= 26 else f"e{k}" for k in range(size)]
    doc: dict = {"universe": labels}
    if relation:
        doc["relation"] = [[x, y] for x in labels for y in labels if rng.random() < 0.3]
    else:
        doc["base"] = [[x for x in labels if rng.random() < 0.5]
                       for _ in range(rng.randint(0, 4))]
    doc["order"] = _order(rng, labels)
    if reflexive:
        doc["order"] += [[x, x] for x in labels]
        doc["options"] = {"auto_reflexive": False}
    return json.dumps(doc), ",".join(x for x in labels if rng.random() < 0.5)


def _sparse_doc(rng: random.Random, size: int) -> tuple[str, str]:
    """A relation document of ``size`` points (a, b, ...) holding every loop
    and each other pair with probability 0.08, under the empty order, and
    random ``--set`` labels."""
    labels = [chr(ord("a") + k) for k in range(size)]
    relation = [[x, y] for x in labels for y in labels if x == y or rng.random() < 0.08]
    doc = {"universe": labels, "relation": relation, "order": []}
    return json.dumps(doc), ",".join(x for x in labels if rng.random() < 0.5)


def corpus() -> list[tuple[str, str, str]]:
    """(name, document text, ``--set`` labels) of every document."""
    rng = random.Random(1510)
    docs = [("worked", json.dumps(WORKED_EXAMPLE), "a,c"), ("probe", json.dumps(PROBE), "a")]
    for i in range(32):
        docs.append((f"random{i:02d}", *_random_doc(rng, 1 + i % 8, i % 2 == 1, i % 5 == 0)))
    docs += [
        ("unknown-set-label", json.dumps(_PAIR), "a,z"),
        ("unknown-base-label", json.dumps({**_PAIR, "base": [["a"], ["z"]]}), "a"),
        ("duplicate-label", json.dumps({**_PAIR, "universe": ["a", "b", "a"]}), "a"),
        ("antisymmetry", json.dumps({**_PAIR, "order": [["a", "b"], ["b", "a"]]}), "a"),
        ("missing-order", json.dumps({"universe": ["a"], "base": []}), "a"),
        ("malformed", '{\n  "universe": [,]\n}', "a"),
    ]
    # Up to 10 points, where check with no flags runs every subset and pair.
    for size in (9, 10):
        for kind in ("base", "relation"):
            docs.append((f"{kind}{size}", *_random_doc(rng, size, kind == "relation", False)))
    docs.append(("comma-label", json.dumps({**_PAIR, "universe": ["a", "b", "c,d"]}), "a"))
    # Past the powerset cap, where check samples 256 subsets and pairs.
    docs.append(("needle", json.dumps(NEEDLE), "a"))
    for size in (17, 24, 33, 65):
        docs.append((f"base{size}", *_random_doc(rng, size, False, False)))
    # Laws 3.21 and 3.25 fail here at drawn lane 3, with 256 samples and with
    # 32, so these digests pin the draws themselves. Seed 4 came from a search
    # over seeds 0-39 (17-24 points); 37 of those 40 documents fail at a drawn lane.
    docs.append(("sparse21", *_sparse_doc(random.Random(4), 21)))
    return docs


def digests() -> dict[str, str]:
    """Digest of (exit code, stdout, stderr) per "document command" case;
    run inside the directory that is to hold ``doc.json``."""
    out = {}
    for name, text, chosen in corpus():
        Path(DOC).write_text(text, encoding="utf-8")
        for command, args in COMMANDS.items():
            result = invoke([arg.format(set=chosen) for arg in args])
            case = json.dumps([result.exit_code, result.stdout, result.stderr])
            out[f"{name} {command}"] = hashlib.sha256(case.encode()).hexdigest()[:16]
    return out


def test_cli_bytes_match_the_digest_table(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert digests() == json.loads(TABLE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import os
    import sys
    import tempfile

    table = TABLE.resolve()
    old = json.loads(table.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        new = digests()
    if sys.argv[1:] == ["--check"]:
        wrong = [name for name in {**old, **new} if old.get(name) != new.get(name)]
        for name in wrong:
            print(name)
        print(f"{len(new)} cases, {len(wrong)} mismatches")
        sys.exit(1 if wrong else 0)
    table.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    for name, digest in new.items():
        if old.get(name) != digest:
            print("changed" if name in old else "added", name)
    for name in old.keys() - new.keys():
        print("removed", name)
