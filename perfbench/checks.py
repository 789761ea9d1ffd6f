"""Output checks: each CLI answer against the reference or a property of
the method. Imports nothing from ``gotas``.

Every check returns None when the answer is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import json
import re

from reference import Space

# The law catalogue in the order the checker reports it, with the laws that
# run over subset pairs (4ⁿ instances) rather than subsets (2ⁿ).
LAW_IDS = (
    "sandwich", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7", "3.8", "3.9", "3.10",
    "3.12", "3.13", "3.14", "3.15", "3.16", "3.18", "3.19", "3.20", "3.21",
    "3.23", "3.25", "3.26", "3.27", "3.28a", "3.28b", "duality",
)
BINARY_LAWS = {"3.2", "3.3", "3.12", "3.13", "3.18", "3.19"}
# The only laws that are false in general (see the README).
FALSIFIABLE = ("3.21", "3.25")

_WITNESS = re.compile(r"^(Inc|Dec): A=\{([^}]*)\}")


def _witness(space: Space, detail: str) -> tuple[int, str] | None:
    m = _WITNESS.match(detail)
    if m is None:
        return None
    labels = [x for x in m.group(2).split(", ") if x]
    if any(x not in space.index for x in labels):
        return None
    return space.mask(labels), m.group(1)


def _check_laws(space: Space, code: int, out: str, mode: str, instances) -> str | None:
    """Shared part of the exhaustive and sampled checks. ``instances(pid)``
    is the count a passing law must report."""
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return "check output is not JSON"
    if payload.get("mode") != mode:
        return f"mode {payload.get('mode')!r}, expected {mode!r}"
    props = payload.get("propositions", [])
    if tuple(p.get("id") for p in props) != LAW_IDS:
        return "law list differs from the catalogue"
    failed = [p for p in props if not p["pass"]]
    if code != (1 if failed else 0) or payload.get("all_pass") != (not failed):
        return f"exit {code} / all_pass {payload.get('all_pass')} with {len(failed)} failed laws"
    for p in props:
        pid = p["id"]
        if p["pass"]:
            if p["instances"] != instances(pid):
                return f"law {pid} passed with {p['instances']} instances, expected {instances(pid)}"
            continue
        if pid not in FALSIFIABLE:
            return f"law {pid} reported failed"
        witness = _witness(space, p["violations"][0]["detail"]) if p["violations"] else None
        if witness is None:
            return f"law {pid}: unreadable witness"
        a, d = witness
        if space.law_holds(pid, a, d):
            return f"law {pid}: reference holds at {d} A={space.fmt(a)}"
    return None


def check_exhaustive(space: Space, code: int, out: str) -> str | None:
    """``check --exhaustive --format json``: the 3.21/3.25 verdicts equal the
    reference's (with the first failing subset as the instance count), and
    every other law passes with 2ⁿ or 4ⁿ instances."""
    n = space.n
    error = _check_laws(space, code, out, "exhaustive",
                        lambda pid: 4**n if pid in BINARY_LAWS else 2**n)
    if error:
        return error
    props = {p["id"]: p for p in json.loads(out)["propositions"]}
    for pid in FALSIFIABLE:
        first = space.first_violation(pid)
        if props[pid]["pass"] != (first is None):
            return f"law {pid}: verdict {props[pid]['pass']}, reference {first is None}"
        if first is not None and props[pid]["instances"] != first + 1:
            return f"law {pid}: failed after {props[pid]['instances']} instances, reference {first + 1}"
    return None


def check_sampled(space: Space, code: int, out: str, samples: int) -> str | None:
    """``check --samples N --format json``: a failed law is 3.21 or 3.25 and
    the reference finds it false at the witness; every other law passes
    with N instances."""
    return _check_laws(space, code, out, f"sampled:{samples}", lambda pid: samples)


def check_oracle_diff(space: Space, code: int, out: str) -> str | None:
    expected = f"0 mismatches / {4 << space.n} comparisons\n"
    if code != 0 or out != expected:
        return f"oracle-diff exit {code}: {out.strip()[-80:]!r}"
    return None


def topology_listing(space: Space) -> str:
    lines = [space.fmt(o) for o in space.opens]
    return "\n".join([*lines, f"count: {len(space.opens)}"]) + "\n"


def check_topology(space: Space, code: int, out: str) -> str | None:
    if code != 0:
        return f"topology exit {code}"
    want = topology_listing(space)
    if out != want:
        got, want = out.splitlines(), want.splitlines()
        line = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
        return f"topology listing differs at line {line + 1} ({len(got)} lines, expected {len(want)})"
    return None


def check_analyze(space: Space, code: int, out: str, subset: int) -> str | None:
    if code != 0:
        return f"analyze exit {code}"
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return "analyze output is not JSON"
    expected = space.report(subset)
    if payload.get("set") != expected["set"]:
        return f"analyze set {payload.get('set')}, expected {expected['set']}"
    rows = payload.get("rows", [])
    if len(rows) != len(expected["rows"]):
        return f"analyze gave {len(rows)} rows, expected {len(expected['rows'])}"
    for got, want in zip(rows, expected["rows"]):
        if got != want:
            return f"analyze row {want['family']} {want['direction']}: {got} != {want}"
    return None


def check(req, space: Space, code: int, out: str) -> str | None:
    """Dispatch on the request kind (see ``inputs.Request``)."""
    if req.kind == "check":
        return check_exhaustive(space, code, out)
    if req.kind == "sample":
        return check_sampled(space, code, out, int(req.args[req.args.index("--samples") + 1]))
    if req.kind == "oracle":
        return check_oracle_diff(space, code, out)
    if req.kind == "topology":
        return check_topology(space, code, out)
    if req.kind == "analyze":
        return check_analyze(space, code, out, req.subset)
    raise ValueError(f"unknown request kind {req.kind!r}")

