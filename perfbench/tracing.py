"""Span recorder for the traced run.

Wraps the public functions at each layer boundary of ``gotas`` from the
outside (the program is not edited) and records, per request, the time
spent in each layer, each layer's self time and the layer counters. Spans
nest: a span's self time is its duration minus that of its child spans.

The base operators ``r_lower``/``r_upper`` run ~10⁵ times per exhaustive
check, so they are not kept as spans: each call adds its time and one
count to the request's record, and its key to the request's distinct-key
set.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter

# Per-layer metrics: name -> unit. Each is a mean per traced request (a
# request that does not reach the layer adds 0), so cli.self_ms plus the
# spans directly under a request add up to the mean traced latency.
LAYER_METRICS = {
    "cli.parse_ms": "ms",
    "cli.self_ms": "ms",
    "topology.build_ms": "ms",
    "topology.opens": "count",
    "order.validate_ms": "ms",
    "order.pairs": "count",
    "approximations.report_ms": "ms",
    "approximations.base_calls": "count",
    "approximations.base_ms": "ms",
    "approximations.base_distinct_ratio": "ratio",
    "oracle.check_ms": "ms",
    "oracle.law_instances": "count",
    "oracle.diff_ms": "ms",
    "oracle.subset_scans": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.records: list[dict[str, float]] = []  # one per traced request
        self._stack: list[list[float]] = []  # open spans: [child seconds]
        self._keys: set = set()
        self._saved: list[tuple[object, object, object]] = []

    # -- recording ----------------------------------------------------------

    def _span(self, name: str, fn, count=None):
        """``fn`` wrapped in a span named ``name``; ``count(args, result)``
        gives the layer's counter."""

        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self._close(name, elapsed, frame[0])
            if count is not None:
                cname, value = count(args, result)
                self._add(cname, value)
            return result

        return traced

    def _base(self, op: str, fn):
        def traced(g, a, d):
            start = perf_counter()
            result = fn(g, a, d)
            elapsed = perf_counter() - start
            self._stack[-1][0] += elapsed
            self._add("approximations.base_ms", elapsed * 1e3)
            self._add("approximations.base_calls", 1)
            self._keys.add((a.bits, d, op))
            return result

        return traced

    def _close(self, name: str, elapsed: float, child: float) -> None:
        if self._stack:
            self._stack[-1][0] += elapsed
        if name == "cli.request":
            self._add("cli.self_ms", (elapsed - child) * 1e3)
        else:
            self._add(f"{name}_ms", elapsed * 1e3)

    def _add(self, key: str, value: float) -> None:
        record = self.records[-1]
        record[key] = record.get(key, 0) + value

    def request(self, invoke, args: list[str]):
        """Run ``invoke(args)`` as one traced request."""
        self.records.append({})
        self._keys = set()
        try:
            result = self._span("cli.request", invoke)(args)
        except Exception:
            self.records.pop()  # a failed request has no timing to pair with
            raise
        self.records[-1]["distinct_keys"] = len(self._keys)
        return result

    # -- installing ---------------------------------------------------------

    def install(self, cli, oracle, approx) -> None:
        """Swap the layer boundaries of the loaded modules for traced
        wrappers; ``uninstall`` puts the originals back."""
        r_lower = self._base("lower", approx.r_lower)
        r_upper = self._base("upper", approx.r_upper)
        r = approx.OperatorFamily.R
        patches = [
            (cli, "parse_document", self._span("cli.parse", cli.parse_document)),
            (cli, "generate_topology", self._span("topology.build", cli.generate_topology, _opens)),
            (cli, "topology_from_relation",
             self._span("topology.build", cli.topology_from_relation, _opens)),
            (cli, "validate_order", self._span(
                "order.validate", cli.validate_order,
                lambda args, o: ("order.pairs", len(o.pairs)))),
            (cli, "full_report", self._span("approximations.report", cli.full_report)),
            (oracle, "check_propositions", self._span(
                "oracle.check", oracle.check_propositions,
                lambda args, reports: ("oracle.law_instances", sum(x.instances for x in reports)))),
            (oracle, "oracle_diff", self._span(
                "oracle.diff", oracle.oracle_diff,
                lambda args, res: ("oracle.subset_scans", res[0] << args[0].universe.size))),
            # The base operators are referenced from three places: the module
            # (composites, oracle), the family tables and the checker's suite.
            (approx, "r_lower", r_lower),
            (approx, "r_upper", r_upper),
            (approx._LOWER, r, r_lower),
            (approx._UPPER, r, r_upper),
            (oracle, "DEFAULT_SUITE", replace(oracle.DEFAULT_SUITE, r_lower=r_lower, r_upper=r_upper)),
        ]
        for target, key, value in patches:
            self._saved.append((target, key, _get(target, key)))
            _set(target, key, value)

    def uninstall(self) -> None:
        while self._saved:
            target, key, value = self._saved.pop()
            _set(target, key, value)

    # -- summary ------------------------------------------------------------

    def metrics(self, factors: list[float]) -> dict[str, float]:
        """Means per traced request; ``factors`` scale each request's times
        to the machine's nominal speed (see ``run.Clock``)."""
        records = [
            {k: v * f if k.endswith("_ms") else v for k, v in r.items()}
            for r, f in zip(self.records, factors)
        ]
        out = {}
        for name in LAYER_METRICS:
            if name == "approximations.base_distinct_ratio":
                calls = sum(r.get("approximations.base_calls", 0) for r in records)
                keys = sum(r["distinct_keys"] for r in records if "approximations.base_calls" in r)
                out[name] = keys / calls if calls else 0.0
            else:
                out[name] = sum(r.get(name, 0) for r in records) / len(records)
        return out


def _opens(args, topology):
    return "topology.opens", len(topology.opens)


def _get(target, key):
    return target[key] if isinstance(target, dict) else getattr(target, key)


def _set(target, key, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)
