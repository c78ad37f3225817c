"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public module attributes (and two methods) with
wrappers that record one span per call.  Every call site inside ``bfclab``
looks these names up through its module or as a module global, so the
wrappers see all calls without any edit to the package.  The untraced run
installs nothing.

A span records its name, op id, parent span, start and end.  Spans stay in
memory; ``write`` saves them when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time

# (module, attribute, span name)
FUNCTION_SPANS = (
    ("linprog", "solve", "linprog.solve"),
    ("linprog", "check_certificate", "linprog.check_certificate"),
    ("approxdeg", "adeg", "approxdeg.scan"),
    ("approxdeg", "bdeg", "approxdeg.scan"),
    ("approxdeg", "adeg_feasible", "approxdeg.decision"),
    ("approxdeg", "bdeg_feasible", "approxdeg.decision"),
    ("measures", "measure_function", "measures.measure_function"),
    ("measures", "block_sensitivity_witness", "measures.bs"),
    ("measures", "fractional_block_sensitivity_witness", "measures.fbs"),
    ("measures", "minimal_sensitive_blocks", "measures.minimal_sensitive_blocks"),
    ("measures", "max_disjoint_packing", "measures.max_disjoint_packing"),
    ("measures", "decision_tree_depth", "measures.decision_tree_depth"),
    ("noisy", "run_composed_trial", "noisy.trial"),
    ("noisy", "sample_conditioned_walk", "noisy.walk"),
    ("functions", "compose", "functions.compose"),
    # verify imports compose by name, so its global is wrapped as well
    ("verify", "compose", "functions.compose"),
    ("verify", "verify_bs_chain", "verify"),
    ("verify", "verify_pror", "verify"),
    ("verify", "bs_chain_parts", "verify"),
)
# (module, class, method, span name)
METHOD_SPANS = (
    ("noisy", "GapMajBridge", "query_many", "noisy.bridge"),
    ("noisy", "BiasedBitStream", "take", "noisy.take"),
)


class Tracer:
    def __init__(self):
        # span: [name, op, parent, start, end, child_time, count]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self.saved: list = []

    def _wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, self.op, parent, time.perf_counter(), 0.0, 0.0, 0]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    span[6] = count(args, out)
                return out
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[4] - span[3]

        return traced

    def install(self, bf) -> None:
        """Wrap the traced names of the bfclab modules in namespace ``bf``."""
        counts = {
            "linprog.solve": lambda a, out: a[0].num_rows * a[0].num_vars,
            "measures.minimal_sensitive_blocks": lambda a, out: len(out),
            "noisy.take": lambda a, out: len(out),
            "noisy.trial": lambda a, out: out.composed_queries,
        }
        for mod, attr, name in FUNCTION_SPANS:
            module = getattr(bf, mod)
            fn = getattr(module, attr)
            self.saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, counts.get(name)))
        for mod, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(getattr(bf, mod), cls_name)
            fn = cls.__dict__[attr]
            self.saved.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn, counts.get(name)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()

    def layer_metrics(self) -> dict:
        """Per-layer totals over the recorded spans."""
        by = {}
        for name, op, parent, start, end, child, count in self.spans:
            if op == "setup" and name != "functions.compose":
                continue
            agg = by.setdefault(name, {"calls": 0, "self": 0.0, "incl": 0.0,
                                       "count": 0, "max_count": 0})
            agg["calls"] += 1
            agg["self"] += end - start - child
            agg["incl"] += end - start
            agg["count"] += count
            agg["max_count"] = max(agg["max_count"], count)
        zero = {"calls": 0, "self": 0.0, "incl": 0.0, "count": 0,
                "max_count": 0}

        def get(name):
            return by.get(name, zero)

        decisions = get("approxdeg.decision")["calls"]
        lp_in_decisions = sum(
            1 for s in self.spans
            if s[0] == "linprog.solve" and s[2] >= 0
            and self.spans[s[2]][0] == "approxdeg.decision")
        take = get("noisy.take")
        return {
            "linprog.solve.calls": get("linprog.solve")["calls"],
            "linprog.solve.self_s": get("linprog.solve")["self"],
            "linprog.solve.cells": get("linprog.solve")["count"],
            "linprog.solve.max_cells": get("linprog.solve")["max_count"],
            "linprog.check_certificate.self_s":
                get("linprog.check_certificate")["self"],
            "approxdeg.decisions": decisions,
            "approxdeg.self_s": get("approxdeg.scan")["self"]
                + get("approxdeg.decision")["self"],
            "approxdeg.lp_per_decision":
                lp_in_decisions / decisions if decisions else 0.0,
            "measures.minimal_sensitive_blocks.self_s":
                get("measures.minimal_sensitive_blocks")["self"],
            "measures.blocks": get("measures.minimal_sensitive_blocks")["count"],
            "measures.max_disjoint_packing.self_s":
                get("measures.max_disjoint_packing")["self"],
            "measures.fbs.self_s": get("measures.fbs")["self"],
            "measures.decision_tree_depth.self_s":
                get("measures.decision_tree_depth")["self"],
            "noisy.walk.calls": get("noisy.walk")["calls"],
            "noisy.walk.self_s": get("noisy.walk")["self"],
            "noisy.bits_per_s":
                take["count"] / take["incl"] if take["incl"] else 0.0,
            "noisy.bridge.self_s": get("noisy.bridge")["self"],
            "noisy.composed_queries": get("noisy.trial")["count"],
            "functions.compose.self_s": get("functions.compose")["self"],
            "verify.self_s": get("verify")["self"],
        }

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, op, parent, start, end, child, count in self.spans:
                out.write(json.dumps({
                    "name": name, "op": op, "parent": parent,
                    "start": start, "end": end, "self": end - start - child,
                    "count": count}) + "\n")
