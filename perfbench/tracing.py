"""Spans around the public functions of each ``spjopt`` module.

The tracer replaces every binding of a traced function in the loaded
``spjopt`` modules with a wrapper and puts the originals back on
``uninstall``.  While a traced function runs, its own bindings point at the
original again, so a recursive function (``print_plan``) costs one span and
one extra frame per outermost call, and deep recursion keeps the stack depth
of an untraced run.

Spans are kept in memory as (function, start, end, parent span, op id) and
written out by ``write_spans``.  Self time is a span's duration minus the
durations of the spans whose parent it is.
"""

from __future__ import annotations

import importlib
import sys
import time

# module -> traced public functions; cli.main is the op span.
TARGETS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "serialize": ("load_plan", "load_structure", "dumps"),
    "plans": (
        "parse_plan",
        "print_plan",
        "is_well_behaved",
        "evaluate_well_behaved",
        "evaluate_naive",
    ),
    "represent": ("build_representation",),
    "constraints": ("chase",),
    "structures": ("compute_core", "find_homomorphism", "homs_relation"),
    "colorwidth": ("optimal_cwidth", "color_number", "cwidth_of_decomposition"),
    "simplex": ("solve_lp",),
    "synthesis": (
        "eliminate_fds",
        "synthesize_plan",
        "check_equivalence",
        "output_degree",
        "intermediate_degree_bound",
    ),
    "witness": ("bag_witness", "product_witness"),
}


def _distinct_nodes(plan) -> tuple[int, int]:
    """(tree nodes, distinct subplans) of a plan, in one pass by identity."""
    canon: dict[tuple, int] = {}
    seen: dict[int, int] = {}
    total = 0
    stack = [(plan, False)]
    while stack:
        node, expanded = stack.pop()
        kids = getattr(node, "children", None)
        if kids is None:
            kids = (node.child,) if hasattr(node, "child") else ()
        if not expanded:
            total += 1
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
            continue
        if id(node) in seen:
            continue
        params = tuple(
            getattr(node, f, None) for f in ("relation", "theta", "cols")
        )
        key = (type(node).__name__, params, tuple(seen[id(k)] for k in kids))
        seen[id(node)] = canon.setdefault(key, len(canon))
    return total, len(canon)


def _extras(name: str, args: tuple, kwargs: dict, result, acc: dict) -> None:
    """Work counts read off a traced call's arguments and result."""
    if name == "plans.evaluate_well_behaved":
        acc["nodes"] = acc.get("nodes", 0) + len(result.entries)
        acc["internal_peak_rows"] = max(acc.get("internal_peak_rows", 0), result.internal_peak)
    elif name == "represent.build_representation":
        acc["elements"] = acc.get("elements", 0) + len(result[0].open.structure.universe)
    elif name == "constraints.chase":
        merged = sum(1 for k, v in result.merge_map.items() if k != v)
        acc["merged"] = acc.get("merged", 0) + merged
    elif name == "structures.compute_core":
        acc["elements_in"] = acc.get("elements_in", 0) + len(args[0].structure.universe)
        acc["elements_out"] = acc.get("elements_out", 0) + len(result.structure.universe)
    elif name == "structures.find_homomorphism":
        acc["found"] = acc.get("found", 0) + (result is not None)
    elif name == "simplex.solve_lp":
        constraints = args[1] if len(args) > 1 else kwargs["constraints"]
        acc["cells"] = acc.get("cells", 0) + len(constraints) * len(args[0])
    elif name == "synthesis.eliminate_fds":
        acc["new_relations"] = acc.get("new_relations", 0) + len(result.new_relations)
    elif name == "synthesis.synthesize_plan":
        total, distinct = _distinct_nodes(result.plan)
        acc["plan_nodes"] = acc.get("plan_nodes", 0) + total
        acc["distinct_nodes"] = acc.get("distinct_nodes", 0) + distinct
    elif name == "witness.product_witness":
        acc["rows"] = acc.get("rows", 0) + result.total_tuple_count()


# Extra per-layer metrics beyond calls / s / self_s, by function.
EXTRA_METRICS: dict[str, tuple[str, ...]] = {
    "plans.evaluate_well_behaved": ("nodes", "internal_peak_rows"),
    "represent.build_representation": ("elements",),
    "constraints.chase": ("merged",),
    "structures.compute_core": ("elements_in", "elements_out"),
    "structures.find_homomorphism": ("found_share",),
    "simplex.solve_lp": ("cells",),
    "synthesis.eliminate_fds": ("new_relations",),
    "synthesis.synthesize_plan": ("plan_nodes", "distinct_nodes"),
    "witness.product_witness": ("rows",),
}


def function_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    """Wraps the traced functions; one instance per traced pass."""

    def __init__(self):
        self.names = function_names()
        self.spans: list = []
        self.op_id = -1
        self.extras: dict[str, dict] = {name: {} for name in self.names}
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "spjopt" or n.startswith("spjopt.")]
        for fid, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"spjopt.{mod_name}"), fn_name)
            sites = [
                (mod, attr)
                for mod in modules
                for attr, value in list(vars(mod).items())
                if value is original
            ]
            wrapper = self._wrap(fid, name, original, sites)
            for mod, attr in sites:
                setattr(mod, attr, wrapper)
                self._bindings.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def _wrap(self, fid: int, name: str, original, sites):
        tracer = self
        acc = self.extras[name]

        def wrapper(*args, **kwargs):
            for mod, attr in sites:
                setattr(mod, attr, original)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (fid, start, end, parent, tracer.op_id)
                for mod, attr in sites:
                    setattr(mod, attr, wrapper)
            _extras(name, args, kwargs, result, acc)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """calls, inclusive seconds and self seconds per traced function,
        plus the extra work counts."""
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            calls[fid] += 1
            incl[fid] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = [0.0] * len(self.names)
        for (fid, start, end, _, _), covered in zip(self.spans, child):
            self_s[fid] += (end - start) - covered
        out: dict[str, float] = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.s"] = incl[fid]
            out[f"{name}.self_s"] = self_s[fid]
            acc = self.extras[name]
            for extra in EXTRA_METRICS.get(name, ()):
                if extra == "found_share":
                    out[f"{name}.found_share"] = acc.get("found", 0) / calls[fid] if calls[fid] else 0.0
                else:
                    out[f"{name}.{extra}"] = acc.get(extra, 0)
        return out

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: index, function, start and end
        (seconds from the first span), parent span index (-1 for none) and
        op id (-1 outside an op)."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tfunction\tstart_s\tend_s\tparent\top\n")
            for idx, (fid, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{idx}\t{self.names[fid]}\t{start - base:.6f}\t{end - base:.6f}\t{parent}\t{op}\n")
