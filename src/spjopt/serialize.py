"""The project-wide file formats.

Structure JSON:
    {"signature": {"R": 2}, "universe": ["a", "b"],
     "relations": {"R": [["a", "b"]]}, "tuple": ["a"]}
with "tuple" optional (absent means a closed structure).  Element ids are
assigned in sorted-name order, so loading is deterministic.

Keys files: one `key <RelName> <position>` line per key (1-based); blank
lines and lines starting with `#` are ignored.

Plan files: optional `rel <Name> <arity>` header lines declaring the
signature, then the plan s-expression.  Data-free subcommands (optimize,
degree, equiv, ...) need the header; when a data file is given its signature
is used and any header is checked against it.

Rationals serialize as `p/q` strings (integers as plain `p`).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Union

from .colorwidth import WidthReport
from .constraints import KeySet
from .errors import FormatError
from .plans import Plan, parse_plan, print_plan
from .represent import PDecomposition, TreeDecomposition
from .structures import OpenStructure, Signature, Structure
from .synthesis import SynthesisResult


def fraction_str(value: Fraction) -> str:
    return str(Fraction(value))


def read_text(path: str) -> str:
    """The contents of a UTF-8 text file; any other bytes are a format
    error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------


def structure_to_json(value: Union[Structure, OpenStructure]) -> dict:
    is_open = isinstance(value, OpenStructure)
    struct = value.structure if is_open else value
    doc = {
        "signature": struct.signature.as_dict(),
        "universe": [struct.names[e] for e in struct.universe],
        "relations": {
            name: sorted([struct.names[e] for e in row] for row in struct.relations[name])
            for name in struct.signature.symbols()
        },
    }
    if is_open:
        doc["tuple"] = [struct.names[e] for e in value.tuple]
    return doc


def structure_from_json(doc: dict) -> Union[Structure, OpenStructure]:
    try:
        sig = Signature({str(k): int(v) for k, v in doc["signature"].items()})
        universe = [str(u) for u in doc["universe"]]
        if len(set(universe)) != len(universe):
            raise FormatError("duplicate universe element names")
        ids = {name: i for i, name in enumerate(sorted(universe))}
        relations = {}
        for name, rows in doc.get("relations", {}).items():
            if name not in sig:
                raise FormatError(f"relation {name!r} not in signature")
            out = []
            for row in rows:
                try:
                    out.append(tuple(ids[str(e)] for e in row))
                except KeyError as exc:
                    raise FormatError(f"unknown element {exc} in relation {name!r}") from exc
            relations[name] = out
        names = {i: n for n, i in ids.items()}
        struct = Structure(sig, ids.values(), relations, names)
        if "tuple" not in doc:
            return struct
        try:
            out_tuple = tuple(ids[str(e)] for e in doc["tuple"])
        except KeyError as exc:
            raise FormatError(f"unknown element {exc} in tuple") from exc
        return OpenStructure(struct, out_tuple)
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad structure document: {exc}") from exc


def load_structure(path: str) -> Union[Structure, OpenStructure]:
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return structure_from_json(doc)


# ---------------------------------------------------------------------------
# Keys files
# ---------------------------------------------------------------------------


def keys_from_text(text: str) -> KeySet:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "key":
            raise FormatError(f"line {lineno}: expected `key <RelName> <position>`")
        try:
            pos = int(parts[2])
        except ValueError:
            raise FormatError(f"line {lineno}: bad position {parts[2]!r}") from None
        entries.append((parts[1], (pos,)))
    return KeySet(entries)


def load_keys(path: str) -> KeySet:
    return keys_from_text(read_text(path))


# ---------------------------------------------------------------------------
# Plan files
# ---------------------------------------------------------------------------


def plan_file_from_text(text: str) -> tuple[Optional[Signature], str]:
    """Split a plan file into its optional `rel` header and the plan text."""
    arities: dict[str, int] = {}
    body_lines = []
    in_header = True
    for raw in text.splitlines():
        line = raw.strip()
        if in_header:
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "rel":
                if len(parts) != 3:
                    raise FormatError("expected `rel <Name> <arity>`")
                try:
                    arities[parts[1]] = int(parts[2])
                except ValueError:
                    raise FormatError(f"bad arity {parts[2]!r}") from None
                continue
            in_header = False
        body_lines.append(raw)
    sig = Signature(arities) if arities else None
    return sig, "\n".join(body_lines)


def load_plan(path: str, signature: Optional[Signature] = None) -> tuple[Plan, Signature]:
    """Load a plan file; the signature comes from the argument (data file)
    or from the file's `rel` header."""
    header_sig, body = plan_file_from_text(read_text(path))
    if signature is None:
        signature = header_sig
    elif header_sig is not None:
        for name in header_sig.symbols():
            if name not in signature or signature.arity(name) != header_sig.arity(name):
                raise FormatError(
                    f"{path}: header declares {name}/{header_sig.arity(name)}, "
                    "which conflicts with the data signature"
                )
    if signature is None:
        raise FormatError(
            f"{path}: no signature available; add `rel <Name> <arity>` header "
            "lines or pass a data file"
        )
    return parse_plan(body, signature), signature


# ---------------------------------------------------------------------------
# Decompositions and reports
# ---------------------------------------------------------------------------


def decomposition_to_json(dec: TreeDecomposition, names=None) -> dict:
    def disp(e):
        return names[e] if names else e

    nodes = []
    for node in dec.nodes:
        entry = {"id": node, "bag": [disp(e) for e in sorted(dec.chi[node])]}
        if isinstance(dec, PDecomposition) and node in dec.node_text:
            entry["subplan"] = dec.node_text[node]
        nodes.append(entry)
    return {
        "nodes": nodes,
        "edges": [list(e) for e in sorted(dec.edges)],
        "root": dec.root,
    }


def decomposition_to_dot(dec: TreeDecomposition, names=None) -> str:
    def disp(e):
        return str(names[e]) if names else str(e)

    lines = ["graph decomposition {"]
    for node in dec.nodes:
        bag = ",".join(disp(e) for e in sorted(dec.chi[node]))
        extra = ""
        if isinstance(dec, PDecomposition) and node in dec.node_text:
            extra = "\\n" + dec.node_text[node].replace('"', "'")
        shape = ' shape=box style=bold' if node == dec.root else " shape=box"
        lines.append(f'  n{node} [label="{{{bag}}}{extra}"{shape}];')
    for a, b in sorted(dec.edges):
        lines.append(f"  n{a} -- n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def width_report_to_json(report: WidthReport, names=None) -> dict:
    def disp(e):
        return names[e] if names else e

    return {
        "width": fraction_str(report.width),
        "bags": [
            {
                "node": node,
                "bag": [disp(e) for e in sorted(report.decomposition.chi[node])],
                "colorNumber": fraction_str(report.bag_colors[node]),
            }
            for node in report.decomposition.nodes
        ],
        "decomposition": decomposition_to_json(report.decomposition, names),
    }


def synthesis_result_to_json(result: SynthesisResult, names=None) -> dict:
    return {
        "plan": print_plan(result.plan),
        "degree": fraction_str(result.degree),
        "decomposition": decomposition_to_json(result.decomposition, names),
        "newRelations": [
            {"name": name, "definingPlan": print_plan(plan)}
            for name, plan in sorted(result.new_relations.items())
        ],
    }


def trace_to_json(trace, names=None) -> dict:
    def disp(e):
        return names[e] if names else e

    return {
        "subplans": [
            {
                "path": list(entry.path),
                "plan": text,
                "cardinality": entry.cardinality,
                "rows": sorted([disp(e) for e in row] for row in entry.rows),
            }
            for entry, text in zip(trace.entries, trace.texts)
        ],
        "maxIntermediate": trace.max_intermediate,
        "output": sorted([disp(e) for e in row] for row in trace.output),
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
