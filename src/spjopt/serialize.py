"""The project-wide file formats.

Structure JSON:
    {"signature": {"R": 2}, "universe": ["a", "b"],
     "relations": {"R": [["a", "b"]]}, "tuple": ["a"]}
with "tuple" optional (absent means a closed structure).  Element ids are
assigned in sorted-name order, so loading is deterministic.

Keys files: one `key <RelName> <position>` line per unary key (1-based); a
relation may have several.  Blank lines and lines starting with `#` are
ignored.

Plan files: optional `rel <Name> <arity>` header lines declaring the
signature, then the plan s-expression.  Data-free subcommands (optimize,
degree, equiv, ...) need the header; when a data file is given its signature
is used and any header is checked against it.

Rationals serialize as `p/q` strings (integers as plain `p`).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Mapping, Optional, Sequence, Union

from .colorwidth import WidthReport
from .constraints import KeySet
from .errors import FormatError, SignatureError
from .plans import Plan, PreparedPlan, parse_prepared, print_plan
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
        try:
            sig = Signature({str(k): v for k, v in doc["signature"].items()})
        except SignatureError as exc:
            raise FormatError(f"bad structure document: {exc}") from exc
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
        entries.append((parts[1], pos))
    return KeySet(entries)


def load_keys(path: str) -> KeySet:
    return keys_from_text(read_text(path))


# ---------------------------------------------------------------------------
# Plan files
# ---------------------------------------------------------------------------


def plan_file_from_text(text: str) -> tuple[Optional[Signature], str]:
    """Split a plan file into its optional `rel` header and the plan text.
    A relation declared twice must be declared with one arity."""
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
                    arity = int(parts[2])
                except ValueError:
                    raise FormatError(f"bad arity {parts[2]!r}") from None
                name = parts[1]
                if arities.setdefault(name, arity) != arity:
                    raise FormatError(
                        f"header declares {name!r} with arity {arities[name]} and with arity {arity}"
                    )
                continue
            in_header = False
        body_lines.append(raw)
    sig = Signature(arities) if arities else None
    return sig, "\n".join(body_lines)


def load_plan(path: str, signature: Optional[Signature] = None) -> tuple[Plan, Signature]:
    """The plan of :func:`load_prepared` and its signature."""
    prepared = load_prepared(path, signature)
    return prepared.plan, prepared.signature


def load_prepared(path: str, signature: Optional[Signature] = None) -> PreparedPlan:
    """Load a plan file, prepared; the signature comes from the argument
    (data file) or from the file's `rel` header.

    The file is read on every call; its plan text and the signature key the
    prepared plans that :func:`parse_prepared` keeps, so an edited file is
    parsed again."""
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
    return parse_prepared(body, signature)


# ---------------------------------------------------------------------------
# Decompositions and reports
# ---------------------------------------------------------------------------


def decomposition_to_json(dec: TreeDecomposition, names: Mapping[int, str]) -> dict:
    nodes = []
    for node in dec.nodes:
        entry = {"id": node, "bag": [names[e] for e in sorted(dec.chi[node])]}
        if isinstance(dec, PDecomposition):
            entry["subplan"] = dec.node_text[node]
        nodes.append(entry)
    return {
        "nodes": nodes,
        "edges": [list(e) for e in sorted(dec.edges)],
        "root": dec.root,
    }


def decomposition_to_dot(dec: TreeDecomposition, names: Mapping[int, str]) -> str:
    lines = ["graph decomposition {"]
    for node in dec.nodes:
        bag = ",".join(names[e] for e in sorted(dec.chi[node]))
        extra = ""
        if isinstance(dec, PDecomposition):
            extra = "\\n" + dec.node_text[node].replace('"', "'")
        shape = ' shape=box style=bold' if node == dec.root else " shape=box"
        lines.append(f'  n{node} [label="{{{bag}}}{extra}"{shape}];')
    for a, b in sorted(dec.edges):
        lines.append(f"  n{a} -- n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def width_report_to_json(report: WidthReport, names: Mapping[int, str]) -> dict:
    return {
        "width": fraction_str(report.width),
        "bags": [
            {
                "node": node,
                "bag": [names[e] for e in sorted(report.decomposition.chi[node])],
                "colorNumber": fraction_str(report.bag_colors[node]),
            }
            for node in report.decomposition.nodes
        ],
        "decomposition": decomposition_to_json(report.decomposition, names),
    }


def synthesis_result_to_json(result: SynthesisResult, names: Mapping[int, str]) -> dict:
    return {
        "plan": result.plan_text,
        "degree": fraction_str(result.degree),
        "decomposition": decomposition_to_json(result.decomposition, names),
        "newRelations": [
            {"name": name, "definingPlan": print_plan(plan)}
            for name, plan in sorted(result.new_relations.items())
        ],
    }


def trace_to_json(trace, texts: Sequence[str], names: Mapping[int, str]) -> dict:
    """The ``--trace`` document of ``trace``; ``texts`` prints each occurrence."""
    return {
        "subplans": [
            {
                "path": list(entry.path),
                "plan": text,
                "cardinality": entry.cardinality,
                "rows": named_rows(entry.rows, names),
            }
            for entry, text in zip(trace.entries, texts)
        ],
        "maxIntermediate": trace.max_intermediate,
        "output": named_rows(trace.output, names),
    }


def named_rows(rows, names: Mapping[int, str]) -> NamedRows:
    """The rows, by their elements' names, in sorted order, as a
    :class:`NamedRows`: the sorted id rows and ``names``.

    :func:`structure_from_json` numbers elements in sorted-name order, so
    on a loaded structure sorting the id rows gives the order of sorting
    the name rows.  No name list is built here: :func:`dumps` encodes each
    distinct element's name once and writes the rows from the ids."""
    return NamedRows(tuple(sorted(rows)), names)


class NamedRows:
    """A read-only list of name rows kept as sorted id rows and the names
    of their elements.  It compares equal to, has the length of and
    iterates as the list of name lists."""

    __slots__ = ("rows", "names")

    def __init__(self, rows: tuple[tuple[int, ...], ...], names: Mapping[int, str]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "names", names)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        names = self.names
        return ([names[e] for e in row] for row in self.rows)

    def __eq__(self, other) -> bool:
        return list(self) == (list(other) if isinstance(other, NamedRows) else other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


# ---------------------------------------------------------------------------
# Writing JSON
# ---------------------------------------------------------------------------

# The encoder of each scalar type the writer renders itself: a list of
# values of one of these types is rendered by one C-level map and join.
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__}
# Containers nested deeper (a cycle among them) take the stdlib's path.
_MAX_DEPTH = 64


class _Unhandled(Exception):
    """The document holds a value the writer leaves to the stdlib."""


def dumps(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\n"`` of the document with each
    :class:`NamedRows` as its list of name lists, byte for byte.

    ``indent`` makes the stdlib encode in pure Python, one step per value.
    This writer renders dicts, lists, strings, ints, booleans, None and
    :class:`NamedRows` itself; a list of strings or ints is one C-level map
    and join, and a list of equal-length rows of them is one C-level ``%``
    format over its flattened values.  A :class:`NamedRows` is one such
    format over its id rows, through each distinct element's name encoded
    once.  A document holding any other type, or containers nested deeper
    than ``_MAX_DEPTH``, is left to ``json.dumps`` whole, so its bytes and
    its errors are the stdlib's.
    """
    out: list[str] = []
    try:
        _write(doc, 0, out)
    except _Unhandled:
        return json.dumps(doc, indent=2, default=_name_lists) + "\n"
    out.append("\n")
    return "".join(out)


def _name_lists(value) -> list:
    """The stdlib's ``default``: a :class:`NamedRows`'s list of name lists;
    any other value raises the stdlib's error."""
    if type(value) is NamedRows:
        return list(value)
    return json.JSONEncoder().default(value)


def _write(value, level: int, out: list[str]) -> None:
    """Append the indent-2 JSON of ``value``, nested ``level`` deep."""
    cls = type(value)
    encode = _SCALARS.get(cls)
    if encode is not None:
        out.append(encode(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif cls is NamedRows:
        _write_named_rows(value, level, out)
    elif cls is not dict and cls is not list or level >= _MAX_DEPTH:
        raise _Unhandled
    elif not value:
        out.append("{}" if cls is dict else "[]")
    elif cls is dict:
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise _Unhandled
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(item, level + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * level + "}")
    else:
        inner = "\n" + "  " * (level + 1)
        body = _flat_list(value, inner)
        if body is not None:
            out.append("[" + inner + body + "\n" + "  " * level + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, level + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * level + "]")


def _write_named_rows(value: NamedRows, level: int, out: list[str]) -> None:
    """Append the indent-2 JSON of ``value``'s name lists: one ``%`` format
    over its id rows, each distinct element's name encoded once."""
    rows = value.rows
    widths = set(map(len, rows))
    if len(widths) != 1:
        _write(list(value), level, out)
        return
    (width,) = widths
    inner = "\n" + "  " * (level + 1)
    out.append("[" + inner)
    if width:
        values = map(_Encoded(value.names).__getitem__, itertools.chain.from_iterable(rows))
        out.append(_rows_template(len(rows), width, inner) % tuple(values))
    else:
        out.append(("," + inner).join(["[]"] * len(rows)))
    out.append("\n" + "  " * level + "]")


class _Encoded(dict):
    """Element id -> the JSON of its name in ``names``, encoded on first
    lookup."""

    __slots__ = ("names",)

    def __init__(self, names: Mapping[int, str]):
        super().__init__()
        self.names = names

    def __missing__(self, element: int) -> str:
        name = self.names[element]
        encode = _SCALARS.get(type(name))
        if encode is None:
            raise _Unhandled
        self[element] = text = encode(name)
        return text


def _rows_template(count: int, width: int, inner: str) -> str:
    """``count`` rows of ``width`` ``%s`` slots, joined by ``,`` and
    ``inner``."""
    row_inner = inner + "  "
    row = "[" + row_inner + ("," + row_inner).join(["%s"] * width) + inner + "]"
    return ("," + inner).join([row] * count)


def _flat_list(items: list, inner: str) -> Optional[str]:
    """The items of a non-empty list joined by ``,`` and ``inner`` (a
    newline and their indent), when they are all strings, all ints, or
    equal-length lists of one of those; else None."""
    kinds = set(map(type, items))
    if len(kinds) != 1:
        return None
    (kind,) = kinds
    encode = _SCALARS.get(kind)
    if encode is not None:
        return ("," + inner).join(map(encode, items))
    if kind is not list or len(set(map(len, items))) != 1:
        return None
    width = len(items[0])
    if not width:
        return ("," + inner).join(["[]"] * len(items))
    values = list(itertools.chain.from_iterable(items))
    kinds = set(map(type, values))
    encode = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    if encode is None:
        return None
    return _rows_template(len(items), width, inner) % tuple(map(encode, values))
