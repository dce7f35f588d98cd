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
signature, then the plan s-expression.  Without a data file the header is
the signature (``equiv``'s two headers merged); with one, the data's is used
and any header is checked against it.

Rationals serialize as `p/q` strings (integers as plain `p`).
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import stat
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Mapping, Optional, Sequence, Union

from .colorwidth import WidthReport
from .constraints import KeySet
from .errors import FormatError, PlanSyntaxError, Record, SignatureError, set_field
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


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8, with the bytes and the new
    file's mode that ``open(path, "w")`` gives on POSIX, but in place: an
    existing file is written over from its start and then cut to the new
    length.  Truncating on open costs several times the write on ext4
    whenever the file already holds data.  Only a regular file is cut;
    ``/dev/null`` or a pipe cannot be."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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


def _listed(value, what: str):
    """``value``, which the document gives as a list; a string or an
    object, which would be read as its characters or keys, is an error.
    Any other value that is not a list fails as it is iterated."""
    if isinstance(value, (str, dict)):
        raise FormatError(f"bad structure document: {what} is not a list")
    return value


def structure_from_json(doc: dict) -> Union[Structure, OpenStructure]:
    try:
        try:
            sig = Signature({str(k): v for k, v in doc["signature"].items()})
        except SignatureError as exc:
            raise FormatError(f"bad structure document: {exc}") from exc
        universe = [str(u) for u in _listed(doc["universe"], "universe")]
        if len(set(universe)) != len(universe):
            raise FormatError("duplicate universe element names")
        ids = {name: i for i, name in enumerate(sorted(universe))}
        relations = {}
        for name, rows in doc.get("relations", {}).items():
            if name not in sig:
                raise FormatError(f"relation {name!r} not in signature")
            out = []
            for row in _listed(rows, f"relation {name!r}"):
                if isinstance(row, (str, dict)):
                    _listed(row, f"a row of {name!r}")
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
            out_tuple = tuple(ids[str(e)] for e in _listed(doc["tuple"], "tuple"))
        except KeyError as exc:
            raise FormatError(f"unknown element {exc} in tuple") from exc
        return OpenStructure(struct, out_tuple)
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad structure document: {exc}") from exc


def load_structure(path: str) -> Union[Structure, OpenStructure]:
    try:
        doc = json.loads(read_text(path))
    except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
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
    """Split a plan file into its optional `rel` header and the plan text,
    which starts at the first line that is not blank, a `#` comment or a
    `rel` line.  A relation declared twice must be declared with one
    arity."""
    header, lines, skipped = _plan_file_lines(text)
    return header, "\n".join(lines[skipped:])


def _plan_file_lines(text: str) -> tuple[Optional[Signature], list[str], int]:
    """:func:`plan_file_from_text`'s header, the file's lines, and the
    number of lines before the plan text."""
    arities: dict[str, int] = {}
    lines = text.splitlines()
    body = len(lines)
    for index, raw in enumerate(lines):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] != "rel":
            body = index
            break
        if len(parts) != 3:
            raise FormatError("expected `rel <Name> <arity>`")
        try:
            arity = int(parts[2])
        except ValueError:
            raise FormatError(f"bad arity {parts[2]!r}") from None
        name = parts[1]
        if arities.setdefault(name, arity) != arity:
            raise FormatError(f"header declares {name!r} with arity {arities[name]} and with arity {arity}")
    return Signature(arities) if arities else None, lines, body


def load_plan(path: str, signature: Optional[Signature] = None) -> tuple[Plan, Signature]:
    """The plan of :func:`load_prepared` and its signature."""
    prepared = load_prepared(path, signature)
    return prepared.plan, prepared.signature


def load_prepared(path: str, signature: Optional[Signature] = None) -> PreparedPlan:
    """Load a plan file, prepared under ``signature`` (a data file's),
    against which the file's `rel` header is checked; without one, under
    the header.  :func:`load_prepared_plans` loads plans read together.

    The file is read on every call; its plan text and the signature key the
    prepared plans that :func:`parse_prepared` keeps, so an edited file is
    parsed again.  A syntax error names the file and its line there."""
    header_sig, lines, skipped = _plan_file_lines(read_text(path))
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
    try:
        return parse_prepared("\n".join(lines[skipped:]), signature)
    except PlanSyntaxError as exc:
        line = exc.line + skipped if exc.line is not None and exc.line > 0 else exc.line
        raise PlanSyntaxError(exc.reason, line, exc.column, path) from None


def load_prepared_plans(paths: Sequence[str], signature: Optional[Signature] = None) -> list[PreparedPlan]:
    """The plan files, each loaded by :func:`load_prepared` under
    ``signature`` (a data file's), else under the union of their headers."""
    if signature is None:
        signature = Signature({})
        for path in paths:
            header, _ = plan_file_from_text(read_text(path))
            try:
                signature = signature.extend(header.as_dict() if header is not None else {})
            except SignatureError as exc:  # two arities for one relation
                raise FormatError(f"{path}: {exc}") from None
        if not signature.symbols():
            raise FormatError("no signature available; add `rel` headers or pass --data")
    return [load_prepared(path, signature) for path in paths]


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


def _dot_escaped(text: str) -> str:
    """``text`` inside a DOT label's quotes: ``\\`` and ``"`` escaped.  Text
    that UTF-8 cannot encode, such as a lone surrogate read from a data
    file's JSON, is a format error."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise FormatError(f"DOT label {text!r} is not UTF-8 text") from None
    return text.replace("\\", "\\\\").replace('"', '\\"')


def decomposition_to_dot(dec: TreeDecomposition, names: Mapping[int, str]) -> str:
    lines = ["graph decomposition {"]
    for node in dec.nodes:
        bag = _dot_escaped(",".join(names[e] for e in sorted(dec.chi[node])))
        extra = ""
        if isinstance(dec, PDecomposition):
            extra = "\\n" + _dot_escaped(dec.node_text[node])
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
    """The ``--trace`` document of ``trace``; ``texts`` prints each
    occurrence.  The occurrences of one subplan, and the root's with the
    output, share one :class:`NamedRows`, named and sorted once."""
    shared: dict[int, NamedRows] = {}
    subplans = []
    for entry, text, number in zip(trace.entries, texts, trace.numbering[0]):
        rows = shared.get(number)
        if rows is None:
            rows = shared[number] = named_rows(entry.rows, names)
        subplans.append(
            {"path": list(entry.path), "plan": text, "cardinality": entry.cardinality, "rows": rows}
        )
    return {
        "subplans": subplans,
        "maxIntermediate": trace.max_intermediate,
        "output": subplans[-1]["rows"],  # the root's occurrence is the last
    }


def named_rows(rows, names: Mapping[int, str]) -> NamedRows:
    """The rows, by their elements' names, in sorted order, as a
    :class:`NamedRows`: the sorted id rows and ``names``.

    :func:`structure_from_json` numbers elements in sorted-name order, so
    on a loaded structure sorting the id rows gives the order of sorting
    the name rows.  No name list is built here: :func:`dumps` encodes each
    distinct element's name once and writes the rows from the ids.  The
    rows, all of one width, take one stable sort per column, last first:
    the order of ``sorted(rows)`` without comparing tuples."""
    ordered = list(rows)
    for column in reversed(range(len(ordered[0]) if ordered else 0)):
        ordered.sort(key=operator.itemgetter(column))
    return NamedRows(tuple(ordered), names)


class NamedRows(Record):
    """A read-only list of name rows kept as sorted id rows and the names
    of their elements.  It compares equal to, has the length of and
    iterates as the list of name lists."""

    __slots__ = ("rows", "names")

    def __init__(self, rows: tuple[tuple[int, ...], ...], names: Mapping[int, str]):
        set_field(self, "rows", rows)
        set_field(self, "names", names)

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

# The encoder of each scalar type the writer renders with one C-level map.
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__}


def dumps(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\n"`` of the document with each
    :class:`NamedRows` as its list of name lists, byte for byte.

    ``indent`` makes the stdlib encode in pure Python, one step per value,
    so this writer renders itself the only types the CLI's documents hold:
    dicts with string keys, lists, strings, ints, booleans, None and
    :class:`NamedRows`.  Any other value, or any other key, raises
    ``TypeError``.  A list of strings or of ints is one C-level map and
    join, and equal-width rows, of a list or of a :class:`NamedRows`, are
    one C-level ``%`` format over their values (see :func:`_write_rows`).
    """
    out: list[str] = []
    _write(doc, 0, out)
    out.append("\n")
    return "".join(out)


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
        if not _write_rows(value.rows, _Encoded(value.names).__getitem__, level, out):
            _write(list(value), level, out)
    elif cls is not dict and cls is not list:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if cls is dict else "[]")
    elif cls is dict:
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(item, level + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * level + "}")
    else:
        kinds = set(map(type, value))
        kind = kinds.pop() if len(kinds) == 1 else None
        encode = _SCALARS.get(kind)
        inner = "\n" + "  " * (level + 1)
        if encode is not None:
            out.append("[" + inner)
            out.append(("," + inner).join(map(encode, value)))
            out.append("\n" + "  " * level + "]")
            return
        if kind is list:
            values = set(map(type, itertools.chain.from_iterable(value)))
            encode = _SCALARS.get(values.pop()) if len(values) == 1 else None
            if encode is not None and _write_rows(value, encode, level, out):
                return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, level + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * level + "]")


def _write_rows(rows, encode, level: int, out: list[str]) -> bool:
    """Append the indent-2 JSON of ``rows``, a sequence of rows of one
    width, as one ``%`` format over their values through ``encode``.
    Returns False, having appended nothing, when the rows are not all of
    one width."""
    widths = set(map(len, rows))
    if len(widths) != 1:
        return False
    (width,) = widths
    inner = "\n" + "  " * (level + 1)
    row_inner = inner + "  "
    row = "[" + row_inner + ("," + row_inner).join(["%s"] * width) + inner + "]" if width else "[]"
    values = tuple(map(encode, itertools.chain.from_iterable(rows)))
    out.append("[" + inner)
    out.append(("," + inner).join([row] * len(rows)) % values)
    out.append("\n" + "  " * level + "]")
    return True


class _Encoded(dict):
    """Element id -> the JSON of its name in ``names``, encoded on first
    lookup."""

    __slots__ = ("names",)

    def __init__(self, names: Mapping[int, str]):
        super().__init__()
        self.names = names

    def __missing__(self, element: int) -> str:
        self[element] = text = encode_basestring_ascii(self.names[element])
        return text
