"""SPJ plan AST, s-expression parsing/printing, and the evaluators.

Identification sets (theta) are stored as written but are interpreted via
their reflexive-symmetric-transitive closure, both for selection semantics
and for the well-behavedness check.

Every plan is evaluated by its compiled program (see
:func:`evaluate_well_behaved`); well-behavedness bounds the rows its join
chains build, and ``JOIN_STEP_CELLS_CAP`` bounds the chains of the joins
that are not well-behaved.  :func:`evaluate_naive` is the reference that
the compiled program is checked against.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import ArityError, PlanSyntaxError, ResourceCapError, SignatureError
from .structures import Signature, Structure


@dataclass(frozen=True)
class Basic:
    relation: str


@dataclass(frozen=True)
class Select:
    theta: frozenset  # of (j, k) pairs, 1-based
    child: "Plan"


@dataclass(frozen=True)
class Project:
    cols: tuple[int, ...]  # 1-based indices into the child, repetition allowed
    child: "Plan"


@dataclass(frozen=True)
class Join:
    theta: frozenset  # of (j, k) pairs over the concatenated columns
    children: tuple["Plan", ...]

    def __post_init__(self):
        if not self.children:
            raise ArityError("join needs at least one child")


Plan = Union[Basic, Select, Project, Join]
# A plan's number_subplans: each occurrence's number, and per number the
# first node with its children's numbers.
Numbering = tuple[list[int], list[tuple[Plan, tuple[int, ...]]]]


def theta_of(pairs) -> frozenset:
    out = set()
    for j, k in pairs:
        out.add((int(j), int(k)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# The plan walk: numbering, arity and validation, counting
# ---------------------------------------------------------------------------


def number_subplans(plan: Plan) -> Numbering:
    """Hash-consing in one iterative pass: number the nodes of ``plan`` so
    that structurally equal subtrees get the same number.

    A node's number is keyed by its operator, its relation, theta or
    columns, and its children's numbers.  Returns each occurrence's number,
    in post-order with the root last, and per number its first node with
    its children's numbers.  Numbers follow the first occurrences in
    post-order, so a child's number is below its parent's and the root's is
    the last.  Every other stage folds over these two lists.
    """
    # Pre-order visiting the last child first, reversed, is the post-order.
    preorder: list[Plan] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        preorder.append(node)
        cls = type(node)
        if cls is Join:
            stack.extend(node.children)
        elif cls is not Basic:
            stack.append(node.child)
    table: dict[tuple, int] = {}
    distinct: list[tuple[Plan, tuple[int, ...]]] = []
    numbers: list[int] = []
    done: list[int] = []  # numbers of finished subtrees whose parent is pending
    for node in reversed(preorder):
        cls = type(node)
        if cls is Basic:
            kids: tuple[int, ...] = ()
            label = node.relation
        elif cls is Join:
            cut = len(done) - len(node.children)
            kids = tuple(done[cut:])
            del done[cut:]
            label = node.theta
        else:
            kids = (done.pop(),)
            label = node.cols if cls is Project else node.theta
        number = table.setdefault((cls, label, kids), len(distinct))
        if number == len(distinct):
            distinct.append((node, kids))
        done.append(number)
        numbers.append(number)
    return numbers, distinct


def occurrence_paths(distinct: list[tuple[Plan, tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """The AST path of every occurrence of :func:`number_subplans`'s plan,
    in the same post-order; the root's path is ``()``."""
    paths: list[tuple[int, ...]] = []
    stack: list[tuple[int, tuple[int, ...]]] = [(len(distinct) - 1, ())]
    while stack:
        number, path = stack.pop()
        paths.append(path)
        stack.extend((kid, path + (i,)) for i, kid in enumerate(distinct[number][1]))
    paths.reverse()
    return paths


def _arities(distinct: list[tuple[Plan, tuple[int, ...]]], signature: Signature) -> list[int]:
    """Arity per number of :func:`number_subplans`.  Raises on unknown
    relations, indices out of range, or non-m-suitable identifications, at
    the first offending occurrence in post-order."""
    out: list[int] = []
    for node, kids in distinct:
        if isinstance(node, Basic):
            m = signature.arity(node.relation)
        elif isinstance(node, Project):
            child = out[kids[0]]
            for c in node.cols:
                if not 1 <= c <= child:
                    raise ArityError(f"projection index {c} out of range [1,{child}]")
            m = len(node.cols)
        else:  # a selection is a 1-way join
            m = sum(out[k] for k in kids)
            _check_theta(node.theta, m)
        out.append(m)
    return out


def _check_theta(theta: frozenset, m: int) -> None:
    for j, k in theta:
        if not (1 <= j <= m and 1 <= k <= m):
            raise ArityError(f"identification {j}={k} not {m}-suitable")


def plan_size(plan: Plan) -> int:
    """Total node count of the syntax tree (shared subtrees counted once per
    occurrence)."""
    return len(number_subplans(plan)[0])


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

# A word is a ``;`` comment, a parenthesis or a maximal run of other
# non-blank characters; an integer or a name must be a whole word, and any
# other run is a bad token.
_WORD = re.compile(r";[^\n]*|[()]|[^ \t\r\n();]+")
_INT = re.compile(r"-?[0-9]+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Operator name -> its class and the keyword of its parameter list.
_HEADS = {"select": (Select, "theta"), "project": (Project, "cols"), "join": (Join, "theta")}


def _words(text: str) -> list[str]:
    """The tokens of a plan text, comments dropped."""
    words = _WORD.findall(text)
    return [w for w in words if w[0] != ";"] if ";" in text else words


def _word_kind(word: str) -> Optional[str]:
    """``(``, ``)``, ``int`` or ``name``; None for a bad token."""
    if word == "(" or word == ")":
        return word
    if _INT.fullmatch(word):
        return "int"
    return "name" if _NAME.fullmatch(word) else None


def _syntax_error(text: str, index: int, message: str) -> PlanSyntaxError:
    """The error at the ``index``-th token of :func:`_words`, at its 1-based
    line and column (-1, -1 past the last token)."""
    words = (m for m in _WORD.finditer(text) if m.group()[0] != ";")
    match = next(itertools.islice(words, index, None), None)
    if match is None:
        return PlanSyntaxError(message, -1, -1)
    offset = match.start()
    line = text.count("\n", 0, offset) + 1
    return PlanSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


def parse_plan(text: str, signature: Optional[Signature] = None) -> Plan:
    """Parse the s-expression plan grammar.

      plan := NAME | (select (theta PAIR*) plan)
                   | (project (cols INT*) plan)
                   | (join (theta PAIR*) plan plan*)
      PAIR := (INT INT)

    With a signature, arity violations and unknown relations are rejected.
    A bad token anywhere is reported before any grammar error.  Equal
    subtrees are one object (see :func:`_parse`).
    """
    numbering = _parse(text)
    if signature is not None:
        _validated_arities(numbering[1], signature)
    return numbering[1][-1][0]


def _validated_arities(
    distinct: list[tuple[Plan, tuple[int, ...]]], signature: Signature
) -> list[int]:
    """:func:`_arities` of a parsed plan, an unknown relation being a
    syntax error."""
    try:
        return _arities(distinct, signature)
    except SignatureError as exc:
        raise PlanSyntaxError(str(exc)) from exc


def _parse(text: str) -> Numbering:
    """The parser of :func:`parse_plan`: the parsed plan's
    :func:`number_subplans`, built as it parses.

    One loop reads the tokens; the operators still waiting for a child or
    their ``)`` are kept on an explicit stack, so nesting depth is bounded
    only by memory.  Every completed node is interned under the key of
    :func:`number_subplans`, and nodes complete in its post-order, so its
    table and its occurrence numbers are the ones ``number_subplans`` of
    the parsed plan builds, and equal subtrees become one object.
    """
    words = _words(text)
    kinds = {w: _word_kind(w) for w in set(words)}
    if None in kinds.values():
        index = next(i for i, w in enumerate(words) if kinds[w] is None)
        raise _syntax_error(text, index, f"bad token {words[index]!r}")
    # End-of-input sentinels: a read never runs past them, and "" is the
    # value an error reports there.
    words += [""] * 4
    kinds[""] = "eof"
    table: dict[tuple, int] = {}
    distinct: list[tuple[Plan, tuple[int, ...]]] = []
    numbers: list[int] = []
    # (operator class, theta or columns, numbers of the children parsed so far)
    open_ops: list[tuple[type, object, list[int]]] = []
    i = 0
    while True:
        word = words[i]
        if word == "(":
            head = words[i + 1]
            if head not in _HEADS:
                if kinds[head] == "name":
                    raise _syntax_error(text, i + 1, f"unknown operator {head!r}")
                raise _syntax_error(text, i + 1, f"expected 'name', got {head!r}")
            cls, label = _HEADS[head]
            if words[i + 2] != "(":
                raise _syntax_error(text, i + 2, f"expected '(', got {words[i + 2]!r}")
            if words[i + 3] != label:
                raise _syntax_error(text, i + 3, f"expected {label!r}, got {words[i + 3]!r}")
            i += 4
            if cls is Project:
                cols = []
                while kinds[words[i]] == "int":
                    cols.append(int(words[i]))
                    i += 1
                open_ops.append((cls, tuple(cols), []))
            else:
                pairs = []
                while words[i] == "(":
                    j, k = words[i + 1], words[i + 2]
                    if kinds[j] != "int":
                        raise _syntax_error(text, i + 1, f"expected 'int', got {j!r}")
                    if kinds[k] != "int":
                        raise _syntax_error(text, i + 2, f"expected 'int', got {k!r}")
                    if words[i + 3] != ")":
                        raise _syntax_error(text, i + 3, f"expected ')', got {words[i + 3]!r}")
                    pairs.append((int(j), int(k)))
                    i += 4
                open_ops.append((cls, frozenset(pairs), []))
            if words[i] != ")":
                raise _syntax_error(text, i, f"expected ')', got {words[i]!r}")
            i += 1
            continue
        if kinds[word] != "name":
            raise _syntax_error(text, i, f"expected plan, got {word!r}")
        i += 1
        key: tuple = (Basic, word, ())
        number = table.get(key)
        if number is None:
            number = table[key] = len(distinct)
            distinct.append((Basic(word), ()))
        numbers.append(number)
        # Close every operator that this plan completes; a join may take
        # another child instead.
        while open_ops:
            cls, param, kids = open_ops[-1]
            kids.append(number)
            if words[i] != ")":
                if cls is Join:
                    break
                raise _syntax_error(text, i, f"expected ')', got {words[i]!r}")
            i += 1
            open_ops.pop()
            key = (cls, param, tuple(kids))
            number = table.get(key)
            if number is None:
                number = table[key] = len(distinct)
                if cls is Join:
                    node = Join(param, tuple(distinct[k][0] for k in kids))
                else:
                    node = cls(param, distinct[kids[0]][0])
                distinct.append((node, key[2]))
            numbers.append(number)
        if not open_ops:
            break
    if words[i]:
        raise _syntax_error(text, i, f"trailing input {words[i]!r}")
    return numbers, distinct


def plan_texts(distinct: list[tuple[Plan, tuple[int, ...]]]) -> list[str]:
    """The printed form per number of :func:`number_subplans`."""
    out: list[str] = []
    for node, kids in distinct:
        out.append(_node_text(node, [out[k] for k in kids]))
    return out


def _head(node: Plan) -> str:
    """The printed form of an operator ``node`` up to its first child."""
    if isinstance(node, Project):
        cols = " ".join(map(str, node.cols))
        return f"(project (cols{' ' if cols else ''}{cols})"
    return f"({'select' if isinstance(node, Select) else 'join'} {_print_theta(node.theta)}"


def _node_text(node: Plan, kid_texts: list[str]) -> str:
    """The printed form of ``node`` whose children print as ``kid_texts``."""
    if isinstance(node, Basic):
        return node.relation
    return f"{_head(node)} {' '.join(kid_texts)})"


# The most characters of subplan text one output may print.  ``represent``
# and ``evaluate --trace`` or ``--format text`` print every occurrence's
# whole subplan, so their text grows with the square of a plan's depth:
# 2.4 GB of memory for the 4,000-level project/join chain.  The 1,200
# nested selections of the deep-plan tests print about 17 million.
PRINTED_SUBPLANS_CAP = 50_000_000


def check_printed_subplans(numbering: Numbering) -> None:
    """Raise :class:`ResourceCapError` when printing the subplan of every
    occurrence of a plan with :func:`number_subplans` ``numbering`` takes
    more than ``PRINTED_SUBPLANS_CAP`` characters.  The lengths are summed
    per number, in one pass, without building any subplan's text."""
    numbers, distinct = numbering
    lengths: list[int] = []
    for node, kids in distinct:
        own = len(_node_text(node, [""] * len(kids)))
        lengths.append(own + sum(lengths[k] for k in kids))
    total = sum(map(lengths.__getitem__, numbers))
    if total > PRINTED_SUBPLANS_CAP:
        raise ResourceCapError(
            f"printed subplans capped at {PRINTED_SUBPLANS_CAP} characters, "
            f"the plan's occurrences print {total}"
        )


def print_plan(plan: Plan) -> str:
    """The s-expression of ``plan``, as :func:`parse_plan` reads it (see
    :func:`print_numbered`)."""
    return print_numbered(number_subplans(plan)[1])


# The longest subplan text the printer keeps whole, to copy into each of
# the subplan's occurrences; a longer one is written piece by piece.
_KEPT_TEXT = 1024


def print_numbered(distinct: list[tuple[Plan, tuple[int, ...]]]) -> str:
    """The printed plan whose :func:`number_subplans` is ``distinct``.

    A subplan whose text has at most ``_KEPT_TEXT`` characters is printed
    once, per number; the others are written by one walk with an explicit
    stack that appends their pieces to one list.  A plan's subplans are all
    printed in its text, so memory is linear in the output, not in the
    total text of every subplan, which grows with the square of the depth.
    """
    texts: list[Optional[str]] = []
    for node, kids in distinct:
        kid_texts = [texts[k] for k in kids]
        text = None if None in kid_texts else _node_text(node, kid_texts)
        # A relation name is kept whatever its length: it has no pieces.
        kept = text is not None and (len(text) <= _KEPT_TEXT or not kids)
        texts.append(text if kept else None)
    out: list[str] = []
    # Numbers still to print, and the strings that separate or close them.
    stack: list = [len(distinct) - 1]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        text = texts[item]
        if text is not None:
            out.append(text)
            continue
        node, kids = distinct[item]
        out.append(_head(node))
        stack.append(")")
        for kid in reversed(kids):
            stack.append(kid)
            stack.append(" ")
    return "".join(out)


def _print_theta(theta: frozenset) -> str:
    pairs = " ".join(f"({j} {k})" for j, k in sorted(theta))
    return f"(theta{' ' if pairs else ''}{pairs})"


# ---------------------------------------------------------------------------
# Well-behavedness
# ---------------------------------------------------------------------------


def _link(parent: list[int], a: int, b: int) -> None:
    """Merge the classes of ``a`` and ``b`` in the union-find ``parent``, a
    list of parent indices: each find halves its path, and the larger root
    is linked under the smaller, so a class's root is its smallest index."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    while parent[b] != b:
        parent[b] = parent[parent[b]]
        b = parent[b]
    if a < b:
        parent[b] = a
    elif b < a:
        parent[a] = b


def _flatten(parent: list[int]) -> None:
    """Point every index of the union-find ``parent`` (see :func:`_link`)
    at its root.  Every link points to a smaller index, so in increasing
    order an index's parent already holds its root."""
    for i, up in enumerate(parent):
        parent[i] = parent[up]


def _column_classes(theta: frozenset, s: int) -> list[int]:
    """Representative column per 1-based index (0 stands alone) under the
    closure of theta: the smallest column of its class."""
    parent = list(range(s + 1))
    for a, b in theta:
        _link(parent, a, b)
    _flatten(parent)
    return parent


def is_well_behaved(plan: Plan, signature: Signature) -> tuple[bool, Optional[Plan]]:
    """Whether every join subplan adds at most one column of new information.

    Returns (True, None) or (False, offending join subplan), the first
    offending join occurrence in post-order.  Each distinct join is checked
    once (see :func:`number_subplans`).
    """
    offender = prepare(plan, signature).offender
    return offender is None, offender


def _check_joins(
    distinct: list[tuple[Plan, tuple[int, ...]]], arities: list[int]
) -> tuple[Optional[Join], dict[int, list[int]]]:
    """The first join of :func:`number_subplans`'s ``distinct`` that is not
    well-behaved, or None, and the :func:`_column_classes` of every join,
    by number.  Numbers follow the first occurrences in post-order, so this
    is also the first offending occurrence.

    A join is well-behaved when some column k makes every column past the
    first child's equated (under the closure of theta) with a first-child
    column or k, that is, when those columns meet at most one class outside
    the first child's.  A class's representative is its smallest column, so
    a class outside the first child's is one whose representative lies past
    the first child's columns.
    """
    offender = None
    classes_of: dict[int, list[int]] = {}
    for number, (node, kids) in enumerate(distinct):
        if type(node) is Join:
            m1 = arities[kids[0]]
            s = m1 + sum(arities[k] for k in kids[1:])
            classes = classes_of[number] = _column_classes(node.theta, s)
            if offender is None and sum(classes[i] == i for i in range(m1 + 1, s + 1)) > 1:
                offender = node
    return offender, classes_of


# ---------------------------------------------------------------------------
# Prepared plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PreparedPlan:
    """A plan with what every stage reads off it: its :func:`number_subplans`
    and the arity per number under ``signature``.  Every stage after
    loading (representation, core, degree analysis, evaluation,
    equivalence) takes the prepared plan, built by :func:`prepare` or
    :func:`parse_prepared`, and reads the plan and signature off it.

    Its first offending join (see :func:`_check_joins`) and its evaluation
    program are derived on first access, so a stage that never evaluates
    never compiles.  A prepared plan may be shared (see
    :func:`parse_prepared`): no stage changes it.
    """

    plan: Plan
    signature: Signature
    numbering: Numbering
    arities: list[int]

    @functools.cached_property
    def _joins(self) -> tuple[Optional[Join], dict[int, list[int]]]:
        return _check_joins(self.numbering[1], self.arities)

    @property
    def offender(self) -> Optional[Join]:
        """The first join occurrence, in post-order, that is not
        well-behaved, or None."""
        return self._joins[0]

    @functools.cached_property
    def program(self) -> list[tuple]:
        """The :func:`evaluate_well_behaved` program: per number an
        ``(op, arg, kids)`` step.  ``op`` is ``"rel"`` (read relation
        ``arg``), ``"same"`` (the child's rows themselves), ``"filter"`` or
        ``"map"`` (the child's rows through ``arg``) or ``"join"`` (the join
        program ``arg``, see :func:`_compile_join`)."""
        classes_of = self._joins[1]
        arities = self.arities
        program = []
        for number, (node, kids) in enumerate(self.numbering[1]):
            cls = type(node)
            if cls is Basic:
                step = ("rel", node.relation, kids)
            elif cls is Select:
                pairs = [(j - 1, k - 1) for j, k in sorted(node.theta) if j != k]
                step = ("filter", _equal_at(pairs), kids) if pairs else ("same", None, kids)
            elif cls is Project:
                if node.cols == tuple(range(1, arities[kids[0]] + 1)):
                    step = ("same", None, kids)
                else:
                    step = ("map", _getter([c - 1 for c in node.cols]), kids)
            else:
                step = ("join", _compile_join(classes_of[number], [arities[k] for k in kids]), kids)
            program.append(step)
        return program


def prepare(plan: Plan, signature: Signature) -> PreparedPlan:
    """``plan`` prepared under ``signature``; raises as :func:`_arities`."""
    numbering = number_subplans(plan)
    return PreparedPlan(plan, signature, numbering, _arities(numbering[1], signature))


# The most prepared plans a process keeps.  A long-lived process that runs
# many ops on a few plans parses and compiles each once; a cached entry
# holds its plan's nodes, numbering and program.
PREPARED_PLANS_CACHED = 8


@functools.lru_cache(maxsize=PREPARED_PLANS_CACHED)
def parse_prepared(text: str, signature: Signature) -> PreparedPlan:
    """The plan ``text`` parsed and prepared under ``signature``, with the
    parser's own numbering.

    The last ``PREPARED_PLANS_CACHED`` results are kept, keyed by the text
    and the signature, so a later call with equal arguments returns the
    same prepared plan.  A text that fails to parse or validate raises as
    :func:`parse_plan` does and is not kept.
    """
    numbering = _parse(text)
    return PreparedPlan(
        numbering[1][-1][0], signature, numbering, _validated_arities(numbering[1], signature)
    )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEntry:
    """One subplan occurrence: its AST path, its node and its output rows."""

    path: tuple[int, ...]
    node: Plan
    rows: frozenset

    @property
    def cardinality(self) -> int:
        return len(self.rows)


@dataclass
class EvalTrace:
    """What an evaluator computed: ``numbering``, the evaluated plan's
    :func:`number_subplans`, and ``rows``, the output rows per number, the
    root's last.

    ``max_intermediate`` is the maximum cardinality over subplan outputs,
    the finite-instance counterpart of intermediate degree.  The
    compiled evaluator additionally reports ``internal_peak``, the
    largest relation its binary-join chains ever materialize.  The
    per-occurrence ``entries`` and ``texts`` are built on first access.
    """

    numbering: tuple = ((), ())
    rows: list[frozenset] = field(default_factory=list)
    internal_peak: int = 0

    @property
    def output(self) -> frozenset:
        return self.rows[-1]

    @property
    def max_intermediate(self) -> int:
        return max(map(len, self.rows), default=0)

    @functools.cached_property
    def entries(self) -> list[TraceEntry]:
        """One entry per occurrence, in post-order (root last); the
        occurrences of one subplan share its rows."""
        numbers, distinct = self.numbering
        return [
            TraceEntry(path, distinct[n][0], self.rows[n])
            for path, n in zip(occurrence_paths(distinct), numbers)
        ]

    @functools.cached_property
    def texts(self) -> list[str]:
        """Each entry's subplan, printed from the evaluator's numbering."""
        numbers, distinct = self.numbering
        texts = plan_texts(distinct)
        return [texts[n] for n in numbers]


def _select_rows(rows, theta):
    return frozenset(
        t for t in rows if all(t[j - 1] == t[k - 1] for j, k in theta)
    )


def evaluate_naive(plan: Plan, data: Structure) -> EvalTrace:
    """Reference evaluator: the four inductive cases, verbatim.

    Joins materialize the cross product lazily and filter by theta, so the
    running time (not the memory) is proportional to the product size.
    Each distinct subplan (see :func:`number_subplans`) is evaluated once.
    """
    prepared = prepare(plan, data.signature)  # raises on an ill-formed plan
    trace = EvalTrace(prepared.numbering)
    rows_of = trace.rows
    for node, kids in prepared.numbering[1]:
        if isinstance(node, Basic):
            rows = data.relations[node.relation]
        elif isinstance(node, Select):
            rows = _select_rows(rows_of[kids[0]], node.theta)
        elif isinstance(node, Project):
            rows = frozenset(tuple(t[c - 1] for c in node.cols) for t in rows_of[kids[0]])
        else:
            theta = node.theta
            rows = frozenset(
                flat
                for combo in itertools.product(*[sorted(rows_of[k]) for k in kids])
                for flat in (tuple(itertools.chain.from_iterable(combo)),)
                if all(flat[j - 1] == flat[k - 1] for j, k in theta)
            )
        rows_of.append(rows)
    return trace


def _getter(positions) -> operator.itemgetter:
    """The tuple of a row's values at the 0-based ``positions``.  A slice
    stands in for zero or one position: ``itemgetter()`` raises, and
    ``itemgetter(i)`` returns the value, not a 1-tuple."""
    if len(positions) == 1:
        return operator.itemgetter(slice(positions[0], positions[0] + 1))
    return operator.itemgetter(*positions) if positions else operator.itemgetter(slice(0))


def _equal_at(pairs):
    """A filter for rows equal at each 0-based ``(a, b)`` of ``pairs``."""
    left = _getter([a for a, _ in pairs])
    right = _getter([b for _, b in pairs])
    return lambda t: left(t) == right(t)


def evaluate_well_behaved(prepared: PreparedPlan, data: Structure) -> EvalTrace:
    """The evaluator of every plan, ``prepared`` under the data's signature.
    It keeps the name that the benchmark's tracer wraps: well-behavedness
    decides how large its join chains may grow, not whether it runs.

    Each distinct subplan (see :func:`number_subplans`) is evaluated once,
    by the prepared plan's program (:attr:`PreparedPlan.program`), which is
    compiled once per prepared plan from the column classes that decide
    well-behavedness.

    Multiway joins run as a left-deep chain of binary hash joins over the
    columns' theta-closure classes.  The chain carries one value per
    already-bound class, so no step of a well-behaved join materializes
    more than |out(q1, D)| x |dom(D)| rows; a step of any join raises
    :class:`ResourceCapError` before it builds more than
    ``JOIN_STEP_CELLS_CAP`` cells, its rows times its slots.  Each
    operator's column positions are compiled into ``itemgetter``s once, not
    once per row.  An operator that keeps every row as it is (a projection
    onto all columns in order, a selection with no identification, a
    one-child join with no identification) returns its child's rows
    themselves.
    """
    program = prepared.program
    trace = EvalTrace(prepared.numbering)
    relations = data.relations
    rows_of = trace.rows
    for op, arg, kids in program:
        if op == "rel":
            rows = relations[arg]
        elif op == "same":
            rows = rows_of[kids[0]]
        elif op == "filter":
            rows = frozenset(filter(arg, rows_of[kids[0]]))
        elif op == "map":
            rows = frozenset(map(arg, rows_of[kids[0]]))
        else:
            rows = _run_join(arg, [rows_of[k] for k in kids], trace)
        rows_of.append(rows)
    return trace


# A join compiled from its column classes: ``(steps, final)``.  ``steps``
# has one ``(equal, key, extend, probe, slots)`` per child: the filter for
# the identifications inside the child (None when it has none), the getters
# of the child's key and of its new columns, the getter of the chain slots
# its key must equal, and the number of slots once its columns are bound.
# ``final`` reads the output columns back from the slots, None when the
# slots are already in column order.
_JoinProgram = tuple[list[tuple], Optional[operator.itemgetter]]


def _compile_join(classes: list[int], arities: list[int]) -> _JoinProgram:
    """The program of a join with :func:`_column_classes` ``classes`` whose
    children have the arities ``arities``.

    Slots are the bound classes, in binding order: a child's columns are
    keys when their class is bound, new when they are the first of an
    unbound class, and otherwise equal to that first column.
    """
    bound: dict[int, int] = {}  # class representative -> slot
    steps = []
    off = 0
    for m in arities:
        keys: list[tuple[int, int]] = []  # (local position, slot it must equal)
        equal: list[tuple[int, int]] = []  # (local position, first one of its class)
        first: dict[int, int] = {}  # unbound class -> its first local position
        for local in range(m):
            cls = classes[off + local + 1]
            if cls in bound:
                keys.append((local, bound[cls]))
            elif cls in first:
                equal.append((local, first[cls]))
            else:
                first[cls] = local
        off += m
        steps.append((
            _equal_at(equal) if equal else None,
            _getter([local for local, _ in keys]),
            _getter(list(first.values())),
            _getter([slot for _, slot in keys]),
            len(bound) + len(first),
        ))
        for cls in first:
            bound[cls] = len(bound)
    slots = [bound[cls] for cls in classes[1:]]
    return steps, None if slots == list(range(len(slots))) else _getter(slots)


# The most cells (rows times slots) one step of a join chain may build, so
# that a step's memory, not only its row count, is bounded: a 1 GB process
# holds the 12.8 million cells of the unkeyed Mobius 12-ladder's largest
# step (1,062,882 rows of 12 slots, a 220 MB peak) but not the next, of
# 41.5 million.  Apart from the tests of this cap and of unkeyed pattern
# plans, whose largest evaluated step is 21.3 million cells, the test
# suite's largest step is 444,528 cells and the benchmark's 52,488.
JOIN_STEP_CELLS_CAP = 30_000_000


def _run_join(program: _JoinProgram, outs: list[frozenset], trace: EvalTrace) -> frozenset:
    """The join of the children's rows ``outs`` by ``program``; raises
    ``trace.internal_peak`` to the largest relation the chain builds.

    The first child has no key, so its rows (filtered and narrowed to its
    new columns) start the chain, and with no identification inside it
    they are the chain's rows themselves.  Before a later step is built,
    its cells are bounded by the chain's rows times the largest bucket
    times the step's slots, and only when that bound passes
    ``JOIN_STEP_CELLS_CAP`` are its rows counted exactly, as the sum of the
    probed buckets' lengths; past the cap the join raises
    :class:`ResourceCapError`.  The order of the input rows is never used:
    the result is a set, and the peak counts rows.
    """
    steps, final = program
    current = None
    for out, (equal, key, extend, probe, slots) in zip(outs, steps):
        rows = out if equal is None else filter(equal, out)
        if current is None:
            current = out if equal is None else list(map(extend, rows))
        else:
            table: dict[tuple, list] = {}
            for t in rows:
                table.setdefault(key(t), []).append(extend(t))
            if len(current) * max(map(len, table.values()), default=0) * slots > JOIN_STEP_CELLS_CAP:
                size = sum(len(table.get(probe(row), ())) for row in current)
                if size * slots > JOIN_STEP_CELLS_CAP:
                    raise ResourceCapError(
                        f"join chain capped at {JOIN_STEP_CELLS_CAP} cells per step, "
                        f"a step needs {size * slots} ({size} rows of {slots} slots)"
                    )
            current = [row + ext for row in current for ext in table.get(probe(row), ())]
        trace.internal_peak = max(trace.internal_peak, len(current))
    return frozenset(current) if final is None else frozenset(map(final, current))
