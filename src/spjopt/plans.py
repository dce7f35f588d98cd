"""SPJ plan AST, s-expression parsing/printing, and the evaluators.

Identification sets (theta) are stored as written but are interpreted via
their reflexive-symmetric-transitive closure, both for selection semantics
and for the well-behavedness check.

Every plan is evaluated by its compiled program (see
:func:`evaluate_well_behaved`); well-behavedness bounds the rows its join
chains build, and ``errors.JOIN_STEP_WORDS_CAP`` bounds the chains of the joins
that are not well-behaved.  :func:`evaluate_naive` is the reference that
the compiled program is checked against.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import sys
from typing import Optional, Union

from . import errors
from .errors import ArityError, PlanSyntaxError, Record, ResourceCapError, SignatureError, set_field
from .structures import Signature, Structure, flatten, link


class Basic(Record):
    __slots__ = ("relation",)

    def __init__(self, relation: str):
        set_field(self, "relation", relation)


class Select(Record):
    __slots__ = ("theta", "child")

    def __init__(self, theta: frozenset, child: "Plan"):
        set_field(self, "theta", theta)  # of (j, k) pairs, 1-based
        set_field(self, "child", child)


class Project(Record):
    __slots__ = ("cols", "child")

    def __init__(self, cols: tuple[int, ...], child: "Plan"):
        set_field(self, "cols", cols)  # 1-based indices into the child, repetition allowed
        set_field(self, "child", child)


class Join(Record):
    __slots__ = ("theta", "children")

    def __init__(self, theta: frozenset, children: tuple["Plan", ...]):
        if not children:
            raise ArityError("join needs at least one child")
        set_field(self, "theta", theta)  # of (j, k) pairs over the concatenated columns
        set_field(self, "children", children)


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

    With a signature, arity violations and unknown relations are rejected,
    as :func:`prepare` finds them.  A bad token anywhere, or an int past
    Python's digit limit, is reported before any grammar error.  The plan
    is a tree: equal subtrees are equal, not one object.
    """
    plan = _parse(text)
    if signature is not None:
        _prepare_parsed(plan, signature)
    return plan


def _prepare_parsed(plan: Plan, signature: Signature) -> PreparedPlan:
    """:func:`prepare` of a parsed plan, an unknown relation being a
    syntax error."""
    try:
        return prepare(plan, signature)
    except SignatureError as exc:
        raise PlanSyntaxError(str(exc)) from exc


def _parse(text: str) -> Plan:
    """The parser of :func:`parse_plan`: the parsed plan's root.

    One loop reads the tokens; the operators still waiting for a child or
    their ``)`` are kept on an explicit stack, so nesting depth is bounded
    only by memory.
    """
    words = _words(text)
    kinds = {w: _word_kind(w) for w in set(words)}
    if None in kinds.values():
        index = next(i for i, w in enumerate(words) if kinds[w] is None)
        raise _syntax_error(text, index, f"bad token {words[index]!r}")
    try:
        ints = {w: int(w) for w, kind in kinds.items() if kind == "int"}
    except ValueError:  # more digits than Python converts to an int
        limit = sys.get_int_max_str_digits()
        index = next(i for i, w in enumerate(words) if kinds[w] == "int" and len(w.lstrip("-")) > limit)
        raise _syntax_error(text, index, f"integer exceeds the {limit}-digit limit") from None
    # End-of-input sentinels: a read never runs past them, and "" is the
    # value an error reports there.
    words += [""] * 4
    kinds[""] = "eof"
    # (operator class, theta or columns, the children parsed so far)
    open_ops: list[tuple[type, object, list[Plan]]] = []
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
                    cols.append(ints[words[i]])
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
                    pairs.append((ints[j], ints[k]))
                    i += 4
                open_ops.append((cls, frozenset(pairs), []))
            if words[i] != ")":
                raise _syntax_error(text, i, f"expected ')', got {words[i]!r}")
            i += 1
            continue
        if kinds[word] != "name":
            raise _syntax_error(text, i, f"expected plan, got {word!r}")
        i += 1
        node: Plan = Basic(word)
        # Close every operator that this plan completes; a join may take
        # another child instead.
        while open_ops:
            cls, param, kids = open_ops[-1]
            kids.append(node)
            if words[i] != ")":
                if cls is Join:
                    break
                raise _syntax_error(text, i, f"expected ')', got {words[i]!r}")
            i += 1
            open_ops.pop()
            node = Join(param, tuple(kids)) if cls is Join else cls(param, kids[0])
        if not open_ops:
            break
    if words[i]:
        raise _syntax_error(text, i, f"trailing input {words[i]!r}")
    return node


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


def subplan_texts(numbering: Numbering) -> list[str]:
    """Each occurrence's subplan, printed, for a plan with
    :func:`number_subplans` ``numbering``: one string per occurrence, in
    post-order (root last); the occurrences of one subplan share one string.

    The lengths are summed per number first, in one pass, and a total of
    more than ``errors.PRINTED_SUBPLANS_CAP`` characters raises
    :class:`ResourceCapError` before any subplan's text is built."""
    numbers, distinct = numbering
    lengths: list[int] = []
    for node, kids in distinct:
        own = len(_node_text(node, [""] * len(kids)))
        lengths.append(own + sum(lengths[k] for k in kids))
    total = sum(map(lengths.__getitem__, numbers))
    if total > errors.PRINTED_SUBPLANS_CAP:
        raise ResourceCapError(
            f"printed subplans capped at {errors.PRINTED_SUBPLANS_CAP} characters, "
            f"the plan's occurrences print {total}"
        )
    texts: list[str] = []
    for node, kids in distinct:
        texts.append(_node_text(node, [texts[k] for k in kids]))
    return [texts[n] for n in numbers]


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


def _column_classes(theta: frozenset, s: int) -> list[int]:
    """Representative column per 1-based index (0 stands alone) under the
    closure of theta: the smallest column of its class."""
    parent = list(range(s + 1))
    for a, b in theta:
        link(parent, a, b)
    flatten(parent)
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


class PreparedPlan(Record):
    """A plan with what every stage reads off it: its :func:`number_subplans`
    and the arity per number under ``signature``.  Every stage after
    loading (representation, core, degree analysis, evaluation,
    equivalence) takes the prepared plan, built by :func:`prepare` (a
    parsed one through :func:`parse_prepared`), and reads the plan and
    signature off it.

    Its first offending join (see :func:`_check_joins`) and its evaluation
    program are derived on first access, so a stage that never evaluates
    never compiles.  A prepared plan may be shared (see
    :func:`parse_prepared`): no stage changes it.
    """

    __slots__ = ("plan", "signature", "numbering", "arities", "__dict__")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, plan: Plan, signature: Signature, numbering: Numbering, arities: list[int]):
        set_field(self, "plan", plan)
        set_field(self, "signature", signature)
        set_field(self, "numbering", numbering)
        set_field(self, "arities", arities)

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
        ``"map"`` (the child's rows through ``arg``), or ``"join"`` or
        ``"slots"``, whose ``arg`` is the steps of the join's
        :func:`_compile_join` program and the getter of its column rows
        from its slots (None when the slots are in column order).

        A join that only projections read keeps its chain rows, one value
        per slot, when its slots are not in column order: its step is
        ``"slots"``, and each projection that reads it is compiled through
        its slot per column, onto the slots in order as ``"same"`` and
        otherwise as one getter.  Its column rows are built by
        :class:`EvalTrace` only when they are read.  Every other join, the
        root too, is ``"join"`` and stores its column rows."""
        classes_of = self._joins[1]
        arities = self.arities
        distinct = self.numbering[1]
        # The numbers some reader other than a projection reads; the root.
        column_read = {len(distinct) - 1}
        for node, kids in distinct:
            if type(node) is not Project:
                column_read.update(kids)
        layouts: dict[int, list[int]] = {}  # a "slots" join's slot per column
        program = []
        for number, (node, kids) in enumerate(distinct):
            cls = type(node)
            if cls is Basic:
                step = ("rel", node.relation, kids)
            elif cls is Select:
                pairs = [(j - 1, k - 1) for j, k in sorted(node.theta) if j != k]
                step = ("filter", _equal_at(pairs), kids) if pairs else ("same", None, kids)
            elif cls is Project:
                layout = layouts.get(kids[0])
                if layout is None:
                    positions, width = [c - 1 for c in node.cols], arities[kids[0]]
                else:
                    positions, width = [layout[c - 1] for c in node.cols], len(set(layout))
                if positions == list(range(width)):
                    step = ("same", None, kids)
                else:
                    step = ("map", row_getter(positions), kids)
            else:
                steps, slots = _compile_join(classes_of[number], [arities[k] for k in kids])
                columns = None if slots == list(range(len(slots))) else row_getter(slots)
                if columns is None or number in column_read:
                    step = ("join", (steps, columns), kids)
                else:
                    layouts[number] = slots
                    step = ("slots", (steps, columns), kids)
            program.append(step)
        return program


def prepare(plan: Plan, signature: Signature) -> PreparedPlan:
    """``plan`` prepared under ``signature``; raises as :func:`_arities`."""
    numbering = number_subplans(plan)
    return PreparedPlan(plan, signature, numbering, _arities(numbering[1], signature))


# The most prepared plans a process keeps, keyed by the plan text and the
# signature.  Parsing a text keeps its prepared plan, and so does printing
# one (see :func:`print_prepared`): a long-lived process that runs many ops
# on a few plans parses and compiles each once, and a plan it printed, such
# as ``optimize``'s synthesized plan, is not parsed when it is read back.  A
# kept entry holds its plan's nodes, numbering and program.
PREPARED_PLANS_CACHED = 8

# The kept prepared plans by (text, signature), least recently used first.
_prepared_plans: dict[tuple[str, Signature], PreparedPlan] = {}


def _keep(key: tuple[str, Signature], prepared: PreparedPlan) -> PreparedPlan:
    """Keep ``prepared`` under ``key`` as the most recently used entry,
    evicting the least recently used one past ``PREPARED_PLANS_CACHED``."""
    _prepared_plans.pop(key, None)
    _prepared_plans[key] = prepared
    if len(_prepared_plans) > PREPARED_PLANS_CACHED:
        del _prepared_plans[next(iter(_prepared_plans))]
    return prepared


def parse_prepared(text: str, signature: Signature) -> PreparedPlan:
    """The plan ``text`` parsed and prepared under ``signature`` (see
    :func:`prepare`).

    The last ``PREPARED_PLANS_CACHED`` prepared plans parsed or printed
    (see :func:`print_prepared`) are kept, keyed by the text and the
    signature, so a later call with equal arguments returns the same
    prepared plan without parsing or numbering.  A text that fails to
    parse or validate raises as :func:`parse_plan` does and is not kept.
    """
    key = (text, signature)
    prepared = _prepared_plans.get(key)
    if prepared is None:
        prepared = _prepare_parsed(_parse(text), signature)
    return _keep(key, prepared)


def print_prepared(prepared: PreparedPlan) -> str:
    """The printed plan of ``prepared``, the bytes :func:`print_plan`
    prints, and ``prepared`` kept under that text and its signature as
    :func:`parse_prepared` keeps a parsed plan.

    Parsing and preparing the printed text gives back an equal plan,
    numbering and arities: theta pairs print as written, and equal
    subtrees print as equal text.  So reading the text back under an equal
    signature returns ``prepared`` without parsing.  A plan with a
    relation name that the parser does not read as a name is not kept.
    """
    distinct = prepared.numbering[1]
    text = print_numbered(distinct)
    if all(_NAME.fullmatch(node.relation) for node, _ in distinct if type(node) is Basic):
        _keep((text, prepared.signature), prepared)
    return text


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class TraceEntry(Record):
    """One subplan occurrence: its AST path, its node and its output rows."""

    __slots__ = ("path", "node", "rows")

    def __init__(self, path: tuple[int, ...], node: Plan, rows: frozenset):
        set_field(self, "path", path)
        set_field(self, "node", node)
        set_field(self, "rows", rows)

    @property
    def cardinality(self) -> int:
        return len(self.rows)


class EvalTrace:
    """What an evaluator computed: ``numbering``, the evaluated plan's
    :func:`number_subplans`, and ``rows``, the output rows per number, the
    root's last.

    ``max_intermediate`` is the maximum cardinality over subplan outputs,
    the finite-instance counterpart of intermediate degree.  The
    compiled evaluator additionally reports ``internal_peak``, the
    largest relation its binary-join chains ever materialize.

    The compiled evaluator stores a ``"slots"`` join's chain rows (see
    :attr:`PreparedPlan.program`) with the getter of its column rows in
    ``_columns``; reading ``rows`` (or ``entries``) builds the column rows
    of every such join once.  ``output``, ``max_intermediate`` and
    ``cardinalities`` build none: the root stores its column rows, and the
    getter reads every slot, so a join's chain and column rows are equally
    many.  The per-occurrence ``entries`` are built on first access.
    """

    def __init__(self, numbering: tuple):
        self.numbering = numbering
        self.internal_peak = 0
        self._rows = []
        self._columns = {}

    @property
    def rows(self) -> list[frozenset]:
        columns = self._columns
        if columns:
            for number, getter in columns.items():
                self._rows[number] = frozenset(map(getter, self._rows[number]))
            columns.clear()
        return self._rows

    @property
    def output(self) -> frozenset:
        return self._rows[-1]

    @property
    def cardinalities(self) -> list[int]:
        """The number of output rows per number."""
        return list(map(len, self._rows))

    @property
    def max_intermediate(self) -> int:
        return max(self.cardinalities, default=0)

    @functools.cached_property
    def entries(self) -> list[TraceEntry]:
        """One entry per occurrence, in post-order (root last); the
        occurrences of one subplan share its rows."""
        numbers, distinct = self.numbering
        return [
            TraceEntry(path, distinct[n][0], self.rows[n])
            for path, n in zip(occurrence_paths(distinct), numbers)
        ]


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


def row_getter(positions) -> operator.itemgetter:
    """The tuple of a row's values at the 0-based ``positions``.  A slice
    stands in for zero or one position: ``itemgetter()`` raises, and
    ``itemgetter(i)`` returns the value, not a 1-tuple."""
    if len(positions) == 1:
        return operator.itemgetter(slice(positions[0], positions[0] + 1))
    return operator.itemgetter(*positions) if positions else operator.itemgetter(slice(0))


def _equal_at(pairs):
    """A filter for rows equal at each 0-based ``(a, b)`` of ``pairs``."""
    left = row_getter([a for a, _ in pairs])
    right = row_getter([b for _, b in pairs])
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
    ``errors.JOIN_STEP_WORDS_CAP`` words, its rows times its slots plus 6.  Each
    operator's column positions are compiled into ``itemgetter``s once, not
    once per row.  An operator that keeps every row as it is (a projection
    onto all columns in order, a selection with no identification, a
    one-child join with no identification) returns its child's rows
    themselves.

    A join that only projections read stores its chain rows, and its
    projections read those (see :attr:`PreparedPlan.program`).  The
    returned trace builds such a join's column rows only when its ``rows``
    or ``entries`` are read (see :class:`EvalTrace`), so a plain
    ``evaluate``, which reads the output and ``max_intermediate``, builds
    none.
    """
    program = prepared.program
    trace = EvalTrace(prepared.numbering)
    relations = data.relations
    rows_of = trace._rows
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
            steps, columns = arg
            chain = _run_join(steps, [rows_of[k] for k in kids], trace)
            if op == "slots":
                trace._columns[len(rows_of)] = columns
                columns = None
            rows = frozenset(chain) if columns is None else frozenset(map(columns, chain))
        rows_of.append(rows)
    return trace


# A join compiled from its column classes: ``(steps, slots)``.  ``steps``
# has one ``(equal, key, extend, probe, slots)`` per child: the filter for
# the identifications inside the child (None when it has none), the getters
# of the child's key and of its new columns, the getter of the chain slots
# its key must equal, and the number of slots once its columns are bound.
# A later child that binds no new class has every column in its key, in
# order, so its key is its whole row: its ``key`` and ``extend`` are None,
# and its step is a semi-join.  ``slots`` is the slot of each output
# column.  :attr:`PreparedPlan.program` turns it into the getter of the
# column rows, None when the slots are already in column order, or, for a
# join that only projections read, compiles the projections through it.
_JoinProgram = tuple[list[tuple], list[int]]


def _compile_join(classes: list[int], arities: list[int]) -> _JoinProgram:
    """The program of a join with :func:`_column_classes` ``classes`` whose
    children have the arities ``arities``.

    Slots are the bound classes, in binding order: a child's columns are
    keys when their class is bound, new when they are the first of an
    unbound class, and otherwise equal to that first column.  Every slot is
    the slot of some column.
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
        probe = row_getter([slot for _, slot in keys])
        if first or not steps:
            steps.append((
                _equal_at(equal) if equal else None,
                row_getter([local for local, _ in keys]),
                row_getter(list(first.values())),
                probe,
                len(bound) + len(first),
            ))
        else:
            steps.append((None, None, None, probe, len(bound)))
        for cls in first:
            bound[cls] = len(bound)
    return steps, [bound[cls] for cls in classes[1:]]


# The words of memory one chain row of s slots takes: s + 6, its tuple's
# s items and 5-word header and its slot in the chain's list.
_ROW_OVERHEAD_WORDS = 6

def _run_join(steps: list[tuple], outs: list[frozenset], trace: EvalTrace):
    """The chain rows of the join of the children's rows ``outs`` by the
    join program's ``steps``, one value per slot; raises
    ``trace.internal_peak`` to the largest relation the chain builds.

    The first child has no key, so its rows (filtered and narrowed to its
    new columns) start the chain, and with no identification inside it
    they are the chain's rows themselves.  A later child that binds no new
    class only filters the chain: its rows are its keys, and the chain rows
    whose probe is one of them are kept.  Before any other step is built,
    its words (see ``errors.JOIN_STEP_WORDS_CAP``) are bounded by the chain's rows
    times the largest bucket times the words of one row, and only when that
    bound passes the cap are its rows counted exactly, as the sum of the
    probed buckets' lengths; past the cap the join raises
    :class:`ResourceCapError`.  The order of the input rows is never used:
    the caller makes a set of the rows, and the peak counts rows.
    """
    current = None
    for out, (equal, key, extend, probe, slots) in zip(outs, steps):
        rows = out if equal is None else filter(equal, out)
        if current is None:
            current = out if equal is None else list(map(extend, rows))
        elif key is None:
            current = [row for row in current if probe(row) in out]
        else:
            table: dict[tuple, list] = {}
            for t in rows:
                table.setdefault(key(t), []).append(extend(t))
            words = slots + _ROW_OVERHEAD_WORDS
            if len(current) * max(map(len, table.values()), default=0) * words > errors.JOIN_STEP_WORDS_CAP:
                size = sum(len(table.get(probe(row), ())) for row in current)
                if size * words > errors.JOIN_STEP_WORDS_CAP:
                    raise ResourceCapError(
                        f"join chain capped at {errors.JOIN_STEP_WORDS_CAP} words per step, "
                        f"a step needs {size * words} ({size} rows of {slots} slots)"
                    )
            current = [row + ext for row in current for ext in table.get(probe(row), ())]
        trace.internal_peak = max(trace.internal_peak, len(current))
    return current
