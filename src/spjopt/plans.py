"""SPJ plan AST, s-expression parsing/printing, and the two evaluators.

Identification sets (theta) are stored as written but are interpreted via
their reflexive-symmetric-transitive closure, both for selection semantics
and for the well-behavedness check.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import ArityError, PlanSyntaxError, SignatureError, WellBehavedError
from .structures import Signature, Structure, UnionFind


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


def theta_of(pairs) -> frozenset:
    out = set()
    for j, k in pairs:
        out.add((int(j), int(k)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# The plan walk: numbering, arity and validation, counting
# ---------------------------------------------------------------------------


def number_subplans(plan: Plan) -> tuple[list[int], list[tuple[Plan, tuple[int, ...]]]]:
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


def validate_plan(plan: Plan, signature: Signature) -> int:
    """Arity of a well-formed plan; raises on unknown relations, indices out
    of range, or non-m-suitable identifications."""
    return _arities(number_subplans(plan)[1], signature)[-1]


def operator_count(plan: Plan) -> int:
    """Number of select/project/join occurrences."""
    numbers, distinct = number_subplans(plan)
    return sum(not isinstance(distinct[n][0], Basic) for n in numbers)


def plan_size(plan: Plan) -> int:
    """Total node count of the syntax tree (shared subtrees counted once per
    occurrence)."""
    return len(number_subplans(plan)[0])


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

# One scan classifies every token; blanks and ``;`` comments match without a
# group.  A word is a maximal run of other characters, so an integer or a
# name must end at a delimiter, and any other word is a bad token.
_TOKEN = re.compile(
    r"[ \t\r\n]+|;[^\n]*"
    r"|([()])"
    r"|(-?[0-9]+)(?![^ \t\r\n();])"
    r"|([A-Za-z_][A-Za-z0-9_]*)(?![^ \t\r\n();])"
    r"|([^ \t\r\n();]+)"
)
_KIND = {2: "int", 3: "name"}
_EOF = ("eof", "", -1)


class _Tokens:
    """The tokens of a plan text as (kind, value, offset); line and column
    are worked out from the offset only when an error is reported."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN.finditer(text):
            group = m.lastindex
            if group is None:
                continue
            value = m.group(group)
            if group == 4:
                raise self.error(f"bad token {value!r}", ("name", value, m.start()))
            self.tokens.append((value if group == 1 else _KIND[group], value, m.start()))
        self.pos = 0

    def error(self, message: str, tok) -> PlanSyntaxError:
        """The error for ``tok``, at its 1-based line and column (-1, -1 at
        the end of the input)."""
        offset = tok[2]
        if offset < 0:
            return PlanSyntaxError(message, -1, -1)
        line = self.text.count("\n", 0, offset) + 1
        return PlanSyntaxError(message, line, offset - self.text.rfind("\n", 0, offset))

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return _EOF

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            raise self.error(f"expected {want!r}, got {tok[1]!r}", tok)
        return tok


def parse_plan(text: str, signature: Optional[Signature] = None) -> Plan:
    """Parse the s-expression plan grammar.

      plan := NAME | (select (theta PAIR*) plan)
                   | (project (cols INT*) plan)
                   | (join (theta PAIR*) plan plan*)
      PAIR := (INT INT)

    With a signature, arity violations and unknown relations are rejected.
    The operators still waiting for a child or their ``)`` are kept on an
    explicit stack, so nesting depth is bounded only by memory.
    """
    toks = _Tokens(text)
    # (operator, theta or columns, children parsed so far)
    open_ops: list[tuple[str, object, list[Plan]]] = []
    while True:
        tok = toks.next()
        kind, value, _ = tok
        if kind == "(":
            head = toks.expect("name")
            op = head[1]
            if op == "project":
                open_ops.append((op, _parse_cols(toks), []))
            elif op in ("select", "join"):
                open_ops.append((op, _parse_theta(toks), []))
            else:
                raise toks.error(f"unknown operator {op!r}", head)
            continue
        if kind != "name":
            raise toks.error(f"expected plan, got {value!r}", tok)
        plan: Plan = Basic(value)
        # Close every operator that this plan completes; a join may take
        # another child instead.
        while open_ops:
            op, param, children = open_ops[-1]
            children.append(plan)
            if op == "join" and toks.peek()[0] != ")":
                break
            toks.expect(")")
            open_ops.pop()
            if op == "select":
                plan = Select(param, children[0])
            elif op == "project":
                plan = Project(param, children[0])
            else:
                plan = Join(param, tuple(children))
        if not open_ops:
            break
    trailing = toks.peek()
    if trailing[0] != "eof":
        raise toks.error(f"trailing input {trailing[1]!r}", trailing)
    if signature is not None:
        try:
            validate_plan(plan, signature)
        except SignatureError as exc:
            raise PlanSyntaxError(str(exc)) from exc
    return plan


def _parse_theta(toks: _Tokens) -> frozenset:
    toks.expect("(")
    toks.expect("name", "theta")
    pairs = []
    while toks.peek()[0] == "(":
        toks.expect("(")
        j = int(toks.expect("int")[1])
        k = int(toks.expect("int")[1])
        toks.expect(")")
        pairs.append((j, k))
    toks.expect(")")
    return theta_of(pairs)


def _parse_cols(toks: _Tokens) -> tuple[int, ...]:
    toks.expect("(")
    toks.expect("name", "cols")
    cols = []
    while toks.peek()[0] == "int":
        cols.append(int(toks.next()[1]))
    toks.expect(")")
    return tuple(cols)


def plan_texts(distinct: list[tuple[Plan, tuple[int, ...]]]) -> list[str]:
    """The printed form per number of :func:`number_subplans`."""
    out: list[str] = []
    for node, kids in distinct:
        if isinstance(node, Basic):
            out.append(node.relation)
        elif isinstance(node, Select):
            out.append(f"(select {_print_theta(node.theta)} {out[kids[0]]})")
        elif isinstance(node, Project):
            cols = " ".join(str(c) for c in node.cols)
            out.append(f"(project (cols{' ' if cols else ''}{cols}) {out[kids[0]]})")
        else:
            parts = " ".join(out[k] for k in kids)
            out.append(f"(join {_print_theta(node.theta)} {parts})")
    return out


def print_plan(plan: Plan) -> str:
    return plan_texts(number_subplans(plan)[1])[-1]


def _print_theta(theta: frozenset) -> str:
    pairs = " ".join(f"({j} {k})" for j, k in sorted(theta))
    return f"(theta{' ' if pairs else ''}{pairs})"


# ---------------------------------------------------------------------------
# Well-behavedness
# ---------------------------------------------------------------------------


def _column_classes(theta: frozenset, s: int) -> list[int]:
    """Representative column per index under the closure of theta."""
    uf = UnionFind(range(s + 1))
    for j, k in theta:
        uf.union(j, k)
    return [uf.find(i) for i in range(s + 1)]


def _join_is_well_behaved(join: Join, arities: list[int]) -> bool:
    """Whether some column k makes every column past the first child's
    equated (under the closure of theta) with a first-child column or k.
    ``arities`` are those of the join's children."""
    m1 = arities[0]
    s = sum(arities)
    classes = _column_classes(join.theta, s)
    base = {classes[j] for j in range(1, m1 + 1)}
    for k in range(1, s + 1):
        known = base | {classes[k]}
        if all(classes[i] in known for i in range(m1 + 1, s + 1)):
            return True
    return s == m1  # no extra columns at all (can only happen with no children beyond the first)


def is_well_behaved(plan: Plan, signature: Signature) -> tuple[bool, Optional[Plan]]:
    """Whether every join subplan adds at most one column of new information.

    Returns (True, None) or (False, offending join subplan), the first
    offending join occurrence in post-order.  Each distinct join is checked
    once (see :func:`number_subplans`).
    """
    _, distinct = number_subplans(plan)
    offender = _first_offending_join(distinct, _arities(distinct, signature))
    return offender is None, offender


def _first_offending_join(
    distinct: list[tuple[Plan, tuple[int, ...]]], arities: list[int]
) -> Optional[Join]:
    """The first join of :func:`number_subplans`'s ``distinct`` that is not
    well-behaved, or None.  Numbers follow the first occurrences in
    post-order, so this is also the first offending occurrence."""
    for node, kids in distinct:
        if isinstance(node, Join) and not _join_is_well_behaved(node, [arities[k] for k in kids]):
            return node
    return None


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
    """Per-subplan outputs in post-order (root last), plus aggregates.

    ``max_intermediate`` is the maximum cardinality over subplan outputs,
    the finite-instance counterpart of intermediate degree.  The
    well-behaved evaluator additionally reports ``internal_peak``, the
    largest relation its binary-join chains ever materialize.
    ``numbering`` is the evaluated plan's :func:`number_subplans`.
    """

    entries: list[TraceEntry] = field(default_factory=list)
    wall_time: float = 0.0
    internal_peak: int = 0
    numbering: tuple = ((), ())

    @property
    def output(self) -> frozenset:
        return self.entries[-1].rows

    @property
    def max_intermediate(self) -> int:
        return max((e.cardinality for e in self.entries), default=0)

    @functools.cached_property
    def texts(self) -> list[str]:
        """Each entry's subplan, printed from the evaluator's numbering;
        computed on first access, after evaluation."""
        numbers, distinct = self.numbering
        texts = plan_texts(distinct)
        return [texts[n] for n in numbers]


def _select_rows(rows, theta):
    return frozenset(
        t for t in rows if all(t[j - 1] == t[k - 1] for j, k in theta)
    )


def _fill_trace(trace: EvalTrace, numbering: tuple, rows_of: list[frozenset], start: float) -> EvalTrace:
    """Give ``trace`` one entry per occurrence of ``numbering``, each with
    the rows of its number, and the wall time since ``start``."""
    numbers, distinct = numbering
    trace.entries = [
        TraceEntry(path, distinct[n][0], rows_of[n])
        for path, n in zip(occurrence_paths(distinct), numbers)
    ]
    trace.numbering = numbering
    trace.wall_time = time.perf_counter() - start
    return trace


def evaluate_naive(plan: Plan, data: Structure) -> EvalTrace:
    """Reference evaluator: the four inductive cases, verbatim.

    Joins materialize the cross product lazily and filter by theta, so the
    running time (not the memory) is proportional to the product size.
    Each distinct subplan (see :func:`number_subplans`) is evaluated once;
    the trace has one entry per occurrence.
    """
    numbering = number_subplans(plan)
    _arities(numbering[1], data.signature)  # raises on an ill-formed plan
    start = time.perf_counter()
    rows_of: list[frozenset] = []
    for node, kids in numbering[1]:
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
    return _fill_trace(EvalTrace(), numbering, rows_of, start)


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


def evaluate_well_behaved(plan: Plan, data: Structure) -> EvalTrace:
    """Evaluator for well-behaved plans.

    Each distinct subplan (see :func:`number_subplans`) is evaluated once.
    The trace still has one entry per occurrence, and the occurrences of
    one subplan share its rows.

    Multiway joins run as a left-deep chain of binary hash joins over the
    columns' theta-closure classes.  The chain carries one value per
    already-bound class, so no step materializes more than
    |out(q1, D)| x |dom(D)| rows.  Each operator compiles its column
    positions into ``itemgetter``s once, not once per row.
    """
    numbering = number_subplans(plan)
    distinct = numbering[1]
    arities = _arities(distinct, data.signature)
    offender = _first_offending_join(distinct, arities)
    if offender is not None:
        raise WellBehavedError(f"plan is not well-behaved at {print_plan(offender)}")
    trace = EvalTrace()
    start = time.perf_counter()
    rows_of: list[frozenset] = []
    for node, kids in distinct:
        if isinstance(node, Basic):
            rows = data.relations[node.relation]
        elif isinstance(node, Select):
            equal = _equal_at([(j - 1, k - 1) for j, k in sorted(node.theta)])
            rows = frozenset(filter(equal, rows_of[kids[0]]))
        elif isinstance(node, Project):
            rows = frozenset(map(_getter([c - 1 for c in node.cols]), rows_of[kids[0]]))
        else:
            rows = _join_chain(node, [rows_of[k] for k in kids], [arities[k] for k in kids], trace)
        rows_of.append(rows)
    return _fill_trace(trace, numbering, rows_of, start)


def _join_chain(node: Join, outs: list[frozenset], arities: list[int], trace: EvalTrace) -> frozenset:
    """The join of the children's rows ``outs`` (of arities ``arities``);
    raises ``trace.internal_peak`` to the largest relation the chain builds.

    Rows carry one slot per bound theta-class, in binding order; every
    column is read back from its class's slot at the end.  The chain starts
    from the empty row, so the first child is joined on no key.  The order
    of the input rows is never used: the result is a set, and the peak
    counts rows.
    """
    classes = _column_classes(node.theta, sum(arities))
    bound: dict[int, int] = {}  # class representative -> slot
    current: list[tuple] = [()]
    off = 0
    for out, m in zip(outs, arities):
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
        key = _getter([local for local, _ in keys])
        extend = _getter(list(first.values()))
        table: dict[tuple, list] = {}
        for t in filter(_equal_at(equal), out) if equal else out:
            table.setdefault(key(t), []).append(extend(t))
        probe = _getter([slot for _, slot in keys])
        current = [row + ext for row in current for ext in table.get(probe(row), ())]
        for cls in first:
            bound[cls] = len(bound)
        trace.internal_peak = max(trace.internal_peak, len(current))
    slots = [bound[cls] for cls in classes[1:]]
    if slots == list(range(len(slots))):
        return frozenset(current)
    return frozenset(map(_getter(slots), current))
