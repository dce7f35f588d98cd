"""SPJ plan AST, s-expression parsing/printing, and the two evaluators.

Identification sets (theta) are stored as written but are interpreted via
their reflexive-symmetric-transitive closure by default, both for selection
semantics and for the well-behavedness check; the raw reading is available
behind ``strict_theta``.
"""

from __future__ import annotations

import itertools
import re
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from .errors import ArityError, PlanSyntaxError, SignatureError, WellBehavedError
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


def theta_of(pairs) -> frozenset:
    out = set()
    for j, k in pairs:
        out.add((int(j), int(k)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Arity, validation, subplans
# ---------------------------------------------------------------------------


def arity_of(plan: Plan, signature: Signature) -> int:
    if isinstance(plan, Basic):
        return signature.arity(plan.relation)
    if isinstance(plan, Select):
        return arity_of(plan.child, signature)
    if isinstance(plan, Project):
        return len(plan.cols)
    return sum(arity_of(c, signature) for c in plan.children)


def validate_plan(plan: Plan, signature: Signature) -> int:
    """Arity of a well-formed plan; raises on unknown relations, indices out
    of range, or non-m-suitable identifications."""
    if isinstance(plan, Basic):
        return signature.arity(plan.relation)
    if isinstance(plan, Select):
        m = validate_plan(plan.child, signature)
        _check_theta(plan.theta, m)
        return m
    if isinstance(plan, Project):
        m = validate_plan(plan.child, signature)
        for c in plan.cols:
            if not 1 <= c <= m:
                raise ArityError(f"projection index {c} out of range [1,{m}]")
        return len(plan.cols)
    arities = [validate_plan(c, signature) for c in plan.children]
    s = sum(arities)
    _check_theta(plan.theta, s)
    return s


def _check_theta(theta: frozenset, m: int) -> None:
    for j, k in theta:
        if not (1 <= j <= m and 1 <= k <= m):
            raise ArityError(f"identification {j}={k} not {m}-suitable")


def subplans(plan: Plan) -> list[tuple[tuple[int, ...], Plan]]:
    """All subplan occurrences as (AST path, node), post-order with the root
    last.  Occurrences of a repeated subtree are listed separately: the
    representation machinery needs one tree-decomposition node per
    occurrence."""
    out: list[tuple[tuple[int, ...], Plan]] = []

    def walk(node: Plan, path: tuple[int, ...]):
        if isinstance(node, (Select, Project)):
            walk(node.child, path + (0,))
        elif isinstance(node, Join):
            for i, c in enumerate(node.children):
                walk(c, path + (i,))
        out.append((path, node))

    walk(plan, ())
    return out


def children_of(plan: Plan) -> tuple[Plan, ...]:
    if isinstance(plan, (Select, Project)):
        return (plan.child,)
    if isinstance(plan, Join):
        return plan.children
    return ()


def operator_count(plan: Plan) -> int:
    """Number of select/project/join nodes."""
    n = 0 if isinstance(plan, Basic) else 1
    return n + sum(operator_count(c) for c in children_of(plan))


def plan_size(plan: Plan) -> int:
    """Total node count of the syntax tree (shared subtrees counted once per
    occurrence)."""
    return 1 + sum(plan_size(c) for c in children_of(plan))


def number_subplans(
    plan: Plan,
) -> tuple[list[tuple[tuple[int, ...], Plan, int]], list[tuple[Plan, tuple[int, ...]]]]:
    """Hash-consing in one iterative pass: number the nodes of ``plan`` so
    that structurally equal subtrees get the same number.

    A node's number is keyed by its operator, its relation, theta or
    columns, and its children's numbers.  Returns the occurrences as (AST
    path, node, number) in the post-order of :func:`subplans`, and per
    number its first node with its children's numbers.  Numbers follow the
    first occurrences in post-order, so a child's number is below its
    parent's.
    """
    table: dict[tuple, int] = {}
    distinct: list[tuple[Plan, tuple[int, ...]]] = []
    occurrences: list[tuple[tuple[int, ...], Plan, int]] = []
    done: list[int] = []  # numbers of finished subtrees whose parent is pending
    # (node, path, children once expanded, else None)
    stack: list[tuple[Plan, tuple[int, ...], Optional[tuple]]] = [(plan, (), None)]
    while stack:
        node, path, kids = stack.pop()
        if kids is None:
            kids = children_of(node)
            stack.append((node, path, kids))
            for i in range(len(kids) - 1, -1, -1):
                stack.append((kids[i], path + (i,), None))
            continue
        cut = len(done) - len(kids)
        kid_numbers = tuple(done[cut:])
        del done[cut:]
        if isinstance(node, Basic):
            label = node.relation
        elif isinstance(node, Project):
            label = node.cols
        else:
            label = node.theta
        number = table.setdefault((type(node), label, kid_numbers), len(distinct))
        if number == len(distinct):
            distinct.append((node, kid_numbers))
        done.append(number)
        occurrences.append((path, node, number))
    return occurrences, distinct


def _arities(distinct: list[tuple[Plan, tuple[int, ...]]], signature: Signature) -> list[int]:
    """Arity per number of :func:`number_subplans`."""
    out: list[int] = []
    for node, kids in distinct:
        if isinstance(node, Basic):
            out.append(signature.arity(node.relation))
        elif isinstance(node, Select):
            out.append(out[kids[0]])
        elif isinstance(node, Project):
            out.append(len(node.cols))
        else:
            out.append(sum(out[k] for k in kids))
    return out


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
    """
    toks = _Tokens(text)
    plan = _parse_node(toks)
    trailing = toks.peek()
    if trailing[0] != "eof":
        raise toks.error(f"trailing input {trailing[1]!r}", trailing)
    if signature is not None:
        try:
            validate_plan(plan, signature)
        except SignatureError as exc:
            raise PlanSyntaxError(str(exc)) from exc
    return plan


def _parse_node(toks: _Tokens) -> Plan:
    tok = toks.next()
    kind, value, _ = tok
    if kind == "name":
        return Basic(value)
    if kind != "(":
        raise toks.error(f"expected plan, got {value!r}", tok)
    head = toks.expect("name")
    op = head[1]
    if op == "select":
        theta = _parse_theta(toks)
        child = _parse_node(toks)
        toks.expect(")")
        return Select(theta, child)
    if op == "project":
        cols = _parse_cols(toks)
        child = _parse_node(toks)
        toks.expect(")")
        return Project(cols, child)
    if op == "join":
        theta = _parse_theta(toks)
        children = [_parse_node(toks)]
        while toks.peek()[0] != ")":
            children.append(_parse_node(toks))
        toks.expect(")")
        return Join(theta, tuple(children))
    raise toks.error(f"unknown operator {op!r}", head)


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


def print_plan(plan: Plan) -> str:
    if isinstance(plan, Basic):
        return plan.relation
    if isinstance(plan, Select):
        return f"(select {_print_theta(plan.theta)} {print_plan(plan.child)})"
    if isinstance(plan, Project):
        cols = " ".join(str(c) for c in plan.cols)
        return f"(project (cols{' ' if cols else ''}{cols}) {print_plan(plan.child)})"
    parts = " ".join(print_plan(c) for c in plan.children)
    return f"(join {_print_theta(plan.theta)} {parts})"


def _print_theta(theta: frozenset) -> str:
    pairs = " ".join(f"({j} {k})" for j, k in sorted(theta))
    return f"(theta{' ' if pairs else ''}{pairs})"


# ---------------------------------------------------------------------------
# Well-behavedness
# ---------------------------------------------------------------------------


def _column_classes(theta: frozenset, s: int) -> list[int]:
    """Representative column per index under the closure of theta."""
    parent = list(range(s + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, k in theta:
        a, b = find(j), find(k)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(s + 1)]


def _join_is_well_behaved(join: Join, arities: list[int], strict_theta: bool) -> bool:
    """``arities`` are those of the join's children."""
    m1 = arities[0]
    s = sum(arities)

    if strict_theta:
        def equated(i, j):
            return i == j or (i, j) in join.theta or (j, i) in join.theta
    else:
        classes = _column_classes(join.theta, s)

        def equated(i, j):
            return classes[i] == classes[j]

    base = list(range(1, m1 + 1))
    for k in range(1, s + 1):
        ok = True
        for i in range(1, s + 1):
            if i <= m1 or i == k:
                continue
            if not any(equated(i, j) for j in base + [k]):
                ok = False
                break
        if ok:
            return True
    return s == m1  # no extra columns at all (can only happen with no children beyond the first)


def is_well_behaved(
    plan: Plan, signature: Signature, strict_theta: bool = False
) -> tuple[bool, Optional[Plan]]:
    """Whether every join subplan adds at most one column of new information.

    Returns (True, None) or (False, offending join subplan), the first
    offending join occurrence in post-order.  Each distinct join is checked
    once (see :func:`number_subplans`).
    """
    _, distinct = number_subplans(plan)
    offender = _first_offending_join(distinct, _arities(distinct, signature), strict_theta)
    return offender is None, offender


def _first_offending_join(
    distinct: list[tuple[Plan, tuple[int, ...]]], arities: list[int], strict_theta: bool
) -> Optional[Join]:
    """The first join of :func:`number_subplans`'s ``distinct`` that is not
    well-behaved, or None.  Numbers follow the first occurrences in
    post-order, so this is also the first offending occurrence."""
    for node, kids in distinct:
        if isinstance(node, Join) and not _join_is_well_behaved(
            node, [arities[k] for k in kids], strict_theta
        ):
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
    def text(self) -> str:
        return print_plan(self.node)

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
    """

    entries: list[TraceEntry] = field(default_factory=list)
    wall_time: float = 0.0
    internal_peak: int = 0

    @property
    def output(self) -> frozenset:
        return self.entries[-1].rows

    @property
    def max_intermediate(self) -> int:
        return max((e.cardinality for e in self.entries), default=0)

    def by_path(self) -> dict[tuple[int, ...], TraceEntry]:
        return {e.path: e for e in self.entries}


def _select_rows(rows, theta):
    return frozenset(
        t for t in rows if all(t[j - 1] == t[k - 1] for j, k in theta)
    )


def evaluate_naive(plan: Plan, data: Structure) -> EvalTrace:
    """Reference evaluator: the four inductive cases, verbatim.

    Joins materialize the cross product lazily and filter by theta, so the
    running time (not the memory) is proportional to the product size.
    """
    validate_plan(plan, data.signature)
    trace = EvalTrace()
    start = time.perf_counter()

    def rec(node: Plan, path: tuple[int, ...]) -> frozenset:
        if isinstance(node, Basic):
            rows = data.relations[node.relation]
        elif isinstance(node, Select):
            rows = _select_rows(rec(node.child, path + (0,)), node.theta)
        elif isinstance(node, Project):
            child = rec(node.child, path + (0,))
            rows = frozenset(tuple(t[c - 1] for c in node.cols) for t in child)
        else:
            outs = [rec(c, path + (i,)) for i, c in enumerate(node.children)]
            theta = node.theta
            rows = frozenset(
                flat
                for combo in itertools.product(*[sorted(o) for o in outs])
                for flat in (tuple(itertools.chain.from_iterable(combo)),)
                if all(flat[j - 1] == flat[k - 1] for j, k in theta)
            )
        trace.entries.append(TraceEntry(path, node, rows))
        return rows

    rec(plan, ())
    trace.wall_time = time.perf_counter() - start
    return trace


def evaluate_well_behaved(
    plan: Plan, data: Structure, strict_theta: bool = False
) -> EvalTrace:
    """Evaluator for well-behaved plans.

    Each distinct subplan (see :func:`number_subplans`) is evaluated once.
    The trace still has one entry per occurrence, and the occurrences of
    one subplan share its rows.

    Multiway joins run as a left-deep chain of binary hash joins over the
    columns' theta-closure classes.  The chain carries one value per
    already-bound class, so no step materializes more than
    |out(q1, D)| x |dom(D)| rows.
    """
    occurrences, distinct = number_subplans(plan)
    arities = _arities(distinct, data.signature)
    offender = _first_offending_join(distinct, arities, strict_theta)
    if offender is not None:
        raise WellBehavedError(f"plan is not well-behaved at {print_plan(offender)}")
    validate_plan(plan, data.signature)
    trace = EvalTrace()
    start = time.perf_counter()
    rows_of: list[frozenset] = []
    for node, kids in distinct:
        if isinstance(node, Basic):
            rows = data.relations[node.relation]
        elif isinstance(node, Select):
            rows = _select_rows(rows_of[kids[0]], node.theta)
        elif isinstance(node, Project):
            rows = frozenset(tuple(t[c - 1] for c in node.cols) for t in rows_of[kids[0]])
        else:
            rows = _join_chain(node, [rows_of[k] for k in kids], [arities[k] for k in kids], trace)
        rows_of.append(rows)
    trace.entries = [TraceEntry(path, node, rows_of[number]) for path, node, number in occurrences]
    trace.wall_time = time.perf_counter() - start
    return trace


def _join_chain(node: Join, outs: list[frozenset], arities: list[int], trace: EvalTrace) -> frozenset:
    """The join of the children's rows ``outs`` (of arities ``arities``);
    raises ``trace.internal_peak`` to the largest relation the chain builds."""
    spans = []
    off = 0
    for m in arities:
        spans.append(list(range(off + 1, off + m + 1)))
        off += m
    s = off
    classes = _column_classes(node.theta, s)

    # Rows carry one slot per bound theta-class; every global column is
    # reconstructed from its class slot at the end.
    bound: dict[int, int] = {}  # class representative -> slot index
    current = []
    for t in sorted(outs[0]):
        if all(
            t[a - 1] == t[b - 1]
            for a, b in itertools.combinations(spans[0], 2)
            if classes[a] == classes[b]
        ):
            current.append(t)
    for col in spans[0]:
        bound.setdefault(classes[col], col - 1)
    width = len(spans[0])
    trace.internal_peak = max(trace.internal_peak, len(current))

    for child_idx in range(1, len(outs)):
        cols = spans[child_idx]
        key_pairs = []                  # (local position, slot in current row)
        seen_class: dict[int, int] = {}  # class -> first local position binding it
        new_cols = []
        for local, col in enumerate(cols):
            cls = classes[col]
            if cls in bound:
                key_pairs.append((local, bound[cls]))
            elif cls not in seen_class:
                seen_class[cls] = local
                new_cols.append(local)
        table: dict[tuple, list] = {}
        for t in sorted(outs[child_idx]):
            ok = True
            for local, col in enumerate(cols):
                cls = classes[col]
                if cls in seen_class and seen_class[cls] != local and t[local] != t[seen_class[cls]]:
                    ok = False
                    break
            if not ok:
                continue
            key = tuple(t[local] for local, _ in key_pairs)
            table.setdefault(key, []).append(tuple(t[local] for local in new_cols))
        probe_slots = [slot for _, slot in key_pairs]
        next_rows = []
        for row in current:
            key = tuple(row[slot] for slot in probe_slots)
            for ext in table.get(key, ()):
                next_rows.append(row + ext)
        for local in new_cols:
            bound[classes[cols[local]]] = width
            width += 1
        current = next_rows
        trace.internal_peak = max(trace.internal_peak, len(current))

    return frozenset(
        tuple(row[bound[classes[col]]] for col in range(1, s + 1)) for row in current
    )
