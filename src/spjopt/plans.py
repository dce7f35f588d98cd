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
    A bad token anywhere is reported before any grammar error.

    One loop reads the tokens; the operators still waiting for a child or
    their ``)`` are kept on an explicit stack, so nesting depth is bounded
    only by memory.  Every completed node is interned under the key of
    :func:`number_subplans`, and nodes complete in its post-order: equal
    subtrees become one object, and the signature is checked once per
    distinct subplan.
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
        if not open_ops:
            break
    if words[i]:
        raise _syntax_error(text, i, f"trailing input {words[i]!r}")
    if signature is not None:
        try:
            _arities(distinct, signature)
        except SignatureError as exc:
            raise PlanSyntaxError(str(exc)) from exc
    return distinct[number][0]


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
    equated (under the closure of theta) with a first-child column or k,
    that is, whether those columns meet at most one class outside the
    first child's.  ``arities`` are those of the join's children."""
    m1 = arities[0]
    classes = _column_classes(join.theta, sum(arities))
    return len(set(classes[m1 + 1:]) - set(classes[1:m1 + 1])) <= 1


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
    """What an evaluator computed: ``numbering``, the evaluated plan's
    :func:`number_subplans`, and ``rows``, the output rows per number, the
    root's last.

    ``max_intermediate`` is the maximum cardinality over subplan outputs,
    the finite-instance counterpart of intermediate degree.  The
    well-behaved evaluator additionally reports ``internal_peak``, the
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
    trace = EvalTrace(number_subplans(plan))
    _arities(trace.numbering[1], data.signature)  # raises on an ill-formed plan
    rows_of = trace.rows
    for node, kids in trace.numbering[1]:
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


def evaluate_well_behaved(plan: Plan, data: Structure) -> EvalTrace:
    """Evaluator for well-behaved plans.

    Each distinct subplan (see :func:`number_subplans`) is evaluated once.

    Multiway joins run as a left-deep chain of binary hash joins over the
    columns' theta-closure classes.  The chain carries one value per
    already-bound class, so no step materializes more than
    |out(q1, D)| x |dom(D)| rows.  Each operator compiles its column
    positions into ``itemgetter``s once, not once per row.
    """
    trace = EvalTrace(number_subplans(plan))
    distinct = trace.numbering[1]
    arities = _arities(distinct, data.signature)
    offender = _first_offending_join(distinct, arities)
    if offender is not None:
        raise WellBehavedError(f"plan is not well-behaved at {print_plan(offender)}")
    rows_of = trace.rows
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
    return trace


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
