"""Independent brute-force oracles used to cross-check the library, and
the few helpers that only tests need.

The oracles are written from the definitions, with no shortcuts: maps are
enumerated exhaustively, LP optima are recomputed from basic solutions, and
decompositions are enumerated in canonical form.  Slow by design; only run
at small sizes.  The eager representation builds every decomposition
field up front, and is the reference for the library's one-loop
representation.  The test-only helpers at the end (a plan's arity and
operator count read off its numbering, the keys-file writer, M(D), whether
a chase merged anything, the isomorphism check, the core reference that
carries the output tuple as a relation, and the core's pair search without
its certificate) are built on the library.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_

from typing import Mapping, Optional, Sequence

from spjopt import (
    Caps,
    DegenerateInputError,
    Hypergraph,
    KeySet,
    OpenStructure,
    ResourceCapError,
    Signature,
    Structure,
    build_representation,
    chase,
    check_tree_decomposition,
    color_number,
    color_values,
    cwidth_of_decomposition,
    eliminate_fds,
    evaluate_naive,
    find_homomorphism,
    homs_relation,
    hypergraph_of,
    optimal_cwidth,
    satisfies_keys,
    subplan_degrees,
)
from spjopt.colorwidth import WidthReport, _bits, _closure_edges, _elimination_bags
from spjopt.constraints import ChaseResult
from spjopt import plans
from spjopt.errors import ArityError, PlanSyntaxError, SignatureError, SpjError, set_field
from spjopt.plans import (
    Basic,
    EvalTrace,
    Join,
    Plan,
    PreparedPlan,
    Project,
    Select,
    _arities,
    _check_theta,
    _column_classes,
    _print_theta,
    _select_rows,
    number_subplans,
    prepare,
    theta_of,
)
from spjopt.represent import (
    PDecomposition,
    PRepresentation,
    TreeDecomposition,
    check_representation_size,
)
from spjopt.structures import _HomSearch, _tuple_pins
from spjopt.synthesis import (
    FdElimination,
    _assemble_plan,
    _atom_subplan,
    _base_fds,
    _closure,
    _defining_plan,
    _first_columns,
    _fresh_names,
    _AtomsByElem,
    _Block,
    _holder,
    _implies,
    _join,
    _project,
    _row_columns,
    _unimplied,
)

# A core cap above every structure the tests search: the largest has 21
# elements.  The width search keeps the default cap.
UNCAPPED = Caps(core_universe=1_000)


# ---------------------------------------------------------------------------
# Recursive plan walks: the reference for number_subplans and its folds
# ---------------------------------------------------------------------------


def children_of(plan: Plan) -> tuple[Plan, ...]:
    if isinstance(plan, (Select, Project)):
        return (plan.child,)
    if isinstance(plan, Join):
        return plan.children
    return ()


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


def alpha(plan: Plan) -> dict[tuple[int, ...], int]:
    """AST path -> decomposition node id: the occurrence's post-order index."""
    return {path: i for i, (path, _) in enumerate(subplans(plan))}


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


# ---------------------------------------------------------------------------
# Homomorphisms by exhaustive enumeration
# ---------------------------------------------------------------------------


def brute_homs(src: Structure, dst: Structure):
    """All homomorphisms src -> dst, as dicts, by filtering every map."""
    assert src.signature == dst.signature
    out = []
    src_elems = list(src.universe)
    atoms = list(src.atoms())
    for name in src.signature.symbols():
        if src.signature.arity(name) == 0 and src.relations[name] and not dst.relations[name]:
            return []
    if not src_elems:
        return [{}]
    for values in itertools.product(dst.universe, repeat=len(src_elems)):
        h = dict(zip(src_elems, values))
        if all(tuple(h[e] for e in row) in dst.relations[name] for name, row in atoms):
            out.append(h)
    return out


def brute_homs_relation(src: Structure, out_tuple, data: Structure):
    return frozenset(
        tuple(h[e] for e in out_tuple) for h in brute_homs(src, data)
    )


def has_images(src: Structure, outputs, data: Structure, count: int) -> bool:
    """Whether homs(src, outputs, data) holds at least ``count`` tuples: the
    search of ``homs_relation``, stopped at the ``count``-th image, so a
    lower bound stays cheap to check on a relation far larger than it."""
    search = _HomSearch(src, data, {})
    start = search._start()
    found = set()
    if start is not None:
        cand, assigned = start
        for partial in search._solutions(cand, assigned, sorted(set(outputs))):
            if search._complete(cand, partial) is not None:
                found.add(tuple(partial[v] for v in outputs))
                if len(found) >= count:
                    break
    return len(found) >= count


def brute_open_hom_exists(a: OpenStructure, b: OpenStructure) -> bool:
    return any(
        tuple(h[e] for e in a.tuple) == b.tuple
        for h in brute_homs(a.structure, b.structure)
    )


def brute_isomorphic(a: OpenStructure, b: OpenStructure) -> bool:
    """Whether some bijection of the universes maps every relation of ``a``
    onto that of ``b`` and ``a``'s tuple to ``b``'s, tried one by one."""
    sa, sb = a.structure, b.structure
    if len(sa.universe) != len(sb.universe) or len(a.tuple) != len(b.tuple):
        return False
    for image in itertools.permutations(sb.universe):
        h = dict(zip(sa.universe, image))
        if tuple(h[e] for e in a.tuple) == b.tuple and all(
            {tuple(h[e] for e in t) for t in sa.relations[name]} == sb.relations[name]
            for name in sa.signature
        ):
            return True
    return False


def has_proper_retraction(a: OpenStructure) -> bool:
    """Exhaustive: is there an idempotent non-surjective endomorphism of
    ``a`` that fixes every entry of its tuple?"""
    s = a.structure
    for h in brute_homs(s, s):
        if (
            len(set(h.values())) < len(s.universe)
            and all(h[h[x]] == h[x] for x in h)
            and all(h[e] == e for e in a.tuple)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Chase oracles: random step order, and the stepwise deterministic chase
# ---------------------------------------------------------------------------


def random_chase(value, keys: KeySet, rng):
    """Chase with a randomized step order; returns the fixpoint only."""
    is_open = isinstance(value, OpenStructure)
    struct = value.structure if is_open else value
    merge = {e: e for e in struct.universe}
    current = struct
    while True:
        violations = []
        for name in current.signature.symbols():
            for pos in keys.for_relation(name):
                k = pos - 1
                rows = sorted(current.relations[name])
                for r1, r2 in itertools.combinations(rows, 2):
                    if r1[k] == r2[k]:
                        for i in range(len(r1)):
                            if i != k and r1[i] != r2[i]:
                                violations.append((r1[i], r2[i]))
        if not violations:
            break
        x, y = violations[rng.randrange(len(violations))]
        if rng.random() < 0.5:
            x, y = y, x
        current = current.apply_map({x: y})
        for e, rep in merge.items():
            if rep == x:
                merge[e] = y
    if is_open:
        return OpenStructure(current, tuple(merge[e] for e in value.tuple))
    return current


def _first_violation(struct: Structure, keys: KeySet):
    """First chase step (x -> smaller representative) in deterministic order:
    relations by name, tuples sorted, positions left to right."""
    for name in struct.signature.symbols():
        positions = keys.for_relation(name)
        if not positions:
            continue
        rows = sorted(struct.relations[name])
        for pos in positions:
            k = pos - 1
            groups = {}
            for row in rows:
                other = groups.get(row[k])
                if other is not None and other != row:
                    for i in range(len(row)):
                        if i != k and other[i] != row[i]:
                            a, b = other[i], row[i]
                            return (max(a, b), min(a, b))
                else:
                    groups[row[k]] = row
    return None


def stepwise_chase(value, keys: KeySet):
    """The chase one step at a time: merge the larger element of the first
    violation into the smaller, rebuild the structure, rescan.  Returns
    (fixpoint, merge map) like ``spjopt.chase``."""
    is_open = isinstance(value, OpenStructure)
    struct = value.structure if is_open else value
    merge = {e: e for e in struct.universe}
    current = struct
    while True:
        step = _first_violation(current, keys)
        if step is None:
            break
        src, dst = step
        current = current.apply_map({src: dst})
        for e, rep in merge.items():
            if rep == src:
                merge[e] = dst
    if is_open:
        return OpenStructure(current, tuple(merge[e] for e in value.tuple)), merge
    return current, merge


# ---------------------------------------------------------------------------
# Recursive homomorphism search
# ---------------------------------------------------------------------------


class RecursiveHomSearch:
    """Backtracking search with forward checking, one recursion level per
    source element and a copy of every candidate set per level.

    Same variable order (smallest candidate set, then id) and value order
    (sorted) as ``spjopt.structures._HomSearch``, so the two must return the
    same maps.  Recursion depth grows with the source universe: small
    inputs only.
    """

    def __init__(self, src: Structure, dst: Structure, pinned: Mapping[int, int]):
        assert src.signature == dst.signature
        self.src = src
        self.dst = dst
        self.consistent = True
        for name in src.signature.symbols():
            if src.signature.arity(name) == 0:
                if src.relations[name] and not dst.relations[name]:
                    self.consistent = False
        self.atoms = list(src.atoms())
        self.atoms_of = {v: [] for v in src.universe}
        for idx, (_, row) in enumerate(self.atoms):
            for v in set(row):
                self.atoms_of[v].append(idx)
        cand = {}
        for v in src.universe:
            allowed = set(dst.universe)
            for idx in self.atoms_of[v]:
                name, row = self.atoms[idx]
                for pos, e in enumerate(row):
                    if e == v:
                        allowed &= {t[pos] for t in dst.relations[name]}
            cand[v] = allowed
        for v, val in pinned.items():
            if val not in cand.get(v, ()):
                self.consistent = False
                break
            cand[v] = {val}
        self.initial = cand

    def _propagate(self, cand, assigned, var) -> bool:
        for idx in self.atoms_of[var]:
            name, row = self.atoms[idx]
            rows = None
            for pos, e in enumerate(row):
                if e in assigned:
                    match = tuple(t for t in sorted(self.dst.relations[name]) if t[pos] == assigned[e])
                    rows = match if rows is None else tuple(t for t in rows if t[pos] == assigned[e])
            if rows is None:
                rows = tuple(sorted(self.dst.relations[name]))
            if not rows:
                return False
            for pos, e in enumerate(row):
                if e not in assigned:
                    cand[e] = cand[e] & {t[pos] for t in rows}
                    if not cand[e]:
                        return False
        return True

    def _extend(self, cand, assigned, order_pool):
        todo = [v for v in order_pool if v not in assigned]
        if not todo:
            return dict(assigned)
        var = min(todo, key=lambda v: (len(cand[v]), v))
        for val in sorted(cand[var]):
            new_cand = {v: set(s) for v, s in cand.items()}
            new_cand[var] = {val}
            assigned[var] = val
            if self._propagate(new_cand, assigned, var):
                res = self._extend(new_cand, assigned, order_pool)
                if res is not None:
                    return res
            del assigned[var]
        return None

    def _start(self):
        cand = {v: set(s) for v, s in self.initial.items()}
        assigned = {v: next(iter(s)) for v, s in self.initial.items() if len(s) == 1}
        for v in list(assigned):
            if not self._propagate(cand, assigned, v):
                return None
        return cand, assigned

    def first(self) -> Optional[dict]:
        if not self.consistent:
            return None
        start = self._start()
        if start is None:
            return None
        cand, assigned = start
        return self._extend(cand, assigned, self.src.universe)

    def images(self, out_vars: Sequence[int]) -> set:
        result = set()
        if not self.consistent:
            return result
        start = self._start()
        if start is None:
            return result
        distinct = sorted(set(out_vars))

        def rec(cand, assigned):
            todo = [v for v in distinct if v not in assigned]
            if not todo:
                completion = self._extend(
                    {v: set(s) for v, s in cand.items()}, dict(assigned), self.src.universe
                )
                if completion is not None:
                    result.add(tuple(assigned[v] for v in out_vars))
                return
            var = min(todo, key=lambda v: (len(cand[v]), v))
            for val in sorted(cand[var]):
                new_cand = {v: set(s) for v, s in cand.items()}
                new_cand[var] = {val}
                assigned[var] = val
                if self._propagate(new_cand, assigned, var):
                    rec(new_cand, assigned)
                del assigned[var]

        rec(*start)
        return result


def recursive_homs_relation(src: Structure, out_tuple, data: Structure):
    """homs(A, a, D) through the recursive search."""
    return frozenset(RecursiveHomSearch(src, data, {}).images(tuple(out_tuple)))


# ---------------------------------------------------------------------------
# Plans: character-loop tokenizer, per-occurrence check and evaluation
# ---------------------------------------------------------------------------


def char_loop_tokens(text: str) -> list[tuple[str, str, int, int]]:
    """Plan tokens as (kind, value, line, column), one character at a time;
    raises PlanSyntaxError at the first bad token."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c in "()":
            tokens.append((c, c, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            word = text[i:j]
            kind = "int" if re.fullmatch(r"-?[0-9]+", word) else "name"
            if kind == "name" and not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", word):
                raise PlanSyntaxError(f"bad token {word!r}", line, col)
            tokens.append((kind, word, line, col))
            col += j - i
            i = j
    return tokens


def _join_is_well_behaved_per_occurrence(join: Join, signature) -> bool:
    arities = [arity_of(c, signature) for c in join.children]
    m1 = arities[0]
    s = sum(arities)
    classes = _column_classes(join.theta, s)

    def equated(i, j):
        return classes[i] == classes[j]

    base = list(range(1, m1 + 1))
    for k in range(1, s + 1):
        if all(
            any(equated(i, j) for j in base + [k])
            for i in range(m1 + 1, s + 1)
            if i != k
        ):
            return True
    return s == m1


def is_well_behaved_per_occurrence(plan: Plan, signature):
    """``is_well_behaved`` with every join occurrence checked on its own."""
    for _, node in subplans(plan):
        if isinstance(node, Join) and not _join_is_well_behaved_per_occurrence(node, signature):
            return False, node
    return True, None


def _record(
    trace: EvalTrace, node: Plan, kids: tuple[int, ...], rows: frozenset
) -> tuple[frozenset, int]:
    """Give one occurrence of ``node``, whose children's occurrences have
    the numbers ``kids``, the next number of ``trace`` and the rows
    ``rows``; returns them.  The oracles number every occurrence on its
    own, so no two occurrences share rows."""
    numbers, distinct = trace.numbering
    numbers.append(len(distinct))
    distinct.append((node, kids))
    trace.rows.append(rows)
    return rows, numbers[-1]


def evaluate_well_behaved_per_occurrence(plan: Plan, data: Structure) -> EvalTrace:
    """The well-behaved evaluator with every subplan occurrence evaluated on
    its own, recursively: the reference for the shared evaluation."""
    ok, offender = is_well_behaved_per_occurrence(plan, data.signature)
    if not ok:
        raise ValueError(f"plan is not well-behaved at {print_plan(offender)}")
    validate_plan(plan, data.signature)
    trace = EvalTrace(([], []))

    def rec(node: Plan) -> tuple[frozenset, int]:
        if isinstance(node, Select):
            child, kid = rec(node.child)
            rows, kids = _select_rows(child, node.theta), (kid,)
        elif isinstance(node, Project):
            child, kid = rec(node.child)
            rows, kids = frozenset(tuple(t[c - 1] for c in node.cols) for t in child), (kid,)
        elif isinstance(node, Join):
            rows, kids = join_chain(node)
        else:
            rows, kids = data.relations[node.relation], ()
        return _record(trace, node, kids, rows)

    def join_chain(node: Join) -> tuple[frozenset, tuple[int, ...]]:
        outs, kids = zip(*[rec(c) for c in node.children])
        spans = []
        off = 0
        for c in node.children:
            m = arity_of(c, data.signature)
            spans.append(list(range(off + 1, off + m + 1)))
            off += m
        s = off
        classes = _column_classes(node.theta, s)
        bound: dict[int, int] = {}
        current = [
            t
            for t in sorted(outs[0])
            if all(
                t[a - 1] == t[b - 1]
                for a, b in itertools.combinations(spans[0], 2)
                if classes[a] == classes[b]
            )
        ]
        for col in spans[0]:
            bound.setdefault(classes[col], col - 1)
        width = len(spans[0])
        trace.internal_peak = max(trace.internal_peak, len(current))
        for child_idx in range(1, len(outs)):
            cols = spans[child_idx]
            key_pairs = []
            seen_class: dict[int, int] = {}
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
                if any(
                    classes[col] in seen_class
                    and seen_class[classes[col]] != local
                    and t[local] != t[seen_class[classes[col]]]
                    for local, col in enumerate(cols)
                ):
                    continue
                key = tuple(t[local] for local, _ in key_pairs)
                table.setdefault(key, []).append(tuple(t[local] for local in new_cols))
            next_rows = []
            for row in current:
                key = tuple(row[slot] for _, slot in key_pairs)
                next_rows.extend(row + ext for ext in table.get(key, ()))
            for local in new_cols:
                bound[classes[cols[local]]] = width
                width += 1
            current = next_rows
            trace.internal_peak = max(trace.internal_peak, len(current))
        return frozenset(
            tuple(row[bound[classes[col]]] for col in range(1, s + 1)) for row in current
        ), kids

    rec(plan)
    return trace


def evaluate_naive_recursive(plan: Plan, data: Structure) -> EvalTrace:
    """The naive evaluator with every subplan occurrence evaluated on its
    own, recursively: the reference for the folded ``evaluate_naive``."""
    validate_plan(plan, data.signature)
    trace = EvalTrace(([], []))

    def rec(node: Plan) -> tuple[frozenset, int]:
        if isinstance(node, Basic):
            rows, kids = data.relations[node.relation], ()
        elif isinstance(node, Select):
            child, kid = rec(node.child)
            rows, kids = _select_rows(child, node.theta), (kid,)
        elif isinstance(node, Project):
            child, kid = rec(node.child)
            rows, kids = frozenset(tuple(t[c - 1] for c in node.cols) for t in child), (kid,)
        else:
            outs, kids = zip(*[rec(c) for c in node.children])
            theta = node.theta
            rows = frozenset(
                flat
                for combo in itertools.product(*[sorted(o) for o in outs])
                for flat in (tuple(itertools.chain.from_iterable(combo)),)
                if all(flat[j - 1] == flat[k - 1] for j, k in theta)
            )
        return _record(trace, node, kids, rows)

    rec(plan)
    return trace


# ---------------------------------------------------------------------------
# LP oracles
# ---------------------------------------------------------------------------


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for r, vec in enumerate(tableau):
        if r != row and vec[col] != 0:
            factor = vec[col]
            tableau[r] = [a - factor * b for a, b in zip(vec, tableau[row])]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]) -> str:
    """Maximize ``cost`` over the feasible dictionary in ``tableau``.

    The last tableau row is the objective in reduced form (updated by
    pivots); returns "optimal" or "unbounded".
    """
    ncols = len(tableau[0]) - 1
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(ncols):
        obj[j] = -cost[j]
    tableau.append(obj)
    # Price out the starting basis.
    for r, b in enumerate(basis):
        if cost[b] != 0:
            factor = tableau[-1][b]
            tableau[-1] = [a - factor * x for a, x in zip(tableau[-1], tableau[r])]
    while True:
        entering = None
        for j in range(ncols):
            if tableau[-1][j] < 0:
                entering = j  # Bland: smallest index
                break
        if entering is None:
            return "optimal"
        leaving = None
        best = None
        for r in range(len(basis)):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving is None:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)


@dataclass
class OracleLpResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Optional[Fraction]
    solution: Optional[list[Fraction]]


def two_phase_solve_lp(
    objective: Sequence, constraints: Sequence[tuple[Sequence, str, object]], maximize: bool = True
) -> OracleLpResult:
    """Solve max/min objective . x  subject to rows (coeffs, rel, rhs), x >= 0,
    by the two-phase simplex over ``Fraction`` entries (the reference for
    ``spjopt.simplex.solve_lp``, which handles packing LPs only).

    ``rel`` is one of "<=", ">=", "=".  Returns an exact optimal basic
    solution when one exists.
    """
    n = len(objective)
    c = [Fraction(v) for v in objective]
    if not maximize:
        c = [-v for v in c]
    rows = []
    for coeffs, rel, rhs in constraints:
        coeffs = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append((coeffs, rel, rhs))

    nslack = sum(1 for _, rel, _ in rows if rel in ("<=", ">="))
    nart = sum(1 for _, rel, _ in rows if rel in (">=", "="))
    total = n + nslack + nart
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    slack_at = n
    art_at = n + nslack
    art_cols = []
    for coeffs, rel, rhs in rows:
        vec = [Fraction(0)] * (total + 1)
        for j, v in enumerate(coeffs):
            vec[j] = v
        if rel == "<=":
            vec[slack_at] = Fraction(1)
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            vec[slack_at] = Fraction(-1)
            slack_at += 1
            vec[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        else:
            vec[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        vec[-1] = rhs
        tableau.append(vec)

    if art_cols:
        phase1 = [Fraction(0)] * total
        for j in art_cols:
            phase1[j] = Fraction(-1)
        status = _run_simplex(tableau, basis, phase1)
        if status != "optimal" or tableau[-1][-1] != 0:
            return OracleLpResult("infeasible", None, None)
        tableau.pop()
        # Drive leftover artificials out of the basis (degenerate rows).
        drop = []
        for r, b in enumerate(basis):
            if b in art_cols:
                piv_col = next(
                    (j for j in range(n + nslack) if tableau[r][j] != 0), None
                )
                if piv_col is None:
                    drop.append(r)
                else:
                    _pivot(tableau, basis, r, piv_col)
        for r in sorted(drop, reverse=True):
            tableau.pop(r)
            basis.pop(r)
        # Forbid artificials from re-entering.
        for vec in tableau:
            for j in art_cols:
                vec[j] = Fraction(0)

    status = _run_simplex(tableau, basis, c + [Fraction(0)] * (nslack + nart))
    if status == "unbounded":
        return OracleLpResult("unbounded", None, None)
    value = tableau[-1][-1]
    solution = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            solution[b] = tableau[r][-1]
    if not maximize:
        value = -value
    return OracleLpResult("optimal", value, solution)


def _gauss_solve(matrix, rhs):
    """Exact solution of a square system, or None if singular."""
    n = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def packing_lp_by_basic_enumeration(columns, constraint_rows):
    """Max 1.w for Aw <= 1, w >= 0 by enumerating basic solutions.

    ``columns`` is the number of variables, ``constraint_rows`` a list of
    0/1 coefficient lists.  Returns the exact optimum.
    """
    m = len(constraint_rows)
    n = columns
    if m == 0:
        return None if n else Fraction(0)
    # Slack form: [A | I] w' = 1.
    total = n + m
    best = Fraction(0)  # w = 0 is always feasible
    full = [[Fraction(constraint_rows[i][j]) for j in range(n)]
            + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
            for i in range(m)]
    for cols in itertools.combinations(range(total), m):
        mat = [[full[i][c] for c in cols] for i in range(m)]
        sol = _gauss_solve(mat, [Fraction(1)] * m)
        if sol is None or any(v < 0 for v in sol):
            continue
        value = sum(v for c, v in zip(cols, sol) if c < n)
        if value > best:
            best = value
    return best


def fractional_edge_cover(edges, target) -> Fraction:
    """Direct covering LP over the edges: min total weight with every target
    vertex covered at least once."""
    target = [v for v in target]
    edges = [frozenset(e) for e in edges]
    usable = [e for e in edges if e]
    rows = []
    for v in target:
        rows.append(([Fraction(1) if v in e else Fraction(0) for e in usable], ">=", 1))
    res = two_phase_solve_lp([Fraction(1)] * len(usable), rows, maximize=False)
    assert res.status == "optimal", res.status
    return res.value


def all_atoms_bag_chain(order: tuple[int, ...], atoms_by_elem) -> Plan:
    """The bag chain that joins a block for every atom holding the step's
    new element, dominated or not: ``synthesis._bag_chain`` on a bag that
    no atom holds, without its block rule, the reference for that rule."""
    sol: Optional[Plan] = None
    for i, elem in enumerate(order, start=1):
        visible = order[:i]
        children: list[Plan] = []
        col_elems: list[int] = []
        if sol is not None:
            children.append(sol)
            col_elems.extend(order[: i - 1])
        for rel, row, base in atoms_by_elem[elem]:
            cols = tuple(e for e in visible if e in row)
            children.append(_atom_subplan(rel, row, base, cols))
            col_elems.extend(cols)
        theta, first = _first_columns(col_elems)
        sol = _project(tuple(first[e] for e in visible), _join(theta, children), len(col_elems))
    return sol


def dominance_bag_chain(order: tuple[int, ...], atoms_by_elem, steps: Optional[list] = None) -> Plan:
    """``synthesis._bag_chain`` without its implication rule: every block
    that the holder join or a chain step's dominance rule keeps is joined,
    and the chain always starts from its first step.  Each block's columns
    follow its atom's row, as synthesis takes them.  The reference for the
    implication rule.  When ``steps`` is given, each join's blocks are
    appended to it as a list of (relation, row, columns)."""
    holder = _holder(frozenset(order), atoms_by_elem)
    if holder is not None:
        blocks = {holder[:2]: holder}
        for e in order:
            for atom in atoms_by_elem[e]:
                blocks.setdefault(atom[:2], atom)
        children: list[Plan] = []
        col_elems: list[int] = []
        joined = []
        bag = frozenset(order)
        for rel, row, base in blocks.values():
            cols = tuple(e for e in dict.fromkeys(row) if e in bag)
            children.append(_atom_subplan(rel, row, base, cols))
            col_elems.extend(cols)
            joined.append((rel, row, cols))
        if steps is not None:
            steps.append(joined)
        theta, _ = _first_columns(col_elems)
        return _project(tuple(range(1, len(order) + 1)), _join(theta, children), len(col_elems))
    step_of = {e: i for i, e in enumerate(order, start=1)}
    sol: Optional[Plan] = None
    for i, elem in enumerate(order, start=1):
        visible = order[:i]
        children = []
        col_elems = []
        joined = []
        if sol is not None:
            children.append(sol)
            col_elems.extend(order[: i - 1])
        atoms = atoms_by_elem[elem]
        seen = frozenset(visible)
        col_sets = [seen.intersection(row) for _, row, _ in atoms]
        for k, (rel, row, base) in enumerate(atoms):
            cset = col_sets[k]
            complete = max(step_of[e] for e in row if e in step_of) == i
            if complete or not any(
                cset < other or (j < k and cset == other) for j, other in enumerate(col_sets)
            ):
                cols = tuple(e for e in dict.fromkeys(row) if e in cset)
                children.append(_atom_subplan(rel, row, base, cols))
                col_elems.extend(cols)
                joined.append((rel, row, cols))
        if steps is not None:
            steps.append(joined)
        theta, first = _first_columns(col_elems)
        sol = _project(tuple(first[e] for e in visible), _join(theta, children), len(col_elems))
    return sol


def _hand_block_join(blocks: list[_Block], first: Optional[Plan], first_cols: tuple[int, ...], out: tuple[int, ...]) -> Plan:
    """``synthesis._block_join`` as it was before ``synthesis._joined``
    took over its assembly: the reference for that assembly.

    The join of ``first`` (over ``first_cols``, when given) and the
    blocks' atom projections, projected onto the elements ``out``."""
    children: list[Plan] = [] if first is None else [first]
    col_elems = list(first_cols)
    for rel, row, base, cols in blocks:
        children.append(_atom_subplan(rel, row, base, cols))
        col_elems.extend(cols)
    theta, first_col = _first_columns(col_elems)
    return _project(tuple(first_col[e] for e in out), _join(theta, children), len(col_elems))


def holder_branch_bag_chain(order: tuple[int, ...], atoms_by_elem: _AtomsByElem) -> Plan:
    """``synthesis._bag_chain`` as it was before its holder branch became
    the one-step case of its step loop: the reference for that loop.

    Join chain materializing the bag's local solutions; output columns
    follow ``order``.

    Every block is an atom's projection onto the elements the join sees,
    its columns in the atom's row order; the join equates columns by
    element, and its projection restores the bag order.

    A bag with a :func:`_holder` atom is built in one step: the holder's
    projection onto the bag, joined with every other atom that meets the
    bag on its bag columns.  The join adds no column beyond its first
    child, so it is well-behaved, and every atom constrains the bag.

    Any other bag is built one element per step.  The step that brings in
    ``elem`` joins the chain so far with one block per atom holding
    ``elem``: the atom's projection onto its visible columns.  A block is
    kept when its atom is complete (every element of row & bag is visible,
    so this is the atom's last step and it is joined on all its bag
    columns), or when its column set is not a proper subset of another
    block's in the step; of equal column sets the first is kept.  A
    dropped block is a dominated hyperedge of the step's visible set, so
    the step's fractional edge cover, and with it the step's degree bound,
    is unchanged, and every atom still constrains the bag at its last step.

    On both paths a block is then dropped when another block of the same
    join implies it: both are over one relation R, the dropped atom
    repeats no element, and the other atom holds the same element at every
    position where the dropped one holds a visible element (of two such
    blocks with equal columns the first is kept, so the holder stays the
    first child).  Any R-row that witnesses the kept block witnesses the
    dropped one, so the join's rows are unchanged, and the dropped block's
    hyperedge lies inside the kept one's, so the step's edge cover and
    degree bound are unchanged.  For the same reason, when the first step
    ends as the block of one atom A and a second-step block over A's
    relation holds ``order[0]`` at A's positions of it, the first step is
    implied and the second step joins its blocks alone: it has two visible
    elements, so any first child keeps the join well-behaved.

    No step is a dead operator: the first step is its one block when it has
    one, and a step's projection is left out when it keeps all the join's
    columns in order.
    """
    holder = _holder(frozenset(order), atoms_by_elem)
    if holder is not None:
        atoms = {holder[:2]: holder}
        for e in order:
            for atom in atoms_by_elem[e]:
                atoms.setdefault(atom[:2], atom)
        bag = frozenset(order)
        blocks = [(rel, row, base, _row_columns(row, bag)) for rel, row, base in atoms.values()]
        return _hand_block_join(_unimplied(blocks, bag), None, (), order)
    step_of = {e: i for i, e in enumerate(order, start=1)}
    sol: Optional[Plan] = None
    seed = None  # the first step's lone atom, (relation, row)
    for i, elem in enumerate(order, start=1):
        visible = order[:i]
        seen = frozenset(visible)
        atoms = atoms_by_elem[elem]
        col_sets = [seen.intersection(row) for _, row, _ in atoms]
        blocks = _unimplied(
            [
                (rel, row, base, _row_columns(row, cset))
                for k, ((rel, row, base), cset) in enumerate(zip(atoms, col_sets))
                if max(step_of[e] for e in row if e in step_of) == i
                or not any(cset < other or (j < k and cset == other) for j, other in enumerate(col_sets))
            ],
            seen,
        )
        if i == 1 and len(blocks) == 1:
            seed = blocks[0][:2]
        elif i == 2 and seed is not None and any(
            rel == seed[0] and _implies(row, seed[1], frozenset(order[:1])) for rel, row, _, _ in blocks
        ):
            sol = None  # the second step implies the first
        sol = _hand_block_join(blocks, sol, () if sol is None else order[: i - 1], visible)
    return sol


def scan_closures(core: OpenStructure, keys: KeySet) -> list[tuple[str, tuple[int, ...], tuple[int, ...], Plan]]:
    """Per atom of ``core`` in atom order, (relation, row, closed row,
    defining plan): the row closed under the key-derived dependencies by
    rescanning every dependency at each step, the smallest determined y
    first, from the smallest x in the row.  The reference for
    ``eliminate_fds``'s worklist closure."""
    struct = core.structure
    fd_plans: dict[tuple[int, int], Plan] = {}
    for name in struct.signature.symbols():
        for j in keys.for_relation(name):
            for row in sorted(struct.relations[name]):
                for i, y in enumerate(row, start=1):
                    if i != j and y != row[j - 1] and (row[j - 1], y) not in fd_plans:
                        fd_plans[(row[j - 1], y)] = _project((j, i), Basic(name), len(row))
    out = []
    for rel, row in struct.atoms():
        plan: Plan = Basic(rel)
        cur = tuple(row)
        while True:
            have = set(cur)
            targets = sorted(y for (x, y) in fd_plans if x in have and y not in have)
            if not targets:
                break
            y = targets[0]
            x = min(x for (x, z) in fd_plans if z == y and x in have)
            r = len(cur)
            joined = Join(theta_of([(cur.index(x) + 1, r + 1)]), (plan, fd_plans[(x, y)]))
            plan = Project(tuple(range(1, r + 1)) + (r + 2,), joined)
            cur = cur + (y,)
        out.append((rel, row, cur, plan))
    return out


def unpruned_eliminate_fds(core: OpenStructure, keys: KeySet) -> FdElimination:
    """Key elimination that keeps every atom, each closed on its own by
    :func:`scan_closures`, and names a derived relation by its defining
    plan: ``eliminate_fds`` without dropping implied atoms."""
    struct = core.structure
    if not satisfies_keys(struct, keys):
        raise DegenerateInputError("key elimination requires a chase fixpoint")
    names = _fresh_names(struct.signature)
    name_by_plan: dict[Plan, str] = {}
    rows: dict[str, list[tuple[int, ...]]] = {n: [] for n in struct.signature.symbols()}
    for rel, row, cur, plan in scan_closures(core, keys):
        if cur == row:
            rows[rel].append(row)
            continue
        if plan not in name_by_plan:
            name_by_plan[plan] = next(names)
            rows[name_by_plan[plan]] = []
        rows[name_by_plan[plan]].append(cur)
    new_relations = {name: plan for plan, name in name_by_plan.items()}
    sig = struct.signature.extend({name: len(rows[name][0]) for name in new_relations})
    defining = {n: Basic(n) for n in struct.signature.symbols()}
    defining.update(new_relations)
    widened = Structure(sig, struct.universe, rows, struct.names)
    return FdElimination(core, OpenStructure(widened, core.tuple), defining, new_relations)


def widen_every_atom_eliminate_fds(core: OpenStructure, keys: KeySet) -> FdElimination:
    """``eliminate_fds`` that widens every kept atom with closure steps,
    and counts every kept atom's closure facts towards dropping: the
    reference for leaving dominated atoms unwidened.

    Close every atom under the key-derived dependencies, and drop the
    atoms that the keys imply from another atom's closure.

    Requires the input to be a chase fixpoint.  Appending is one column at a
    time, always sourced from an element already present in the atom, so
    only base dependencies are ever needed and each step is a well-behaved
    join whose output is no larger than the base relation.  A derived
    relation is named by its closure steps, so equal closures share a name.

    Atoms are visited largest expansion first.  One without repeated
    elements and of arity at least 2 is dropped when, for some key j of its
    relation R, the closure of one kept atom recorded the fact (R, j, i,
    row[j], row[i]) for every other position i.  On key-satisfying data the
    R-row holding row[j] at j is then ``row`` itself, and ``row`` lies
    inside that kept atom's widened row, so its hyperedge is dominated and
    no bag's color number changes.
    """
    struct = core.structure
    sig = struct.signature
    if not satisfies_keys(struct, keys):
        raise DegenerateInputError("key elimination requires a chase fixpoint")
    fds = _base_fds(struct, keys)
    targets: dict[int, list[int]] = {}
    sources: dict[int, list[int]] = {}
    for (x, y) in fds:
        targets.setdefault(x, []).append(y)
        sources.setdefault(y, []).append(x)

    atoms = list(struct.atoms())
    closures = [_closure(row, targets, sources) for _, row in atoms]
    keep = [True] * len(atoms)
    kept_facts: list[set] = []  # per kept atom, the facts its closure recorded
    for k in sorted(range(len(atoms)), key=lambda k: len(atoms[k][1]) - len(closures[k][0])):
        rel, row = atoms[k]
        if len(row) >= 2 and len(set(row)) == len(row):
            keep[k] = not any(
                {(rel, j, i, row[j - 1], y) for i, y in enumerate(row, start=1) if i != j} <= facts
                for j in keys.for_relation(rel)
                for facts in kept_facts
            )
        if keep[k]:
            kept_facts.append({(*fds[(x, y)], x, y) for _, x, y in closures[k][1]})

    names = _fresh_names(sig)
    new_relations: dict[str, Plan] = {}
    name_by_steps: dict[tuple, str] = {}
    new_rows: dict[str, list[tuple[int, ...]]] = {}
    kept_rows: dict[str, list[tuple[int, ...]]] = {n: [] for n in sig.symbols()}
    for (rel, row), (cur, steps), kept in zip(atoms, closures, keep):
        if not kept:
            continue
        if not steps:
            kept_rows[rel].append(row)
            continue
        key = (rel, tuple((pos_x, *fds[(x, y)]) for pos_x, x, y in steps))
        name = name_by_steps.get(key)
        if name is None:
            name = name_by_steps[key] = next(names)
            new_relations[name] = _defining_plan(rel, key[1], sig)
            new_rows[name] = []
        new_rows[name].append(cur)

    widened_sig = sig.extend({name: len(rows[0]) for name, rows in new_rows.items()})
    relations = dict(kept_rows)
    relations.update(new_rows)
    widened = Structure(widened_sig, struct.universe, relations, struct.names)
    defining = {n: Basic(n) for n in sig.symbols()}
    defining.update(new_relations)
    return FdElimination(
        original=core,
        open=OpenStructure(widened, core.tuple),
        defining_plans=defining,
        new_relations=new_relations,
    )


def synthesize_with_keyed_search(core: OpenStructure, keys: KeySet, caps):
    """Plan synthesis with a second width search: the degree is the width of
    a search over ``core`` under ``keys``, and the plan follows a search over
    the key-eliminated structure with no keys (the first search's
    decomposition when ``keys`` is empty), contracted as synthesis
    contracts it.  Returns (plan, degree, decomposition)."""
    width_report = optimal_cwidth(core, keys, cap=caps.width_universe)
    elim = eliminate_fds(core, keys)
    if keys:
        dec = optimal_cwidth(elim.open, KeySet.empty(), cap=caps.width_universe).decomposition
    else:
        dec = width_report.decomposition
    dec = dec.contracted()
    return _assemble_plan(core, elim, dec).plan, width_report.width, dec


def assert_contracted(elim, report: WidthReport, dec: TreeDecomposition) -> None:
    """``dec``, the contraction of ``report``'s decomposition of
    ``elim.open``, is a tree decomposition of it in which no bag lies inside
    a neighbour's, of the search's width, whose root holds the output tuple
    and whose nodes are some of the search's, with their bags."""
    assert check_tree_decomposition(hypergraph_of(elim.open), dec.edges, dec.chi)
    for a, b in dec.edges:
        assert not dec.chi[a] <= dec.chi[b] and not dec.chi[b] <= dec.chi[a]
    assert cwidth_of_decomposition(elim.open, KeySet.empty(), dec).width == report.width
    assert dec.parent[dec.root] is None and set(elim.open.tuple) <= dec.chi[dec.root]
    assert set(dec.nodes) <= set(report.decomposition.nodes)
    assert all(dec.chi[n] == report.decomposition.chi[n] for n in dec.nodes)


def dead_operators(prepared: PreparedPlan) -> list[Plan]:
    """The distinct subplans of ``prepared`` that compute nothing: a
    projection of a projection, a projection onto all its child's columns
    in order, and a join of one child with no theta."""
    (_, distinct), arities = prepared.numbering, prepared.arities

    def dead(node, kids) -> bool:
        if type(node) is Project:
            return type(node.child) is Project or node.cols == tuple(range(1, arities[kids[0]] + 1))
        return type(node) is Join and len(kids) == 1 and not node.theta

    return [node for node, kids in distinct if dead(node, kids)]


def assert_lean_synthesis(result, keys: KeySet) -> None:
    """The synthesized plan of ``result`` and the defining plan of each of
    its new relations hold no dead operator (see :func:`dead_operators`);
    the plan is well-behaved, and its largest subplan degree is the
    certified degree."""
    prepared = result.prepared
    assert dead_operators(prepared) == []
    for plan in result.new_relations.values():
        assert dead_operators(plans.prepare(plan, prepared.signature)) == []
    assert prepared.offender is None
    assert max(subplan_degrees(prepared, keys)) == result.degree


# ---------------------------------------------------------------------------
# Output degree by rebuilding each subplan's representation
# ---------------------------------------------------------------------------


def rebuilt_output_degree(plan: Plan, keys: KeySet, signature: Signature) -> Fraction:
    """The color number of the tuple set of ``plan``'s representation, built
    from scratch and chased as a whole."""
    rep, _ = build_representation(prepare(plan, signature))
    chased = chase(rep.open, keys).result
    if chased.structure.total_tuple_count() == 0:
        return Fraction(0)
    value, _ = color_number(chased.structure, keys, frozenset(chased.tuple))
    return value


# ---------------------------------------------------------------------------
# Exhaustive decomposition enumeration
# ---------------------------------------------------------------------------


def _trees_on(nodes):
    """All labeled trees on the node list, as edge lists (Pruefer)."""
    k = len(nodes)
    if k == 1:
        yield []
        return
    if k == 2:
        yield [(nodes[0], nodes[1])]
        return
    for seq in itertools.product(range(k), repeat=k - 2):
        degree = [1] * k
        for s in seq:
            degree[s] += 1
        edges = []
        seq_list = list(seq)
        leaves = sorted(i for i in range(k) if degree[i] == 1)
        for s in seq_list:
            leaf = leaves.pop(0)
            edges.append((nodes[leaf], nodes[s]))
            degree[s] -= 1
            degree[leaf] -= 1
            if degree[s] == 1:
                # insert keeping sorted order
                lo = 0
                while lo < len(leaves) and leaves[lo] < s:
                    lo += 1
                leaves.insert(lo, s)
        u, v = [i for i in range(k) if degree[i] == 1]
        edges.append((nodes[u], nodes[v]))
        yield edges


def exhaustive_min_cwidth(open_structure: OpenStructure, keys: KeySet) -> Fraction:
    """Minimum width over all tree decompositions, enumerated exhaustively.

    Sound because any decomposition reduces, without raising the width of a
    monotone bag measure, to one with at most |universe| pairwise-distinct
    bags, none contained in a neighbor; those are all enumerated here.
    """
    h = hypergraph_of(open_structure)
    verts = sorted(h.vertices)
    n = len(verts)
    if n == 0:
        return Fraction(0)
    f_memo = {}

    def f(bag):
        if bag not in f_memo:
            f_memo[bag] = color_number(open_structure.structure, keys, bag)[0]
        return f_memo[bag]

    subsets = []
    for r in range(1, n + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(verts, r))
    best = None
    for k in range(1, n + 1):
        for bags in itertools.combinations(subsets, k):
            width = max(f(b) for b in bags)
            if best is not None and width >= best:
                continue
            chi = dict(enumerate(bags))
            for edges in _trees_on(list(range(k))):
                if check_tree_decomposition(h, edges, chi):
                    best = width
                    break
    assert best is not None, "no decomposition found (single full bag is always valid)"
    return best


def _elimination_bag(v: int, remaining: frozenset, adj: Mapping[int, set[int]]) -> frozenset:
    """{v} plus the remaining vertices reachable from v through eliminated
    ones: the bag v would get if eliminated now."""
    bag = {v}
    seen = {v}
    stack = [v]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt in seen:
                continue
            seen.add(nxt)
            if nxt in remaining:
                bag.add(nxt)
            else:
                stack.append(nxt)
    return frozenset(bag)


def frozenset_optimal_cwidth(
    open_structure: OpenStructure, keys: KeySet, cap: int
) -> WidthReport:
    """``optimal_cwidth`` over frozensets of vertices, as it was before its
    states, bags and adjacency became bitmasks: the reference for the
    bitmask search's report, bag for bag.

    Minimum color-number width over all tree decompositions of H(A, a).

    Searches elimination orderings by dynamic programming over the set of
    already-eliminated vertices; each ordering induces a decomposition whose
    bags are vertex-plus-later-neighbors in the fill graph.  Because the bag
    measure is monotone under set inclusion, some elimination ordering
    attains the overall minimum, so the search is exact.

    Each state is solved below a bound, the best width its caller has found
    so far (none at the root and on the extraction path), and passes its own
    running best down as its children's bound (Gogate & Dechter, "A complete
    anytime algorithm for treewidth", UAI 2004).  A vertex whose bag or
    sub-result reaches the running best is skipped.  A state none of whose
    candidates beats its bound is memoized as ``(bound, None)``: a lower
    bound, reused for any bound it reaches and solved again for a larger
    one.  A state whose minimum is below its bound is solved exactly: only
    a strict improvement replaces the running best, so it keeps the first
    argmin in sorted vertex order, as the unbounded search does.  A nonempty
    bag's color number is at least 1 (0 in a structure without tuples), so
    a state stops at a running best of 1 and is not searched under a bound
    of 1 or less: no later vertex could beat it.  Every state on the
    chosen path is exact, so the decomposition is the
    unbounded search's, and the root still reads every vertex's bag.
    """
    verts = open_structure.structure.universe
    if len(verts) > cap:
        raise ResourceCapError(
            f"width search capped at universe {cap}, got {len(verts)}"
        )
    h = hypergraph_of(open_structure)
    adj: dict[int, set[int]] = {v: set() for v in verts}
    for a, b in h.primal_edges():
        adj[a].add(b)
        adj[b].add(a)

    value = color_values(open_structure.structure, keys)
    f_memo: dict[frozenset, Fraction] = {}

    def f(bag: frozenset) -> Fraction:
        if bag not in f_memo:
            f_memo[bag] = value(bag)
        return f_memo[bag]

    best_memo: dict[frozenset, tuple[Fraction, Optional[int]]] = {}

    def solve(
        remaining: frozenset, bound: Optional[Fraction]
    ) -> tuple[Fraction, Optional[int]]:
        if not remaining:
            return Fraction(0), None
        hit = best_memo.get(remaining)
        if hit is not None and (hit[1] is not None or bound is not None and hit[0] >= bound):
            return hit
        best, best_v = bound, None
        for v in sorted(remaining) if bound is None or bound > 1 else ():
            here = f(_elimination_bag(v, remaining, adj))
            if best is not None and here >= best:
                continue  # the sub-solution can only raise the max
            sub, _ = solve(remaining - {v}, best)
            cand = max(here, sub)
            if best is None or cand < best:
                best, best_v = cand, v
                if best <= 1:
                    break  # the floor: no later vertex can beat it
        best_memo[remaining] = (best, best_v)
        return best, best_v

    if not verts:
        dec = TreeDecomposition({0: None}, 0, {0: frozenset()})
        return cwidth_of_decomposition(open_structure, keys, dec)

    remaining = frozenset(verts)
    order: list[int] = []
    bags: list[frozenset] = []
    while remaining:
        _, v = solve(remaining, None)
        order.append(v)
        bags.append(_elimination_bag(v, remaining, adj))
        remaining = remaining - {v}

    index_of = {v: i for i, v in enumerate(order)}
    parent: dict[int, Optional[int]] = {}
    for i, bag in enumerate(bags):
        later = [index_of[u] for u in bag if index_of[u] > i]
        if later:
            parent[i] = min(later)
        elif i + 1 < len(order):
            parent[i] = i + 1
        else:
            parent[i] = None
    dec = TreeDecomposition(parent, len(order) - 1, {i: bags[i] for i in range(len(order))})

    tuple_set = frozenset(open_structure.tuple)
    holders = [i for i in range(len(bags)) if tuple_set <= bags[i]]
    root = min(holders)  # the tuple edge is a primal clique, so holders is nonempty
    dec = node_order_rerooted(dec, root)
    return cwidth_of_decomposition(open_structure, keys, dec)


def unbounded_optimal_cwidth(open_structure: OpenStructure, keys: KeySet) -> WidthReport:
    """The elimination-order search of ``optimal_cwidth`` without its bound:
    every state is solved exactly, its first argmin in sorted vertex order
    kept, and the decomposition is built from the chosen order the same way.
    The reference for the bounded search's width, bag colors and tree."""
    verts = open_structure.structure.universe
    if not verts:
        dec = TreeDecomposition({0: None}, 0, {0: frozenset()})
        return cwidth_of_decomposition(open_structure, keys, dec)
    adj: dict[int, set[int]] = {v: set() for v in verts}
    for a, b in hypergraph_of(open_structure).primal_edges():
        adj[a].add(b)
        adj[b].add(a)
    value = color_values(open_structure.structure, keys)
    f_memo: dict[frozenset, Fraction] = {}
    best_memo: dict[frozenset, tuple[Fraction, Optional[int]]] = {}

    def f(bag: frozenset) -> Fraction:
        if bag not in f_memo:
            f_memo[bag] = value(bag)
        return f_memo[bag]

    def solve(remaining: frozenset) -> tuple[Fraction, Optional[int]]:
        if not remaining:
            return Fraction(0), None
        hit = best_memo.get(remaining)
        if hit is not None:
            return hit
        best: Optional[Fraction] = None
        best_v: Optional[int] = None
        for v in sorted(remaining):
            here = f(_elimination_bag(v, remaining, adj))
            if best is not None and here >= best:
                continue
            sub, _ = solve(remaining - {v})
            cand = max(here, sub)
            if best is None or cand < best:
                best, best_v = cand, v
        best_memo[remaining] = (best, best_v)
        return best, best_v

    remaining = frozenset(verts)
    order: list[int] = []
    bags: list[frozenset] = []
    while remaining:
        _, v = solve(remaining)
        order.append(v)
        bags.append(_elimination_bag(v, remaining, adj))
        remaining = remaining - {v}
    index_of = {v: i for i, v in enumerate(order)}
    parent: dict[int, Optional[int]] = {}
    for i, bag in enumerate(bags):
        later = [index_of[u] for u in bag if index_of[u] > i]
        if later:
            parent[i] = min(later)
        elif i + 1 < len(order):
            parent[i] = i + 1
        else:
            parent[i] = None
    dec = TreeDecomposition(parent, len(order) - 1, dict(enumerate(bags)))
    tuple_set = frozenset(open_structure.tuple)
    root = min(i for i, bag in enumerate(bags) if tuple_set <= bag)
    return cwidth_of_decomposition(open_structure, keys, node_order_rerooted(dec, root))


def recursive_optimal_cwidth(
    open_structure: OpenStructure, keys: KeySet, cap: int
) -> WidthReport:
    """``optimal_cwidth`` as it was before its memo held each state's bag
    and its search ran on an explicit stack: the reference for both.  It
    recurses once per vertex.

    Minimum color-number width over all tree decompositions of H(A, a).

    Searches elimination orderings by dynamic programming over the set of
    already-eliminated vertices; each ordering induces a decomposition whose
    bags are vertex-plus-later-neighbors in the fill graph.  Because the bag
    measure is monotone under set inclusion, some elimination ordering
    attains the overall minimum, so the search is exact.

    Each state is solved below a bound, the best width its caller has found
    so far (none at the root and on the extraction path), and passes its own
    running best down as its children's bound (Gogate & Dechter, "A complete
    anytime algorithm for treewidth", UAI 2004).  A vertex whose bag or
    sub-result reaches the running best is skipped.  A state none of whose
    candidates beats its bound is memoized as ``(bound, None)``: a lower
    bound, reused for any bound it reaches and solved again for a larger
    one.  A state whose minimum is below its bound is solved exactly: only
    a strict improvement replaces the running best, so it keeps the first
    argmin in sorted vertex order, as the unbounded search does.  A nonempty
    bag's color number is at least 1 (0 in a structure without tuples), so
    a state stops at a running best of 1 and is not searched under a bound
    of 1 or less: no later vertex could beat it.  Every state on the
    chosen path is exact, so the decomposition is the
    unbounded search's, and the root still reads every vertex's bag.

    Vertices are numbered in sorted order, and states, bags and adjacency
    are bitmasks over those numbers, so ascending bits visit the vertices
    in sorted order.  The bags' color numbers are read from the search's
    memo, so the report evaluates no bag twice.
    """
    verts = sorted(open_structure.structure.universe)
    if len(verts) > cap:
        raise ResourceCapError(
            f"width search capped at universe {cap}, got {len(verts)}"
        )
    if not verts:
        dec = TreeDecomposition({0: None}, 0, {0: frozenset()})
        return cwidth_of_decomposition(open_structure, keys, dec)
    h = hypergraph_of(open_structure)
    number = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for a, b in h.primal_edges():
        adj[number[a]] |= 1 << number[b]
        adj[number[b]] |= 1 << number[a]
    everything = (1 << len(verts)) - 1

    value = color_values(open_structure.structure, keys)
    f_memo: dict[int, Fraction] = {}

    def f(bag: int) -> Fraction:
        got = f_memo.get(bag)
        if got is None:
            got = f_memo[bag] = value(frozenset(verts[i] for i in _bits(bag)))
        return got

    best_memo: dict[int, tuple[Fraction, Optional[int]]] = {}

    def solve(remaining: int, bound: Optional[Fraction]) -> tuple[Fraction, Optional[int]]:
        if not remaining:
            return Fraction(0), None
        hit = best_memo.get(remaining)
        if hit is not None and (hit[1] is not None or bound is not None and hit[0] >= bound):
            return hit
        best, best_v = bound, None
        if bound is None or bound > 1:
            for v, bag in _elimination_bags(remaining, everything ^ remaining, adj):
                here = f(bag)
                if best is not None and here >= best:
                    continue  # the sub-solution can only raise the max
                sub, _ = solve(remaining ^ 1 << v, best)
                cand = max(here, sub)
                if best is None or cand < best:
                    best, best_v = cand, v
                    if best <= 1:
                        break  # the floor: no later vertex can beat it
        best_memo[remaining] = (best, best_v)
        return best, best_v

    remaining = everything
    order: list[int] = []
    bags: list[int] = []
    while remaining:
        _, v = solve(remaining, None)
        order.append(v)
        bags.append(dict(_elimination_bags(remaining, everything ^ remaining, adj))[v])
        remaining ^= 1 << v

    index_of = {v: i for i, v in enumerate(order)}
    parent: dict[int, Optional[int]] = {}
    for i, bag in enumerate(bags):
        later = [index_of[u] for u in _bits(bag) if index_of[u] > i]
        if later:
            parent[i] = min(later)
        elif i + 1 < len(order):
            parent[i] = i + 1
        else:
            parent[i] = None
    chi = {i: frozenset(verts[u] for u in _bits(bag)) for i, bag in enumerate(bags)}
    tuple_mask = reduce(or_, (1 << number[v] for v in open_structure.tuple), 0)
    # the tuple edge is a primal clique, so some bag holds it
    root = min(i for i, bag in enumerate(bags) if bag & tuple_mask == tuple_mask)
    dec = dfs_rerooted(TreeDecomposition(parent, len(order) - 1, chi), root)
    if not check_tree_decomposition(h, dec.edges, dec.chi):  # pragma: no cover - construction invariant
        raise SpjError("width search built an invalid tree decomposition")
    bag_colors = {node: f(bags[node]) for node in dec.nodes}
    return WidthReport(dec, bag_colors, max(bag_colors.values()))


def dfs_rerooted(dec: TreeDecomposition, new_root: int) -> TreeDecomposition:
    """``TreeDecomposition.rerooted`` as it was before it turned one path
    around: a depth-first search of the tree's adjacency from the new
    root, the reference for the path walk.

    Same tree re-rooted at another node; bags unchanged."""
    adj: dict[int, set[int]] = {n: set() for n in dec.parent}
    for n, p in dec.parent.items():
        if p is not None:
            adj[n].add(p)
            adj[p].add(n)
    parent: dict[int, Optional[int]] = {new_root: None}
    stack = [new_root]
    while stack:
        cur = stack.pop()
        for nxt in sorted(adj[cur]):
            if nxt not in parent:
                parent[nxt] = cur
                stack.append(nxt)
    return TreeDecomposition(parent, new_root, dict(dec.chi))


def node_order_rerooted(dec: TreeDecomposition, new_root: int) -> TreeDecomposition:
    """:func:`dfs_rerooted` with the parent map in node order, the order in
    which the width search's decomposition lists it."""
    rooted = dfs_rerooted(dec, new_root)
    return TreeDecomposition(dict(sorted(rooted.parent.items())), new_root, rooted.chi)


# ---------------------------------------------------------------------------
# Valid colorings, literally
# ---------------------------------------------------------------------------


def coloring_is_valid(structure: Structure, keys: KeySet, col) -> bool:
    """The two defining conditions of a valid coloring, checked verbatim on
    per-element color sets."""
    for name in structure.signature.symbols():
        for pos in keys.for_relation(name):
            k = pos - 1
            for row in structure.relations[name]:
                key_colors = set(col.get(row[k], set()))
                for i in range(len(row)):
                    if i != k and not set(col.get(row[i], set())) <= key_colors:
                        return False
    return any(col.get(e) for e in structure.universe)


def coloring_ratio(structure: Structure, col) -> Fraction:
    """|colors on target| over max per-tuple colors (target handled by the
    caller by restricting ``col``)."""
    denom = 0
    for _, row in structure.atoms():
        denom = max(denom, len(set().union(*(set(col.get(e, ())) for e in row)) if row else set()))
    if denom == 0:
        return Fraction(0)
    total = len(set().union(*(set(v) for v in col.values())) if col else set())
    return Fraction(total, denom)


# ---------------------------------------------------------------------------
# All valid color classes
# ---------------------------------------------------------------------------


def _is_closed(members: frozenset, forces: Mapping[int, set[int]]) -> bool:
    return all(req in members for e in members for req in forces.get(e, ()))


def valid_color_classes(
    structure: Structure, keys: KeySet, cap: int = 16
) -> list[frozenset]:
    """All nonempty key-closed subsets of the universe, sorted.

    For an empty key set this is every nonempty subset, hence the cap.
    """
    n = len(structure.universe)
    if n > cap:
        raise ResourceCapError(f"class enumeration capped at universe {cap}, got {n}")
    forces = _closure_edges(structure, keys)
    out = []
    for r in range(1, n + 1):
        for combo in itertools.combinations(structure.universe, r):
            members = frozenset(combo)
            if _is_closed(members, forces):
                out.append(members)
    out.sort(key=lambda c: (len(c), tuple(sorted(c))))
    return out


# ---------------------------------------------------------------------------
# The eager representation: the reference for build_representation
# ---------------------------------------------------------------------------


class EagerDecomposition(TreeDecomposition):
    """:class:`PDecomposition` with every field built up front."""

    def __init__(
        self,
        parent: dict[int, Optional[int]],
        root: int,
        chi: dict[int, frozenset],
        beta: dict[int, tuple[int, ...]],
        numbers: list[int],
        distinct: list[tuple[Plan, tuple[int, ...]]],
    ):
        super().__init__(parent, root, chi)
        set_field(self, "beta", beta)
        set_field(self, "numbers", numbers)
        set_field(self, "distinct", distinct)

    @functools.cached_property
    def node_text(self) -> dict[int, str]:
        """Each node's subplan, printed by :func:`print_plan`; computed on
        first access."""
        return {node: print_plan(self.distinct[n][0]) for node, n in enumerate(self.numbers)}


def eager_build_representation(
    plan: Plan, signature: Signature
) -> tuple[PRepresentation, EagerDecomposition]:
    """Build a representation of ``plan`` together with a decomposition that
    satisfies the containment property.

    One step per subplan occurrence, in post-order.  Fresh elements are
    allocated per atom position; identifications are collected in a
    dict-based union-find of its own, not the library's, whose quotient
    (smallest id representative) is taken once at the end.  Polynomial
    time; the universe never exceeds the number of arity occurrences in
    the plan.
    """
    prepared = prepare(plan, signature)
    check_representation_size(prepared)
    (numbers, distinct), arities = prepared.numbering, prepared.arities

    up: dict[int, int] = {}  # element -> parent; a root is its own parent

    def root(e: int) -> int:
        while up[e] != e:
            e = up[e]
        return e

    atoms: dict[str, list[tuple[int, ...]]] = {n: [] for n in signature.symbols()}
    raw_beta: list[tuple[int, ...]] = []
    parent: list[Optional[int]] = [None] * len(numbers)
    pending: list[int] = []  # finished occurrences whose parent is not reached yet
    for occ, number in enumerate(numbers):
        node, kids = distinct[number]
        cut = len(pending) - len(kids)
        children = pending[cut:]
        del pending[cut:]
        for child in children:
            parent[child] = occ
        if isinstance(node, Basic):
            # Element ids are allocated consecutively from 0.
            out = tuple(range(len(up), len(up) + arities[number]))
            up.update((e, e) for e in out)
            atoms[node.relation].append(out)
        elif isinstance(node, Project):
            child = raw_beta[children[0]]
            out = tuple(child[c - 1] for c in node.cols)
        else:
            # A selection is compiled as a 1-way join: identify per theta.
            out = tuple(x for child in children for x in raw_beta[child])
            for j, k in node.theta:
                a, b = root(out[j - 1]), root(out[k - 1])
                up[max(a, b)] = min(a, b)
        raw_beta.append(out)
        pending.append(occ)

    rep_of = {e: root(e) for e in up}
    final_elements = sorted(set(rep_of.values()))
    names = {e: f"x{i}" for i, e in enumerate(final_elements)}
    relations = {
        name: [tuple(rep_of[e] for e in t) for t in rows] for name, rows in atoms.items()
    }
    structure = Structure(signature, final_elements, relations, names)
    beta = {occ: tuple(rep_of[e] for e in raw) for occ, raw in enumerate(raw_beta)}
    root = len(numbers) - 1
    chi = {occ: frozenset(t) for occ, t in beta.items()}

    rep = PRepresentation(OpenStructure(structure, beta[root]))
    dec = EagerDecomposition(dict(enumerate(parent)), root, chi, beta, numbers, distinct)
    return rep, dec


# ---------------------------------------------------------------------------
# The containment property of a plan's decomposition
# ---------------------------------------------------------------------------


def _descendants(dec: PDecomposition, node: int) -> set[int]:
    kids = dec.children()
    seen = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(kids[cur])
    return seen


def check_containment_property(
    plan: Plan,
    rep: PRepresentation,
    dec: PDecomposition,
    data: Structure,
    trace=None,
) -> bool:
    """out(q, D) must contain the evaluation of the substructure induced by
    the bags at-or-below q's node, for every subplan occurrence q."""
    if trace is None:
        trace = evaluate_naive(plan, data)
    by_path = {e.path: e for e in trace.entries}
    for path, node_id in alpha(plan).items():
        below = _descendants(dec, node_id)
        span = set()
        for t in below:
            span |= dec.chi[t]
        induced = rep.open.structure.restrict(span)
        homs = homs_relation(induced, dec.beta[node_id], data)
        if not homs <= by_path[path].rows:
            return False
    return True


# ---------------------------------------------------------------------------
# Helpers that only tests use
# ---------------------------------------------------------------------------


def numbered_arity(plan: Plan, signature: Signature) -> int:
    """Arity of a well-formed plan, read off :func:`number_subplans` as
    ``check`` reads it; raises on unknown relations, indices out of range,
    or non-m-suitable identifications."""
    return _arities(number_subplans(plan)[1], signature)[-1]


def assert_printed_plan_parses_back(prepared: PreparedPlan) -> None:
    """``print_prepared`` prints ``prepared`` as ``print_plan`` prints its
    plan and keeps it under that text, and a fresh parse of the text gives
    an equal plan, which numbers and has arities as ``prepared``."""
    text = plans.print_prepared(prepared)
    assert text == plans.print_plan(prepared.plan)
    assert plans.parse_prepared(text, prepared.signature) is prepared
    plan = plans._parse(text)
    numbering = number_subplans(plan)
    assert numbering == prepared.numbering
    assert _arities(numbering[1], prepared.signature) == prepared.arities
    assert plan == prepared.plan


def operator_count(plan: Plan) -> int:
    """Number of select/project/join occurrences, as ``check`` counts them."""
    numbers, distinct = number_subplans(plan)
    return sum(not isinstance(distinct[n][0], Basic) for n in numbers)


def keys_to_text(keys: KeySet) -> str:
    """The keys file that ``serialize.keys_from_text`` reads back as ``keys``."""
    return "".join(f"key {name} {pos}\n" for name, pos in sorted(keys.keys))


def max_relation_size(structure: Structure) -> int:
    """M(D): the maximum cardinality over all relations."""
    return max((len(rows) for rows in structure.relations.values()), default=0)


def chase_changed(result: ChaseResult) -> bool:
    """Whether the chase merged any two elements."""
    return any(k != v for k, v in result.merge_map.items())


def check_isomorphic(a: OpenStructure, b: OpenStructure) -> bool:
    """Whether a bijection maps ``a`` onto ``b``, tuple to tuple.

    With equal universe and relation sizes, an injective homomorphism is
    such a bijection and its inverse is a homomorphism too.  A homomorphism
    is injective when it preserves a relation holding every pair of
    distinct elements, added to both sides.
    """
    sa, sb = a.structure, b.structure
    if sa.signature != sb.signature:
        raise SignatureError("open structures are not similar")
    if len(sa.universe) != len(sb.universe) or any(
        len(sa.relations[name]) != len(sb.relations[name]) for name in sa.signature
    ):
        return False
    return find_homomorphism(_with_distinctness(a), _with_distinctness(b)) is not None


def _with_distinctness(value: OpenStructure) -> OpenStructure:
    """``value`` plus a fresh binary relation of all distinct pairs."""
    s = value.structure
    name = "NEQ"
    while name in s.signature:
        name += "_"
    relations = dict(s.relations)
    relations[name] = itertools.permutations(s.universe, 2)
    structure = Structure(s.signature.extend({name: 2}), s.universe, relations, s.names)
    return OpenStructure(structure, value.tuple)


def smallest_idempotent_power(h: Mapping[int, int]) -> dict[int, int]:
    """h^k for the least k >= 1 with h^k idempotent, by composing h until
    the power is idempotent."""
    f = dict(h)
    while any(f[f[x]] != f[x] for x in f):
        f = {x: h[f[x]] for x in f}
    return f


def augmented_core(value: OpenStructure) -> OpenStructure:
    """A core of ``value`` computed on the closed structure that carries the
    tuple as one extra relation: retract it by the smallest idempotent power
    of each non-injective endomorphism, then split the relation off again.
    Pairs are tried in the order of ``compute_core``, so both pick the same
    retractions and return equal bytes, names included."""
    base = value.structure
    name = "out"
    while name in base.signature:
        name += "_"
    rels = {**base.relations, name: [value.tuple]}
    current = Structure(
        base.signature.extend({name: len(value.tuple)}), base.universe, rels, base.names
    )
    while True:
        for x, y in itertools.combinations(current.universe, 2):
            g = _HomSearch(current.apply_map({y: x}), current, {}).first()
            if g is not None:
                h = {e: g[x if e == y else e] for e in current.universe}
                current = current.apply_map(smallest_idempotent_power(h))
                break
        else:
            break
    (out_tuple,) = current.relations[name]
    rels = {n: rows for n, rows in current.relations.items() if n != name}
    return OpenStructure(Structure(base.signature, current.universe, rels, current.names), out_tuple)


def pair_noninjective_endomorphism(a: OpenStructure) -> Optional[dict[int, int]]:
    """``compute_core``'s pair search alone, without the core certificate:
    for each pair x < y in sorted order, a homomorphism of the quotient
    that identifies y with x back into ``a``, fixing the tuple, turned into
    an endomorphism of ``a``; None when no pair has one."""
    universe = a.structure.universe
    for x, y in itertools.combinations(universe, 2):
        pinned = _tuple_pins([x if e == y else e for e in a.tuple], a.tuple)
        if pinned is None:
            continue
        g = _HomSearch(a.structure.apply_map({y: x}), a.structure, pinned).first()
        if g is not None:
            return {e: g[x if e == y else e] for e in universe}
    return None
