"""Color numbers, widths of tree decompositions, and the optimal-width search.

The set-valued coloring maximum is computed as a packing LP over key-closed
element classes: colors are interchangeable, so a valid coloring is exactly a
multiset of key-closed classes; the objective counts classes meeting the
target set and the per-tuple constraints normalize the class count on any
tuple to at most one.  The LP is solved over the generating classes
{closure(v) : v in target}: any feasible class meeting the target can be
shrunk to the closure of one of its target elements without changing the
objective or violating a constraint, so the optimum is unchanged (the test
suite checks this against an oracle that enumerates the basic solutions of
the LP over all valid classes).  Tuples that meet no generating class give
all-zero rows; they are left out, since their slacks never leave the basis
and the pivots on the other rows are the same.

Degree analysis, the width search and the width of a given decomposition
read only the LP's value, and ``color_values`` presolves it (Andersen &
Andersen, "Presolving in linear programming", Math. Programming 1995).  Each
class becomes the bitmask of the tuples it meets; classes with equal masks
share every row, so only their total weight matters and they merge into one
column.  A row matters only through its support, the set of columns it
meets, so duplicate supports go.  If one support meets every column, its row
alone caps the total weight at 1 and any single column attains it, so the
value is 1 without an LP.  Otherwise a support contained in another is
dropped: weights are nonnegative, so the larger row's sum bounds the smaller
one's and the smaller row is implied.  The LP over the maximal supports is
usually a few rows.  The key closures and the tuple masks depend only on the
structure and are computed once for it, however many targets are asked.
Only ``witness`` solves the full LP, once, through ``color_number``: the
widest bag's optimal packing is what ``bag_witness`` turns into witness
databases, and its optimum must equal the presolved value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import and_, or_
from typing import Callable, Iterable, Mapping, Optional

from .constraints import KeySet
from .errors import (
    DegenerateInputError,
    KeyConstraintError,
    ResourceCapError,
    SignatureError,
    SpjError,
)
from .represent import TreeDecomposition, check_tree_decomposition
from .simplex import solve_lp
from .structures import OpenStructure, Structure, hypergraph_of


def _closure_edges(structure: Structure, keys: KeySet) -> dict[int, set[int]]:
    """For each element, the key elements it forces into any class."""
    forces: dict[int, set[int]] = {e: set() for e in structure.universe}
    for name, pos_sets in ((n, keys.for_relation(n)) for n in structure.signature.symbols()):
        for pos in pos_sets:
            if len(pos) != 1:
                raise KeyConstraintError("color classes are defined for unary keys only")
            key_idx = next(iter(pos)) - 1
            for row in structure.relations[name]:
                for i, e in enumerate(row):
                    if i != key_idx:
                        forces[e].add(row[key_idx])
    return forces


def _close(members: Iterable[int], forces: Mapping[int, set[int]]) -> frozenset:
    out = set(members)
    stack = list(out)
    while stack:
        e = stack.pop()
        for req in forces.get(e, ()):
            if req not in out:
                out.add(req)
                stack.append(req)
    return frozenset(out)


@dataclass(frozen=True)
class ColorSolution:
    """An optimal packing over key-closed classes in scaled-integral form.

    Each class is a frozenset of elements that holds, with every dependent
    position's element of a tuple, that tuple's key element.
    ``multiplicities`` are the optimal LP weights scaled by their least
    common denominator; expanding class copies to per-element color sets
    yields a valid coloring whose ratio equals ``value``.  ``degenerate``
    marks the tupleless case, where the defining ratio divides by a maximum
    over an empty set and the reported value is 0 by convention.
    """

    classes: tuple[frozenset, ...]
    value: Fraction
    target: frozenset
    multiplicities: tuple[int, ...]
    degenerate: bool = False

    def color_sets(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Element -> colors, a color being (class index, copy number)."""
        out: dict[int, list[tuple[int, int]]] = {}
        for idx, (cls, mult) in enumerate(zip(self.classes, self.multiplicities)):
            for copy in range(mult):
                for e in sorted(cls):
                    out.setdefault(e, []).append((idx, copy))
        return {e: tuple(v) for e, v in out.items()}

    def colors_on(self, elements: Iterable[int]) -> int:
        """Number of distinct colors used on the given element set."""
        elems = set(elements)
        return sum(
            mult
            for cls, mult in zip(self.classes, self.multiplicities)
            if cls & elems
        )


def _by_size(s: frozenset) -> tuple:
    return len(s), tuple(sorted(s))


def _constraint_sets(structure: Structure) -> list[frozenset]:
    seen = set()
    out = []
    for _, row in structure.atoms():
        s = frozenset(row)
        if s not in seen:
            seen.add(s)
            out.append(s)
    return sorted(out, key=_by_size)


def _unbounded(cls: frozenset) -> DegenerateInputError:
    return DegenerateInputError(
        f"color number unbounded: a class meets no tuple (elements {sorted(cls)})"
    )


def color_number(
    structure: Structure, keys: KeySet, target: Iterable[int]
) -> tuple[Fraction, ColorSolution]:
    """The color number of ``target`` and a witness packing.

    The value and every input check come from :func:`color_values`.  The
    packing is an optimum of the full LP: maximize the total weight of
    classes meeting the target subject to, for every tuple, the total weight
    of classes meeting the tuple's element set being at most 1.  Exact
    integer simplex, so 3/2 is 3/2 and not 1.499...  An optimum other than
    the presolved value raises :class:`SpjError`.
    """
    target = frozenset(target)
    value = color_values(structure, keys)(target)
    if not target or structure.total_tuple_count() == 0:
        return value, ColorSolution((), value, target, (), degenerate=bool(target))
    forces = _closure_edges(structure, keys)
    cols = sorted({_close({v}, forces) for v in target}, key=_by_size)
    rows = []
    for s in _constraint_sets(structure):
        coeffs = [0 if c.isdisjoint(s) else 1 for c in cols]
        if any(coeffs):
            rows.append((coeffs, "<=", 1))
    res = solve_lp([1] * len(cols), rows)
    if res.value != value:
        raise SpjError(f"packing LP gave {res.value}, its presolve {value}")
    scale = lcm(*(w.denominator for w in res.solution))
    mults = tuple(int(w * scale) for w in res.solution)
    return value, ColorSolution(tuple(cols), value, target, mults)


def color_values(structure: Structure, keys: KeySet) -> Callable[[Iterable[int]], Fraction]:
    """The function from target to its color number over ``structure``,
    presolved: duplicate and dominated rows are dropped, and a target whose
    classes one tuple meets needs no LP.  The closures and each class's row
    mask are computed once per element, however many targets are asked."""
    if not keys.is_unary:
        raise KeyConstraintError("color numbers are defined for unary keys only")
    universe = frozenset(structure.universe)
    forces = _closure_edges(structure, keys)
    incidence = dict.fromkeys(universe, 0)  # element -> bitmask of its tuples
    bit = 1
    for rel in structure.relations.values():
        for row in rel:
            for e in row:
                incidence[e] |= bit
            bit <<= 1
    tupled = bit > 1
    class_rows: dict[int, int] = {}  # element -> bitmask of the tuples its class meets

    def rows_of(v: int) -> int:
        rows = class_rows.get(v)
        if rows is None:
            # The closure of v, taking a known class's rows for its whole closure.
            rows, seen, stack = 0, {v}, [v]
            while stack:
                e = stack.pop()
                known = class_rows.get(e)
                if known is not None:
                    rows |= known
                    continue
                rows |= incidence[e]
                for req in forces[e]:
                    if req not in seen:
                        seen.add(req)
                        stack.append(req)
            class_rows[v] = rows
        return rows

    def value(target: Iterable[int]) -> Fraction:
        target = frozenset(target)
        if not target <= universe:
            raise SignatureError("target set must be within the universe")
        if not target or not tupled:
            return Fraction(0)
        cols = list({rows_of(v) for v in target})
        if 0 in cols:
            uncovered = (_close({v}, forces) for v in target if not rows_of(v))
            raise _unbounded(min(uncovered, key=_by_size))
        if reduce(and_, cols):
            return Fraction(1)  # a tuple meets every class
        # Split the rows by the classes they meet: one group per distinct support.
        groups = [(reduce(or_, cols), 0)]
        for j, mask in enumerate(cols):
            split = []
            for group, support in groups:
                inside = group & mask
                if inside:
                    split.append((inside, support | 1 << j))
                if inside != group:
                    split.append((group ^ inside, support))
            groups = split
        supports = [support for _, support in groups]
        maximal = [s for s in supports if not any(s != t and s | t == t for t in supports)]
        rows = [([s >> j & 1 for j in range(len(cols))], "<=", 1) for s in maximal]
        return solve_lp([1] * len(cols), rows).value

    return value


# ---------------------------------------------------------------------------
# Widths
# ---------------------------------------------------------------------------


@dataclass
class WidthReport:
    """Per-bag color numbers of a decomposition; width is their maximum."""

    decomposition: TreeDecomposition
    bag_colors: dict[int, Fraction]
    width: Fraction

    def widest_node(self) -> int:
        return min(n for n, v in self.bag_colors.items() if v == self.width)


def cwidth_of_decomposition(
    open_structure: OpenStructure, keys: KeySet, dec: TreeDecomposition
) -> WidthReport:
    """Color-number width of a given decomposition of H(A, a)."""
    h = hypergraph_of(open_structure)
    if not check_tree_decomposition(h, dec.edges, dec.chi):
        raise SignatureError("not a tree decomposition of the open structure")
    value = color_values(open_structure.structure, keys)
    bag_colors = {node: value(dec.chi[node]) for node in dec.nodes}
    return WidthReport(dec, bag_colors, max(bag_colors.values(), default=Fraction(0)))


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


def optimal_cwidth(
    open_structure: OpenStructure, keys: KeySet, cap: int
) -> WidthReport:
    """Minimum color-number width over all tree decompositions of H(A, a).

    Searches elimination orderings by dynamic programming over the set of
    already-eliminated vertices; each ordering induces a decomposition whose
    bags are vertex-plus-later-neighbors in the fill graph.  Because the bag
    measure is monotone under set inclusion, some elimination ordering
    attains the overall minimum, so the search is exact.
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
                continue  # the sub-solution can only raise the max
            sub, _ = solve(remaining - {v})
            cand = max(here, sub)
            if best is None or cand < best:
                best, best_v = cand, v
        best_memo[remaining] = (best, best_v)
        return best, best_v

    if not verts:
        dec = TreeDecomposition({0: None}, 0, {0: frozenset()})
        return cwidth_of_decomposition(open_structure, keys, dec)

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
    dec = TreeDecomposition(parent, len(order) - 1, {i: bags[i] for i in range(len(order))})

    tuple_set = frozenset(open_structure.tuple)
    holders = [i for i in range(len(bags)) if tuple_set <= bags[i]]
    root = min(holders)  # the tuple edge is a primal clique, so holders is nonempty
    dec = dec.rerooted(root)
    return cwidth_of_decomposition(open_structure, keys, dec)
