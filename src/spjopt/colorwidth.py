"""Color numbers, widths of tree decompositions, and the optimal-width search.

Keys are unary, and a relation may carry several.  A class of elements is
key-closed when, for each key (R, k) and each tuple of R, the class holds
the tuple's k-th element whenever it holds one at another position.

The set-valued coloring maximum is computed as a packing LP over key-closed
element classes: colors are interchangeable, so a valid coloring is exactly a
multiset of key-closed classes; the objective counts classes meeting the
target set and the per-tuple constraints normalize the class count on any
tuple to at most one.  Each row is thus the 0/1 list of the classes a tuple
meets, capped at 1, the one form ``simplex.solve_lp`` takes.  The LP is
solved over the generating classes {closure(v) : v in target}: any feasible
class meeting the target can be shrunk to the closure of one of its target
elements without changing the objective or violating a constraint, so the
optimum is unchanged (the test suite checks this against an oracle that
enumerates the basic solutions of the LP over all valid classes).  Tuples
that meet no generating class give all-zero rows; they are left out, since
their slacks never leave the basis and the pivots on the other rows are the
same.

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
one's and the smaller row is implied.  Every column lies in some maximal
support; when those are pairwise disjoint, each column lies in exactly one
row, so each row's sum can reach 1 and no more, and the value is the number
of rows without an LP.  When every maximal support meets at most two
columns, the LP is a fractional vertex packing of the graph whose edges
are the two-column supports; a column that shares no support with another
is isolated there, capped at 1 by its own row and in no edge.  Writing
each weight as 1 - y turns it into a fractional vertex cover, whose
optimum is the fractional matching number: half a maximum matching of the
graph's bipartite double cover (Nemhauser & Trotter, "Vertex packings:
structural properties and algorithms", Math. Programming 1975).  So the
value is ``len(cols) - ν/2`` for that matching size ν, again without an
LP.  Only targets with a support of three or more columns solve the LP
over the maximal supports, usually a few rows.  The key closures and the tuple masks depend only on the
structure and are computed once for it, however many targets are asked.
Only ``witness`` solves the full LP, once, through ``color_number``: the
widest bag's optimal packing is what ``bag_witness`` turns into witness
databases, and its optimum must equal the presolved value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .constraints import KeySet
from .errors import DegenerateInputError, Record, ResourceCapError, SignatureError, SpjError, set_field
from .represent import TreeDecomposition, check_tree_decomposition
from .simplex import solve_lp
from .structures import OpenStructure, Structure, hypergraph_of


def _closure_edges(structure: Structure, keys: KeySet) -> dict[int, set[int]]:
    """For each element, the key elements it forces into any class."""
    forces: dict[int, set[int]] = {e: set() for e in structure.universe}
    for name in structure.signature.symbols():
        for pos in keys.for_relation(name):
            k = pos - 1
            for row in structure.relations[name]:
                for i, e in enumerate(row):
                    if i != k:
                        forces[e].add(row[k])
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


class ColorSolution(Record):
    """An optimal packing over key-closed classes in scaled-integral form.

    Each class is a frozenset of elements that holds, with every dependent
    position's element of a tuple, that tuple's key element.
    ``multiplicities`` are the optimal LP weights scaled by their least
    common denominator; expanding class copies to per-element color sets
    yields a valid coloring whose ratio equals ``value``.  ``degenerate``
    marks the tupleless case, where the defining ratio divides by a maximum
    over an empty set and the reported value is 0 by convention.
    """

    __slots__ = ("classes", "value", "target", "multiplicities", "degenerate")

    def __init__(self, classes: tuple[frozenset, ...], value: Fraction, target: frozenset,
                 multiplicities: tuple[int, ...], degenerate: bool = False):
        set_field(self, "classes", classes)
        set_field(self, "value", value)
        set_field(self, "target", target)
        set_field(self, "multiplicities", multiplicities)
        set_field(self, "degenerate", degenerate)

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
            rows.append(coeffs)
    res = solve_lp([1] * len(cols), rows)
    if res.value != value:
        raise SpjError(f"packing LP gave {res.value}, its presolve {value}")
    scale = lcm(*(w.denominator for w in res.solution))
    mults = tuple(int(w * scale) for w in res.solution)
    return value, ColorSolution(tuple(cols), value, target, mults)


def _double_cover_matching(n: int, edges: Iterable[int]) -> int:
    """The size of a maximum matching of the bipartite double cover of the
    graph on columns ``0..n-1`` whose edges are the two-bit masks
    ``edges``: left copy u meets right copy v for each edge uv, both ways.

    Augmenting paths are found breadth first from each free left vertex
    in turn (Kuhn's method), with no recursion."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for mask in edges:
        u = (mask & -mask).bit_length() - 1
        v = mask.bit_length() - 1
        adj[u].append(v)
        adj[v].append(u)
    left_of = [-1] * n  # right vertex -> its matched left vertex
    right_of = [-1] * n  # left vertex -> its matched right vertex
    size = 0
    for root in range(n):
        came_from = [-1] * n  # right vertex -> the left vertex that reached it
        queue, free = [root], -1
        for u in queue:
            for v in adj[u]:
                if came_from[v] < 0:
                    came_from[v] = u
                    if left_of[v] < 0:
                        free = v
                        break
                    queue.append(left_of[v])
            if free >= 0:
                break
        # Flip the path back to the root: each left vertex takes the right
        # vertex it reached, and hands on the one it held.
        v = free
        while v >= 0:
            u = came_from[v]
            left_of[v], right_of[u], v = u, v, right_of[u]
        size += free >= 0
    return size


def color_values(structure: Structure, keys: KeySet) -> Callable[[Iterable[int]], Fraction]:
    """The function from target to its color number over ``structure``,
    presolved: duplicate and dominated rows are dropped, and a target whose
    classes one tuple meets, whose maximal supports are disjoint, or whose
    maximal supports meet at most two columns each, needs no LP.  The
    closures and each class's row mask are computed once per element,
    however many targets are asked."""
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
        maximal: list[int] = []
        for s in sorted(supports, key=int.bit_count, reverse=True):
            if not any(s | t == t for t in maximal):
                maximal.append(s)
        if sum(maximal) == reduce(or_, maximal):
            return Fraction(len(maximal))  # each column lies in exactly one row
        if all(s.bit_count() <= 2 for s in maximal):
            edges = [s for s in maximal if s & (s - 1)]
            return Fraction(2 * len(cols) - _double_cover_matching(len(cols), edges), 2)
        rows = [[s >> j & 1 for j in range(len(cols))] for s in maximal]
        return solve_lp([1] * len(cols), rows).value

    return value


# ---------------------------------------------------------------------------
# Widths
# ---------------------------------------------------------------------------


class WidthReport(Record):
    """Per-bag color numbers of a decomposition; width is their maximum."""

    __slots__ = ("decomposition", "bag_colors", "width")

    def __init__(self, decomposition: TreeDecomposition, bag_colors: dict[int, Fraction], width: Fraction):
        set_field(self, "decomposition", decomposition)
        set_field(self, "bag_colors", bag_colors)
        set_field(self, "width", width)

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


def _bits(mask: int) -> Iterator[int]:
    """The positions of ``mask``'s set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _elimination_bags(remaining: int, eliminated: int, adj: list[int]) -> Iterator[tuple[int, int]]:
    """Each vertex of ``remaining`` (a bitmask), ascending, with the bag it
    would get if eliminated now: itself and the remaining vertices it
    reaches through ``eliminated`` ones, that is, its remaining neighbours
    and the remaining neighbours of each eliminated component it meets.
    The components are found once, before the first bag."""
    borders = []
    while eliminated:
        component = frontier = eliminated & -eliminated
        reach = 0
        while frontier:
            grow = 0
            for u in _bits(frontier):
                grow |= adj[u]
            reach |= grow
            frontier = grow & eliminated & ~component
            component |= frontier
        eliminated &= ~component
        borders.append(reach & remaining)
    for v in _bits(remaining):
        bag = 1 << v | adj[v] & remaining
        for border in borders:
            if border >> v & 1:
                bag |= border
        yield v, bag


def optimal_cwidth(
    open_structure: OpenStructure, keys: KeySet, cap: int
) -> WidthReport:
    """Minimum color-number width over all tree decompositions of H(A, a).

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
    unbounded search's, the root still reads every vertex's bag, and one
    search from the whole universe leaves the chosen order in the memo.

    Vertices are numbered in sorted order, and states, bags and adjacency
    are bitmasks over those numbers, so ascending bits visit the vertices
    in sorted order.  The memo holds, for each exactly solved state, its
    value, the chosen vertex and that vertex's bag, so the extraction reads
    each bag of the chosen order from the memo and derives none again.
    The bags' color numbers are read from the search's memo too, so the
    report evaluates no bag twice.

    Each state's search is a generator that yields each child state with
    its bound and is sent the child's value.  The suspended searches wait
    on an explicit stack, and a child the memo settles is answered without
    a search, so the search's depth, one state per vertex, never meets the
    interpreter's recursion limit.
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

    best_memo: dict[int, tuple[Fraction, Optional[int], Optional[int]]] = {}

    def known(remaining: int, bound: Optional[Fraction]) -> Optional[Fraction]:
        """The state's value from the memo, when it settles the search
        under ``bound``; else None."""
        if not remaining:
            return Fraction(0)
        hit = best_memo.get(remaining)
        if hit is not None and (hit[1] is not None or bound is not None and hit[0] >= bound):
            return hit[0]
        return None

    def search(remaining: int, bound: Optional[Fraction]):
        """One state's search: yields each child state with its bound, is
        sent the child's value, and returns the state's value."""
        best, best_v, best_bag = bound, None, None
        if bound is None or bound > 1:
            for v, bag in _elimination_bags(remaining, everything ^ remaining, adj):
                here = f(bag)
                if best is not None and here >= best:
                    continue  # the sub-solution can only raise the max
                sub = yield remaining ^ 1 << v, best
                cand = max(here, sub)
                if best is None or cand < best:
                    best, best_v, best_bag = cand, v, bag
                    if best <= 1:
                        break  # the floor: no later vertex can beat it
        best_memo[remaining] = (best, best_v, best_bag)
        return best

    stack = [search(everything, None)]
    got = None  # the value sent to the top search; None starts it
    while stack:
        try:
            child, bound = stack[-1].send(got)
        except StopIteration as done:
            stack.pop()
            got = done.value
            continue
        got = known(child, bound)
        if got is None:
            stack.append(search(child, bound))

    remaining = everything
    order: list[int] = []
    bags: list[int] = []
    while remaining:
        _, v, bag = best_memo[remaining]
        order.append(v)
        bags.append(bag)
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
    dec = TreeDecomposition(parent, len(order) - 1, chi).rerooted(root)
    if not check_tree_decomposition(h, dec.edges, dec.chi):  # pragma: no cover - construction invariant
        raise SpjError("width search built an invalid tree decomposition")
    bag_colors = {node: f(bags[node]) for node in dec.nodes}
    return WidthReport(dec, bag_colors, max(bag_colors.values()))
