"""Color numbers, widths of tree decompositions, and the optimal-width search.

The set-valued coloring maximum is computed as a packing LP over key-closed
element classes: colors are interchangeable, so a valid coloring is exactly a
multiset of key-closed classes; the objective counts classes meeting the
target set and the per-tuple constraints normalize the class count on any
tuple to at most one.  The LP is solved over the generating classes
{closure(v) : v in target}: any feasible class meeting the target can be
shrunk to the closure of one of its target elements without changing the
objective or violating a constraint, so the optimum is unchanged (the test
suite checks this against the LP over all valid classes).  Tuples that meet
no generating class give all-zero rows; they are left out, since their
slacks never leave the basis and the pivots on the other rows are the same.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .constraints import KeySet
from .errors import DegenerateInputError, KeyConstraintError, ResourceCapError, SignatureError
from .represent import TreeDecomposition, check_tree_decomposition
from .simplex import solve_lp
from .structures import Hypergraph, OpenStructure, Structure, hypergraph_of


@dataclass(frozen=True)
class ColorClass:
    """A key-closed element set: whenever a dependent position's element is
    in the class, the key position's element of the same tuple is too."""

    members: frozenset


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


def _is_closed(members: frozenset, forces: Mapping[int, set[int]]) -> bool:
    return all(req in members for e in members for req in forces.get(e, ()))


def valid_color_classes(
    structure: Structure, keys: KeySet, cap: int = 16
) -> list[ColorClass]:
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
                out.append(ColorClass(members))
    out.sort(key=lambda c: (len(c.members), tuple(sorted(c.members))))
    return out


@dataclass(frozen=True)
class ColorSolution:
    """An optimal packing over classes plus its scaled-integral form.

    ``multiplicities`` are the weights scaled by the least common denominator
    ``scale``; expanding class copies to per-element color sets yields a
    valid coloring whose ratio equals ``value``.  ``degenerate`` marks the
    tupleless case, where the defining ratio divides by a maximum over an
    empty set and the reported value is 0 by convention.
    """

    classes: tuple[ColorClass, ...]
    weights: tuple[Fraction, ...]
    value: Fraction
    target: frozenset
    scale: int
    multiplicities: tuple[int, ...]
    degenerate: bool = False

    def color_sets(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Element -> colors, a color being (class index, copy number)."""
        out: dict[int, list[tuple[int, int]]] = {}
        for idx, (cls, mult) in enumerate(zip(self.classes, self.multiplicities)):
            for copy in range(mult):
                for e in sorted(cls.members):
                    out.setdefault(e, []).append((idx, copy))
        return {e: tuple(v) for e, v in out.items()}

    def colors_on(self, elements: Iterable[int]) -> int:
        """Number of distinct colors used on the given element set."""
        elems = set(elements)
        return sum(
            mult
            for cls, mult in zip(self.classes, self.multiplicities)
            if cls.members & elems
        )


def _constraint_sets(structure: Structure) -> list[frozenset]:
    seen = set()
    out = []
    for _, row in structure.atoms():
        s = frozenset(row)
        if s not in seen:
            seen.add(s)
            out.append(s)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def color_number(
    structure: Structure,
    keys: KeySet,
    target: Iterable[int],
    classes: Optional[Sequence[ColorClass]] = None,
) -> tuple[Fraction, ColorSolution]:
    """The color number of ``target`` and a witness packing.

    Maximize the total weight of classes meeting the target subject to:
    for every tuple, the total weight of classes meeting the tuple's element
    set is at most 1.  Exact integer simplex, so 3/2 is 3/2 and not 1.499...
    """
    if not keys.is_unary:
        raise KeyConstraintError("color numbers are defined for unary keys only")
    target = frozenset(target)
    uni = set(structure.universe)
    if not target <= uni:
        raise SignatureError("target set must be within the universe")
    if not target:
        sol = ColorSolution((), (), Fraction(0), target, 1, ())
        return Fraction(0), sol
    if structure.total_tuple_count() == 0:
        sol = ColorSolution((), (), Fraction(0), target, 1, (), degenerate=True)
        return Fraction(0), sol
    forces = _closure_edges(structure, keys)
    if classes is None:
        gen = sorted(
            {_close({v}, forces) for v in target},
            key=lambda m: (len(m), tuple(sorted(m))),
        )
        classes = tuple(ColorClass(m) for m in gen)
    else:
        classes = tuple(classes)
    cols = [c for c in classes if c.members & target]
    rows = []
    for s in _constraint_sets(structure):
        coeffs = [0 if c.members.isdisjoint(s) else 1 for c in cols]
        if any(coeffs):
            rows.append((coeffs, "<=", 1))
    for j, c in enumerate(cols):
        if not any(coeffs[j] for coeffs, _, _ in rows):
            raise DegenerateInputError(
                "color number unbounded: a class meets no tuple "
                f"(elements {sorted(c.members)})"
            )
    res = solve_lp([1] * len(cols), rows)
    if res.status != "optimal":
        raise DegenerateInputError(f"packing LP returned {res.status}")
    weights = tuple(res.solution)
    scale = lcm(*(w.denominator for w in weights)) if weights else 1
    mults = tuple(int(w * scale) for w in weights)
    sol = ColorSolution(tuple(cols), weights, res.value, target, scale, mults)
    return res.value, sol


# ---------------------------------------------------------------------------
# Widths
# ---------------------------------------------------------------------------


@dataclass
class WidthReport:
    """Per-bag color numbers of a decomposition; width is their maximum."""

    decomposition: TreeDecomposition
    bag_colors: dict[int, Fraction]
    width: Fraction
    solutions: dict[int, ColorSolution] = field(default_factory=dict)

    def widest_node(self) -> int:
        return min(n for n, v in self.bag_colors.items() if v == self.width)


def cwidth_of_decomposition(
    open_structure: OpenStructure, keys: KeySet, dec: TreeDecomposition
) -> WidthReport:
    """Color-number width of a given decomposition of H(A, a)."""
    h = hypergraph_of(open_structure)
    if not check_tree_decomposition(h, dec.edges, dec.chi):
        raise SignatureError("not a tree decomposition of the open structure")
    bag_colors: dict[int, Fraction] = {}
    solutions: dict[int, ColorSolution] = {}
    for node in dec.nodes:
        val, sol = color_number(open_structure.structure, keys, dec.chi[node])
        bag_colors[node] = val
        solutions[node] = sol
    width = max(bag_colors.values(), default=Fraction(0))
    return WidthReport(dec, bag_colors, width, solutions)


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
    open_structure: OpenStructure, keys: KeySet, cap: int = 16
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

    f_memo: dict[frozenset, Fraction] = {}

    def f(bag: frozenset) -> Fraction:
        if bag not in f_memo:
            f_memo[bag] = color_number(open_structure.structure, keys, bag)[0]
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
        rep = WidthReport(dec, {0: Fraction(0)}, Fraction(0))
        rep.solutions[0] = color_number(open_structure.structure, keys, frozenset())[1]
        return rep

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
