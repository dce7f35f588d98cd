"""From plans to open structures and tree decompositions.

The construction is the inductive one: a fresh atom per basic plan, tuple
reindexing for projections, disjoint union plus identification merging for
joins (selections are compiled as 1-way joins), with the merging kept lazy in
a union-find and materialized once at the end.  That one loop over the
occurrences does only the representation's work.  The decomposition has one
node per subplan occurrence, whose bag is the occurrence's output-element
set; its parent map and bags are derived from the loop's output tuples on
first access, so a caller that needs only the structure never builds them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import ResourceCapError
from .plans import (
    Basic,
    Plan,
    PreparedPlan,
    Project,
    _flatten,
    _getter,
    _link,
    plan_texts,
    prepare,
)
from .structures import (
    Hypergraph,
    OpenStructure,
    Signature,
    Structure,
)


@dataclass(frozen=True)
class Caps:
    """Resource caps for the exponential stages.

    ``core_universe`` bounds the core search, and ``None`` disables it.
    ``width_universe`` bounds the decomposition search and is always set.
    """

    core_universe: Optional[int] = 12
    width_universe: int = 16


# The most elements a plan's representation may allocate: one per arity
# position of each basic occurrence, checked before any is allocated, by
# build_representation and by degree analysis.  About half a KB each, so
# about 0.5 GB at the cap.  Keyed C20's synthesized plan needs 22,420.
# Degree analysis also charges every structure its fold builds, and a
# witness family member's elements and rows together share the cap.
REPRESENTATION_ELEMENTS_CAP = 1_000_000


def check_representation_size(
    numbers: Sequence[int], distinct: Sequence[tuple[Plan, tuple[int, ...]]], arities: Sequence[int]
) -> None:
    """Raise :class:`ResourceCapError` when the plan's basic occurrences,
    given by its :func:`number_subplans` and their ``arities``, hold more
    than ``REPRESENTATION_ELEMENTS_CAP`` positions."""
    basic = [m if isinstance(node, Basic) else 0 for (node, _), m in zip(distinct, arities)]
    total = sum(map(basic.__getitem__, numbers))
    if total > REPRESENTATION_ELEMENTS_CAP:
        raise ResourceCapError(
            f"representation capped at {REPRESENTATION_ELEMENTS_CAP} elements, "
            f"the plan's basic occurrences hold {total}"
        )


@dataclass(frozen=True)
class PRepresentation:
    """Open structure whose evaluation equals the plan's output on every
    database; each occurrence's columns are in ``PDecomposition.beta``."""

    open: OpenStructure


@dataclass
class TreeDecomposition:
    """A rooted tree (parent map) with one bag of elements per node."""

    parent: dict[int, Optional[int]]
    root: int
    chi: dict[int, frozenset]

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.parent))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (min(a, b), max(a, b))
            for a, b in ((n, p) for n, p in self.parent.items() if p is not None)
        )

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {n: [] for n in self.parent}
        for n, p in self.parent.items():
            if p is not None:
                out[p].append(n)
        for lst in out.values():
            lst.sort()
        return out

    def rerooted(self, new_root: int) -> "TreeDecomposition":
        """Same tree re-rooted at another node; bags unchanged."""
        adj: dict[int, set[int]] = {n: set() for n in self.parent}
        for n, p in self.parent.items():
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
        return TreeDecomposition(parent, new_root, dict(self.chi))


class PDecomposition(TreeDecomposition):
    """Tree decomposition with one node per subplan occurrence.

    Node ids are the occurrences' post-order indices, so the root (the whole
    plan) is the last.  ``beta`` lists each node's output elements, with
    chi(node) = set(beta(node)); ``numbers`` and ``distinct`` are the plan's
    :func:`number_subplans`.  The parent map, ``beta``, ``chi`` and
    ``node_text`` are derived on first access, from the numbering, each
    occurrence's output tuple before the merging and the representative of
    each element.
    """

    def __init__(
        self,
        numbers: list[int],
        distinct: list[tuple[Plan, tuple[int, ...]]],
        raw_beta: list[tuple[int, ...]],
        rep_of: list[int],
    ):
        self.root = len(numbers) - 1
        self.numbers = numbers
        self.distinct = distinct
        self._raw_beta = raw_beta
        self._rep_of = rep_of

    @functools.cached_property
    def parent(self) -> dict[int, Optional[int]]:
        parent: list[Optional[int]] = [None] * len(self.numbers)
        pending: list[int] = []  # finished occurrences whose parent is not reached yet
        for occ, number in enumerate(self.numbers):
            cut = len(pending) - len(self.distinct[number][1])
            for child in pending[cut:]:
                parent[child] = occ
            del pending[cut:]
            pending.append(occ)
        return dict(enumerate(parent))

    @functools.cached_property
    def beta(self) -> dict[int, tuple[int, ...]]:
        rep = self._rep_of.__getitem__
        return {occ: tuple(map(rep, raw)) for occ, raw in enumerate(self._raw_beta)}

    @functools.cached_property
    def chi(self) -> dict[int, frozenset]:
        return {occ: frozenset(t) for occ, t in self.beta.items()}

    @functools.cached_property
    def node_text(self) -> dict[int, str]:
        """Each node's subplan, printed."""
        texts = plan_texts(self.distinct)
        return {node: texts[n] for node, n in enumerate(self.numbers)}


def build_representation(
    plan: Plan,
    signature: Signature,
    prepared: Optional[PreparedPlan] = None,
) -> tuple[PRepresentation, PDecomposition]:
    """Build a representation of ``plan`` together with a decomposition that
    satisfies the containment property.

    One step per subplan occurrence, in post-order: a basic occurrence
    allocates fresh element ids consecutively from 0, a projection reindexes
    its child's output tuple, and a join or selection concatenates its
    children's and links the elements that theta identifies in a union-find
    (see :func:`spjopt.plans._link`), so each element's representative is
    the smallest id of its class, whatever order the links came in.
    Polynomial time; the universe never exceeds the number of arity
    occurrences in the plan.  ``prepared`` is the plan prepared under
    ``signature``, when the caller has it already.
    """
    if prepared is None:
        prepared = prepare(plan, signature)
    (numbers, distinct), arities = prepared.numbering, prepared.arities
    check_representation_size(numbers, distinct, arities)
    getters = [
        _getter([c - 1 for c in node.cols]) if type(node) is Project else None
        for node, _ in distinct
    ]

    uf: list[int] = []
    atoms: dict[str, list[tuple[int, ...]]] = {n: [] for n in signature.symbols()}
    raw_beta: list[tuple[int, ...]] = []
    pending: list[tuple[int, ...]] = []  # outputs of occurrences whose parent is not reached yet
    for number in numbers:
        node, kids = distinct[number]
        cls = type(node)
        if cls is Basic:
            start = len(uf)
            out = tuple(range(start, start + arities[number]))
            uf.extend(out)
            atoms[node.relation].append(out)
        elif cls is Project:
            out = getters[number](pending.pop())
        else:
            # A selection is compiled as a 1-way join: identify per theta.
            if len(kids) == 1:
                out = pending.pop()
            else:
                cut = len(pending) - len(kids)
                out = tuple(itertools.chain.from_iterable(pending[cut:]))
                del pending[cut:]
            for j, k in node.theta:
                _link(uf, out[j - 1], out[k - 1])
        raw_beta.append(out)
        pending.append(out)
    _flatten(uf)
    final_elements = [e for e, r in enumerate(uf) if e == r]
    names = {e: f"x{i}" for i, e in enumerate(final_elements)}
    rep = uf.__getitem__
    relations = {name: [tuple(map(rep, t)) for t in rows] for name, rows in atoms.items()}
    structure = Structure(signature, final_elements, relations, names)
    open_ = OpenStructure(structure, tuple(map(rep, raw_beta[-1])))
    return PRepresentation(open_), PDecomposition(numbers, distinct, raw_beta, uf)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def check_tree_decomposition(
    h: Hypergraph,
    edges: Sequence[tuple[int, int]],
    chi: Mapping[int, frozenset],
) -> bool:
    """Vertex coverage, edge coverage, and connectivity, checked directly.

    ``edges``/``chi`` must describe a tree (checked too: connected and
    acyclic over chi's node set).
    """
    nodes = sorted(chi)
    if not nodes:
        return not h.vertices and all(not e for e in h.edges)
    adj: dict[int, set[int]] = {n: set() for n in nodes}
    for a, b in edges:
        if a not in adj or b not in adj:
            return False
        adj[a].add(b)
        adj[b].add(a)
    if len(edges) != len(nodes) - 1:
        return False
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != len(nodes):
        return False

    covered = set()
    for bag in chi.values():
        covered |= bag
    if not h.vertices <= covered:
        return False
    for e in h.edges:
        if not any(e <= chi[t] for t in nodes):
            return False
    for v in h.vertices:
        holding = [t for t in nodes if v in chi[t]]
        comp = {holding[0]}
        stack = [holding[0]]
        holding_set = set(holding)
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt in holding_set and nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        if comp != holding_set:
            return False
    return True
