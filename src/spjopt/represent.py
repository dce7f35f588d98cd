"""From plans to open structures and tree decompositions.

The construction is the inductive one: a fresh atom per basic plan, tuple
reindexing for projections, disjoint union plus identification merging for
joins (selections are compiled as 1-way joins), with the merging kept lazy in
a union-find and materialized once at the end.  One decomposition node is
produced per subplan occurrence; its bag is the occurrence's output-element
set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import ResourceCapError
from .plans import Basic, Plan, Project, _arities, number_subplans, plan_texts
from .structures import (
    Hypergraph,
    OpenStructure,
    Signature,
    Structure,
    UnionFind,
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
# A witness family member's elements and rows together share the cap.
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


@dataclass
class PDecomposition(TreeDecomposition):
    """Tree decomposition with one node per subplan occurrence.

    Node ids are the occurrences' post-order indices, so the root (the whole
    plan) is the last.  ``beta`` lists each node's output elements, with
    chi(node) = set(beta(node)); ``numbers`` and ``distinct`` are the plan's
    :func:`number_subplans`.
    """

    beta: dict[int, tuple[int, ...]] = field(default_factory=dict)
    numbers: list[int] = field(default_factory=list)
    distinct: list[tuple[Plan, tuple[int, ...]]] = field(default_factory=list)

    @functools.cached_property
    def node_text(self) -> dict[int, str]:
        """Each node's subplan, printed; computed on first access."""
        texts = plan_texts(self.distinct)
        return {node: texts[n] for node, n in enumerate(self.numbers)}


def build_representation(
    plan: Plan, signature: Signature
) -> tuple[PRepresentation, PDecomposition]:
    """Build a representation of ``plan`` together with a decomposition that
    satisfies the containment property.

    One step per subplan occurrence, in post-order.  Fresh elements are
    allocated per atom position; identifications are collected in a
    union-find whose quotient (smallest id representative) is taken once at
    the end.  Polynomial time; the universe never exceeds the number of
    arity occurrences in the plan.
    """
    numbers, distinct = number_subplans(plan)
    arities = _arities(distinct, signature)
    check_representation_size(numbers, distinct, arities)

    uf = UnionFind()
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
            out = tuple(range(len(uf.parent), len(uf.parent) + arities[number]))
            for e in out:
                uf.add(e)
            atoms[node.relation].append(out)
        elif isinstance(node, Project):
            child = raw_beta[children[0]]
            out = tuple(child[c - 1] for c in node.cols)
        else:
            # A selection is compiled as a 1-way join: identify per theta.
            out = tuple(x for child in children for x in raw_beta[child])
            for j, k in node.theta:
                uf.union(out[j - 1], out[k - 1])
        raw_beta.append(out)
        pending.append(occ)

    rep_of = {e: uf.find(e) for e in uf.parent}
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
    dec = PDecomposition(dict(enumerate(parent)), root, chi, beta, numbers, distinct)
    return rep, dec


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
