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

from .plans import Basic, Plan, Project, Select, print_plan, subplans, validate_plan
from .structures import (
    Hypergraph,
    OpenStructure,
    Signature,
    Structure,
    UnionFind,
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

    ``alpha`` maps occurrence paths to node ids bijectively (the root node is
    the whole plan); ``beta`` lists each occurrence's output elements, and
    chi(alpha(q)) = set(beta(q)); ``subplan`` maps each node to its
    occurrence's plan.
    """

    alpha: dict[tuple[int, ...], int] = field(default_factory=dict)
    beta: dict[tuple[int, ...], tuple[int, ...]] = field(default_factory=dict)
    subplan: dict[int, Plan] = field(default_factory=dict)

    @functools.cached_property
    def node_text(self) -> dict[int, str]:
        """Each node's subplan, printed; computed on first access, since
        printing every occurrence is quadratic in the plan size."""
        return {node: print_plan(q) for node, q in self.subplan.items()}


def build_representation(
    plan: Plan, signature: Signature
) -> tuple[PRepresentation, PDecomposition]:
    """Build a representation of ``plan`` together with a decomposition that
    satisfies the containment property.

    Fresh elements are allocated per atom position; identifications are
    collected in a union-find whose quotient (smallest id representative) is
    taken once at the end.  Polynomial time; the universe never exceeds the
    number of arity occurrences in the plan.
    """
    validate_plan(plan, signature)
    occurrences = subplans(plan)
    node_of_path = {path: i for i, (path, _) in enumerate(occurrences)}

    uf = UnionFind()
    atoms: dict[str, list[tuple[int, ...]]] = {n: [] for n in signature.symbols()}
    raw_beta: dict[tuple[int, ...], tuple[int, ...]] = {}
    parent: dict[int, Optional[int]] = {}
    counter = [0]

    def fresh(k: int) -> list[int]:
        ids = list(range(counter[0], counter[0] + k))
        counter[0] += k
        for e in ids:
            uf.add(e)
        return ids

    def build(node: Plan, path: tuple[int, ...]) -> tuple[int, ...]:
        my_node = node_of_path[path]
        if isinstance(node, Basic):
            ids = fresh(signature.arity(node.relation))
            atoms[node.relation].append(tuple(ids))
            out = tuple(ids)
        elif isinstance(node, Project):
            child = build(node.child, path + (0,))
            parent[node_of_path[path + (0,)]] = my_node
            out = tuple(child[c - 1] for c in node.cols)
        elif isinstance(node, Select):
            # Compiled as a 1-way join: identify per theta, keep the tuple.
            child = build(node.child, path + (0,))
            parent[node_of_path[path + (0,)]] = my_node
            for j, k in node.theta:
                uf.union(child[j - 1], child[k - 1])
            out = child
        else:
            parts = []
            for i, c in enumerate(node.children):
                parts.append(build(c, path + (i,)))
                parent[node_of_path[path + (i,)]] = my_node
            concat = tuple(x for part in parts for x in part)
            for j, k in node.theta:
                uf.union(concat[j - 1], concat[k - 1])
            out = concat
        raw_beta[path] = out
        return out

    build(plan, ())
    root_node = node_of_path[()]
    parent[root_node] = None

    rep_of = {e: uf.find(e) for e in uf.parent}
    final_elements = sorted(set(rep_of.values()))
    names = {e: f"x{i}" for i, e in enumerate(final_elements)}
    relations = {
        name: [tuple(rep_of[e] for e in t) for t in rows] for name, rows in atoms.items()
    }
    structure = Structure(signature, final_elements, relations, names)
    out_tuple = tuple(rep_of[e] for e in raw_beta[()])
    open_structure = OpenStructure(structure, out_tuple)

    beta = {path: tuple(rep_of[e] for e in raw) for path, raw in raw_beta.items()}
    chi = {node_of_path[path]: frozenset(t) for path, t in beta.items()}
    alpha = dict(node_of_path)
    subplan = {node_of_path[path]: node for path, node in occurrences}

    rep = PRepresentation(open_structure)
    dec = PDecomposition(parent, root_node, chi, alpha, beta, subplan)
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
