"""Finite relational structures, homomorphism search, cores, hypergraphs.

Elements are interned integers; every structure carries a side table of
user-facing names used only for serialization and display.  All iteration is
in sorted-id order so that every operation is deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import ArityError, ResourceCapError, SignatureError

_RESERVED = re.compile(r"^R[0-9]+$")


class Signature:
    """A finite set of relation symbols with associated arities.

    The names ``R0, R1, R2, ...`` are reserved for the translation of open
    structures to plain structures and are rejected unless
    ``allow_reserved`` is set (internal use only).
    """

    __slots__ = ("_arities",)

    def __init__(self, arities: Mapping[str, int], allow_reserved: bool = False):
        cleaned = {}
        for name, ar in arities.items():
            if not isinstance(name, str) or not name:
                raise SignatureError(f"relation name must be a nonempty string, got {name!r}")
            if not isinstance(ar, int) or ar < 0:
                raise SignatureError(f"arity of {name!r} must be a nonnegative integer, got {ar!r}")
            if not allow_reserved and _RESERVED.match(name):
                raise SignatureError(f"relation name {name!r} is reserved for tuple augmentation")
            cleaned[name] = ar
        self._arities = dict(sorted(cleaned.items()))

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise SignatureError(f"unknown relation {name!r}") from None

    def symbols(self) -> tuple[str, ...]:
        return tuple(self._arities)

    def as_dict(self) -> dict[str, int]:
        return dict(self._arities)

    def extend(self, extra: Mapping[str, int], allow_reserved: bool = False) -> "Signature":
        merged = dict(self._arities)
        for name, ar in extra.items():
            if name in merged and merged[name] != ar:
                raise SignatureError(f"conflicting arity for {name!r}")
            merged[name] = ar
        sig = Signature({}, allow_reserved=True)
        sig._arities = dict(sorted(merged.items()))
        if not allow_reserved:
            for name in extra:
                if _RESERVED.match(name):
                    raise SignatureError(f"relation name {name!r} is reserved")
        return sig

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    def __iter__(self) -> Iterator[str]:
        return iter(self._arities)

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and self._arities == other._arities

    def __hash__(self) -> int:
        return hash(tuple(self._arities.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}/{a}" for n, a in self._arities.items())
        return f"Signature({inner})"


class Structure:
    """A finite structure: a universe of element ids and one relation per symbol.

    Instances are immutable by convention; all derived values are new objects.
    Equality and hashing ignore the display-name table.
    """

    __slots__ = ("signature", "universe", "relations", "names", "_index", "_hash")

    def __init__(
        self,
        signature: Signature,
        universe: Iterable[int],
        relations: Mapping[str, Iterable[Sequence[int]]],
        names: Optional[Mapping[int, str]] = None,
    ):
        self.signature = signature
        self.universe: tuple[int, ...] = tuple(sorted(set(universe)))
        uni = set(self.universe)
        rels: dict[str, frozenset[tuple[int, ...]]] = {}
        for name in signature.symbols():
            rows = relations.get(name, ())
            ar = signature.arity(name)
            out = set()
            for row in rows:
                t = tuple(row)
                if len(t) != ar:
                    raise ArityError(f"tuple {t} has arity {len(t)}, relation {name} expects {ar}")
                for e in t:
                    if e not in uni:
                        raise SignatureError(f"element {e} of {name}{t} not in universe")
                out.add(t)
            rels[name] = frozenset(out)
        unknown = set(relations) - set(signature.symbols())
        if unknown:
            raise SignatureError(f"relations {sorted(unknown)} not in signature")
        self.relations = rels
        if names is None:
            names = {}
        self.names = {e: names.get(e, f"v{e}") for e in self.universe}
        self._index: dict = {}
        self._hash: Optional[int] = None

    # -- basic views ---------------------------------------------------

    @property
    def max_relation_size(self) -> int:
        """M(A): the maximum cardinality over all relations."""
        if not self.relations:
            return 0
        return max(len(rows) for rows in self.relations.values())

    def atoms(self) -> Iterator[tuple[str, tuple[int, ...]]]:
        """All (relation, tuple) facts in sorted order."""
        for name in self.signature.symbols():
            for row in sorted(self.relations[name]):
                yield name, row

    def total_tuple_count(self) -> int:
        return sum(len(rows) for rows in self.relations.values())

    def isolated_elements(self) -> tuple[int, ...]:
        used = set()
        for _, row in self.atoms():
            used.update(row)
        return tuple(e for e in self.universe if e not in used)

    def tuples_with(self, name: str, position: int, value: int) -> tuple[tuple[int, ...], ...]:
        """Tuples of ``name`` whose 0-based ``position`` equals ``value``, in
        sorted order.  The first lookup on a column indexes all its values."""
        column = self._index.get((name, position))
        if column is None:
            groups: dict[int, list[tuple[int, ...]]] = {}
            for t in sorted(self.relations[name]):
                groups.setdefault(t[position], []).append(t)
            column = {v: tuple(rows) for v, rows in groups.items()}
            self._index[(name, position)] = column
        return column.get(value, ())

    # -- derived structures --------------------------------------------

    def restrict(self, keep: Iterable[int]) -> "Structure":
        """Induced substructure on the given element set."""
        keep = set(keep)
        rels = {
            name: [t for t in rows if set(t) <= keep]
            for name, rows in self.relations.items()
        }
        return Structure(self.signature, keep & set(self.universe), rels, self.names)

    def apply_map(self, mapping: Mapping[int, int]) -> "Structure":
        """Image structure under an element map (identity outside the map)."""
        f = lambda e: mapping.get(e, e)
        rels = {
            name: [tuple(f(e) for e in t) for t in rows]
            for name, rows in self.relations.items()
        }
        new_universe = {f(e) for e in self.universe}
        names = {e: self.names.get(e, f"v{e}") for e in new_universe}
        return Structure(self.signature, new_universe, rels, names)

    def with_signature(self, signature: Signature) -> "Structure":
        """Same content re-typed over a (compatible) signature."""
        rels = {n: rows for n, rows in self.relations.items() if n in signature}
        return Structure(signature, self.universe, rels, self.names)

    # -- dunder --------------------------------------------------------

    def _key(self):
        return (
            self.signature,
            self.universe,
            tuple(sorted((n, tuple(sorted(r))) for n, r in self.relations.items())),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Structure) and self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        facts = ", ".join(
            f"{n}({','.join(self.names[e] for e in t)})" for n, t in self.atoms()
        )
        return f"Structure[{facts or 'empty'}]"


class UnionFind:
    """Disjoint sets of element ids whose representative is always the
    smallest member: a union links the larger root under the smaller."""

    __slots__ = ("parent",)

    def __init__(self, elements: Iterable[int] = ()):
        self.parent: dict[int, int] = {e: e for e in elements}

    def add(self, x: int) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of ``a`` and ``b``; True if they were apart."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


class OpenStructure:
    """A structure with no isolated elements plus a distinguished output tuple.

    The degenerate all-empty structure with the empty tuple is admitted; it
    arises from arity-0 projections of constant plans.
    """

    __slots__ = ("structure", "tuple")

    def __init__(self, structure: Structure, out_tuple: Sequence[int]):
        out = tuple(out_tuple)
        uni = set(structure.universe)
        for e in out:
            if e not in uni:
                raise SignatureError(f"output tuple entry {e} not in universe")
        isolated = structure.isolated_elements()
        if isolated:
            raise SignatureError(
                f"open structure may not have isolated elements: {sorted(isolated)}"
            )
        self.structure = structure
        self.tuple = out

    @property
    def arity(self) -> int:
        return len(self.tuple)

    def augmented(self) -> Structure:
        """aug(A, a): add a reserved relation R_k holding exactly the tuple."""
        k = len(self.tuple)
        aug_name = f"R{k}"
        sig = self.structure.signature.extend({aug_name: k}, allow_reserved=True)
        rels = dict(self.structure.relations)
        rels[aug_name] = [self.tuple]
        return Structure(sig, self.structure.universe, rels, self.structure.names)

    def similar_to(self, other: "OpenStructure") -> bool:
        return self.structure.signature == other.structure.signature

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OpenStructure)
            and self.structure == other.structure
            and self.tuple == other.tuple
        )

    def __hash__(self) -> int:
        return hash((self.structure, self.tuple))

    def __repr__(self) -> str:
        named = ",".join(self.structure.names[e] for e in self.tuple)
        return f"Open({self.structure!r}, ({named}))"


def split_augmented(aug: Structure) -> OpenStructure:
    """Inverse of :meth:`OpenStructure.augmented`."""
    aug_names = [n for n in aug.signature.symbols() if _RESERVED.match(n)]
    if len(aug_names) != 1:
        raise SignatureError("expected exactly one augmentation relation")
    name = aug_names[0]
    rows = sorted(aug.relations[name])
    if len(rows) != 1:
        raise SignatureError("augmentation relation must hold exactly one tuple")
    base_sig = Signature(
        {n: aug.signature.arity(n) for n in aug.signature.symbols() if n != name}
    )
    rels = {n: r for n, r in aug.relations.items() if n != name}
    base = Structure(base_sig, aug.universe, rels, aug.names)
    return OpenStructure(base, rows[0])


@dataclass(frozen=True)
class Hypergraph:
    """A vertex set and a set of vertex subsets."""

    vertices: frozenset[int]
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        for e in self.edges:
            if not e <= self.vertices:
                raise SignatureError(f"edge {sorted(e)} not within vertex set")

    def primal_edges(self) -> set[tuple[int, int]]:
        out = set()
        for e in self.edges:
            for a, b in itertools.combinations(sorted(e), 2):
                out.add((a, b))
        return out


def hypergraph_of(value: Union[Structure, OpenStructure]) -> Hypergraph:
    """H(A) for structures; H(A, a) (with the tuple edge added) for open ones."""
    if isinstance(value, OpenStructure):
        base = hypergraph_of(value.structure)
        edges = set(base.edges)
        edges.add(frozenset(value.tuple))
        return Hypergraph(base.vertices, frozenset(edges))
    edges = {frozenset(t) for _, t in value.atoms()}
    return Hypergraph(frozenset(value.universe), frozenset(edges))


# ---------------------------------------------------------------------------
# Homomorphism search
# ---------------------------------------------------------------------------


class _HomSearch:
    """Backtracking homomorphism search with forward checking.

    Variable order is smallest-candidate-set-first (ties by id); values are
    tried in sorted order, so results are deterministic.  The search is
    iterative over an explicit frame stack: candidate sets are replaced,
    never mutated, and each replaced set is logged on a trail so that
    backtracking restores it, whatever the depth.
    """

    def __init__(self, src: Structure, dst: Structure, pinned: Mapping[int, int]):
        if src.signature != dst.signature:
            raise SignatureError("source and destination must be similar")
        self.src = src
        self.dst = dst
        self.consistent = True
        for name in src.signature.symbols():
            if src.signature.arity(name) == 0:
                if src.relations[name] and not dst.relations[name]:
                    self.consistent = False
        self.atoms = list(src.atoms())
        self.atoms_of: dict[int, list[int]] = {v: [] for v in src.universe}
        for idx, (_, row) in enumerate(self.atoms):
            for v in set(row):
                self.atoms_of[v].append(idx)
        # Candidate sets are never mutated, so elements occurring at the
        # same (relation, position) pairs share one initial set.
        domain = frozenset(dst.universe)
        shared: dict[frozenset, frozenset[int]] = {}
        cand: dict[int, AbstractSet[int]] = {}
        for v in src.universe:
            places = frozenset(
                (name, pos)
                for name, row in (self.atoms[idx] for idx in self.atoms_of[v])
                for pos, e in enumerate(row)
                if e == v
            )
            allowed = shared.get(places)
            if allowed is None:
                allowed = domain
                for name, pos in places:
                    allowed = allowed & {t[pos] for t in dst.relations[name]}
                shared[places] = allowed
            cand[v] = allowed
        for v, val in pinned.items():
            if val not in cand.get(v, ()):
                self.consistent = False
                break
            cand[v] = {val}
        self.initial = cand

    def _propagate(self, cand, assigned, var, trail) -> bool:
        """Forward-check all atoms mentioning ``var``.  Each narrowed set
        replaces the old one, which is logged on ``trail``."""
        for idx in self.atoms_of[var]:
            name, row = self.atoms[idx]
            rows = None
            for pos, e in enumerate(row):
                if e in assigned:
                    filt = self.dst.tuples_with(name, pos, assigned[e])
                    rows = filt if rows is None else tuple(t for t in rows if t[pos] == assigned[e])
            if rows is None:
                rows = tuple(sorted(self.dst.relations[name]))
            if not rows:
                return False
            for pos, e in enumerate(row):
                if e not in assigned:
                    old = cand[e]
                    narrowed = old & {t[pos] for t in rows}
                    if len(narrowed) < len(old):
                        trail.append((e, old))
                        cand[e] = narrowed
                        if not narrowed:
                            return False
        return True

    def _start(self):
        """Fresh candidate sets and the assignment of the singleton
        variables, forward-checked; None if that already fails."""
        if not self.consistent:
            return None
        cand = dict(self.initial)
        assigned = {v: next(iter(s)) for v, s in self.initial.items() if len(s) == 1}
        trail: list = []
        for v in list(assigned):
            if not self._propagate(cand, assigned, v, trail):
                return None
        return cand, assigned

    def _solutions(self, cand, assigned, pool, injective=False):
        """Yield once per extension of ``assigned`` to every element of
        ``pool``, in search order.

        What is yielded is the live assignment, valid until the generator
        resumes; copy it to keep it.  ``cand`` and ``assigned`` are back to
        their entry state when the generator ends or is closed.

        The next variable comes from a heap of (|cand|, id) entries.  Every
        unassigned pool element has an entry for its current set; entries
        for assigned elements or replaced sets are dropped when they reach
        the top, and each set change pushes a fresh entry.
        """
        trail: list[tuple[int, AbstractSet[int]]] = []
        frames: list[tuple[int, Iterator[int], int]] = []
        used = set(assigned.values()) if injective else set()
        members = set(pool)
        heap = [(len(cand[v]), v) for v in members if v not in assigned]
        heapq.heapify(heap)

        def undo(mark: int) -> None:
            while len(trail) > mark:
                v, old = trail.pop()
                cand[v] = old
                if v in members and v not in assigned:
                    heapq.heappush(heap, (len(old), v))

        def push() -> bool:
            while heap:
                size, var = heapq.heappop(heap)
                if var not in assigned and size == len(cand[var]):
                    frames.append((var, iter(sorted(cand[var])), len(trail)))
                    return True
            return False

        try:
            if not push():
                yield assigned
                return
            while frames:
                var, values, mark = frames[-1]
                if var in assigned:
                    used.discard(assigned.pop(var))
                    undo(mark)
                for val in values:
                    if val in used:
                        continue
                    trail.append((var, cand[var]))
                    cand[var] = {val}
                    assigned[var] = val
                    if injective:
                        used.add(val)
                    narrowed_from = len(trail)
                    if self._propagate(cand, assigned, var, trail):
                        for i in range(narrowed_from, len(trail)):
                            v = trail[i][0]
                            if v in members:
                                heapq.heappush(heap, (len(cand[v]), v))
                        break
                    used.discard(assigned.pop(var))
                    undo(mark)
                else:
                    frames.pop()
                    heapq.heappush(heap, (len(cand[var]), var))
                    continue
                if not push():
                    yield assigned
        finally:
            for var, _, _ in frames:
                assigned.pop(var, None)
            undo(0)

    def _complete(self, cand, assigned, injective=False) -> Optional[dict[int, int]]:
        """The first total extension of ``assigned``, or None; leaves
        ``cand`` and ``assigned`` as they were."""
        search = self._solutions(cand, assigned, self.src.universe, injective)
        try:
            found = next(search, None)
            return None if found is None else dict(found)
        finally:
            search.close()

    def first(self, injective: bool = False) -> Optional[dict[int, int]]:
        start = self._start()
        if start is None:
            return None
        cand, assigned = start
        if injective and len(set(assigned.values())) != len(assigned):
            return None
        return self._complete(cand, assigned, injective)

    def images(self, out_vars: Sequence[int]) -> set[tuple[int, ...]]:
        """Distinct restrictions of homomorphisms to ``out_vars``.

        Output variables are assigned first; once they are all fixed, a plain
        existence check settles whether the partial map extends, so the cost
        is roughly (number of images) x (one search) rather than the full
        homomorphism count.
        """
        result: set[tuple[int, ...]] = set()
        start = self._start()
        if start is None:
            return result
        cand, assigned = start
        for partial in self._solutions(cand, assigned, sorted(set(out_vars))):
            if self._complete(cand, partial) is not None:
                result.add(tuple(partial[v] for v in out_vars))
        return result


def find_homomorphism(
    src: OpenStructure, dst: OpenStructure
) -> Optional[dict[int, int]]:
    """A homomorphism h with h(src.tuple) = dst.tuple, or None.

    Deterministic: the same inputs always yield the same witness map.
    """
    if not src.similar_to(dst):
        raise SignatureError("open structures are not similar")
    if len(src.tuple) != len(dst.tuple):
        raise ArityError("output tuples have different arities")
    pinned: dict[int, int] = {}
    for a, b in zip(src.tuple, dst.tuple):
        if pinned.get(a, b) != b:
            return None
        pinned[a] = b
    return _HomSearch(src.structure, dst.structure, pinned).first()


def find_structure_homomorphism(
    src: Structure, dst: Structure
) -> Optional[dict[int, int]]:
    """A plain homomorphism between similar structures, or None."""
    return _HomSearch(src, dst, {}).first()


def homs_relation(
    src: Structure,
    outputs: Union[Sequence[int], frozenset, set],
    data: Structure,
) -> Union[frozenset, frozenset]:
    """homs(A, a, D) / homs(A, S, D).

    With a tuple of outputs, returns the relation { h(a) : h hom A -> D }.
    With a set of outputs, returns the set of restricted maps, each encoded
    as a tuple of (element, value) pairs sorted by element.
    """
    if src.signature != data.signature:
        raise SignatureError("source and data must be similar")
    as_set = isinstance(outputs, (set, frozenset))
    out_vars = tuple(sorted(outputs)) if as_set else tuple(outputs)
    for e in out_vars:
        if e not in set(src.universe):
            raise SignatureError(f"output element {e} not in source universe")
    images = _HomSearch(src, data, {}).images(out_vars)
    if as_set:
        return frozenset(tuple(zip(out_vars, img)) for img in images)
    return frozenset(images)


def check_isomorphic(a: OpenStructure, b: OpenStructure) -> bool:
    """True iff a bijective homomorphism with homomorphic inverse exists
    that maps tuple to tuple."""
    if not a.similar_to(b):
        raise SignatureError("open structures are not similar")
    if len(a.tuple) != len(b.tuple):
        raise ArityError("output tuples have different arities")
    sa, sb = a.structure, b.structure
    if len(sa.universe) != len(sb.universe):
        return False
    for name in sa.signature.symbols():
        if len(sa.relations[name]) != len(sb.relations[name]):
            return False
    pinned: dict[int, int] = {}
    for x, y in zip(a.tuple, b.tuple):
        if pinned.get(x, y) != y:
            return False
        pinned[x] = y
    # An injective homomorphism between equal-size structures with equal
    # relation cardinalities has a homomorphic inverse.
    h = _HomSearch(sa, sb, pinned).first(injective=True)
    return h is not None


# ---------------------------------------------------------------------------
# Cores
# ---------------------------------------------------------------------------


def _idempotent_power(h: dict[int, int]) -> dict[int, int]:
    """h^k for the least k >= 1 with h^k idempotent.

    h^k is idempotent exactly when k is at least every tail length of h's
    functional graph and a multiple of every cycle length, so k is the least
    multiple of the lcm of the cycle lengths that is at least the longest
    tail; h^k is then taken by repeated squaring.
    """
    depth: dict[int, int] = {}
    cycle_lcm = 1
    for x in h:
        path: list[int] = []
        index: dict[int, int] = {}
        y = x
        while y not in depth and y not in index:
            index[y] = len(path)
            path.append(y)
            y = h[y]
        if y in index:
            start = index[y]
            cycle_lcm = math.lcm(cycle_lcm, len(path) - start)
            for z in path[start:]:
                depth[z] = 0
            del path[start:]
        d = depth[y]
        for z in reversed(path):
            d += 1
            depth[z] = d
    tail = max(depth.values(), default=0)
    k = max(1, -(-tail // cycle_lcm)) * cycle_lcm
    power = {x: x for x in h}
    base = dict(h)
    while k:
        if k & 1:
            power = {x: base[power[x]] for x in h}
        base = {x: base[base[x]] for x in h}
        k >>= 1
    return power


def _noninjective_endomorphism(a: Structure) -> Optional[dict[int, int]]:
    """Some endomorphism identifying at least two elements, or None.

    Searched pair by pair in sorted order; a hit is turned into a hom of the
    quotient structure back into ``a``.
    """
    for x, y in itertools.combinations(a.universe, 2):
        quotient = a.apply_map({y: x})
        g = find_structure_homomorphism(quotient, a)
        if g is not None:
            return {e: g[x if e == y else e] for e in a.universe}
    return None


def compute_core(value: OpenStructure, cap_universe: Optional[int] = None) -> OpenStructure:
    """A core of aug(value), returned as an open structure.

    Greedy iterated retraction: repeatedly find a non-injective endomorphism,
    pass to the image of its idempotent power, and stop at the fixpoint.  At
    the fixpoint every endomorphism is injective, which is exactly the
    no-proper-retraction condition.
    """
    aug = value.augmented()
    if cap_universe is not None and len(aug.universe) > cap_universe:
        raise ResourceCapError(
            f"core search capped at universe {cap_universe}, got {len(aug.universe)}"
        )
    current = aug
    while True:
        h = _noninjective_endomorphism(current)
        if h is None:
            break
        f = _idempotent_power(h)
        current = current.apply_map(f)
    return split_augmented(current)
