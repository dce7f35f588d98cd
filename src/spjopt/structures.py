"""Finite relational structures, homomorphism search, cores, hypergraphs.

Elements are interned integers; every structure carries a side table of
user-facing names used only for serialization and display.  All iteration is
in sorted-id order so that every operation is deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import AbstractSet, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import ArityError, Record, ResourceCapError, SignatureError, set_field


class Signature(Record):
    """A finite set of relation symbols with associated arities.

    A name is any nonempty string and an arity any nonnegative ``int``;
    a ``bool`` is not taken for an arity.
    """

    __slots__ = ("_arities",)

    def __init__(self, arities: Mapping[str, int]):
        cleaned = {}
        for name, ar in arities.items():
            if not isinstance(name, str) or not name:
                raise SignatureError(f"relation name must be a nonempty string, got {name!r}")
            if not isinstance(ar, int) or isinstance(ar, bool) or ar < 0:
                raise SignatureError(f"arity of {name!r} must be a nonnegative integer, got {ar!r}")
            cleaned[name] = ar
        set_field(self, "_arities", dict(sorted(cleaned.items())))

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise SignatureError(f"unknown relation {name!r}") from None

    def symbols(self) -> tuple[str, ...]:
        return tuple(self._arities)

    def as_dict(self) -> dict[str, int]:
        return dict(self._arities)

    def extend(self, extra: Mapping[str, int]) -> "Signature":
        merged = dict(self._arities)
        for name, ar in extra.items():
            if name in merged and merged[name] != ar:
                raise SignatureError(f"conflicting arity for {name!r}")
            merged[name] = ar
        return Signature(merged)

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    def __iter__(self) -> Iterator[str]:
        return iter(self._arities)

    def __hash__(self) -> int:
        return hash(tuple(self._arities.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}/{a}" for n, a in self._arities.items())
        return f"Signature({inner})"


class Structure(Record):
    """A finite structure: a universe of element ids and one relation per symbol.

    Instances are read-only; all derived values are new objects.  Equality
    and hashing ignore the display-name table and the column index that
    :meth:`tuples_with` fills.
    """

    __slots__ = ("signature", "universe", "relations", "names", "_index")

    def __init__(
        self,
        signature: Signature,
        universe: Iterable[int],
        relations: Mapping[str, Iterable[Sequence[int]]],
        names: Optional[Mapping[int, str]] = None,
    ):
        uni = set(universe)
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
        if names is None:
            names = {}
        set_field(self, "signature", signature)
        set_field(self, "universe", tuple(sorted(uni)))
        set_field(self, "relations", rels)
        set_field(self, "names", {e: names.get(e, f"v{e}") for e in self.universe})
        set_field(self, "_index", {})

    # -- basic views ---------------------------------------------------

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
        return Structure(self.signature, map(f, self.universe), rels, self.names)

    # -- dunder --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.signature, self.universe, self.relations) == (
            other.signature, other.universe, other.relations
        )

    def __hash__(self) -> int:
        return hash((self.signature, self.universe, frozenset(self.relations.items())))

    def __repr__(self) -> str:
        facts = ", ".join(
            f"{n}({','.join(self.names[e] for e in t)})" for n, t in self.atoms()
        )
        return f"Structure[{facts or 'empty'}]"


def find(parent: list[int], x: int) -> int:
    """The root of ``x`` in the union-find ``parent``, a list of parent
    indices, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def link(parent: list[int], a: int, b: int) -> bool:
    """Merge the classes of ``a`` and ``b`` in the union-find ``parent``; True
    if they were apart.  The larger root is linked under the smaller, so a
    class's root is its smallest index, whatever order the links came in.
    An index that is never linked is its own class.  The finds are inlined:
    representations link once per theta pair."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    while parent[b] != b:
        parent[b] = parent[parent[b]]
        b = parent[b]
    if a < b:
        parent[b] = a
    elif b < a:
        parent[a] = b
    return a != b


def flatten(parent: list[int]) -> None:
    """Point every index of the union-find ``parent`` (see :func:`link`) at
    its root.  Every link points to a smaller index, so in increasing order
    an index's parent already holds its root."""
    for i, up in enumerate(parent):
        parent[i] = parent[up]


class OpenStructure(Record):
    """A structure with no isolated elements plus a distinguished output tuple.

    A homomorphism of open structures maps tuple onto tuple, so an
    endomorphism fixes every tuple entry.  The degenerate all-empty
    structure with the empty tuple is admitted; it arises from arity-0
    projections of constant plans.
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
        set_field(self, "structure", structure)
        set_field(self, "tuple", out)

    @property
    def arity(self) -> int:
        return len(self.tuple)

    def __repr__(self) -> str:
        named = ",".join(self.structure.names[e] for e in self.tuple)
        return f"Open({self.structure!r}, ({named}))"


class Hypergraph(Record):
    """A vertex set and a set of vertex subsets."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: frozenset[int], edges: frozenset[frozenset[int]]):
        for e in edges:
            if not e <= vertices:
                raise SignatureError(f"edge {sorted(e)} not within vertex set")
        set_field(self, "vertices", vertices)
        set_field(self, "edges", edges)

    def primal_edges(self) -> set[tuple[int, int]]:
        return {pair for e in self.edges for pair in itertools.combinations(sorted(e), 2)}


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
        """Forward-check all atoms mentioning ``var``, which is assigned, so
        each atom's rows are filtered.  Each narrowed set replaces the old
        one, which is logged on ``trail``."""
        for idx in self.atoms_of[var]:
            name, row = self.atoms[idx]
            rows = None
            for pos, e in enumerate(row):
                if e in assigned:
                    filt = self.dst.tuples_with(name, pos, assigned[e])
                    rows = filt if rows is None else tuple(t for t in rows if t[pos] == assigned[e])
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

    def _solutions(self, cand, assigned, pool):
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
                    del assigned[var]
                    undo(mark)
                for val in values:
                    trail.append((var, cand[var]))
                    cand[var] = {val}
                    assigned[var] = val
                    narrowed_from = len(trail)
                    if self._propagate(cand, assigned, var, trail):
                        for i in range(narrowed_from, len(trail)):
                            v = trail[i][0]
                            if v in members:
                                heapq.heappush(heap, (len(cand[v]), v))
                        break
                    del assigned[var]
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

    def _complete(self, cand, assigned) -> Optional[dict[int, int]]:
        """The first total extension of ``assigned``, or None; leaves
        ``cand`` and ``assigned`` as they were."""
        search = self._solutions(cand, assigned, self.src.universe)
        try:
            found = next(search, None)
            return None if found is None else dict(found)
        finally:
            search.close()

    def first(self) -> Optional[dict[int, int]]:
        start = self._start()
        return None if start is None else self._complete(*start)

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


def _tuple_pins(src: Sequence[int], dst: Sequence[int]) -> Optional[dict[int, int]]:
    """The map sending each entry of ``src`` to the entry of ``dst`` at the
    same position, or None if an element would need two images."""
    pinned: dict[int, int] = {}
    for a, b in zip(src, dst):
        if pinned.get(a, b) != b:
            return None
        pinned[a] = b
    return pinned


def find_homomorphism(
    src: OpenStructure, dst: OpenStructure
) -> Optional[dict[int, int]]:
    """A homomorphism h with h(src.tuple) = dst.tuple, or None.

    Deterministic: the same inputs always yield the same witness map.
    """
    if src.structure.signature != dst.structure.signature:
        raise SignatureError("open structures are not similar")
    if len(src.tuple) != len(dst.tuple):
        raise ArityError("output tuples have different arities")
    pinned = _tuple_pins(src.tuple, dst.tuple)
    if pinned is None:
        return None
    return _HomSearch(src.structure, dst.structure, pinned).first()


def homs_relation(
    src: Structure, outputs: Sequence[int], data: Structure
) -> frozenset[tuple[int, ...]]:
    """homs(A, a, D): the relation { h(a) : h hom A -> D }."""
    if src.signature != data.signature:
        raise SignatureError("source and data must be similar")
    universe = set(src.universe)
    for e in outputs:
        if e not in universe:
            raise SignatureError(f"output element {e} not in source universe")
    return frozenset(_HomSearch(src, data, {}).images(tuple(outputs)))


# ---------------------------------------------------------------------------
# Cores
# ---------------------------------------------------------------------------


def _certified_core(a: OpenStructure) -> bool:
    """Whether every endomorphism of ``a`` (fixing its tuple) is injective,
    decided with one homomorphism search per element.

    On a finite structure an endomorphism is injective exactly when it is
    surjective, and one fixing the tuple hits every tuple entry; so ``a`` is
    a core exactly when, for each other element z, no endomorphism misses
    z, that is, no homomorphism maps ``a`` into ``a`` minus z.
    """
    s = a.structure
    pins = _tuple_pins(a.tuple, a.tuple)
    return all(
        _HomSearch(s, s.restrict(set(s.universe) - {z}), pins).first() is None
        for z in s.universe
        if z not in pins
    )


def _noninjective_endomorphism(a: OpenStructure) -> Optional[dict[int, int]]:
    """Some endomorphism of ``a`` (fixing its tuple) that identifies at
    least two elements, or None.

    None at once when :func:`_certified_core` proves ``a`` a core.
    Otherwise the pairs are searched in sorted order, and a hit is turned
    into a hom of the quotient structure back into ``a``.  The certificate
    decides only inputs on which the pair search finds nothing, so every
    witness, and with it every core, is the pair search's.
    """
    if _certified_core(a):
        return None
    universe = a.structure.universe
    for x, y in itertools.combinations(universe, 2):
        pinned = _tuple_pins([x if e == y else e for e in a.tuple], a.tuple)
        if pinned is None:
            continue
        g = _HomSearch(a.structure.apply_map({y: x}), a.structure, pinned).first()
        if g is not None:
            return {e: g[x if e == y else e] for e in universe}
    return None


def _periodic_points(h: Mapping[int, int]) -> set[int]:
    """The elements on cycles of ``h``: the image of its idempotent powers."""
    kept = set(h)
    while (image := {h[x] for x in kept}) != kept:
        kept = image
    return kept


def compute_core(value: OpenStructure, cap: int) -> OpenStructure:
    """A core of the open structure ``value``: a retract with the same tuple
    all of whose endomorphisms (fixing the tuple) are injective.  A universe
    of more than ``cap`` elements raises :class:`ResourceCapError` before
    any search.

    Greedy iterated retraction: repeatedly find a non-injective endomorphism
    h and pass to the induced substructure on h's periodic points, the
    elements on cycles of h.  Some power of h is idempotent, is the identity
    on exactly those points and maps every element onto them, so that
    substructure is a retract.  At the fixpoint every endomorphism is
    injective, which is exactly the no-proper-retraction condition.

    The last round, which proves that fixpoint, costs one homomorphism
    search per element outside the tuple (:func:`_certified_core`) rather
    than one per pair of elements; a round that retracts still takes the
    pair search's witness, so the core is the same, byte for byte.
    """
    if len(value.structure.universe) > cap:
        raise ResourceCapError(
            f"core search capped at universe {cap}, got {len(value.structure.universe)}"
        )
    current = value
    while True:
        h = _noninjective_endomorphism(current)
        if h is None:
            return current
        current = OpenStructure(current.structure.restrict(_periodic_points(h)), current.tuple)
