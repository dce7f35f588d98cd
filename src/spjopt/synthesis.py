"""The rewrite pipeline: representation, chase, core, key elimination,
width-optimal decomposition, and plan synthesis, plus degree analysis.

Plan synthesis follows the constructive route: unary keys are compiled away
by appending functionally determined columns to atoms (every appended column
is produced by a well-behaved join against a two-column projection whose
first coordinate is a key, so no defining plan ever exceeds degree one); a
minimum-width tree decomposition of the resulting structure is computed with
the empty key set; each bag is materialized by a join chain that introduces
one element at a time; and the bags are combined bottom-up along the tree,
adding no new columns.  A chain step joins only the undominated atom blocks:
an atom's block is dropped while its visible columns lie inside another
block's, which leaves the step's fractional edge cover, and so its degree
bound, unchanged, and every atom is joined on all its bag columns at its
last step.  The output plan is over the original signature (the
defining plans of derived relations are inlined), well-behaved, and
equivalent to the input on every database satisfying the keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .colorwidth import color_values, optimal_cwidth
from .constraints import KeySet, chase, satisfies_keys
from .errors import ArityError, DegenerateInputError, ResourceCapError, SpjError
from .plans import (
    Basic,
    Join,
    Plan,
    PreparedPlan,
    Project,
    Select,
    prepare,
    print_numbered,
    print_plan,
    theta_of,
)
from .represent import (
    REPRESENTATION_ELEMENTS_CAP,
    Caps,
    TreeDecomposition,
    build_representation,
    check_representation_size,
)
from .structures import (
    OpenStructure,
    Signature,
    Structure,
    UnionFind,
    compute_core,
    find_homomorphism,
)


# ---------------------------------------------------------------------------
# Key elimination
# ---------------------------------------------------------------------------


@dataclass
class FdElimination:
    """A structure over a widened signature in which every atom is closed
    under the element-level dependencies read off the unary keys.

    ``defining_plans`` gives, for every relation of the widened signature, a
    plan over the original signature computing its contents; new relations
    additionally appear in ``new_relations``.
    """

    original: OpenStructure
    open: OpenStructure
    defining_plans: dict[str, Plan]
    new_relations: dict[str, Plan]

    @property
    def structure(self) -> Structure:
        return self.open.structure


def _base_fds(core: Structure, keys: KeySet) -> dict[tuple[int, int], Plan]:
    """Element-level dependencies x -> y with a defining plan for each.

    The plan is the (key position, dependent position) projection of the
    first witnessing relation; on key-satisfying data its first coordinate
    determines its second.
    """
    out: dict[tuple[int, int], Plan] = {}
    for name in core.signature.symbols():
        for j in keys.for_relation(name):
            for row in sorted(core.relations[name]):
                x = row[j - 1]
                for i, y in enumerate(row, start=1):
                    if i != j and y != x and (x, y) not in out:
                        out[(x, y)] = Project((j, i), Basic(name))
    return out


def _fresh_names(signature: Signature):
    """Generator of relation names not colliding with the signature."""
    i = 0
    while True:
        name = f"N{i}"
        if name not in signature:
            yield name
        i += 1


def eliminate_fds(core: OpenStructure, keys: KeySet) -> FdElimination:
    """Close every atom under the key-derived dependencies.

    Requires the input to be a chase fixpoint.  Appending is one column at a
    time, always sourced from an element already present in the atom, so
    only base dependencies are ever needed and each step is a well-behaved
    join whose output is no larger than the base relation.
    """
    struct = core.structure
    if not satisfies_keys(struct, keys):
        raise DegenerateInputError("key elimination requires a chase fixpoint")
    fd_plans = _base_fds(struct, keys)
    sources: dict[int, list[int]] = {}
    for (x, y) in fd_plans:
        sources.setdefault(y, []).append(x)

    names = _fresh_names(struct.signature)
    new_relations: dict[str, Plan] = {}
    name_by_plan: dict[Plan, str] = {}
    new_rows: dict[str, list[tuple[int, ...]]] = {}
    kept_rows: dict[str, list[tuple[int, ...]]] = {n: [] for n in struct.signature.symbols()}

    for rel, row in struct.atoms():
        plan: Plan = Basic(rel)
        cur = tuple(row)
        while True:
            have = set(cur)
            targets = sorted(
                y
                for (x, y) in fd_plans
                if x in have and y not in have
            )
            if not targets:
                break
            y = targets[0]
            x = min(x for x in sources[y] if x in have)
            r = len(cur)
            pos_x = cur.index(x) + 1
            joined = Join(theta_of([(pos_x, r + 1)]), (plan, fd_plans[(x, y)]))
            plan = Project(tuple(range(1, r + 1)) + (r + 2,), joined)
            cur = cur + (y,)
        if len(cur) > len(row):
            name = name_by_plan.get(plan)
            if name is None:
                name = next(names)
                name_by_plan[plan] = name
                new_relations[name] = plan
                new_rows[name] = []
            new_rows[name].append(cur)
        else:
            kept_rows[rel].append(row)

    sig = struct.signature.extend(
        {name: len(rows[0]) for name, rows in new_rows.items()}
    )
    relations = dict(kept_rows)
    relations.update(new_rows)
    widened = Structure(sig, struct.universe, relations, struct.names)
    defining = {n: Basic(n) for n in struct.signature.symbols()}
    defining.update(new_relations)
    return FdElimination(
        original=core,
        open=OpenStructure(widened, core.tuple),
        defining_plans=defining,
        new_relations=new_relations,
    )


# ---------------------------------------------------------------------------
# Plan synthesis
# ---------------------------------------------------------------------------


@dataclass
class SynthesisResult:
    """A well-behaved plan and the decomposition of ``elimination.open`` it
    was built from; the certified intermediate degree is that
    decomposition's color-number width without keys.  ``prepared`` is the
    plan prepared under the input's signature, on which its
    well-behavedness was checked and which the verification reuses."""

    prepared: PreparedPlan
    degree: Fraction
    decomposition: TreeDecomposition
    elimination: FdElimination

    @property
    def plan(self) -> Plan:
        return self.prepared.plan

    @property
    def new_relations(self) -> dict[str, Plan]:
        return self.elimination.new_relations

    @property
    def plan_text(self) -> str:
        """The plan, printed from its numbering."""
        return print_numbered(self.prepared.numbering[1])


def _first_columns(col_elems: Sequence[int]) -> tuple[frozenset, dict[int, int]]:
    """The theta equating each repeated element's column with its first
    column, and each element's first column (1-based)."""
    theta = []
    first: dict[int, int] = {}
    for pos, e in enumerate(col_elems, start=1):
        if e in first:
            theta.append((first[e], pos))
        else:
            first[e] = pos
    return theta_of(theta), first


def _atom_subplan(
    rel: str, row: tuple[int, ...], base: Plan, elements: tuple[int, ...]
) -> Plan:
    """The atom's projection onto ``elements`` (in that column order).

    Repeated elements in the atom are enforced by a selection before
    projecting, so the projection carries the atom's full repetition
    pattern.
    """
    theta, first = _first_columns(row)
    plan = Select(theta, base) if theta else base
    return Project(tuple(first[e] for e in elements), plan)


# Each element's atoms, as (relation, row, defining plan), in atom order.
_AtomsByElem = dict[int, list[tuple[str, tuple[int, ...], Plan]]]


def _connected_order(bag: frozenset, atoms_by_elem: _AtomsByElem) -> tuple[int, ...]:
    """Bag elements ordered so each shares an atom with a predecessor when
    possible; ties broken by element id."""
    rest = sorted(bag)
    order: list[int] = []
    while rest:
        pick = None
        chosen = set(order)
        if chosen:
            for e in rest:
                if any(chosen.intersection(row) for _, row, _ in atoms_by_elem.get(e, ())):
                    pick = e
                    break
        if pick is None:
            pick = rest[0]
        order.append(pick)
        rest.remove(pick)
    return tuple(order)


def _bag_chain(order: tuple[int, ...], atoms_by_elem: _AtomsByElem) -> Plan:
    """Join chain materializing the bag's local solutions, one element per
    step; output columns follow ``order``.

    The step that brings in ``elem`` joins the chain so far with one block
    per atom holding ``elem``: the atom's projection onto its visible
    columns.  A block is kept when its atom is complete (every element of
    row & bag is visible, so this is the atom's last step and it is joined
    on all its bag columns), or when its column set is not a proper subset
    of another block's in the step; of equal column sets the first is kept.
    A dropped block is a dominated hyperedge of the step's visible set, so
    the step's fractional edge cover, and with it the step's degree bound,
    is unchanged, and every atom still constrains the bag at its last step.
    """
    step_of = {e: i for i, e in enumerate(order, start=1)}
    sol: Optional[Plan] = None
    for i, elem in enumerate(order, start=1):
        visible = order[:i]
        children: list[Plan] = []
        col_elems: list[int] = []
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
                cols = tuple(e for e in visible if e in cset)
                children.append(_atom_subplan(rel, row, base, cols))
                col_elems.extend(cols)
        theta, first = _first_columns(col_elems)
        sol = Project(tuple(first[e] for e in visible), Join(theta, tuple(children)))
    return sol


def synthesize_plan(
    core: OpenStructure, keys: KeySet, caps: Caps = Caps()
) -> SynthesisResult:
    """Synthesize a well-behaved plan equivalent (over key-satisfying data)
    to evaluating the given chased core.

    The plan follows a minimum-width decomposition of the key-eliminated
    structure, searched with no keys; the certified intermediate degree is
    that decomposition's width, which is the core's color-number width.

    Core-ness is not re-verified here; a non-core fixpoint still yields a
    correct, well-behaved plan, just possibly not of minimum degree.
    """
    struct = core.structure
    if struct.total_tuple_count() == 0:
        raise DegenerateInputError(
            "cannot synthesize a plan from a structure with no tuples: no SPJ "
            "plan outputs the empty tuple on the empty database"
        )
    elim = eliminate_fds(core, keys)
    report = optimal_cwidth(elim.open, KeySet.empty(), cap=caps.width_universe)
    prepared = _assemble_plan(core, elim, report.decomposition)
    return SynthesisResult(
        prepared=prepared,
        degree=report.width,
        decomposition=report.decomposition,
        elimination=elim,
    )


def _assemble_plan(
    core: OpenStructure, elim: FdElimination, dec: TreeDecomposition
) -> PreparedPlan:
    """The well-behaved plan over ``elim``'s atoms that follows the
    decomposition ``dec`` of ``elim.open``, prepared under the core's
    signature, on which its well-behavedness is checked."""
    atoms = [
        (rel, row, elim.defining_plans[rel])
        for rel, row in elim.structure.atoms()
    ]
    nullary_atoms = [(rel, row, base) for rel, row, base in atoms if not row]
    atoms_by_elem: _AtomsByElem = {}
    for atom in atoms:
        for e in dict.fromkeys(atom[1]):
            atoms_by_elem.setdefault(e, []).append(atom)

    bag_orders: dict[int, tuple[int, ...]] = {
        node: _connected_order(dec.chi[node], atoms_by_elem) for node in dec.nodes
    }

    children = dec.children()

    def combine(node: int) -> Plan:
        order = bag_orders[node]
        if order:
            plan = _bag_chain(order, atoms_by_elem)
        else:
            # Empty bag: the decomposition is a single node over an empty
            # universe, and every atom is nullary (synthesize_plan checks that
            # tuples exist), so the plan is a pure constant test.
            tests = tuple(
                Project((), _atom_subplan(rel, row, base, ()))
                for rel, row, base in atoms
            )
            return Join(frozenset(), tests)
        kids = children[node]
        if not kids:
            return plan
        parts: list[Plan] = [plan]
        part_elems = list(order)
        for kid in kids:
            kid_plan = combine(kid)
            kid_order = bag_orders[kid]
            shared = [e for e in order if e in dec.chi[kid]]
            proj = Project(tuple(kid_order.index(e) + 1 for e in shared), kid_plan)
            parts.append(proj)
            part_elems.extend(shared)
        theta, _ = _first_columns(part_elems)
        return Project(tuple(range(1, len(order) + 1)), Join(theta, tuple(parts)))

    root_plan = combine(dec.root)
    root_order = bag_orders[dec.root]
    out_cols = tuple(root_order.index(e) + 1 for e in core.tuple)
    final: Plan = Project(out_cols, root_plan)
    if nullary_atoms and root_order:
        tests = tuple(
            Project((), _atom_subplan(rel, row, base, ()))
            for rel, row, base in nullary_atoms
        )
        final = Join(frozenset(), (final,) + tests)

    prepared = prepare(final, core.structure.signature)
    if prepared.offender is not None:  # pragma: no cover - construction invariant
        raise SpjError(f"synthesized plan not well-behaved at {print_plan(prepared.offender)}")
    return prepared


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


def subplan_degrees(prepared: PreparedPlan, keys: KeySet) -> list[Fraction]:
    """Output degree per number of the ``prepared`` plan's numbering, the
    root's last: the color number of the tuple set of the subplan's chased
    representation.

    Each is built from the children's: a fresh atom, a reindexed tuple for a
    projection, and for a join or selection the disjoint union, theta's
    identifications and the chase, a closure that may start from chased parts.
    A projection keeps its child's structure, and so its value function.
    A subplan's degree is read as soon as it is built, and its structure is
    dropped after the last subplan that reads it, so a chain holds about
    two levels at a time.  Every structure built counts against
    ``REPRESENTATION_ELEMENTS_CAP`` before it is allocated, whether or not
    it was dropped: a join or selection holds its children's elements until
    the chase.
    """
    signature = prepared.signature
    (numbers, distinct), arities = prepared.numbering, prepared.arities
    check_representation_size(numbers, distinct, arities)
    last_reader = {kid: number for number, (_, kids) in enumerate(distinct) for kid in kids}
    reps: list[Optional[tuple[Structure, tuple[int, ...], Callable]]] = []
    degrees: list[Fraction] = []
    allocated = 0
    for number, ((node, kids), m) in enumerate(zip(distinct, arities)):
        if not isinstance(node, Project):
            allocated += m if isinstance(node, Basic) else sum(len(reps[k][0].universe) for k in kids)
            if allocated > REPRESENTATION_ELEMENTS_CAP:
                raise ResourceCapError(
                    f"degree analysis capped at {REPRESENTATION_ELEMENTS_CAP} elements, "
                    f"its structures need at least {allocated}"
                )
        if isinstance(node, Basic):
            out = tuple(range(m))
            struct = Structure(signature, out, {node.relation: [out]})
        elif isinstance(node, Project):
            struct, child, value = reps[kids[0]]
            out = tuple(child[c - 1] for c in node.cols)
        else:
            # Shift past the largest id, not the element count: chase leaves gaps.
            joined, universe, shift = [], [], 0
            rows: dict[str, list[tuple[int, ...]]] = {n: [] for n in signature.symbols()}
            for kid in kids:
                struct, child, _ = reps[kid]
                joined += [e + shift for e in child]
                universe += [e + shift for e in struct.universe]
                for name, rel in struct.relations.items():
                    rows[name] += [tuple(e + shift for e in t) for t in rel]
                if universe:
                    shift = universe[-1] + 1
            uf = UnionFind(joined)
            for j, k in node.theta:
                uf.union(joined[j - 1], joined[k - 1])
            merge = {e: uf.find(e) for e in joined}
            chased = chase(Structure(signature, universe, rows).apply_map(merge), keys)
            struct = chased.result
            out = tuple(chased.merge_map[merge[e]] for e in joined)
        if not isinstance(node, Project):
            value = color_values(struct, keys)
        degrees.append(value(out))
        reps.append((struct, out, value))
        for kid in kids:
            if last_reader[kid] == number:
                reps[kid] = None
    return degrees


def output_degree(plan: Plan, keys: KeySet, signature: Signature) -> Fraction:
    """The least exponent d with |out(plan, D)| = O(M_D^d) over key-satisfying
    databases (see :func:`subplan_degrees`)."""
    return subplan_degrees(prepare(plan, signature), keys)[-1]


def intermediate_degree_bound(plan: Plan, keys: KeySet, signature: Signature) -> Fraction:
    """Max output degree over all subplans; this equals the plan's
    intermediate degree."""
    return max(subplan_degrees(prepare(plan, signature), keys))


@dataclass(frozen=True)
class EquivalenceWitness:
    """The chased representations of two equivalent plans, with a
    homomorphism each way that maps output tuple to output tuple."""

    left: OpenStructure
    right: OpenStructure
    forward: dict[int, int]
    backward: dict[int, int]


def equivalence_witness(
    p1: PreparedPlan, p2: PreparedPlan, keys: KeySet
) -> Optional[EquivalenceWitness]:
    """The witness that the prepared plans ``p1`` and ``p2`` are equivalent
    over all key-satisfying databases, or None if they are not.

    Decided exactly: the chased representations must be homomorphically
    equivalent.  Plans of different arity raise :class:`ArityError`.
    """
    rep1, _ = build_representation(p1.plan, p1.signature, p1)
    rep2, _ = build_representation(p2.plan, p2.signature, p2)
    if len(rep1.open.tuple) != len(rep2.open.tuple):
        raise ArityError("plans of different arity are never equivalent")
    return _mutual_homomorphisms(chase(rep1.open, keys).result, chase(rep2.open, keys).result)


def _mutual_homomorphisms(c1: OpenStructure, c2: OpenStructure) -> Optional[EquivalenceWitness]:
    """The witness of two chased representations' homomorphic equivalence,
    or None."""
    forward = find_homomorphism(c1, c2)
    if forward is None:
        return None
    backward = find_homomorphism(c2, c1)
    if backward is None:
        return None
    return EquivalenceWitness(c1, c2, forward, backward)


def check_equivalence(p1: Plan, p2: Plan, keys: KeySet, signature: Signature) -> bool:
    """Equivalence over all key-satisfying databases (see
    :func:`equivalence_witness`)."""
    return equivalence_witness(prepare(p1, signature), prepare(p2, signature), keys) is not None


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


def _chased_representation(prepared: PreparedPlan, keys: KeySet) -> OpenStructure:
    rep, _ = build_representation(prepared.plan, prepared.signature, prepared)
    return chase(rep.open, keys).result


def chased_core(prepared: PreparedPlan, keys: KeySet, core_cap: Optional[int]) -> OpenStructure:
    """The core of the prepared plan's chased representation, searched under
    ``core_cap`` (``None`` for no cap): the structure synthesis starts from."""
    return compute_core(_chased_representation(prepared, keys), cap_universe=core_cap)


def optimize(prepared: PreparedPlan, keys: KeySet, caps: Caps = Caps()) -> SynthesisResult:
    """Rewrite the ``prepared`` plan into a well-behaved plan of minimum
    intermediate degree over all plans equivalent on key-satisfying
    databases.

    Pipeline: representation -> chase -> core -> synthesis.  Synthesis
    checks that the result is well-behaved, and the result is checked to be
    equivalent to the input before it is returned, as
    :func:`equivalence_witness` decides it, against the chased input that
    the core was computed from.  The core is ``result.elimination.original``.
    The result's representation is built on ``result.prepared``, so the
    synthesized plan is numbered once.
    """
    chased = _chased_representation(prepared, keys)
    result = synthesize_plan(compute_core(chased, cap_universe=caps.core_universe), keys, caps)
    output = _chased_representation(result.prepared, keys)
    if _mutual_homomorphisms(chased, output) is None:  # pragma: no cover
        raise SpjError("pipeline produced a non-equivalent plan")
    return result
