"""The rewrite pipeline: representation, chase, core, key elimination,
width-optimal decomposition, and plan synthesis, plus degree analysis.

Plan synthesis follows the constructive route: unary keys are compiled away
by appending functionally determined columns to atoms (every appended column
is produced by a well-behaved join against a two-column projection whose
first coordinate is a key, so no defining plan ever exceeds degree one), an
atom that the keys imply from one widened atom's closure is dropped, and an
atom whose closure lies inside a widened atom's stays unwidened, as the
plain atom; a minimum-width tree decomposition of the resulting structure
is computed with the empty key set and contracted, every bag that lies
inside a neighbour's merged into it
(:meth:`spjopt.represent.TreeDecomposition.contracted`, which keeps the
width); each remaining bag is built by one join chain, which brings in
the whole bag in one step when one atom holds all of it and one element
per step otherwise; and the bags are combined bottom-up along the tree by
:func:`_joined`, which assembles every join, adding no new
columns.  A block, an atom's projection onto
the elements a join sees, keeps the columns in the atom's row order, and the
join's projection puts them in bag order.  A chain step joins only the
undominated atom blocks: an atom's block is dropped while its visible
columns lie inside another block's, which leaves the step's fractional edge
cover, and so its degree bound, unchanged, and every atom is joined on all
its bag columns at its last step.  A block that another block of the same
join implies, an atom of the same relation agreeing on its visible
positions, is dropped too, as is a chain's first step when its second step
implies it.  The output plan is over the original
signature (the defining plans of derived relations are inlined),
well-behaved, and equivalent to the input on every database satisfying the
keys.  It holds no dead operator: every projection and join is built by :func:`_project`
or :func:`_join`, so no projection reads a projection, no projection
keeps all its child's columns in order, and no join without theta has one
child.  Each operator left out has the arity and output degree of the
node that takes its place, so no join's well-behavedness and no degree
bound changes.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .colorwidth import color_values, optimal_cwidth
from .constraints import KeySet, chase, key_closure, satisfies_keys
from . import errors
from .errors import ArityError, Caps, DegenerateInputError, Record, ResourceCapError, SpjError, set_field
from .plans import (
    Basic,
    Join,
    Plan,
    PreparedPlan,
    Project,
    Select,
    prepare,
    print_plan,
    print_prepared,
    theta_of,
)
from .represent import TreeDecomposition, build_representation, check_representation_size
from .structures import (
    OpenStructure,
    Signature,
    Structure,
    compute_core,
    find_homomorphism,
)


# ---------------------------------------------------------------------------
# Plan constructors
# ---------------------------------------------------------------------------


def _project(cols: tuple[int, ...], plan: Plan, arity: int) -> Plan:
    """``(project cols plan)`` for a ``plan`` of ``arity`` columns, with no
    dead operator: ``plan`` itself when ``cols`` are all its columns in
    order, and one projection composed with a child projection.  A
    composition is not checked again: every projection that synthesis
    composes onto keeps its columns in increasing order and drops one, so
    the composition drops one too."""
    if cols == tuple(range(1, arity + 1)):
        return plan
    if isinstance(plan, Project):
        return Project(tuple(plan.cols[c - 1] for c in cols), plan.child)
    return Project(cols, plan)


def _join(theta: frozenset, children: Sequence[Plan]) -> Plan:
    """``(join theta children...)``, or the lone child of a join with no
    theta."""
    if len(children) == 1 and not theta:
        return children[0]
    return Join(theta, tuple(children))


# ---------------------------------------------------------------------------
# Key elimination
# ---------------------------------------------------------------------------


class FdElimination(Record):
    """A structure over a widened signature in which every atom is closed
    under the element-level dependencies read off the unary keys, or lies
    inside an atom that is, and the core's atoms that the keys imply from
    one widened atom's closure are left out (see :func:`eliminate_fds`).

    ``defining_plans`` gives, for every relation of the widened signature, a
    plan over the original signature computing its contents; new relations
    additionally appear in ``new_relations``.
    """

    __slots__ = ("original", "open", "defining_plans", "new_relations")

    def __init__(self, original: OpenStructure, open: OpenStructure,
                 defining_plans: dict[str, Plan], new_relations: dict[str, Plan]):
        set_field(self, "original", original)
        set_field(self, "open", open)
        set_field(self, "defining_plans", defining_plans)
        set_field(self, "new_relations", new_relations)

    @property
    def structure(self) -> Structure:
        return self.open.structure


def _base_fds(core: Structure, keys: KeySet) -> dict[tuple[int, int], tuple[str, int, int]]:
    """Element-level dependencies x -> y, each with its witnessing fact.

    The fact ``(relation, j, i)`` names the first relation, key position j
    and dependent position i with a row holding x at j and y at i; on
    key-satisfying data the (j, i) projection of that relation maps x to y
    alone.
    """
    out: dict[tuple[int, int], tuple[str, int, int]] = {}
    for name in core.signature.symbols():
        for j in keys.for_relation(name):
            for row in sorted(core.relations[name]):
                x = row[j - 1]
                for i, y in enumerate(row, start=1):
                    if i != j and y != x and (x, y) not in out:
                        out[(x, y)] = (name, j, i)
    return out


def _fresh_names(signature: Signature):
    """Generator of relation names not colliding with the signature."""
    i = 0
    while True:
        name = f"N{i}"
        if name not in signature:
            yield name
        i += 1


def _closure(
    row: tuple[int, ...], targets: dict[int, list[int]], sources: dict[int, list[int]]
) -> tuple[tuple[int, ...], list[tuple[int, int, int]]]:
    """``row`` closed under the dependencies, one appended element per
    step, and each step's (1-based column of x, x, y).

    A step appends the smallest y some element of the row determines, from
    the smallest such element x.  The candidates wait in a min-heap, filled
    from ``targets`` (x to the ys it determines) as elements arrive.
    """
    cur = list(row)
    column: dict[int, int] = {}
    for pos, e in enumerate(row, start=1):
        column.setdefault(e, pos)
    heap = [y for x in column for y in targets.get(x, ()) if y not in column]
    heapq.heapify(heap)
    steps = []
    while heap:
        y = heapq.heappop(heap)
        if y in column:
            continue
        x = min(x for x in sources[y] if x in column)
        steps.append((column[x], x, y))
        cur.append(y)
        column[y] = len(cur)
        for z in targets.get(y, ()):
            if z not in column:
                heapq.heappush(heap, z)
    return tuple(cur), steps


def _defining_plan(rel: str, steps: tuple[tuple[int, str, int, int], ...], signature: Signature) -> Plan:
    """The plan appending one column to ``rel`` per closure step
    ``(column of x, relation, j, i)``: a join on x with the relation's
    (j, i) projection, keeping its column i."""
    plan: Plan = Basic(rel)
    r = signature.arity(rel)
    for pos_x, src, j, i in steps:
        fd = _project((j, i), Basic(src), signature.arity(src))
        plan = Project(tuple(range(1, r + 1)) + (r + 2,), Join(theta_of([(pos_x, r + 1)]), (plan, fd)))
        r += 1
    return plan


def eliminate_fds(core: OpenStructure, keys: KeySet) -> FdElimination:
    """Close the atoms under the key-derived dependencies, and drop the
    atoms that the keys imply from another atom's closure.

    Requires the input to be a chase fixpoint.  Appending is one column at a
    time, always sourced from an element already present in the atom, so
    only base dependencies are ever needed and each step is a well-behaved
    join whose output is no larger than the base relation.  A derived
    relation is named by its closure steps, so equal closures share a name.

    Atoms are visited largest expansion first.  One without repeated
    elements and of arity at least 2 is dropped when, for some key j of its
    relation R, the closure of one widened atom recorded the fact (R, j, i,
    row[j], row[i]) for every other position i.  On key-satisfying data the
    R-row holding row[j] at j is then ``row`` itself, and ``row`` lies
    inside that atom's widened row, so its hyperedge is dominated and no
    bag's color number changes.

    A kept atom with closure steps is widened unless its closure's elements
    all lie inside the closure of an earlier widened atom; then it stays
    the plain atom, under its base relation.  Its closure hyperedge was
    dominated, so neither the Gaifman graph nor any bag's color number
    moves, and the plain atom is still checked.  Its closure steps are in
    no defining plan, so their facts drop no atom.
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
    widen = [False] * len(atoms)
    widened: list[tuple[set, frozenset]] = []  # per widened atom, its closure's facts and elements
    for k in sorted(range(len(atoms)), key=lambda k: len(atoms[k][1]) - len(closures[k][0])):
        rel, row = atoms[k]
        cur, steps = closures[k]
        if len(row) >= 2 and len(set(row)) == len(row):
            keep[k] = not any(
                {(rel, j, i, row[j - 1], y) for i, y in enumerate(row, start=1) if i != j} <= facts
                for j in keys.for_relation(rel)
                for facts, _ in widened
            )
        if keep[k] and steps and not any(elements.issuperset(cur) for _, elements in widened):
            widen[k] = True
            widened.append(({(*fds[(x, y)], x, y) for _, x, y in steps}, frozenset(cur)))

    names = _fresh_names(sig)
    new_relations: dict[str, Plan] = {}
    name_by_steps: dict[tuple, str] = {}
    new_rows: dict[str, list[tuple[int, ...]]] = {}
    kept_rows: dict[str, list[tuple[int, ...]]] = {n: [] for n in sig.symbols()}
    for (rel, row), (cur, steps), kept, wide in zip(atoms, closures, keep, widen):
        if not kept:
            continue
        if not wide:
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


# ---------------------------------------------------------------------------
# Plan synthesis
# ---------------------------------------------------------------------------


class SynthesisResult(Record):
    """A well-behaved plan and the decomposition of ``elimination.open`` it
    was built from: the width search's, contracted so that no bag lies
    inside another's.  The certified intermediate degree is that
    decomposition's color-number width without keys, which is the search's
    width.  ``prepared`` is the plan prepared under the input's signature,
    on which its well-behavedness was checked and which the verification
    reuses."""

    __slots__ = ("prepared", "degree", "decomposition", "elimination")

    def __init__(self, prepared: PreparedPlan, degree: Fraction,
                 decomposition: TreeDecomposition, elimination: FdElimination):
        set_field(self, "prepared", prepared)
        set_field(self, "degree", degree)
        set_field(self, "decomposition", decomposition)
        set_field(self, "elimination", elimination)

    @property
    def plan(self) -> Plan:
        return self.prepared.plan

    @property
    def new_relations(self) -> dict[str, Plan]:
        return self.elimination.new_relations

    @property
    def plan_text(self) -> str:
        """The plan, printed from its numbering; the prepared plan is kept
        under the text (see :func:`spjopt.plans.print_prepared`), so
        reading the text back in this process does not parse it."""
        return print_prepared(self.prepared)


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
    return _project(tuple(first[e] for e in elements), plan, len(row))


# Each element's atoms, as (relation, row, defining plan), in atom order.
_AtomsByElem = dict[int, list[tuple[str, tuple[int, ...], Plan]]]


def _holder(bag: frozenset, atoms_by_elem: _AtomsByElem):
    """The first atom of the bag's smallest element that holds every bag
    element, or None (always for the empty bag)."""
    if not bag:
        return None
    return next((atom for atom in atoms_by_elem[min(bag)] if bag.issubset(atom[1])), None)


def _row_columns(row: tuple[int, ...], elements: frozenset) -> tuple[int, ...]:
    """The ``elements`` that ``row`` holds, in the order of their first
    columns in it."""
    return tuple(e for e in dict.fromkeys(row) if e in elements)


def _connected_order(bag: frozenset, atoms_by_elem: _AtomsByElem) -> tuple[int, ...]:
    """Bag elements in the column order of the :func:`_holder` atom, if
    there is one; otherwise ordered so each shares an atom with a
    predecessor when possible, ties broken by element id."""
    holder = _holder(bag, atoms_by_elem)
    if holder is not None:
        return _row_columns(holder[1], bag)
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


def _implies(row_j: tuple[int, ...], row_k: tuple[int, ...], visible: frozenset) -> bool:
    """Whether a row of a relation that witnesses its atom ``row_j``
    witnesses its atom ``row_k`` projected onto the ``visible`` elements:
    ``row_k`` repeats no element, and ``row_j`` holds ``row_k``'s element at
    every position where ``row_k`` holds a visible one."""
    return len(set(row_k)) == len(row_k) and all(a == b for a, b in zip(row_j, row_k) if b in visible)


# A join's block: an atom (relation, row, defining plan) and its columns.
_Block = tuple[str, tuple[int, ...], Plan, tuple[int, ...]]


def _unimplied(blocks: list[_Block], visible: frozenset) -> list[_Block]:
    """The ``blocks`` of one join that no other of them implies (see
    :func:`_implies`); of two with equal columns, the first is kept."""
    return [
        (rel, row, base, cols)
        for k, (rel, row, base, cols) in enumerate(blocks)
        if not any(
            j != k and r == rel and (j < k or len(c) > len(cols)) and _implies(w, row, visible)
            for j, (r, w, _, c) in enumerate(blocks)
        )
    ]


def _joined(parts: Sequence[tuple[Plan, Sequence[int]]], out: tuple[int, ...]) -> Plan:
    """The join of the ``parts``, each a plan and the element of each of
    its columns, equating each element's columns with its first, projected
    onto the elements ``out``."""
    col_elems = [e for _, elems in parts for e in elems]
    theta, first = _first_columns(col_elems)
    return _project(tuple(first[e] for e in out), _join(theta, [plan for plan, _ in parts]), len(col_elems))


def _block_join(blocks: list[_Block], first: Optional[Plan], first_cols: tuple[int, ...], out: tuple[int, ...]) -> Plan:
    """The join of ``first`` (over ``first_cols``, when given) and the
    blocks' atom projections, projected onto the elements ``out``."""
    parts = [] if first is None else [(first, first_cols)]
    parts += [(_atom_subplan(rel, row, base, cols), cols) for rel, row, base, cols in blocks]
    return _joined(parts, out)


def _bag_chain(order: tuple[int, ...], atoms_by_elem: _AtomsByElem) -> Plan:
    """Join chain materializing the bag's local solutions; output columns
    follow ``order``.

    Every block is an atom's projection onto the elements the join sees,
    its columns in the atom's row order; the join equates columns by
    element, and its projection restores the bag order.

    The chain has one step per group of new elements: one step holding
    the whole bag when the bag has a :func:`_holder` atom, and one step
    per element otherwise.  The step that brings in its elements joins the
    chain so far with one block per atom holding one of them, the holder
    first: the atom's projection onto its visible columns.  A block is
    kept when its atom is complete (every element of row & bag is visible,
    so this is the atom's last step and it is joined on all its bag
    columns), or when its column set is not a proper subset of another
    block's in the step; of equal column sets the first is kept.  In the
    holder's one step every atom is complete, and the join adds no column
    beyond its first child, the holder, so it is well-behaved.  A dropped
    block is a dominated hyperedge of the step's visible set, so the
    step's fractional edge cover, and with it the step's degree bound, is
    unchanged, and every atom still constrains the bag at its last step.

    A block is then dropped when another block of the same join implies
    it: both are over one relation R, the dropped atom repeats no element,
    and the other atom holds the same element at every position where the
    dropped one holds a visible element (of two such blocks with equal
    columns the first is kept, so the holder stays the first child).  Any
    R-row that witnesses the kept block witnesses the dropped one, so the
    join's rows are unchanged, and the dropped block's hyperedge lies
    inside the kept one's, so the step's edge cover and degree bound are
    unchanged.  For the same reason, when the first step ends as the block
    of one atom A and a second-step block over A's relation holds
    ``order[0]`` at A's positions of it, the first step is implied and the
    second step joins its blocks alone: it has two visible elements, so
    any first child keeps the join well-behaved.

    No step is a dead operator: the first step is its one block when it has
    one, and a step's projection is left out when it keeps all the join's
    columns in order.
    """
    holder = _holder(frozenset(order), atoms_by_elem)
    steps = [order] if holder is not None else [(e,) for e in order]
    step_of = {e: i for i, step in enumerate(steps, start=1) for e in step}
    sol: Optional[Plan] = None
    seed = None  # the first step's lone atom, (relation, row)
    visible: tuple[int, ...] = ()
    for i, step in enumerate(steps, start=1):
        before, visible = visible, visible + step
        seen = frozenset(visible)
        by_row = {} if holder is None else {holder[:2]: holder}
        for e in step:
            for atom in atoms_by_elem[e]:
                by_row.setdefault(atom[:2], atom)
        atoms = list(by_row.values())
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
            rel == seed[0] and _implies(row, seed[1], frozenset(steps[0])) for rel, row, _, _ in blocks
        ):
            sol = None  # the second step implies the first
        sol = _block_join(blocks, sol, () if sol is None else before, visible)
    return sol


def synthesize_plan(
    core: OpenStructure, keys: KeySet, caps: Caps = Caps()
) -> SynthesisResult:
    """Synthesize a well-behaved plan equivalent (over key-satisfying data)
    to evaluating the given chased core.

    The plan follows a minimum-width decomposition of the key-eliminated
    structure, searched with no keys and then contracted, so that no bag
    lies inside another's; the certified intermediate degree is the
    search's width, which is the core's color-number width.

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
    dec = report.decomposition.contracted()
    return SynthesisResult(
        prepared=_assemble_plan(core, elim, dec),
        degree=report.width,
        decomposition=dec,
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
    top_down = [dec.root]  # parents before children; built in reverse
    for node in top_down:
        top_down.extend(children[node])
    plans: dict[int, Plan] = {}
    for node in reversed(top_down):
        order = bag_orders[node]
        if order:
            parts = [(_bag_chain(order, atoms_by_elem), order)]
        else:
            # Empty bag: the decomposition is a single node over an empty
            # universe, and every atom is nullary (synthesize_plan checks that
            # tuples exist), so the plan is a pure constant test.
            parts = [(_atom_subplan(rel, row, base, ()), ()) for rel, row, base in atoms]
        for kid in children[node]:
            kid_order = bag_orders[kid]
            shared = [e for e in order if e in dec.chi[kid]]
            kid_plan = _project(tuple(kid_order.index(e) + 1 for e in shared), plans.pop(kid), len(kid_order))
            parts.append((kid_plan, shared))
        plans[node] = _joined(parts, order)

    root_plan = plans[dec.root]
    root_order = bag_orders[dec.root]
    out_cols = tuple(root_order.index(e) + 1 for e in core.tuple)
    final = _project(out_cols, root_plan, len(root_order))
    if nullary_atoms and root_order:
        tests = tuple(_atom_subplan(rel, row, base, ()) for rel, row, base in nullary_atoms)
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

    Each is built from the children's, and every structure built has
    universe ``range(n)``: an atom is ``range(m)``, a projection reindexes
    its child's tuple, and a join or selection shifts each child's rows by
    the element count of the children before it.  The quotient of those
    rows by the least key-closed equivalence that contains theta's
    identifications (:func:`spjopt.constraints.key_closure`, which may
    start from chased parts) is then the one structure a join or selection
    builds, its classes numbered densely in the order of their smallest
    positions.  A projection keeps its child's structure, and so its value
    function.  A subplan's degree is read as soon as it is built, and its
    structure is dropped after the last subplan that reads it, so a chain
    holds about two levels at a time.  Every structure built counts against
    ``errors.REPRESENTATION_ELEMENTS_CAP`` before it is allocated, whether or not
    it was dropped: a join or selection holds its children's elements until
    the quotient.
    """
    check_representation_size(prepared)
    signature, distinct, arities = prepared.signature, prepared.numbering[1], prepared.arities
    last_reader = {kid: number for number, (_, kids) in enumerate(distinct) for kid in kids}
    reps: list[Optional[tuple[Structure, tuple[int, ...], Callable]]] = []
    degrees: list[Fraction] = []
    allocated = 0
    for number, ((node, kids), m) in enumerate(zip(distinct, arities)):
        if not isinstance(node, Project):
            allocated += m if isinstance(node, Basic) else sum(len(reps[k][0].universe) for k in kids)
            if allocated > errors.REPRESENTATION_ELEMENTS_CAP:
                raise ResourceCapError(
                    f"degree analysis capped at {errors.REPRESENTATION_ELEMENTS_CAP} elements, "
                    f"its structures need at least {allocated}"
                )
        if isinstance(node, Basic):
            out = tuple(range(m))
            struct = Structure(signature, out, {node.relation: [out]})
        elif isinstance(node, Project):
            struct, child, value = reps[kids[0]]
            out = tuple(child[c - 1] for c in node.cols)
        else:
            joined, size = [], 0
            rows: dict[str, list[tuple[int, ...]]] = {n: [] for n in signature.symbols()}
            for kid in kids:
                struct, child, _ = reps[kid]
                joined += [e + size for e in child]
                for name, rel in struct.relations.items():
                    rows[name] += [tuple(e + size for e in t) for t in rel] if size else rel
                size += len(struct.universe)
            theta = [(joined[j - 1], joined[k - 1]) for j, k in node.theta]
            # Number the classes densely, in the order of their smallest positions.
            dense: dict[int, int] = {}
            ids = [dense.setdefault(root, len(dense)) for root in key_closure(size, rows, keys, theta)]
            struct = Structure(
                signature,
                range(len(dense)),
                {name: [tuple(map(ids.__getitem__, t)) for t in rel] for name, rel in rows.items()},
            )
            out = tuple(map(ids.__getitem__, joined))
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


class EquivalenceWitness(Record):
    """The chased representations of two equivalent plans, with a
    homomorphism each way that maps output tuple to output tuple."""

    __slots__ = ("left", "right", "forward", "backward")

    def __init__(self, left: OpenStructure, right: OpenStructure,
                 forward: dict[int, int], backward: dict[int, int]):
        set_field(self, "left", left)
        set_field(self, "right", right)
        set_field(self, "forward", forward)
        set_field(self, "backward", backward)


def equivalence_witness(
    p1: PreparedPlan, p2: PreparedPlan, keys: KeySet
) -> Optional[EquivalenceWitness]:
    """The witness that the prepared plans ``p1`` and ``p2`` are equivalent
    over all key-satisfying databases, or None if they are not.

    Decided exactly: the chased representations must be homomorphically
    equivalent.  Plans of different arity raise :class:`ArityError`.
    """
    c1, c2 = _chased_representation(p1, keys), _chased_representation(p2, keys)
    if c1.arity != c2.arity:
        raise ArityError("plans of different arity are never equivalent")
    return _mutual_homomorphisms(c1, c2)


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
    rep, _ = build_representation(prepared)
    return chase(rep.open, keys).result


def chased_core(prepared: PreparedPlan, keys: KeySet, cap: int) -> OpenStructure:
    """The core of the prepared plan's chased representation, searched under
    the universe ``cap``: the structure synthesis starts from."""
    return compute_core(_chased_representation(prepared, keys), cap)


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
    result = synthesize_plan(compute_core(chased, caps.core_universe), keys, caps)
    output = _chased_representation(result.prepared, keys)
    if _mutual_homomorphisms(chased, output) is None:  # pragma: no cover
        raise SpjError("pipeline produced a non-equivalent plan")
    return result
