"""The rewrite pipeline: representation, chase, core, key elimination,
width-optimal decomposition, and plan synthesis, plus degree analysis.

Plan synthesis follows the constructive route: unary keys are compiled away
by appending functionally determined columns to atoms (every appended column
is produced by a well-behaved join against a two-column projection whose
first coordinate is a key, so no defining plan ever exceeds degree one); a
minimum-width tree decomposition of the resulting structure is computed with
the empty key set; each bag is materialized by a join chain that introduces
one element at a time; and the bags are combined bottom-up along the tree,
adding no new columns.  The output plan is over the original signature (the
defining plans of derived relations are inlined), well-behaved, and
equivalent to the input on every database satisfying the keys.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .colorwidth import WidthReport, color_number, optimal_cwidth
from .constraints import ChaseResult, KeySet, chase, satisfies_keys
from .errors import (
    ArityError,
    DegenerateInputError,
    KeyConstraintError,
    SpjError,
)
from .plans import (
    Basic,
    Join,
    Plan,
    Project,
    Select,
    is_well_behaved,
    print_plan,
    subplans,
    theta_of,
)
from .represent import TreeDecomposition, build_representation
from .structures import (
    OpenStructure,
    Signature,
    Structure,
    find_homomorphism,
)


@dataclass(frozen=True)
class Caps:
    """Resource caps for the exponential stages.

    ``core_universe`` bounds the core search, ``width_universe`` the
    decomposition search and class enumeration.  ``None`` disables a cap.
    """

    core_universe: Optional[int] = 12
    width_universe: int = 16


UNCAPPED = Caps(core_universe=None, width_universe=16)


# ---------------------------------------------------------------------------
# Key elimination
# ---------------------------------------------------------------------------


@dataclass
class FdElimination:
    """A structure over a widened signature in which every atom is closed
    under the element-level dependencies read off the unary keys.

    ``defining_plans`` gives, for every relation of the widened signature, a
    plan over the original signature computing its contents; new relations
    additionally appear in ``new_relations``.  ``expansions`` records which
    elements were appended to which original atoms.
    """

    original: OpenStructure
    open: OpenStructure
    defining_plans: dict[str, Plan]
    new_relations: dict[str, Plan]
    expansions: dict[tuple[str, tuple[int, ...]], tuple[int, ...]]
    fd_plans: dict[tuple[int, int], Plan]

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
        for pos_set in keys.for_relation(name):
            if len(pos_set) != 1:
                raise KeyConstraintError("key elimination requires unary keys")
            j = next(iter(pos_set))
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
    if not keys.is_unary:
        raise KeyConstraintError("key elimination requires unary keys")
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
    expansions: dict[tuple[str, tuple[int, ...]], tuple[int, ...]] = {}

    for rel, row in struct.atoms():
        plan: Plan = Basic(rel)
        cur = tuple(row)
        appended: list[int] = []
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
            appended.append(y)
        if appended:
            name = name_by_plan.get(plan)
            if name is None:
                name = next(names)
                name_by_plan[plan] = name
                new_relations[name] = plan
                new_rows[name] = []
            new_rows[name].append(cur)
            expansions[(rel, row)] = tuple(appended)
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
        expansions=expansions,
        fd_plans=fd_plans,
    )


# ---------------------------------------------------------------------------
# Plan synthesis
# ---------------------------------------------------------------------------


@dataclass
class SynthesisResult:
    """A well-behaved plan with its certified intermediate degree and the
    decomposition it was built from."""

    plan: Plan
    degree: Fraction
    decomposition: TreeDecomposition
    elimination: FdElimination
    bag_orders: dict[int, tuple[int, ...]] = field(default_factory=dict)
    width_report: Optional[WidthReport] = None

    @property
    def new_relations(self) -> dict[str, Plan]:
        return self.elimination.new_relations


def _atom_subplan(
    rel: str, row: tuple[int, ...], base: Plan, elements: tuple[int, ...]
) -> Plan:
    """The atom's projection onto ``elements`` (in that column order).

    Repeated elements in the atom are enforced by a selection before
    projecting, so the projection carries the atom's full repetition
    pattern.
    """
    eqs = []
    first_pos: dict[int, int] = {}
    for pos, e in enumerate(row, start=1):
        if e in first_pos:
            eqs.append((first_pos[e], pos))
        else:
            first_pos[e] = pos
    plan = Select(theta_of(eqs), base) if eqs else base
    return Project(tuple(first_pos[e] for e in elements), plan)


def _connected_order(bag: frozenset, atom_elems: list[frozenset]) -> tuple[int, ...]:
    """Bag elements ordered so each shares an atom with a predecessor when
    possible; ties broken by element id."""
    rest = sorted(bag)
    order: list[int] = []
    while rest:
        pick = None
        chosen = set(order)
        if chosen:
            for e in rest:
                if any(e in elems and (elems & chosen) for elems in atom_elems):
                    pick = e
                    break
        if pick is None:
            pick = rest[0]
        order.append(pick)
        rest.remove(pick)
    return tuple(order)


def _bag_chain(
    order: tuple[int, ...],
    atoms: list[tuple[str, tuple[int, ...], Plan]],
) -> Plan:
    """Join chain materializing the bag's local solutions, one element per
    step; output columns follow ``order``."""
    sol: Optional[Plan] = None
    for i, elem in enumerate(order, start=1):
        visible = order[:i]
        blocks = []
        for rel, row, base in atoms:
            if elem in row:
                cols = tuple(e for e in visible if e in row)
                blocks.append((cols, _atom_subplan(rel, row, base, cols)))
        children: list[Plan] = []
        col_elems: list[int] = []
        if sol is not None:
            children.append(sol)
            col_elems.extend(order[: i - 1])
        for cols, sub in blocks:
            children.append(sub)
            col_elems.extend(cols)
        theta = []
        seen: dict[int, int] = {}
        for pos, e in enumerate(col_elems, start=1):
            if e in seen:
                theta.append((seen[e], pos))
            else:
                seen[e] = pos
        joined = Join(theta_of(theta), tuple(children))
        sol = Project(tuple(seen[e] for e in visible), joined)
    return sol


def synthesize_plan(
    core: OpenStructure, keys: KeySet, caps: Caps = Caps()
) -> SynthesisResult:
    """Synthesize a well-behaved plan equivalent (over key-satisfying data)
    to evaluating the given chased core, with certified intermediate degree
    equal to the core's color-number width.

    Core-ness itself is not re-verified here (it is expensive); a non-core
    fixpoint still yields a correct, well-behaved plan, just possibly not of
    minimum degree.
    """
    if not keys.is_unary:
        raise KeyConstraintError("plan synthesis requires unary keys")
    struct = core.structure
    if struct.total_tuple_count() == 0:
        raise DegenerateInputError(
            "cannot synthesize a plan from a structure with no tuples: no SPJ "
            "plan outputs the empty tuple on the empty database"
        )
    width_report = optimal_cwidth(core, keys, cap=caps.width_universe)
    elim = eliminate_fds(core, keys)
    if keys:
        dec = optimal_cwidth(elim.open, KeySet.empty(), cap=caps.width_universe).decomposition
    else:
        # Without keys elimination is the identity, so the search would repeat.
        dec = width_report.decomposition
    plan, bag_orders = _assemble_plan(core, elim, dec)
    return SynthesisResult(
        plan=plan,
        degree=width_report.width,
        decomposition=dec,
        elimination=elim,
        bag_orders=bag_orders,
        width_report=width_report,
    )


def _assemble_plan(
    core: OpenStructure, elim: FdElimination, dec: TreeDecomposition
) -> tuple[Plan, dict[int, tuple[int, ...]]]:
    """The well-behaved plan over ``elim``'s atoms that follows the
    decomposition ``dec`` of ``elim.open``, and each bag's column order."""
    atoms = [
        (rel, row, elim.defining_plans[rel])
        for rel, row in elim.structure.atoms()
    ]
    atom_elem_sets = [frozenset(row) for _, row, _ in atoms]
    positional_atoms = [(rel, row, base) for rel, row, base in atoms if row]
    nullary_atoms = [(rel, row, base) for rel, row, base in atoms if not row]

    bag_orders: dict[int, tuple[int, ...]] = {
        node: _connected_order(dec.chi[node], atom_elem_sets) for node in dec.nodes
    }

    children = dec.children()

    def combine(node: int) -> Plan:
        order = bag_orders[node]
        if order:
            plan = _bag_chain(order, positional_atoms)
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
        theta = []
        seen: dict[int, int] = {}
        for pos, e in enumerate(part_elems, start=1):
            if e in seen:
                theta.append((seen[e], pos))
            else:
                seen[e] = pos
        joined = Join(theta_of(theta), tuple(parts))
        return Project(tuple(range(1, len(order) + 1)), joined)

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

    ok, offender = is_well_behaved(final, core.structure.signature)
    if not ok:  # pragma: no cover - construction invariant
        raise SpjError(f"synthesized plan not well-behaved at {print_plan(offender)}")
    return final, bag_orders


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _output_degree_cached(plan: Plan, keys: KeySet, signature: Signature) -> Fraction:
    rep, _ = build_representation(plan, signature)
    chased = chase(rep.open, keys).result
    if chased.structure.total_tuple_count() == 0:
        return Fraction(0)
    value, _ = color_number(chased.structure, keys, frozenset(chased.tuple))
    return value


def output_degree(plan: Plan, keys: KeySet, signature: Signature) -> Fraction:
    """The least exponent d with |out(plan, D)| = O(M_D^d) over key-satisfying
    databases: the color number of the chased representation's tuple set."""
    if not keys.is_unary:
        raise KeyConstraintError("output degree requires unary keys")
    return _output_degree_cached(plan, keys, signature)


def intermediate_degree_bound(plan: Plan, keys: KeySet, signature: Signature) -> Fraction:
    """Max output degree over all subplans; this equals the plan's
    intermediate degree."""
    distinct = {node for _, node in subplans(plan)}
    return max(output_degree(q, keys, signature) for q in distinct)


@dataclass(frozen=True)
class EquivalenceWitness:
    """The chased representations of two equivalent plans, with a
    homomorphism each way that maps output tuple to output tuple."""

    left: OpenStructure
    right: OpenStructure
    forward: dict[int, int]
    backward: dict[int, int]


def equivalence_witness(
    p1: Plan, p2: Plan, keys: KeySet, signature: Signature
) -> Optional[EquivalenceWitness]:
    """The witness that ``p1`` and ``p2`` are equivalent over all
    key-satisfying databases, or None if they are not.

    Decided exactly: the chased representations must be homomorphically
    equivalent.  Plans of different arity raise :class:`ArityError`.
    """
    if not keys.is_unary:
        raise KeyConstraintError("equivalence check requires unary keys")
    from .plans import arity_of

    if arity_of(p1, signature) != arity_of(p2, signature):
        raise ArityError("plans of different arity are never equivalent")
    rep1, _ = build_representation(p1, signature)
    rep2, _ = build_representation(p2, signature)
    c1 = chase(rep1.open, keys).result
    c2 = chase(rep2.open, keys).result
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
    return equivalence_witness(p1, p2, keys, signature) is not None


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


@dataclass
class OptimizeOutcome:
    """Everything the pipeline produced along the way (for reporting)."""

    result: SynthesisResult
    representation: OpenStructure
    chased: ChaseResult
    core: OpenStructure


def optimize(
    plan: Plan,
    keys: KeySet,
    signature: Signature,
    caps: Caps = Caps(),
    verify: bool = True,
) -> SynthesisResult:
    """Rewrite ``plan`` into a well-behaved plan of minimum intermediate
    degree over all plans equivalent on key-satisfying databases.

    Pipeline: representation -> chase -> core -> synthesis.  Synthesis
    checks that the result is well-behaved; with ``verify`` (the default),
    it is also checked to be equivalent to the input before being returned.
    """
    return optimize_full(plan, keys, signature, caps, verify).result


def optimize_full(
    plan: Plan,
    keys: KeySet,
    signature: Signature,
    caps: Caps = Caps(),
    verify: bool = True,
) -> OptimizeOutcome:
    if not keys.is_unary:
        raise KeyConstraintError("the pipeline requires unary keys")
    from .structures import compute_core

    rep, _ = build_representation(plan, signature)
    chased = chase(rep.open, keys)
    core = compute_core(chased.result, cap_universe=caps.core_universe)
    result = synthesize_plan(core, keys, caps)
    if verify and not check_equivalence(plan, result.plan, keys, signature):  # pragma: no cover
        raise SpjError("pipeline produced a non-equivalent plan")
    return OptimizeOutcome(result, rep.open, chased, core)
