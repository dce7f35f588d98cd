"""Key elimination, plan synthesis, degrees, and the end-to-end pipeline."""

import random
from fractions import Fraction

import pytest

from spjopt import (
    Basic,
    Caps,
    DegenerateInputError,
    Join,
    KeySet,
    OpenStructure,
    Project,
    ResourceCapError,
    Select,
    Signature,
    Structure,
    bag_witness,
    build_representation,
    chase,
    chased_core,
    check_equivalence,
    compute_core,
    eliminate_fds,
    equivalence_witness,
    evaluate_naive,
    evaluate_well_behaved,
    intermediate_degree_bound,
    is_well_behaved,
    optimal_cwidth,
    optimize,
    output_degree,
    parse_plan,
    prepare,
    print_plan,
    satisfies_keys,
    subplan_degrees,
    synthesize_plan,
    theta_of,
)
from spjopt import colorwidth, synthesis, witness
from spjopt.plans import number_subplans, plan_size

from conftest import (
    keyed_walk_plan,
    mobius_ladder,
    pattern_plan,
    rand_keys,
    rand_multi_keys,
    rand_open_structure,
    rand_plan,
    rand_satisfying_structure,
    rand_signature,
    rand_structure,
    several_keys,
    squared_cycle,
)
from oracles import (
    UNCAPPED,
    all_atoms_bag_chain,
    assert_contracted,
    assert_lean_synthesis,
    dominance_bag_chain,
    has_images,
    holder_branch_bag_chain,
    max_relation_size,
    numbered_arity,
    rebuilt_output_degree,
    scan_closures,
    synthesize_with_keyed_search,
    unpruned_eliminate_fds,
    widen_every_atom_eliminate_fds,
)

SIG_E = Signature({"E": 2})
SIG_R = Signature({"R": 2})
SIG_RS = Signature({"R": 2, "S": 2})
NO_KEYS = KeySet.empty()
KEY_R1 = KeySet({"R": 1}.items())
KEY_E1 = KeySet({"E": 1}.items())

TRIANGLE = "(project (cols 1 2 4) (join (theta (2 3) (4 5) (6 1)) E E E))"


# ---------------------------------------------------------------------------
# Key elimination
# ---------------------------------------------------------------------------


def _origin(elim, name):
    """The relation of the core whose atoms the relation ``name`` widens."""
    base = elim.defining_plans[name]
    while not isinstance(base, Basic):
        base = base.child if isinstance(base, Project) else base.children[0]
    return base.relation


def test_eliminate_fds_internal_dependency_is_a_no_op():
    core = OpenStructure(Structure(SIG_R, [0, 1], {"R": [(0, 1)]}), (0, 1))
    elim = eliminate_fds(core, KEY_R1)
    assert not elim.new_relations
    assert elim.open.structure == core.structure


def test_eliminate_fds_expands_across_atoms():
    sig = SIG_RS
    keys = KeySet({"R": 1, "S": 1}.items())
    core = OpenStructure(
        Structure(sig, [0, 1, 2], {"R": [(0, 1)], "S": [(0, 2)]}), (0, 1, 2)
    )
    elim = eliminate_fds(core, keys)
    assert len(elim.new_relations) == 1
    # R's atom was widened by the one element it lacked, S(0, 2), which the
    # key S 1 implies from that closure's step 0 -> 2, was dropped
    assert not elim.structure.relations["R"] and not elim.structure.relations["S"]
    widened = set()
    for name in elim.new_relations:
        arity = sig.arity(_origin(elim, name))
        for row in elim.structure.relations[name]:
            widened.add((_origin(elim, name), row[:arity], row[arity:]))
    assert widened == {("R", (0, 1), (2,))}
    # every widened atom is closed under the dependencies
    for _, row in elim.structure.atoms():
        assert set(row) == {0, 1, 2}
    # the defining plans are well-behaved and answer-preserving
    for name, plan in elim.new_relations.items():
        numbered_arity(plan, sig)
        assert is_well_behaved(plan, sig)[0]


def test_eliminate_fds_chain_uses_base_steps():
    core = OpenStructure(
        Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (1, 2)]}), (0, 2)
    )
    elim = eliminate_fds(core, KEY_R1)
    # the x-atom grows to {x,y,z}; the y-atom is already closed, and the
    # x-atom's closure recorded its fact y -> z, so it is dropped
    rows = sorted(row for _, row in elim.structure.atoms())
    assert rows == [(0, 1, 2)]


def test_eliminate_fds_requires_fixpoint():
    not_fixed = OpenStructure(
        Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (0, 2)]}), ()
    )
    with pytest.raises(DegenerateInputError):
        eliminate_fds(not_fixed, KEY_R1)


def test_eliminate_fds_identity_for_empty_keys(rng):
    for _ in range(10):
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=4)
        rep, _ = build_representation(prepare(plan, sig))
        elim = eliminate_fds(rep.open, NO_KEYS)
        assert not elim.new_relations
        assert elim.open == rep.open
    for _ in range(40):
        core = rand_open_structure(rng, rand_signature(rng))
        assert eliminate_fds(core, NO_KEYS).open == core


def test_eliminate_fds_preserves_answers_on_satisfying_data(rng):
    """homs over all variables agree between the chased representation and
    its widening, on databases that satisfy the keys.

    Only about one plan in ten has a key elimination that adds relations, so
    plans are drawn until 10 databases have been checked; the cap on draws
    only makes sure the loop ends (10 checks took at most 107 draws over 500
    seeds).  Then the same again with several keys on some relation."""
    from spjopt import build_representation, homs_relation

    for several in (False, True):
        checked = draws = 0
        while checked < 10 and draws < 300:
            draws += 1
            sig = rand_signature(rng, max_relations=2, max_arity=3)
            keys = rand_multi_keys(rng, sig) if several else rand_keys(rng, sig, prob=0.8)
            if several and not several_keys(keys, sig):
                continue
            plan = rand_plan(rng, sig, max_operators=4)
            rep, _ = build_representation(prepare(plan, sig))
            chased = chase(rep.open, keys).result
            elim = eliminate_fds(chased, keys)
            if not elim.new_relations:
                continue
            for _ in range(3):
                data = rand_satisfying_structure(rng, sig, keys, max_domain=4, max_rows=10)
                # materialize the widened database
                widened_rels = {}
                for name in elim.structure.signature.symbols():
                    defining = elim.defining_plans[name]
                    widened_rels[name] = evaluate_naive(defining, data).output
                widened_data = Structure(
                    elim.structure.signature, data.universe, widened_rels, data.names
                )
                allvars = tuple(chased.structure.universe)
                before = homs_relation(chased.structure, allvars, data)
                after = homs_relation(elim.structure, allvars, widened_data)
                assert before == after
                # derived relations never exceed the base relation sizes
                for name in elim.new_relations:
                    assert len(widened_rels[name]) <= max_relation_size(data)
                checked += 1
        assert checked >= 10, f"{checked} checks from {draws} draws"


def _random_keyed_cores(rng, want: int):
    """Random chased keyed cores with tuples, one key per relation and then
    some relation with two, drawn until each kind has ``want`` whose key
    dependencies widen some atom; yields (core, keys, signature)."""
    for several in (False, True):
        done = draws = 0
        while done < want and draws < 3000:
            draws += 1
            sig = rand_signature(rng, max_relations=2, max_arity=3)
            keys = rand_multi_keys(rng, sig) if several else rand_keys(rng, sig, prob=1.0)
            if several and not several_keys(keys, sig):
                continue
            rep, _ = build_representation(prepare(rand_plan(rng, sig, max_operators=5), sig))
            try:
                core = compute_core(chase(rep.open, keys).result, 12)
            except ResourceCapError:
                continue
            if core.structure.total_tuple_count() == 0:
                continue
            if all(cur == row for _, row, cur, _ in scan_closures(core, keys)):
                continue
            done += 1
            yield core, keys, sig
        assert done == want, (several, done, draws)


def test_worklist_closure_matches_the_scan(rng):
    """Every atom's closure, its steps' defining plan included, is the one
    that rescans every dependency at each step."""
    for core, keys, sig in _random_keyed_cores(rng, 40):
        fds = synthesis._base_fds(core.structure, keys)
        targets, sources = {}, {}
        for x, y in fds:
            targets.setdefault(x, []).append(y)
            sources.setdefault(y, []).append(x)
        for rel, row, cur, plan in scan_closures(core, keys):
            got, steps = synthesis._closure(row, targets, sources)
            assert got == cur
            assert synthesis._defining_plan(rel, tuple((p, *fds[(x, y)]) for p, x, y in steps), sig) == plan


def test_dropped_atoms_are_implied_and_dominated(rng, monkeypatch):
    """Against key elimination that keeps every atom, on random keyed cores
    with one key and with two keys on some relation: a kept atom is in the
    structure, widened under a derived relation or as the plain atom under
    its own; a dropped atom has no repeated element and lies inside one
    widened row; and synthesis from the pruned elimination gives an
    equivalent plan of the same degree from the same decomposition."""
    dropped = {False: 0, True: 0}  # by whether some relation has two keys
    for core, keys, sig in _random_keyed_cores(rng, 40):
        elim = eliminate_fds(core, keys)
        kept = {(_origin(elim, name), row) for name, row in elim.structure.atoms()}
        widened = [set(row) for name, row in elim.structure.atoms() if name in elim.new_relations]
        for rel, row, cur, _ in scan_closures(core, keys):
            if (rel, cur) not in kept and (rel, row) not in kept:
                dropped[several_keys(keys, sig)] += 1
                assert len(row) >= 2 and len(set(row)) == len(row), (rel, row)
                assert any(set(row) <= w for w in widened), (rel, row)
        new = synthesize_plan(core, keys, UNCAPPED)
        with monkeypatch.context() as m:
            m.setattr(synthesis, "eliminate_fds", unpruned_eliminate_fds)
            old = synthesize_plan(core, keys, UNCAPPED)
        assert (new.degree, new.decomposition) == (old.degree, old.decomposition)
        assert check_equivalence(new.plan, old.plan, keys, sig)
    assert min(dropped.values()) >= 20, dropped


def test_unwidened_atoms_match_widening_every_atom(rng, monkeypatch):
    """Against the key elimination that widens every kept atom with closure
    steps (``oracles.widen_every_atom_eliminate_fds``), on random keyed
    cores with one key and with two keys on some relation, rows with a
    repeated element among them: an atom left plain whose closure widens it
    lies inside one widened row, every dropped atom is implied by the
    closure facts of one widened atom, never only through a plain atom's
    steps, and synthesis gives an equivalent plan, no larger, of the same
    degree from the same decomposition.  In the fixed core under ``key R
    3``, R(0, 1, 0) widens to (0, 1, 0, 2, 3), R(2, 1, 1) stays plain,
    and R(3, 0, 2) is implied by the facts 2 -> 3 and 2 -> 0 only with the
    plain atom's step 2 -> 0 counted, so it is kept."""
    sig_r3 = Signature({"R": 3})
    fixed = Structure(sig_r3, range(4), {"R": [(0, 1, 0), (2, 1, 1), (3, 0, 2)]})
    cases = [*_random_keyed_cores(rng, 60), (OpenStructure(fixed, (0, 1, 2, 3)), KeySet({"R": 3}.items()), sig_r3)]
    unwidened = repeated = kept_more = 0
    for core, keys, sig in cases:
        struct = core.structure
        repeated += any(len(set(row)) < len(row) for _, row in struct.atoms())
        fds = synthesis._base_fds(struct, keys)
        targets, sources = {}, {}
        for x, y in fds:
            targets.setdefault(x, []).append(y)
            sources.setdefault(y, []).append(x)
        elim = eliminate_fds(core, keys)
        kept_more += elim.structure.total_tuple_count() > widen_every_atom_eliminate_fds(core, keys).structure.total_tuple_count()
        plain = {(name, row) for name, row in elim.structure.atoms() if name not in elim.new_relations}
        widened = {(_origin(elim, name), row) for name, row in elim.structure.atoms() if name in elim.new_relations}
        widened_facts, dropped = [], []
        for rel, row in struct.atoms():
            cur, steps = synthesis._closure(row, targets, sources)
            if (rel, cur) in widened:
                widened_facts.append({(*fds[(x, y)], x, y) for _, x, y in steps})
            elif (rel, row) in plain:
                unwidened += cur != row
                assert cur == row or any(set(cur) <= set(w) for _, w in widened), (rel, row)
            else:
                dropped.append((rel, row))
        for rel, row in dropped:
            assert any(
                {(rel, j, i, row[j - 1], y) for i, y in enumerate(row, start=1) if i != j} <= facts
                for j in keys.for_relation(rel)
                for facts in widened_facts
            ), (rel, row)
        new = synthesize_plan(core, keys, UNCAPPED)
        with monkeypatch.context() as m:
            m.setattr(synthesis, "eliminate_fds", widen_every_atom_eliminate_fds)
            old = synthesize_plan(core, keys, UNCAPPED)
        assert (new.degree, new.decomposition) == (old.degree, old.decomposition)
        assert check_equivalence(new.plan, old.plan, keys, sig)
        assert plan_size(new.plan) <= plan_size(old.plan)
    assert unwidened >= 10 and repeated >= 10 and kept_more >= 1, (unwidened, repeated, kept_more)


def test_keyed_cycle_plans_grow_linearly():
    """Keyed Cn keeps two of its n atoms after key elimination: E(x0, x1),
    widened to the n-column rotation by n - 2 closure steps, and the
    closing edge E(x_{n-1}, x0) as the plain atom, since its closure lies
    inside that rotation.  The plan joins the two: 3(n - 2) + 1 nodes of
    the defining plan, the plain E, the join and the output projection,
    3n - 2 in all."""
    for n in (*range(4, 11), 20, 30, 40):
        cycle = pattern_plan([(i, (i + 1) % n) for i in range(n)], (0,))
        result = optimize(prepare(cycle, SIG_E), KEY_E1, Caps(n, n))
        relations = result.elimination.structure.relations
        ((name, _),) = result.new_relations.items()
        ((rotation,), (plain,)) = relations[name], relations["E"]
        assert len(rotation) == n and set(plain) <= set(rotation)
        assert result.elimination.structure.total_tuple_count() == 2
        assert plan_size(result.plan) == 3 * n - 2, n


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


def test_output_degree_basic():
    assert output_degree(Basic("R"), NO_KEYS, SIG_R) == 1


def test_output_degree_triangle():
    assert output_degree(parse_plan(TRIANGLE, SIG_E), NO_KEYS, SIG_E) == Fraction(3, 2)


def test_output_degree_key_composition():
    plan = parse_plan("(project (cols 1 4) (join (theta (2 3)) R R))", SIG_R)
    assert output_degree(plan, KEY_R1, SIG_R) == 1
    assert output_degree(plan, NO_KEYS, SIG_R) == 2


def test_intermediate_degree_bound_examples():
    product = parse_plan("(join (theta) R R)", SIG_R)
    assert intermediate_degree_bound(product, NO_KEYS, SIG_R) == 2
    assert intermediate_degree_bound(Basic("R"), NO_KEYS, SIG_R) == 1
    naive_triangle = parse_plan(
        "(project (cols 1 2 4) (select (theta (2 3) (4 5) (6 1)) (join (theta) E E E)))",
        SIG_E,
    )
    assert intermediate_degree_bound(naive_triangle, NO_KEYS, SIG_E) == 3


def _assert_degrees_match_rebuilds(plan, keys, sig):
    want = [rebuilt_output_degree(q, keys, sig) for q, _ in number_subplans(plan)[1]]
    assert subplan_degrees(prepare(plan, sig), keys) == want, print_plan(plan)


def test_subplan_degrees_match_rebuilt_representations(rng):
    """Per distinct subplan, the fold's degree is that of a representation
    built from scratch and chased whole: on random plans with and without
    keys, and on the plans that ``optimize`` returns for them."""
    synthesized = 0
    for i in range(200):
        small = i % 4 < 2
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=4 if small else 7)
        keys = rand_keys(rng, sig, prob=0.7) if i % 2 else NO_KEYS
        _assert_degrees_match_rebuilds(plan, keys, sig)
        if small:
            try:
                result = optimize(prepare(plan, sig), keys)
            except ResourceCapError:
                continue
            _assert_degrees_match_rebuilds(result.plan, keys, sig)
            synthesized += 1
    cycle = parse_plan(
        "(project (cols 1) (join (theta (2 3) (4 5) (6 7) (8 9) (10 1)) E E E E E))", SIG_E
    )
    _assert_degrees_match_rebuilds(optimize(prepare(cycle, SIG_E), KEY_E1).plan, KEY_E1, SIG_E)
    assert synthesized >= 90


def test_subplan_degrees_build_one_structure_per_join(rng, monkeypatch):
    """The fold builds one validated Structure per distinct subplan that is
    not a projection, an atom's or a join's or selection's quotient, and
    no other: no disjoint union and no chase image."""
    built = []
    init = Structure.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    checked = keyed = 0
    for i in range(120):
        sig = rand_signature(rng)
        keys = rand_keys(rng, sig, prob=0.7) if i % 2 else NO_KEYS
        prepared = prepare(rand_plan(rng, sig, max_operators=6), sig)
        want = sum(not isinstance(node, Project) for node, _ in prepared.numbering[1])
        monkeypatch.setattr(Structure, "__init__", counting)
        subplan_degrees(prepared, keys)
        monkeypatch.setattr(Structure, "__init__", init)
        assert len(built) == want, print_plan(prepared.plan)
        built.clear()
        checked += want > 2
        keyed += bool(keys)
    assert checked >= 40 and keyed >= 40


def test_subplan_degrees_shift_children_past_universe_gaps():
    """Keys merge elements inside the inner joins, so a child's quotient
    has fewer elements than its children had.  Shifting by element count
    is exact only because the fold numbers each quotient densely; over
    the ids the merges leave, it would identify elements of different
    children here and give 2."""
    sig = Signature({"R": 3})
    keys = KeySet({"R": 3}.items())
    plan = parse_plan("(join (theta) (join (theta) (join (theta (2 1)) R R) R) R)", sig)
    degrees = subplan_degrees(prepare(plan, sig), keys)
    assert degrees[-1] == max(degrees) == 4
    assert rebuilt_output_degree(plan, keys, sig) == 4
    assert output_degree(plan, keys, sig) == intermediate_degree_bound(plan, keys, sig) == 4


# ---------------------------------------------------------------------------
# Synthesis and the pipeline
# ---------------------------------------------------------------------------


def test_synthesize_single_atom():
    core = OpenStructure(Structure(SIG_R, [0, 1], {"R": [(0, 1)]}), (0, 1))
    result = synthesize_plan(core, NO_KEYS)
    assert result.degree == 1
    assert check_equivalence(result.plan, Basic("R"), NO_KEYS, SIG_R)


def test_synthesize_rejects_tupleless_core():
    with pytest.raises(DegenerateInputError):
        synthesize_plan(OpenStructure(Structure(SIG_R, [], {}), ()), NO_KEYS)


def test_synthesize_nullary_atoms():
    sig = Signature({"P": 0, "R": 2})
    core = OpenStructure(
        Structure(sig, [0, 1], {"P": [()], "R": [(0, 1)]}), (0, 1)
    )
    result = synthesize_plan(core, NO_KEYS)
    data_yes = Structure(sig, [7, 8], {"P": [()], "R": [(7, 8)]})
    data_no = Structure(sig, [7, 8], {"P": [], "R": [(7, 8)]})
    assert evaluate_naive(result.plan, data_yes).output == frozenset({(7, 8)})
    assert evaluate_naive(result.plan, data_no).output == frozenset()


def test_synthesize_boolean_core():
    sig = Signature({"P": 0})
    core = OpenStructure(Structure(sig, [], {"P": [()]}), ())
    result = synthesize_plan(core, NO_KEYS)
    assert result.degree == 0
    assert evaluate_naive(result.plan, Structure(sig, [], {"P": [()]})).output == frozenset({()})
    assert evaluate_naive(result.plan, Structure(sig, [], {"P": []})).output == frozenset()


def test_optimize_triangle_degree_and_equivalence():
    plan = parse_plan(TRIANGLE, SIG_E)
    result = optimize(prepare(plan, SIG_E), NO_KEYS, caps=UNCAPPED)
    assert result.degree == Fraction(3, 2)
    assert is_well_behaved(result.plan, SIG_E)[0]
    assert intermediate_degree_bound(result.plan, NO_KEYS, SIG_E) == Fraction(3, 2)
    assert numbered_arity(result.plan, SIG_E) == 3


def test_triangle_synthesizes_one_bag():
    """The triangle's width search gives three bags, two of which lie inside
    the third, so its plan is one bag chain over the whole triangle.  Its
    first step, E's first column, is implied by the second step's E, which
    so starts the chain alone.  Each E is joined in its own column order,
    so no block is a projection."""
    result = optimize(prepare(parse_plan(TRIANGLE, SIG_E), SIG_E), NO_KEYS)
    assert print_plan(result.plan) == "(project (cols 1 2 4) (join (theta (1 6) (2 3) (4 5)) E E E))"
    assert result.decomposition.nodes == (result.decomposition.root,)


def test_optimize_acyclic_example_gets_degree_one():
    plan = parse_plan("(join (theta (1 3)) R (project (cols 1) S))", SIG_RS)
    result = optimize(prepare(plan, SIG_RS), NO_KEYS, caps=UNCAPPED)
    assert result.degree == 1
    assert intermediate_degree_bound(result.plan, NO_KEYS, SIG_RS) == 1


def test_optimize_collapses_redundant_self_join():
    plan = parse_plan("(project (cols 1 2) (join (theta (1 3) (2 4)) R R))", SIG_R)
    result = optimize(prepare(plan, SIG_R), NO_KEYS, caps=UNCAPPED)
    assert result.degree == 1
    assert len(result.elimination.original.structure.universe) == 2
    assert check_equivalence(result.plan, Basic("R"), NO_KEYS, SIG_R)


def test_optimize_key_path_uses_derived_relations():
    plan = parse_plan("(project (cols 1 4) (join (theta (2 3)) R R))", SIG_R)
    result = optimize(prepare(plan, SIG_R), KEY_R1, caps=UNCAPPED)
    assert result.degree == 1
    assert result.new_relations  # the dependency x -> z had to be compiled in
    assert intermediate_degree_bound(result.plan, KEY_R1, SIG_R) == 1
    # without the key the same plan needs degree 2
    result2 = optimize(prepare(plan, SIG_R), NO_KEYS, caps=UNCAPPED)
    assert result2.degree == 2


def test_optimize_chases_its_input_once(monkeypatch):
    """optimize chases the input's representation once, computes the core
    from it and verifies against it: two representations (input and
    output), two chases, and a homomorphism each way between them."""
    builds, chases, homs = [], [], []
    build, chase_, hom = synthesis.build_representation, synthesis.chase, synthesis.find_homomorphism
    monkeypatch.setattr(synthesis, "build_representation", lambda *a: builds.append(a) or build(*a))
    monkeypatch.setattr(synthesis, "chase", lambda *a: chases.append(a[0]) or chase_(*a))
    monkeypatch.setattr(synthesis, "find_homomorphism", lambda *a: homs.append(a) or hom(*a))
    plan = parse_plan("(project (cols 1 4) (join (theta (2 3)) R R))", SIG_R)
    result = optimize(prepare(plan, SIG_R), KEY_R1, caps=UNCAPPED)
    assert [b[0].plan for b in builds] == [plan, result.plan]
    assert len(chases) == 2
    (c1, c2), (d2, d1) = homs
    assert (c1, c2) == (d1, d2)
    assert c1 == chase_(chases[0], KEY_R1).result


def _random_cores(rng, want: int):
    """Random chased cores with tuples, drawn until there are ``want``
    unkeyed ones and ``want`` keyed ones whose key elimination adds
    relations; yields (core, keys)."""
    done = {False: 0, True: 0}
    attempts = 0
    while min(done.values()) < want and attempts < 2000:
        attempts += 1
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        plan = rand_plan(rng, sig, max_operators=5)
        keys = rand_keys(rng, sig, prob=1.0) if attempts % 2 else NO_KEYS
        rep, _ = build_representation(prepare(plan, sig))
        try:
            core = compute_core(chase(rep.open, keys).result, 12)
        except ResourceCapError:
            continue
        if core.structure.total_tuple_count() == 0:
            continue
        if keys and not eliminate_fds(core, keys).new_relations:
            continue
        if done[bool(keys)] < want:
            done[bool(keys)] += 1
            yield core, keys
    assert min(done.values()) >= want, done


def test_synthesize_plan_searches_width_once_without_keys(rng, monkeypatch):
    """One width search per synthesis, with no keys, whatever the keys."""
    searches = []
    real = synthesis.optimal_cwidth

    def counting(*args, **kwargs):
        searches.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(synthesis, "optimal_cwidth", counting)
    for core, keys in _random_cores(rng, 15):
        searches.clear()
        synthesize_plan(core, keys, UNCAPPED)
        assert searches == [NO_KEYS]


def test_degrees_and_width_search_solve_no_color_number_lp(monkeypatch):
    """On a keyed walk of 48 edges, every subplan degree comes from a tuple
    that meets every class, so no LP is solved; on the keyed directed
    16-cycle, the width search and its certificate read presolved values,
    and only the witness solves color_number's LP, once, on the widest
    bag."""
    cycle = pattern_plan([(i, (i + 1) % 16) for i in range(16)], (0,))
    result = optimize(prepare(cycle, SIG_E), KEY_E1, UNCAPPED)
    plan = keyed_walk_plan(48)
    lps, numbers = [], []
    solve, number = colorwidth.solve_lp, colorwidth.color_number
    monkeypatch.setattr(colorwidth, "solve_lp", lambda *a: lps.append(a) or solve(*a))
    monkeypatch.setattr(colorwidth, "color_number", lambda *a: numbers.append(a) or number(*a))
    monkeypatch.setattr(witness, "color_number", colorwidth.color_number)
    degrees = subplan_degrees(prepare(plan, SIG_E), KEY_E1)
    assert len(degrees) == len(number_subplans(plan)[1]) >= 80 and set(degrees) == {1}
    assert lps == [] and numbers == []
    core = result.elimination.original
    for open_s, keys in ((core, KEY_E1), (result.elimination.open, NO_KEYS)):
        report = optimal_cwidth(open_s, keys, cap=UNCAPPED.width_universe)
        assert numbers == []
        node, _ = bag_witness(open_s, keys, report)
        assert node == report.widest_node()
        assert numbers == [(open_s.structure, keys, report.decomposition.chi[node])]
        numbers.clear()


def test_projections_share_their_childs_color_values(monkeypatch):
    """Degree analysis builds one structure's closures once: a projection
    reads its child's."""
    plan = keyed_walk_plan(12)
    calls = []
    closure_edges = colorwidth._closure_edges
    monkeypatch.setattr(
        colorwidth, "_closure_edges", lambda *a: calls.append(a) or closure_edges(*a)
    )
    subplan_degrees(prepare(plan, SIG_E), KEY_E1)
    distinct = number_subplans(plan)[1]
    projections = sum(isinstance(node, Project) for node, _ in distinct)
    assert projections >= 10
    assert len(calls) == len(distinct) - projections


def test_synthesize_plan_matches_keyed_search(rng):
    """The plan, degree and decomposition are those of synthesis with a
    second width search over the core under the keys.  The decomposition is
    the search's, contracted (see ``oracles.assert_contracted``); 25 of the
    30 searches had a bag inside a neighbour's to merge."""
    merged = 0
    for core, keys in _random_cores(rng, 15):
        result = synthesize_plan(core, keys, UNCAPPED)
        got = (result.plan, result.degree, result.decomposition)
        assert got == synthesize_with_keyed_search(core, keys, UNCAPPED)
        report = optimal_cwidth(result.elimination.open, NO_KEYS, cap=UNCAPPED.width_universe)
        assert_contracted(result.elimination, report, result.decomposition)
        merged += len(result.decomposition.nodes) < len(report.decomposition.nodes)
    assert merged == 25


def _chain_steps(plan, rows, length):
    """Per step of a bag chain of ``length`` steps over basic atoms, the
    (relation, elements) of each block it joins, first step first.  A step
    is a join of the chain so far and its blocks, or its projection; a
    first step of one block is that block, an atom or its projection."""

    def block(b):
        if isinstance(b, Basic):
            return (b.relation, rows[b.relation])
        return (b.child.relation, tuple(rows[b.child.relation][c - 1] for c in b.cols))

    def children(step):
        join = step.child if isinstance(step, Project) else step
        return list(join.children) if isinstance(join, Join) else [step]

    steps = []
    for _ in range(length - 1):
        plan, *blocks = children(plan)
        steps.insert(0, [block(b) for b in blocks])
    return [[block(b) for b in children(plan)]] + steps


def test_bag_chain_joins_complete_and_undominated_blocks(rng):
    """Over the bag 0, 1, 2, 3: D's block (0) equals A's, so only A's,
    the first, is joined at step 0, and A's block at step 1 implies it, so
    step 1 starts the chain alone; B and C are proper subsets of A at
    steps 1 and 2 and are joined on all their bag columns at step 3, their
    last; D is complete at step 2 and joined although A dominates it.  The
    chain computes what the chain of every block computes."""
    rows = {"A": (0, 1, 2), "B": (1, 9, 2, 3), "C": (1, 2, 3), "D": (0, 2)}
    atoms_by_elem = {}
    for rel, row in rows.items():
        for e in row:
            atoms_by_elem.setdefault(e, []).append((rel, row, Basic(rel)))
    order = (0, 1, 2, 3)
    chain = synthesis._bag_chain(order, atoms_by_elem)
    assert _chain_steps(chain, rows, len(order) - 1) == [
        [("A", (0, 1))],
        [("A", (0, 1, 2)), ("D", (0, 2))],
        [("B", (1, 2, 3)), ("C", (1, 2, 3))],
    ]
    every_block = all_atoms_bag_chain(order, atoms_by_elem)
    assert len(_chain_steps(every_block, rows, len(order))[2]) == 4
    sig = Signature({rel: len(row) for rel, row in rows.items()})
    for _ in range(20):
        data = rand_structure(rng, sig, max_domain=3, max_rows=12)
        assert evaluate_naive(chain, data).output == evaluate_naive(every_block, data).output


def _random_bag(rng) -> tuple[tuple[int, ...], dict]:
    """A random bag's order and its atoms by element, built as
    ``_assemble_plan`` builds them: atoms of A/2, B/3 and C/1 over up to
    six elements, some repeating an element and some copies of another
    atom with one position changed, so that blocks imply others.  The bag
    lies inside one atom's row half the time."""
    arity = {"A": 2, "B": 3, "C": 1}
    elements = range(rng.randint(3, 6))
    rows: dict = {}
    for _ in range(rng.randint(2, 8)):
        if rows and rng.random() < 0.4:
            rel, row = rng.choice(list(rows))
            row = list(row)
            row[rng.randrange(len(row))] = rng.choice(elements)
        else:
            rel = rng.choice("AABBC")
            row = [rng.choice(elements) for _ in range(arity[rel])]
        rows[(rel, tuple(row))] = None
    atoms_by_elem: dict = {}
    for rel, row in rows:
        for e in dict.fromkeys(row):
            atoms_by_elem.setdefault(e, []).append((rel, row, Basic(rel)))
    if rng.random() < 0.5:
        pool = sorted(set(rng.choice(list(rows))[1]))
    else:
        pool = sorted(atoms_by_elem)
    bag = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
    return synthesis._connected_order(bag, atoms_by_elem), atoms_by_elem


def test_one_step_loop_matches_the_holder_branch(rng):
    """The bag chain, whose holder bag is the one-step case of its step
    loop, builds the plan of the chain with a holder branch of its own
    (``oracles.holder_branch_bag_chain``) on random bags with and without
    a holder, with repeated elements and with implied blocks."""
    holders = chains = implied = repeated = 0
    for _ in range(1500):
        order, atoms_by_elem = _random_bag(rng)
        chain = synthesis._bag_chain(order, atoms_by_elem)
        assert chain == holder_branch_bag_chain(order, atoms_by_elem)
        if synthesis._holder(frozenset(order), atoms_by_elem) is None:
            chains += 1
        else:
            holders += 1
        implied += chain != dominance_bag_chain(order, atoms_by_elem)
        repeated += any(len(set(row)) < len(row) for e in order for _, row, _ in atoms_by_elem[e])
    assert holders >= 800 and chains >= 250 and implied >= 350 and repeated >= 650


def test_pruned_chains_match_all_atom_chains(rng, monkeypatch):
    """Plans whose bag chains drop dominated blocks against plans whose
    chains join every block, on random keyed plans and keyed directed
    cycles: both well-behaved and equivalent to the input at the same
    degree, which the pruned plan attains, and the pruned plan is never
    larger (strictly smaller on keyed C8)."""
    cases = []
    while len(cases) < 30:
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        cases.append((rand_plan(rng, sig, max_operators=4), rand_keys(rng, sig, prob=0.8), sig))
    for n in range(4, 9):
        cases.append((pattern_plan([(i, (i + 1) % n) for i in range(n)], (0,)), KEY_E1, SIG_E))
    for plan, keys, sig in cases:
        try:
            new = optimize(prepare(plan, sig), keys)
        except ResourceCapError:
            continue
        with monkeypatch.context() as m:
            m.setattr(synthesis, "_bag_chain", all_atoms_bag_chain)
            old = optimize(prepare(plan, sig), keys)
        for result in (new, old):
            assert is_well_behaved(result.plan, sig)[0]
            assert check_equivalence(plan, result.plan, keys, sig)
        assert new.degree == old.degree
        assert intermediate_degree_bound(new.plan, keys, sig) == new.degree
        assert plan_size(new.plan) <= plan_size(old.plan)
    assert plan_size(new.plan) < plan_size(old.plan)  # keyed C8, the last case


def _implied_by(kept, block, visible) -> bool:
    """Whether the block ``kept`` implies ``block``, both (relation, row,
    columns): one relation, no element repeated in ``block``'s row, and
    ``kept``'s row holding ``block``'s element at each position where that
    holds a ``visible`` one."""
    (rel, row, _), (kept_rel, kept_row, _) = block, kept
    return (
        rel == kept_rel
        and len(set(row)) == len(row)
        and all(kept_row[p] == e for p, e in enumerate(row) if e in visible)
    )


def _recording_chains(monkeypatch) -> list:
    """Per bag chain synthesized from now on, (order, atoms by element,
    joins), each join its blocks as (relation, row, columns) and whether it
    takes the chain so far."""
    chains = []
    bag_chain, block_join = synthesis._bag_chain, synthesis._block_join

    def chain(order, atoms_by_elem):
        chains.append((order, atoms_by_elem, []))
        return bag_chain(order, atoms_by_elem)

    def join(blocks, first, first_cols, out):
        chains[-1][2].append(([(rel, row, cols) for rel, row, _, cols in blocks], first is not None))
        return block_join(blocks, first, first_cols, out)

    monkeypatch.setattr(synthesis, "_bag_chain", chain)
    monkeypatch.setattr(synthesis, "_block_join", join)
    return chains


def _implied_drops(order, atoms_by_elem, joins) -> tuple[int, int]:
    """Checks that each join of a recorded chain keeps, in order, some of
    the blocks the dominance rule keeps (``oracles.dominance_bag_chain``),
    that a kept block implies each other one, and that a chain that starts
    at its second step implies its first step's lone block.  Returns the
    numbers of dropped blocks and of dropped first steps."""
    steps: list = []
    dominance_bag_chain(order, atoms_by_elem, steps)
    assert len(joins) == len(steps)
    dropped = seeds = 0
    for i, ((kept, takes_chain), old) in enumerate(zip(joins, steps)):
        visible = frozenset(order[: i + 1] if len(steps) > 1 else order)
        assert kept == [block for block in old if block in kept]
        for block in old:
            if block not in kept:
                assert any(_implied_by(k, block, visible) for k in kept)
                dropped += 1
        if i and not takes_chain:
            assert i == 1 and len(joins[0][0]) == 1
            assert any(_implied_by(k, joins[0][0][0], frozenset(order[:1])) for k in kept)
            seeds += 1
    return dropped, seeds


def _same_child_twice(prepared) -> list:
    """The distinct joins of ``prepared`` with two children that are one
    subplan whose columns theta equates, column for column."""
    (_, distinct), arities = prepared.numbering, prepared.arities
    out = []
    for node, kids in distinct:
        if type(node) is not Join:
            continue
        offsets = [sum(arities[k] for k in kids[:i]) for i in range(len(kids))]
        parent = list(range(offsets[-1] + arities[kids[-1]] + 1))

        def find(c):
            while parent[c] != c:
                c = parent[c]
            return c

        for a, b in node.theta:
            parent[find(a)] = find(b)
        if any(
            kids[i] == kids[j]
            and all(find(offsets[i] + c) == find(offsets[j] + c) for c in range(1, arities[kids[i]] + 1))
            for j in range(len(kids))
            for i in range(j)
        ):
            out.append(node)
    return out


def _random_digraph_plan(rng):
    """The join of one E atom per edge of a random loop-free digraph on 6
    to 9 vertices with the edge (0, 1), projected to (0, 1)."""
    n = rng.randint(6, 9)
    arcs = ((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(2 * n, 3 * n)))
    return pattern_plan(sorted({(a, b) for a, b in arcs if a != b} | {(0, 1)}), (0, 1))


def _lean_chain_cases(rng) -> list:
    """(core, keys, signature): random unkeyed and keyed cores, some with
    two keys on a relation, the cores of 20 random digraphs, the Mobius
    ladder on 10 vertices and the squared 12-cycle."""
    cases = [(core, keys, core.structure.signature) for core, keys in _random_cores(rng, 15)]
    cases += list(_random_keyed_cores(rng, 10))
    plans = [_random_digraph_plan(rng) for _ in range(20)]
    plans += [pattern_plan(mobius_ladder(10), (0, 1)), pattern_plan(squared_cycle(12), (0, 1))]
    return cases + [(chased_core(prepare(plan, SIG_E), NO_KEYS, UNCAPPED.core_universe), NO_KEYS, SIG_E) for plan in plans]


def test_implied_blocks_leave_plans_equivalent_and_no_larger(rng, monkeypatch):
    """Plans whose joins drop implied blocks against plans that join every
    block the dominance rule keeps: equivalent, of the same certified
    degree, which the leaner plan attains, with equal output and no larger
    intermediate on random key-satisfying data, and never larger.  Every
    dropped block is implied by a kept block of its join, and every chain
    that starts at its second step implies its first."""
    cases = _lean_chain_cases(rng)
    chains = _recording_chains(monkeypatch)
    dropped = seeds = shorter = 0
    for core, keys, sig in cases:
        del chains[:]
        new = synthesize_plan(core, keys, UNCAPPED)
        for chain in chains:
            d, s = _implied_drops(*chain)
            dropped, seeds = dropped + d, seeds + s
        with monkeypatch.context() as m:
            m.setattr(synthesis, "_bag_chain", dominance_bag_chain)
            old = synthesize_plan(core, keys, UNCAPPED)
        assert check_equivalence(new.plan, old.plan, keys, sig)
        assert new.degree == old.degree == intermediate_degree_bound(new.plan, keys, sig)
        for _ in range(3):
            data = rand_satisfying_structure(rng, sig, keys, max_domain=4, max_rows=10)
            got, want = evaluate_well_behaved(new.prepared, data), evaluate_well_behaved(old.prepared, data)
            assert got.output == want.output
            assert got.max_intermediate <= want.max_intermediate
        assert plan_size(new.plan) <= plan_size(old.plan)
        shorter += plan_size(new.plan) < plan_size(old.plan)
    assert dropped >= 250 and seeds >= 40 and shorter >= 40


def test_no_synthesized_join_takes_one_subplan_twice(rng):
    """No join of a plan synthesized for the unkeyed width patterns or for
    the cases of the implied-block test takes one subplan twice on the
    same columns."""
    patterns = [mobius_ladder(n) for n in (10, 12, 14, 16)] + [squared_cycle(n) for n in (12, 14, 16)]
    results = [optimize(prepare(pattern_plan(edges, (0, 1)), SIG_E), NO_KEYS, UNCAPPED) for edges in patterns]
    results += [synthesize_plan(core, keys, UNCAPPED) for core, keys, _ in _lean_chain_cases(rng)]
    assert all(_same_child_twice(result.prepared) == [] for result in results)


def _keyed_cycles():
    """The keyed directed 4- to 10-cycles projected to one vertex."""
    return [(pattern_plan([(i, (i + 1) % n) for i in range(n)], (0,)), KEY_E1, SIG_E) for n in range(4, 11)]


def test_synthesized_plans_have_no_dead_operators(rng):
    """No plan synthesized for the keyed cycles, the unkeyed width patterns
    or 300 random keyed plans, and no defining plan of its new relations,
    holds a projection of a projection, an identity projection or a
    one-child join with no theta; each plan is well-behaved and its
    largest subplan degree is the certified degree."""
    patterns = [mobius_ladder(n) for n in (10, 12, 14, 16)] + [squared_cycle(n) for n in (12, 14, 16)]
    cases = _keyed_cycles() + [(pattern_plan(edges, (0, 1)), NO_KEYS, SIG_E) for edges in patterns]
    for _ in range(300):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        cases.append((rand_plan(rng, sig, max_operators=5), rand_keys(rng, sig, prob=0.8), sig))
    checked = 0
    for plan, keys, sig in cases:
        try:
            result = optimize(prepare(plan, sig), keys, UNCAPPED)
        except ResourceCapError:
            continue
        assert_lean_synthesis(result, keys)
        checked += 1
    assert checked >= 280


def test_reoptimization_keeps_the_degree_and_settles_in_one_pass():
    """Optimizing a synthesized plan again keeps its degree and its
    well-behavedness, and optimizing that plan prints the same bytes.  The
    first re-optimization already prints the synthesized plan's bytes on
    every keyed cycle and on all but 5 of the random plans.  Every case
    runs under the default caps, and those that pass one are skipped: 7
    random plans at once and 14 more when re-optimized.  No keyed cycle is
    skipped: its synthesized plan follows the contracted decomposition, and
    that plan's chased representation fits under the core cap."""
    rng = random.Random(31)
    cases = _keyed_cycles()
    for _ in range(234):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        cases.append((rand_plan(rng, sig, max_operators=5), rand_keys(rng, sig), sig))
    checked, moved = 0, 0
    for plan, keys, sig in cases:
        try:
            first = optimize(prepare(plan, sig), keys, Caps())
            again = optimize(first.prepared, keys, Caps())
            third = optimize(again.prepared, keys, Caps())
        except ResourceCapError:
            continue
        assert again.degree == first.degree and again.prepared.offender is None
        assert third.plan_text == again.plan_text
        moved += again.plan_text != first.plan_text
        checked += 1
    assert (checked, moved) == (220, 5)


def test_adding_a_key_never_raises_the_optimal_degree():
    """Keys only remove databases, so one more unary key never raises
    ``optimize``'s certified degree; it may lower it even where the plan's
    representation already satisfies the key (the triangle under ``key E
    1`` drops from 3/2 to 1), so a new key is not an equivalence-keeping
    rewrite.  Random plans past the default caps are skipped."""
    rng = random.Random(34)
    checked, lowered = 0, 0
    for _ in range(400):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        plan, keys = rand_plan(rng, sig, max_operators=5), rand_keys(rng, sig)
        missing = [
            (name, pos) for name in sig.symbols() for pos in range(1, sig.arity(name) + 1)
            if (name, pos) not in keys.keys
        ]
        if not missing:
            continue
        more = KeySet([*keys.keys, rng.choice(missing)])
        prepared = prepare(plan, sig)
        try:
            before = optimize(prepared, keys, Caps()).degree
            after = optimize(prepared, more, Caps()).degree
        except ResourceCapError:
            continue
        assert after <= before, (print_plan(plan), sorted(keys.keys), sorted(more.keys))
        checked += 1
        lowered += after < before
    assert (checked, lowered) == (352, 28)


def _occurrences(plan, path=()):
    """Every subplan occurrence of ``plan`` with its AST path, in pre-order."""
    yield path, plan
    kids = plan.children if isinstance(plan, Join) else () if isinstance(plan, Basic) else (plan.child,)
    for i, kid in enumerate(kids):
        yield from _occurrences(kid, path + (i,))


def _replaced(plan, path, new):
    """``plan`` with the occurrence at ``path`` replaced by ``new``."""
    if not path:
        return new
    if isinstance(plan, Join):
        kids = list(plan.children)
        kids[path[0]] = _replaced(kids[path[0]], path[1:], new)
        return Join(plan.theta, tuple(kids))
    return _over(plan, _replaced(plan.child, path[1:], new))


def _renamed(plan, names):
    """``plan`` with every relation ``r`` renamed to ``names[r]``."""
    if isinstance(plan, Basic):
        return Basic(names[plan.relation])
    if isinstance(plan, Join):
        return Join(plan.theta, tuple(_renamed(kid, names) for kid in plan.children))
    return _over(plan, _renamed(plan.child, names))


def _over(plan, child):
    """The selection or projection ``plan`` over ``child`` instead."""
    if isinstance(plan, Select):
        return Select(plan.theta, child)
    return Project(plan.cols, child)


def _arity(plan, sig) -> int:
    return prepare(plan, sig).arities[-1]


def _permute_a_join(rng, plan, sig):
    """A join with its children permuted, theta remapped and the column
    order restored by a projection."""
    joins = [(path, node) for path, node in _occurrences(plan) if isinstance(node, Join)]
    joins = [(path, node) for path, node in joins if len(node.children) > 1]
    if not joins:
        return None
    path, join = rng.choice(joins)
    widths = [_arity(kid, sig) for kid in join.children]
    order = rng.sample(range(len(widths)), len(widths))
    if order == sorted(order):
        order.reverse()
    start, at = {}, 0
    for i in order:
        start[i], at = at, at + widths[i]
    moved = [start[i] + c for i, width in enumerate(widths) for c in range(1, width + 1)]
    theta = theta_of((moved[j - 1], moved[k - 1]) for j, k in join.theta)
    return _replaced(plan, path, Project(tuple(moved), Join(theta, tuple(join.children[i] for i in order))))


def _self_join(rng, plan, sig):
    """A subplan joined with itself on every column, projected back."""
    path, node = rng.choice(list(_occurrences(plan)))
    m = _arity(node, sig)
    twice = Join(theta_of((i, m + i) for i in range(1, m + 1)), (node, node))
    return _replaced(plan, path, Project(tuple(range(1, m + 1)), twice))


def _implied_selection(rng, plan, sig):
    """``(select (theta (1 1)) X)`` around a subplan ``X`` with a column."""
    subplans = [(path, node) for path, node in _occurrences(plan) if _arity(node, sig)]
    if not subplans:
        return None
    path, node = rng.choice(subplans)
    return _replaced(plan, path, Select(theta_of([(1, 1)]), node))


def _rewrite_cases(rng):
    """The triangle (degree 3/2) and 300 random plans with random keys."""
    cases = [(parse_plan(TRIANGLE, SIG_E), NO_KEYS, SIG_E)]
    for _ in range(300):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        cases.append((rand_plan(rng, sig, max_operators=5), rand_keys(rng, sig), sig))
    return cases


@pytest.mark.parametrize(
    "rewrite, counts",
    [(_permute_a_join, (143, 95)), (_self_join, (295, 196)), (_implied_selection, (299, 197))],
    ids=["permute_a_join", "self_join", "implied_selection"],
)
def test_equivalence_keeping_rewrites_keep_the_degrees(rewrite, counts):
    """A rewrite that keeps a plan equivalent keeps its output degree and
    ``optimize``'s certified degree, and ``check_equivalence`` holds
    between the two plans.  Plans past the default caps are skipped; the
    counts pin how many were checked and how many of those had keys."""
    rng = random.Random(35)
    checked, keyed = 0, 0
    for plan, keys, sig in _rewrite_cases(rng):
        other = rewrite(rng, plan, sig)
        if other is None:
            continue
        assert other != plan
        try:
            degree = optimize(prepare(plan, sig), keys, Caps()).degree
            other_degree = optimize(prepare(other, sig), keys, Caps()).degree
        except ResourceCapError:
            continue
        assert check_equivalence(plan, other, keys, sig), (print_plan(plan), print_plan(other))
        assert subplan_degrees(prepare(other, sig), keys)[-1] == subplan_degrees(prepare(plan, sig), keys)[-1]
        assert other_degree == degree
        checked += 1
        keyed += bool(keys)
    assert (checked, keyed) == counts


def test_renaming_relations_keeps_the_degrees():
    """Renaming the relations in the plan, the keys and the signature keeps
    the output degree and ``optimize``'s certified degree, and the plan
    optimized under the new names, renamed back, is equivalent to the
    input."""
    rng = random.Random(35)
    checked = 0
    for plan, keys, sig in _rewrite_cases(rng):
        symbols = sig.symbols()
        names = dict(zip(symbols, rng.sample(("R", "S", "T", "U"), len(symbols))))
        if all(a == b for a, b in names.items()):
            continue
        other_sig = Signature({names[r]: sig.arity(r) for r in symbols})
        other_keys = KeySet((names[r], pos) for r, pos in keys.keys)
        other = prepare(_renamed(plan, names), other_sig)
        try:
            result = optimize(prepare(plan, sig), keys, Caps())
            other_result = optimize(other, other_keys, Caps())
        except ResourceCapError:
            continue
        assert subplan_degrees(other, other_keys)[-1] == subplan_degrees(prepare(plan, sig), keys)[-1]
        assert other_result.degree == result.degree
        back = {b: a for a, b in names.items()}
        assert check_equivalence(plan, _renamed(other_result.plan, back), keys, sig)
        checked += 1
    assert checked == 248


SIG_ER = Signature({"E": 2, "R": 3})
TWO_KEYS_E = KeySet([("E", 1), ("E", 2)])
TWO_KEYS_E_AND_R = KeySet([("E", 1), ("E", 2), ("R", 1), ("R", 3)])


def test_optimize_is_optimal_with_two_keys_per_relation(rng):
    """Criterion 6's checks on random plans under two keys on E, and on
    every other plan two on R as well: the result is well-behaved and
    equivalent, its intermediate degree is the core's width, and it is no
    worse than the input's.  The widest bag's witness family satisfies every
    key, and the core has at least n^N images of that bag on it, counted
    until they are found.  Plans
    past caps of 12 are skipped."""
    caps = Caps(core_universe=12, width_universe=12)
    optimized = 0
    for trial in range(120):
        keys = TWO_KEYS_E_AND_R if trial % 2 else TWO_KEYS_E
        plan = rand_plan(rng, SIG_ER)
        try:
            result = optimize(prepare(plan, SIG_ER), keys, caps)
        except ResourceCapError:
            continue
        core = result.elimination.original
        assert is_well_behaved(result.plan, SIG_ER)[0]
        assert check_equivalence(plan, result.plan, keys, SIG_ER)
        report = optimal_cwidth(core, keys, cap=caps.width_universe)
        degree = intermediate_degree_bound(result.plan, keys, SIG_ER)
        assert degree == result.degree == report.width
        assert result.degree <= intermediate_degree_bound(plan, keys, SIG_ER)
        _, family = bag_witness(core, keys, report)
        bag = tuple(sorted(family.target))
        for n in (2, 3):
            data = family.generate(n)
            assert satisfies_keys(data, keys)
            assert has_images(core.structure, bag, data, n**family.colors_on_target)
        optimized += 1
    assert optimized >= 100


def test_optimized_plan_beats_obvious_form_on_witness_data():
    """On the triangle's own worst-case family the synthesized plan's
    intermediates stay near M^(3/2) while the product form blows up."""
    plan = parse_plan(TRIANGLE, SIG_E)
    result = optimize(prepare(plan, SIG_E), NO_KEYS, caps=UNCAPPED)
    core = result.elimination.original
    report = optimal_cwidth(core, NO_KEYS, cap=UNCAPPED.width_universe)
    _, family = bag_witness(core, NO_KEYS, report)
    k = core.structure.total_tuple_count()
    d = result.degree
    for n in (2, 3):
        data = family.generate(n)
        m = max_relation_size(data)
        trace = evaluate_well_behaved(result.prepared, data)
        assert trace.output == evaluate_naive(plan, data).output
        assert trace.max_intermediate <= k * m ** float(d)


def test_pipeline_random_equivalence(rng):
    """Random plans with random unary keys: the rewrite is equivalent on
    key-satisfying data, well-behaved, and degree-consistent."""
    done = 0
    attempts = 0
    while done < 25 and attempts < 200:
        attempts += 1
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        plan = rand_plan(rng, sig, max_operators=4)
        keys = rand_keys(rng, sig)
        try:
            result = optimize(prepare(plan, sig), keys, caps=UNCAPPED)
        except Exception as exc:  # resource caps only
            assert isinstance(exc, ResourceCapError)
            continue
        assert is_well_behaved(result.plan, sig)[0]
        assert check_equivalence(plan, result.plan, keys, sig)
        assert intermediate_degree_bound(result.plan, keys, sig) == result.degree
        assert result.degree >= output_degree(plan, keys, sig)
        for _ in range(3):
            data = rand_satisfying_structure(rng, sig, keys, max_domain=4, max_rows=5)
            assert evaluate_naive(plan, data).output == evaluate_naive(result.plan, data).output
        done += 1
    assert done >= 25


def test_check_equivalence_cases():
    assert check_equivalence(Basic("R"), Basic("R"), NO_KEYS, SIG_R)
    red = parse_plan("(project (cols 1 2) (join (theta (1 3) (2 4)) R R))", SIG_R)
    assert check_equivalence(Basic("R"), red, NO_KEYS, SIG_R)
    swapped = parse_plan("(project (cols 2 1) R)", SIG_R)
    assert not check_equivalence(Basic("R"), swapped, NO_KEYS, SIG_R)


def test_check_equivalence_key_sensitivity():
    """Two plans equivalent only because the key merges the output columns."""
    p1 = parse_plan("(project (cols 1 2 4) (join (theta (1 3)) R R))", SIG_R)
    p2 = parse_plan("(project (cols 1 2 2) R)", SIG_R)
    assert check_equivalence(p1, p2, KEY_R1, SIG_R)
    assert not check_equivalence(p1, p2, NO_KEYS, SIG_R)


def test_equivalence_witness_maps_are_homomorphisms():
    p1 = parse_plan("(project (cols 1 2 4) (join (theta (1 3)) R R))", SIG_R)
    p2 = parse_plan("(project (cols 1 2 2) R)", SIG_R)
    w = equivalence_witness(prepare(p1, SIG_R), prepare(p2, SIG_R), KEY_R1)
    assert w is not None
    for src, dst, h in ((w.left, w.right, w.forward), (w.right, w.left, w.backward)):
        assert tuple(h[e] for e in src.tuple) == dst.tuple
        for name, row in src.structure.atoms():
            assert tuple(h[e] for e in row) in dst.structure.relations[name]
    assert equivalence_witness(prepare(p1, SIG_R), prepare(p2, SIG_R), NO_KEYS) is None


def test_check_equivalence_arity_mismatch():
    from spjopt import ArityError

    with pytest.raises(ArityError):
        check_equivalence(Basic("R"), parse_plan("(project (cols 1) R)", SIG_R), NO_KEYS, SIG_R)
