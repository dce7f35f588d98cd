"""Key elimination, plan synthesis, degrees, and the end-to-end pipeline."""

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
    Signature,
    Structure,
    bag_witness,
    build_representation,
    chase,
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
)
from spjopt import colorwidth, synthesis, witness
from spjopt.plans import number_subplans, plan_size

from conftest import (
    pattern_plan,
    rand_keys,
    rand_multi_keys,
    rand_open_structure,
    rand_plan,
    rand_satisfying_structure,
    rand_signature,
    rand_structure,
    several_keys,
)
from oracles import (
    UNCAPPED,
    all_atoms_bag_chain,
    has_images,
    max_relation_size,
    numbered_arity,
    rebuilt_output_degree,
    synthesize_with_keyed_search,
)

SIG_E = Signature({"E": 2})
SIG_R = Signature({"R": 2})
SIG_RS = Signature({"R": 2, "S": 2})
NO_KEYS = KeySet.empty()
KEY_R1 = KeySet.unary({"R": 1})
KEY_E1 = KeySet.unary({"E": 1})

TRIANGLE = "(project (cols 1 2 4) (join (theta (2 3) (4 5) (6 1)) E E E))"


# ---------------------------------------------------------------------------
# Key elimination
# ---------------------------------------------------------------------------


def test_eliminate_fds_internal_dependency_is_a_no_op():
    core = OpenStructure(Structure(SIG_R, [0, 1], {"R": [(0, 1)]}), (0, 1))
    elim = eliminate_fds(core, KEY_R1)
    assert not elim.new_relations
    assert elim.open.structure == core.structure


def test_eliminate_fds_expands_across_atoms():
    sig = SIG_RS
    keys = KeySet.unary({"R": 1, "S": 1})
    core = OpenStructure(
        Structure(sig, [0, 1, 2], {"R": [(0, 1)], "S": [(0, 2)]}), (0, 1, 2)
    )
    elim = eliminate_fds(core, keys)
    assert len(elim.new_relations) == 2
    # each original atom was widened by the one element it lacked
    assert not elim.structure.relations["R"] and not elim.structure.relations["S"]
    widened = set()
    for name, plan in elim.new_relations.items():
        base = plan
        while not isinstance(base, Basic):
            base = base.child if isinstance(base, Project) else base.children[0]
        arity = sig.arity(base.relation)
        for row in elim.structure.relations[name]:
            widened.add((base.relation, row[:arity], row[arity:]))
    assert widened == {("R", (0, 1), (2,)), ("S", (0, 2), (1,))}
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
    # the x-atom grows to {x,y,z}; the y-atom is already closed
    rows = sorted(row for _, row in elim.structure.atoms())
    assert rows == [(0, 1, 2), (1, 2)]


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
        rep, _ = build_representation(plan, sig)
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
            rep, _ = build_representation(plan, sig)
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


def test_subplan_degrees_shift_children_past_universe_gaps():
    """The chase leaves gaps in a child's universe, so a join must shift each
    child past the previous ones' largest id; shifting by element count
    would identify elements of different children here and give 2."""
    sig = Signature({"R": 3})
    keys = KeySet.unary({"R": 3})
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
    assert [b[0] for b in builds] == [plan, result.plan]
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
        rep, _ = build_representation(plan, sig)
        try:
            core = compute_core(chase(rep.open, keys).result, cap_universe=12)
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
    """On the keyed directed 6-cycle, every degree of the synthesized plan
    comes from a tuple that meets every class, so no LP is solved; the width
    search and its certificate read presolved values, and only the witness
    solves color_number's LP, once, on the widest bag."""
    cycle = pattern_plan([(i, (i + 1) % 6) for i in range(6)], (0,))
    result = optimize(prepare(cycle, SIG_E), KEY_E1)
    plan = parse_plan(print_plan(result.plan), SIG_E)
    lps, numbers = [], []
    solve, number = colorwidth.solve_lp, colorwidth.color_number
    monkeypatch.setattr(colorwidth, "solve_lp", lambda *a: lps.append(a) or solve(*a))
    monkeypatch.setattr(colorwidth, "color_number", lambda *a: numbers.append(a) or number(*a))
    monkeypatch.setattr(witness, "color_number", colorwidth.color_number)
    degrees = subplan_degrees(prepare(plan, SIG_E), KEY_E1)
    assert len(degrees) >= 100 and set(degrees) == {1}
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
    cycle = pattern_plan([(i, (i + 1) % 6) for i in range(6)], (0,))
    plan = optimize(prepare(cycle, SIG_E), KEY_E1).plan
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
    second width search over the core under the keys."""
    for core, keys in _random_cores(rng, 15):
        result = synthesize_plan(core, keys, UNCAPPED)
        got = (result.plan, result.degree, result.decomposition)
        assert got == synthesize_with_keyed_search(core, keys, UNCAPPED)


def _chain_steps(plan, rows):
    """Per step of a bag chain over basic atoms, the (relation, elements)
    of each block it joins, first step first."""
    steps = []
    while plan is not None:
        kids = plan.child.children
        sol = kids[0] if isinstance(kids[0].child, Join) else None
        blocks = kids[1:] if sol is not None else kids
        steps.insert(0, [
            (b.child.relation, tuple(rows[b.child.relation][c - 1] for c in b.cols))
            for b in blocks
        ])
        plan = sol
    return steps


def test_bag_chain_joins_complete_and_undominated_blocks(rng):
    """Over the bag 0, 1, 2, 3: D's block (0) equals A's, so only A's,
    the first, is joined at step 0; B and C are proper subsets of A at
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
    assert _chain_steps(chain, rows) == [
        [("A", (0,))],
        [("A", (0, 1))],
        [("A", (0, 1, 2)), ("D", (0, 2))],
        [("B", (1, 2, 3)), ("C", (1, 2, 3))],
    ]
    every_block = all_atoms_bag_chain(order, atoms_by_elem)
    assert len(_chain_steps(every_block, rows)[2]) == 4
    sig = Signature({rel: len(row) for rel, row in rows.items()})
    for _ in range(20):
        data = rand_structure(rng, sig, max_domain=3, max_rows=12)
        assert evaluate_naive(chain, data).output == evaluate_naive(every_block, data).output


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
