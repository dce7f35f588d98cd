"""Key elimination, plan synthesis, degrees, and the end-to-end pipeline."""

from fractions import Fraction

import pytest

from spjopt import (
    Basic,
    DegenerateInputError,
    KeySet,
    OpenStructure,
    ResourceCapError,
    Signature,
    Structure,
    UNCAPPED,
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
    optimize,
    optimize_full,
    output_degree,
    parse_plan,
    print_plan,
    satisfies_keys,
    synthesize_plan,
)
from spjopt import synthesis
from spjopt.plans import arity_of, validate_plan

from conftest import (
    rand_keys,
    rand_open_structure,
    rand_plan,
    rand_satisfying_structure,
    rand_signature,
)
from oracles import synthesize_with_two_searches

SIG_E = Signature({"E": 2})
SIG_R = Signature({"R": 2})
SIG_RS = Signature({"R": 2, "S": 2})
NO_KEYS = KeySet.empty()
KEY_R1 = KeySet.unary({"R": 1})

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
    assert set(elim.expansions) == {("R", (0, 1)), ("S", (0, 2))}
    # every widened atom is closed under the dependencies
    for _, row in elim.structure.atoms():
        assert set(row) == {0, 1, 2}
    # the defining plans are well-behaved and answer-preserving
    for name, plan in elim.new_relations.items():
        validate_plan(plan, sig)
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
    seeds)."""
    from spjopt import build_representation, homs_relation

    checked = draws = 0
    while checked < 10 and draws < 300:
        draws += 1
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        keys = rand_keys(rng, sig, prob=0.8)
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
                assert len(widened_rels[name]) <= data.max_relation_size
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
    outcome = optimize_full(plan, NO_KEYS, SIG_E, caps=UNCAPPED)
    result = outcome.result
    assert result.degree == Fraction(3, 2)
    assert is_well_behaved(result.plan, SIG_E)[0]
    assert intermediate_degree_bound(result.plan, NO_KEYS, SIG_E) == Fraction(3, 2)
    assert arity_of(result.plan, SIG_E) == 3


def test_optimize_acyclic_example_gets_degree_one():
    plan = parse_plan("(join (theta (1 3)) R (project (cols 1) S))", SIG_RS)
    result = optimize(plan, NO_KEYS, SIG_RS, caps=UNCAPPED)
    assert result.degree == 1
    assert intermediate_degree_bound(result.plan, NO_KEYS, SIG_RS) == 1


def test_optimize_collapses_redundant_self_join():
    plan = parse_plan("(project (cols 1 2) (join (theta (1 3) (2 4)) R R))", SIG_R)
    result = optimize(plan, NO_KEYS, SIG_R, caps=UNCAPPED)
    assert result.degree == 1
    assert len(result.elimination.original.structure.universe) == 2
    assert check_equivalence(result.plan, Basic("R"), NO_KEYS, SIG_R)


def test_optimize_key_path_uses_derived_relations():
    plan = parse_plan("(project (cols 1 4) (join (theta (2 3)) R R))", SIG_R)
    result = optimize(plan, KEY_R1, SIG_R, caps=UNCAPPED)
    assert result.degree == 1
    assert result.new_relations  # the dependency x -> z had to be compiled in
    assert intermediate_degree_bound(result.plan, KEY_R1, SIG_R) == 1
    # without the key the same plan needs degree 2
    result2 = optimize(plan, NO_KEYS, SIG_R, caps=UNCAPPED)
    assert result2.degree == 2


def test_synthesize_plan_searches_width_once_without_keys(rng, monkeypatch):
    """One width search per unkeyed synthesis, two per keyed one; without
    keys the plan and decomposition are those of the two-search form."""
    searches = []
    real = synthesis.optimal_cwidth

    def counting(*args, **kwargs):
        searches.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(synthesis, "optimal_cwidth", counting)
    done = {False: 0, True: 0}
    attempts = 0
    while min(done.values()) < 15 and attempts < 300:
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
        searches.clear()
        result = synthesize_plan(core, keys, UNCAPPED)
        assert searches == ([keys, NO_KEYS] if keys else [NO_KEYS])
        if not keys:
            plan2, dec2 = synthesize_with_two_searches(core, keys, UNCAPPED)
            assert (result.plan, result.decomposition) == (plan2, dec2)
        done[bool(keys)] += 1
    assert min(done.values()) >= 15


def test_optimize_rejects_non_unary_keys():
    from spjopt import KeyConstraintError

    plan = Basic("R")
    with pytest.raises(KeyConstraintError):
        optimize(plan, KeySet([("R", (1, 2))]), SIG_R)


def test_optimized_plan_beats_obvious_form_on_witness_data():
    """On the triangle's own worst-case family the synthesized plan's
    intermediates stay near M^(3/2) while the product form blows up."""
    from spjopt import bag_witness, build_representation, compute_core

    plan = parse_plan(TRIANGLE, SIG_E)
    outcome = optimize_full(plan, NO_KEYS, SIG_E, caps=UNCAPPED)
    core = outcome.core
    report = outcome.result.width_report
    _, family = bag_witness(core, NO_KEYS, report.decomposition)
    k = core.structure.total_tuple_count()
    d = outcome.result.degree
    for n in (2, 3):
        data = family.generate(n)
        m = data.max_relation_size
        trace = evaluate_well_behaved(outcome.result.plan, data)
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
            outcome = optimize_full(plan, keys, sig, caps=UNCAPPED)
        except Exception as exc:  # resource caps only
            from spjopt import ResourceCapError

            assert isinstance(exc, ResourceCapError)
            continue
        result = outcome.result
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
    w = equivalence_witness(p1, p2, KEY_R1, SIG_R)
    assert w is not None
    for src, dst, h in ((w.left, w.right, w.forward), (w.right, w.left, w.backward)):
        assert tuple(h[e] for e in src.tuple) == dst.tuple
        for name, row in src.structure.atoms():
            assert tuple(h[e] for e in row) in dst.structure.relations[name]
    assert equivalence_witness(p1, p2, NO_KEYS, SIG_R) is None


def test_check_equivalence_arity_mismatch():
    from spjopt import ArityError

    with pytest.raises(ArityError):
        check_equivalence(Basic("R"), parse_plan("(project (cols 1) R)", SIG_R), NO_KEYS, SIG_R)
