"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All expected values are exact (rational equality, set equality); the only
tolerances are the ones stated by the criteria themselves (timing factors
and the 20% constant-stability window).
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from spjopt import (
    KeySet,
    OpenStructure,
    Signature,
    Structure,
    bag_witness,
    build_representation,
    chase,
    chased_core,
    check_equivalence,
    check_tree_decomposition,
    color_number,
    compute_core,
    cwidth_of_decomposition,
    evaluate_naive,
    evaluate_well_behaved,
    find_homomorphism,
    homs_relation,
    hypergraph_of,
    intermediate_degree_bound,
    is_well_behaved,
    optimal_cwidth,
    output_degree,
    parse_plan,
    prepare,
    print_plan,
    satisfies_keys,
    synthesize_plan,
)
from spjopt.colorwidth import _constraint_sets
from spjopt.plans import plan_size

from conftest import (
    rand_keys,
    rand_open_structure,
    rand_plan,
    rand_satisfying_structure,
    rand_signature,
    rand_structure,
)
from oracles import (
    UNCAPPED,
    chase_changed,
    check_containment_property,
    check_isomorphic,
    has_proper_retraction,
    max_relation_size,
    packing_lp_by_basic_enumeration,
    random_chase,
    valid_color_classes,
)

SIG_E = Signature({"E": 2})
SIG_R = Signature({"R": 2})
NO_KEYS = KeySet.empty()
KEY_R1 = KeySet.unary({"R": 1})

TRIANGLE_TEXT = "(project (cols 1 2 4) (join (theta (2 3) (4 5) (6 1)) E E E))"
CORPUS_SEED = 74125
CORPUS_SIZE = 200


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException as exc:
        print(f"ACCEPTANCE {number} {title}: FAIL ({exc.__class__.__name__})")
        raise
    print(f"ACCEPTANCE {number} {title}: PASS")


@pytest.fixture(scope="module")
def corpus():
    """200 random plans (at most 6 operators, at most 3 relations of arity
    at most 3) with 5 random structures each, plus per-plan unary keys and 5
    key-satisfying structures.  Plans are resampled when their
    representation exceeds 12 elements so the exponential stages stay at
    desk scale; all stated bounds still hold for every sample."""
    gen = random.Random(CORPUS_SEED)
    entries = []
    while len(entries) < CORPUS_SIZE:
        sig = rand_signature(gen)
        plan = rand_plan(gen, sig, max_operators=6)
        rep, dec = build_representation(plan, sig)
        if len(rep.open.structure.universe) > 12:
            continue
        datasets = [rand_structure(gen, sig, max_domain=5, max_rows=5) for _ in range(5)]
        keys = rand_keys(gen, sig)
        keydata = [
            rand_satisfying_structure(gen, sig, keys, max_domain=5, max_rows=5)
            for _ in range(5)
        ]
        entries.append(
            {
                "sig": sig,
                "plan": plan,
                "rep": rep,
                "dec": dec,
                "datasets": datasets,
                "keys": keys,
                "keydata": keydata,
            }
        )
    return entries


@pytest.fixture(scope="module")
def triangle_pipeline():
    plan = parse_plan(TRIANGLE_TEXT, SIG_E)
    core = chased_core(prepare(plan, SIG_E), NO_KEYS, UNCAPPED.core_universe)
    result = synthesize_plan(core, NO_KEYS, UNCAPPED)
    report = optimal_cwidth(core, NO_KEYS, cap=UNCAPPED.width_universe)
    node, family = bag_witness(core, NO_KEYS, report)
    return plan, result, node, family


def test_criterion_1_representation_soundness(corpus):
    with criterion(1, "representation soundness"):
        start = time.perf_counter()
        for entry in corpus:
            rep = entry["rep"]
            for data in entry["datasets"]:
                assert homs_relation(
                    rep.open.structure, rep.open.tuple, data
                ) == evaluate_naive(entry["plan"], data).output
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"representation check took {elapsed:.1f}s"


def test_criterion_2_containment_property(corpus):
    with criterion(2, "containment property"):
        for entry in corpus:
            assert check_tree_decomposition(
                hypergraph_of(entry["rep"].open), entry["dec"].edges, entry["dec"].chi
            )
            for data in entry["datasets"]:
                assert check_containment_property(
                    entry["plan"], entry["rep"], entry["dec"], data
                )


def test_criterion_3_chase_correctness():
    with criterion(3, "chase correctness"):
        gen = random.Random(CORPUS_SEED + 3)
        for trial in range(100):
            sig = rand_signature(gen)
            keys = rand_keys(gen, sig, prob=0.7)
            open_s = rand_open_structure(gen, sig, max_domain=6, max_rows=6)
            result = chase(open_s, keys)
            assert satisfies_keys(result.result.structure, keys)
            second = chase(result.result, keys)
            assert not chase_changed(second)
            assert second.result == result.result
            for seed in range(5):
                other = random_chase(open_s, keys, random.Random(trial * 31 + seed))
                assert check_isomorphic(result.result, other)


def test_criterion_4_core_laws():
    with criterion(4, "core laws"):
        gen = random.Random(CORPUS_SEED + 4)
        checked = 0
        for _ in range(40):
            sig = rand_signature(gen, max_relations=2, max_arity=2)
            open_s = rand_open_structure(gen, sig, max_domain=6, max_rows=5)
            if len(open_s.structure.universe) > 6:
                continue
            core = compute_core(open_s)
            assert check_isomorphic(core, compute_core(core))
            assert find_homomorphism(open_s, core) is not None
            assert find_homomorphism(core, open_s) is not None
            assert not has_proper_retraction(core)
            checked += 1
        assert checked >= 25
        # the stated fan-to-edge instance, up to isomorphism
        fan = Structure(SIG_E, [0, 1, 2], {"E": [(0, 1), (0, 2)]})
        core = compute_core(OpenStructure(fan, ()))
        edge = Structure(SIG_E, [0, 1], {"E": [(0, 1)]})
        assert check_isomorphic(core, OpenStructure(edge, ()))


def test_criterion_5_color_numbers():
    with criterion(5, "color numbers"):
        tri = Structure(SIG_E, [0, 1, 2], {"E": [(0, 1), (1, 2), (2, 0)]})
        assert color_number(tri, NO_KEYS, {0, 1, 2})[0] == Fraction(3, 2)
        atom = Structure(SIG_R, [0, 1], {"R": [(0, 1)]})
        assert color_number(atom, KEY_R1, {0, 1})[0] == 1
        path = Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (1, 2)]})
        assert color_number(path, KEY_R1, {0, 1, 2})[0] == 1
        # LP optimum == brute-force basic-solution enumeration
        gen = random.Random(CORPUS_SEED + 5)
        checked = 0
        while checked < 40:
            sig = rand_signature(gen, max_relations=2, max_arity=3)
            keys = rand_keys(gen, sig)
            open_s = rand_open_structure(gen, sig, max_domain=4, max_rows=3)
            struct = open_s.structure
            if struct.total_tuple_count() == 0 or not struct.universe:
                continue
            classes = valid_color_classes(struct, keys)
            target = frozenset(struct.universe)
            usable = [c for c in classes if c & target]
            rows_sets = _constraint_sets(struct)
            if len(usable) > 10 or len(rows_sets) > 6:
                continue
            rows = [[1 if c & s else 0 for c in usable] for s in rows_sets]
            brute = packing_lp_by_basic_enumeration(len(usable), rows)
            assert color_number(struct, keys, target)[0] == brute
            checked += 1


def test_criterion_6_optimality_pipeline(corpus):
    with criterion(6, "optimality pipeline"):
        for entry in corpus:
            plan, sig, keys = entry["plan"], entry["sig"], entry["keys"]
            core = chased_core(prepare(plan, sig), keys, UNCAPPED.core_universe)
            result = synthesize_plan(core, keys, UNCAPPED)
            assert is_well_behaved(result.plan, sig)[0]
            assert check_equivalence(plan, result.plan, keys, sig)
            for data in entry["keydata"]:
                assert (
                    evaluate_naive(plan, data).output
                    == evaluate_naive(result.plan, data).output
                )
            assert intermediate_degree_bound(result.plan, keys, sig) == result.degree
            assert result.degree >= output_degree(plan, keys, sig)
            # The degree is the core's width under the keys, and the
            # decomposition the plan follows attains it.
            width = optimal_cwidth(core, keys, cap=UNCAPPED.width_universe).width
            assert width == result.degree
            assert cwidth_of_decomposition(core, keys, result.decomposition).width == result.degree


def _max_intermediate_within(trace, k, m, degree):
    """max intermediate <= k * m^degree, compared exactly in integers."""
    p, q = degree.numerator, degree.denominator
    return trace.max_intermediate**q <= (k**q) * (m**p)


def test_criterion_7_upper_bound_empirics(corpus, triangle_pipeline):
    with criterion(7, "upper bound empirics"):
        # Deterministic subsample of the corpus plus the triangle.
        for entry in corpus[:40]:
            plan, sig, keys = entry["plan"], entry["sig"], entry["keys"]
            core = chased_core(prepare(plan, sig), keys, UNCAPPED.core_universe)
            result = synthesize_plan(core, keys, UNCAPPED)
            if not core.structure.universe:
                continue
            report = optimal_cwidth(core, keys, cap=UNCAPPED.width_universe)
            _, family = bag_witness(core, keys, report)
            k = core.structure.total_tuple_count()
            for n in (2, 3, 4, 5):
                data = family.generate(n)
                trace = evaluate_well_behaved(result.prepared, data)
                assert _max_intermediate_within(
                    trace, k, max_relation_size(data), result.degree
                ), (print_plan(plan), n)
        plan, result, _, family = triangle_pipeline
        k = result.elimination.original.structure.total_tuple_count()
        product_form = parse_plan(
            "(project (cols 1 2 4) (select (theta (2 3) (4 5) (6 1)) (join (theta) E E E)))",
            SIG_E,
        )
        for n in (2, 3, 4, 5):
            data = family.generate(n)
            m = max_relation_size(data)
            trace = evaluate_well_behaved(result.prepared, data)
            assert _max_intermediate_within(trace, k, m, Fraction(3, 2))
            if n == 5:
                naive_trace = evaluate_naive(product_form, data)
                # the product subplan exceeds M^1.9: compare maxint^10 > M^19
                assert naive_trace.max_intermediate**10 > m**19
                assert naive_trace.output == trace.output


def test_criterion_8_lower_bound_empirics(triangle_pipeline):
    with criterion(8, "lower bound empirics"):
        plan, result, node, family = triangle_pipeline
        core = result.elimination.original.structure
        n_colors = family.colors_on_target
        dstar = family.max_colors_per_tuple
        assert Fraction(n_colors, dstar) == Fraction(3, 2)
        for n in (1, 2, 3, 4):
            data = family.generate(n)
            images = homs_relation(core, tuple(sorted(family.target)), data)
            assert len(images) >= n**n_colors
        alt_plans = [
            parse_plan(TRIANGLE_TEXT, SIG_E),
            parse_plan(
                "(project (cols 1 2 4) (join (theta (4 5) (6 1)) (join (theta (2 3)) E E) E))",
                SIG_E,
            ),
            parse_plan(
                "(project (cols 4 1 2) (join (theta (4 5) (1 6)) (join (theta (2 3)) E E) E))",
                SIG_E,
            ),
        ]
        for alt in alt_plans[1:]:
            assert check_equivalence(alt_plans[0], alt, NO_KEYS, SIG_E)
        for alt in alt_plans:
            constants = {}
            for n in (3, 5):
                data = family.generate(n)
                m = max_relation_size(data)
                trace = evaluate_naive(alt, data)
                constants[n] = trace.max_intermediate / m**1.5
            assert constants[5] > 0
            assert abs(constants[3] / constants[5] - 1) < 0.2


def test_criterion_9_evaluator_agreement(triangle_pipeline):
    with criterion(9, "evaluator agreement"):
        gen = random.Random(CORPUS_SEED + 9)
        agreed = 0
        attempts = 0
        while agreed < 200 and attempts < 5000:
            attempts += 1
            sig = rand_signature(gen)
            plan = rand_plan(gen, sig, max_operators=6)
            if not is_well_behaved(plan, sig)[0]:
                continue
            data = rand_structure(gen, sig, max_domain=5, max_rows=5)
            assert (
                evaluate_naive(plan, data).output
                == evaluate_well_behaved(prepare(plan, sig), data).output
            )
            agreed += 1
        assert agreed >= 200

        plan, result, _, family = triangle_pipeline
        data = family.generate(6)
        m = max_relation_size(data)
        start = time.perf_counter()
        fast = evaluate_well_behaved(result.prepared, data)
        t_fast = time.perf_counter() - start
        start = time.perf_counter()
        slow = evaluate_naive(result.plan, data)
        t_slow = time.perf_counter() - start
        assert fast.output == slow.output
        # scaled units: one microsecond per |p|^2 * |dom| * M^1.5 step
        budget = 10 * plan_size(result.plan) ** 2 * len(data.universe) * m**1.5 * 1e-6
        assert t_fast <= budget, f"{t_fast:.3f}s over {budget:.3f}s"
        assert t_slow >= 5 * t_fast, f"naive {t_slow:.3f}s vs {t_fast:.3f}s"


def test_criterion_10_output_degree():
    with criterion(10, "output degree"):
        assert output_degree(parse_plan("R", SIG_R), NO_KEYS, SIG_R) == 1
        assert output_degree(parse_plan(TRIANGLE_TEXT, SIG_E), NO_KEYS, SIG_E) == Fraction(3, 2)
        composed = parse_plan("(project (cols 1 4) (join (theta (2 3)) R R))", SIG_R)
        assert output_degree(composed, KEY_R1, SIG_R) == 1
