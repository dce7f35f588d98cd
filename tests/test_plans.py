"""Plan AST, parsing, well-behavedness, and the two evaluators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from spjopt import (
    ArityError,
    Basic,
    Join,
    KeySet,
    PlanSyntaxError,
    Project,
    Select,
    Signature,
    Structure,
    WellBehavedError,
    arity_of,
    evaluate_naive,
    evaluate_well_behaved,
    is_well_behaved,
    optimize,
    parse_plan,
    print_plan,
    subplans,
    theta_of,
)
from spjopt import plans
from spjopt.plans import number_subplans, operator_count, validate_plan

from conftest import rand_plan, rand_signature, rand_structure
from oracles import (
    char_loop_tokens,
    evaluate_well_behaved_per_occurrence,
    is_well_behaved_per_occurrence,
)

SIG = Signature({"R": 2, "S": 2})
SIG_E = Signature({"E": 2})


def test_parse_example_plan():
    p = parse_plan("(join (theta (1 3)) R (project (cols 1) S))", SIG)
    assert isinstance(p, Join)
    assert arity_of(p, SIG) == 3


def test_parse_basic_and_empty_projection():
    assert parse_plan("R", SIG) == Basic("R")
    p = parse_plan("(project (cols) R)", SIG)
    assert arity_of(p, SIG) == 0


def test_parse_errors_carry_position():
    with pytest.raises(PlanSyntaxError) as err:
        parse_plan("(join (theta (1 2) R S)", SIG)
    assert err.value.line is not None
    with pytest.raises(PlanSyntaxError):
        parse_plan("(select (theta) R) trailing", SIG)
    with pytest.raises(PlanSyntaxError):
        parse_plan("(frobnicate R)", SIG)


# (text, message, line, column) of malformed plans.
MALFORMED = [
    ("(join (theta (1 2) R S)", "expected ')', got 'R'", 1, 20),
    ("(select (theta) R) trailing", "trailing input 'trailing'", 1, 20),
    ("(frobnicate R)", "unknown operator 'frobnicate'", 1, 2),
    ("(frobnicate R$)", "bad token 'R$'", 1, 13),
    (
        "(join (theta (1 3))\n  R ; a comment with (parens) and 1x\n  (project (cols 1) S)) )",
        "trailing input ')'", 3, 25,
    ),
    ("; header comment\n(project (cols 1 x) R)", "expected ')', got 'x'", 2, 18),
    ("(select (theta (1 2))\n\tR\r\n  S)", "expected ')', got 'S'", 3, 3),
    ("(project (cols 1) R$)", "bad token 'R$'", 1, 19),
    ("\n\n  (join (theta (1 -3x)) R S)", "bad token '-3x'", 3, 19),
    ("(select (theta (1 2)) R)\n; trailing comment\n)", "trailing input ')'", 3, 1),
    ("", "expected plan, got ''", -1, -1),
    ("; only a comment", "expected plan, got ''", -1, -1),
    ("(select (theta (1 2)) R", "expected ')', got ''", -1, -1),
    ("((select", "expected 'name', got '('", 1, 2),
    ("(project (cols 1 2) 7)", "expected plan, got '7'", 1, 21),
    ("(join (theta (1 \u00e9)) R S)", "bad token '\u00e9'", 1, 17),
]


@pytest.mark.parametrize("text,message,line,column", MALFORMED)
def test_parse_error_message_and_position(text, message, line, column):
    with pytest.raises(PlanSyntaxError) as err:
        parse_plan(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"{line}:{column}: {message}", line, column
    )


def test_tokens_match_character_loop_oracle():
    gen = random.Random(5)
    alphabet = "()  \t\r\n\n;;-0123RSxy_#\u00e9"
    checked = 0
    for _ in range(3000):
        text = "".join(gen.choice(alphabet) for _ in range(gen.randint(0, 40)))
        try:
            expected = char_loop_tokens(text)
        except PlanSyntaxError as exc:
            with pytest.raises(PlanSyntaxError) as err:
                plans._Tokens(text)
            assert (str(err.value), err.value.line, err.value.column) == (
                str(exc), exc.line, exc.column
            )
            continue
        toks = plans._Tokens(text)
        got = []
        for tok in toks.tokens:
            where = toks.error("", tok)
            got.append((tok[0], tok[1], where.line, where.column))
        assert got == expected, repr(text)
        checked += 1
    assert checked >= 300


def test_parse_validates_against_signature():
    with pytest.raises(PlanSyntaxError):
        parse_plan("Q", SIG)
    with pytest.raises(ArityError):
        validate_plan(parse_plan("(project (cols 3) R)"), SIG)
    with pytest.raises(ArityError):
        validate_plan(parse_plan("(join (theta (1 5)) R S)"), SIG)


def test_arity_rules():
    assert arity_of(parse_plan("(join (theta) R (project (cols 1) S))"), SIG) == 3
    assert arity_of(parse_plan("(project (cols 1 1 2) R)"), SIG) == 3
    assert arity_of(Basic("R"), SIG) == 2


def test_subplans_postorder_occurrences():
    p = parse_plan("(join (theta (1 3)) R (project (cols 1) S))", SIG)
    texts = [print_plan(node) for _, node in subplans(p)]
    assert texts == ["R", "S", "(project (cols 1) S)", print_plan(p)]
    # repeated subtrees appear once per occurrence
    q = parse_plan("(join (theta (1 3)) R R)", SIG)
    assert len(subplans(q)) == 3
    chain = parse_plan("(project (cols 1) (project (cols 1) (project (cols 1 2) R)))", SIG)
    assert len(subplans(chain)) == 4


def plan_strategy(max_depth=3):
    def build(depth):
        if depth == 0:
            return st.sampled_from([Basic("R"), Basic("S")])
        sub = build(depth - 1)
        select = st.builds(
            lambda c, pairs: Select(theta_of([(1 + a % 2, 1 + b % 2) for a, b in pairs]), c),
            sub,
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=2),
        )
        return st.one_of(sub, select, sub.map(lambda c: Project((1,), c)))

    return build(max_depth)


@settings(max_examples=60, deadline=None)
@given(plan_strategy())
def test_print_parse_roundtrip_hypothesis(plan):
    # Round-trip is a syntax property, so no signature validation here.
    assert parse_plan(print_plan(plan)) == plan


def test_print_parse_roundtrip_random_corpus(rng):
    for _ in range(150):
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=6)
        assert parse_plan(print_plan(plan), sig) == plan


def test_well_behaved_examples():
    assert is_well_behaved(parse_plan("(join (theta (1 3)) R S)"), SIG)[0]
    ok, offender = is_well_behaved(parse_plan("(join (theta) R S)"), SIG)
    assert not ok and isinstance(offender, Join)
    # plans without joins are vacuously well-behaved
    assert is_well_behaved(parse_plan("(project (cols 1) (select (theta (1 2)) R))"), SIG)[0]
    # the cyclic triangle join adds exactly one new column
    tri = parse_plan("(join (theta (2 3) (4 5) (6 1)) E E E)", SIG_E)
    assert is_well_behaved(tri, SIG_E)[0]
    assert not is_well_behaved(parse_plan("(join (theta) E E E)", SIG_E), SIG_E)[0]


def test_well_behaved_closure_vs_strict():
    # Columns 3..7 form an identification chain anchored at column 1; under
    # the closure reading they all carry old information, but no single
    # column k makes every other one directly equated into [m1] + {k}.
    p = parse_plan(
        "(join (theta (1 3) (3 4) (4 5) (5 6) (6 7)) R"
        + " (project (cols 1) S)" * 5 + ")",
        SIG,
    )
    assert is_well_behaved(p, SIG)[0]
    assert not is_well_behaved(p, SIG, strict_theta=True)[0]


def test_selection_is_a_one_way_join():
    one_way = Join(theta_of([(1, 2)]), (Basic("R"),))
    assert is_well_behaved(one_way, SIG)[0]
    data = rand_structure(random.Random(3), SIG, max_domain=4, max_rows=6)
    assert (
        evaluate_naive(one_way, data).output
        == evaluate_naive(Select(theta_of([(1, 2)]), Basic("R")), data).output
    )


def test_evaluate_naive_cases():
    data = rand_structure(random.Random(0), SIG, max_domain=4, max_rows=6)
    assert evaluate_naive(Basic("R"), data).output == data.relations["R"]
    p = parse_plan("(project (cols) R)", SIG)
    expected = frozenset({()}) if data.relations["R"] else frozenset()
    assert evaluate_naive(p, data).output == expected


def test_evaluate_example_by_hand():
    data = rand_structure(random.Random(0), SIG, max_domain=1, max_rows=0)
    data = data.apply_map({})  # copy
    from spjopt import Structure

    data = Structure(SIG, [1, 2, 3, 9], {"R": [(1, 2)], "S": [(1, 9), (3, 9)]})
    p = parse_plan("(join (theta (1 3)) R (project (cols 1) S))", SIG)
    trace = evaluate_naive(p, data)
    assert trace.output == frozenset({(1, 2, 1)})
    by_text = {e.text: e.cardinality for e in trace.entries}
    assert by_text["(project (cols 1) S)"] == 2
    assert trace.max_intermediate == 2


def test_trace_shape():
    data = rand_structure(random.Random(1), SIG, max_domain=3, max_rows=4)
    p = parse_plan("(join (theta (1 3)) R (project (cols 1) S))", SIG)
    trace = evaluate_naive(p, data)
    assert len(trace.entries) == len(subplans(p))
    assert trace.entries[-1].path == ()
    assert trace.max_intermediate >= max(e.cardinality for e in trace.entries)
    assert trace.wall_time >= 0


def test_well_behaved_evaluator_requires_precondition():
    data = rand_structure(random.Random(2), SIG, max_domain=3, max_rows=3)
    with pytest.raises(WellBehavedError):
        evaluate_well_behaved(parse_plan("(join (theta) R S)"), data)


def test_evaluators_agree_on_random_well_behaved_plans(rng):
    agreed = 0
    attempts = 0
    while agreed < 120 and attempts < 3000:
        attempts += 1
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=6)
        if not is_well_behaved(plan, sig)[0]:
            continue
        data = rand_structure(rng, sig, max_domain=5, max_rows=6)
        naive = evaluate_naive(plan, data)
        fast = evaluate_well_behaved(plan, data)
        assert naive.output == fast.output
        assert {e.path: e.rows for e in naive.entries} == {
            e.path: e.rows for e in fast.entries
        }
        agreed += 1
    assert agreed >= 120


def test_well_behaved_chain_bounds_internal_relations(rng):
    """One-column-at-a-time joins on path data keep internal relations within
    |out(first child)| x |dom|."""
    from spjopt import Structure

    n = 12
    edges = [(i, i + 1) for i in range(n)]
    data = Structure(SIG_E, range(n + 1), {"E": edges})
    # Left-deep chain of joins, each adding one column: length-3 paths.
    p = parse_plan("(join (theta (4 5)) (join (theta (2 3)) E E) E)", SIG_E)
    trace = evaluate_well_behaved(p, data)
    assert trace.internal_peak <= len(edges) * len(data.universe)
    assert trace.output == evaluate_naive(p, data).output
    assert trace.max_intermediate <= len(edges) * len(data.universe)


def test_operator_count():
    assert operator_count(parse_plan("R", SIG)) == 0
    assert operator_count(parse_plan("(project (cols 1) (select (theta) R))", SIG)) == 2


def _shared_plans(rng, count):
    """Random well-behaved plans, and each joined with itself on every
    column, so that every subtree repeats."""
    out = []
    while len(out) < count:
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=6)
        if not is_well_behaved(plan, sig)[0]:
            continue
        m = arity_of(plan, sig)
        twice = Join(theta_of([(i, m + i) for i in range(1, m + 1)]), (plan, plan))
        out += [(sig, plan), (sig, twice)]
    return out


def _keyed_cycle(n):
    """The directed n-cycle through column 1, projected to it."""
    pairs = " ".join(f"({2 * i + 2} {2 * i + 3})" for i in range(n - 1))
    text = f"(project (cols 1) (join (theta {pairs} ({2 * n} 1)){' E' * n}))"
    return parse_plan(text, SIG_E)


def _synthesized_keyed_cycle(n):
    """The synthesized plan of the keyed n-cycle, printed and parsed again so
    that repeated subtrees share only their structure, not their objects."""
    result = optimize(_keyed_cycle(n), KeySet.unary({"E": 1}), SIG_E)
    return parse_plan(print_plan(result.plan), SIG_E)


def _functional_graph(rng, rows):
    f = [rng.randrange(rows) for _ in range(rows)]
    f[0] = 0
    return Structure(SIG_E, range(rows), {"E": list(enumerate(f))})


def _assert_same_trace(shared, oracle):
    assert [(e.path, e.text, e.rows) for e in shared.entries] == [
        (e.path, e.text, e.rows) for e in oracle.entries
    ]
    assert shared.output == oracle.output
    assert shared.internal_peak == oracle.internal_peak
    assert shared.max_intermediate == oracle.max_intermediate


def test_number_subplans_numbers_structure(rng):
    for _ in range(300):
        one = rand_plan(rng, rand_signature(rng), max_operators=6)
        plan = Join(frozenset(), (one, rand_plan(rng, rand_signature(rng), max_operators=6), one))
        occurrences, distinct = number_subplans(plan)
        assert [(p, n) for p, n, _ in occurrences] == subplans(plan)
        first = {}
        for _, node, number in occurrences:
            assert first.setdefault(number, node) == node
        assert len(distinct) == len({node for _, node, _ in occurrences})
        assert [node for node, _ in distinct] == list(first.values())
        for number, (node, kids) in enumerate(distinct):
            assert all(k < number for k in kids)
            assert [distinct[k][0] for k in kids] == list(plans.children_of(node))


def test_is_well_behaved_matches_per_occurrence_oracle(rng):
    for _ in range(400):
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=6)
        m = arity_of(plan, sig)
        for p in (plan, Join(theta_of([(1, m + 1)] if m else []), (plan, plan))):
            for strict in (False, True):
                ok, offender = is_well_behaved(p, sig, strict)
                want_ok, want_offender = is_well_behaved_per_occurrence(p, sig, strict)
                assert ok == want_ok
                assert offender is want_offender


def test_shared_evaluation_matches_per_occurrence_oracle(rng):
    for sig, plan in _shared_plans(rng, 120):
        data = rand_structure(rng, sig, max_domain=5, max_rows=6)
        _assert_same_trace(
            evaluate_well_behaved(plan, data), evaluate_well_behaved_per_occurrence(plan, data)
        )


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_shared_evaluation_matches_oracle_on_keyed_cycles(n):
    plan = _synthesized_keyed_cycle(n)
    data = _functional_graph(random.Random(n), 12)
    _assert_same_trace(
        evaluate_well_behaved(plan, data), evaluate_well_behaved_per_occurrence(plan, data)
    )


def test_each_distinct_join_is_checked_and_evaluated_once(monkeypatch):
    plan = _synthesized_keyed_cycle(7)
    joins = {node for _, node in subplans(plan) if isinstance(node, Join)}
    occurrences = sum(isinstance(node, Join) for _, node in subplans(plan))
    assert occurrences > 2 * len(joins)
    counts = {"check": 0, "chain": 0}
    check, chain = plans._join_is_well_behaved, plans._join_chain

    def counted_check(*args):
        counts["check"] += 1
        return check(*args)

    def counted_chain(*args):
        counts["chain"] += 1
        return chain(*args)

    monkeypatch.setattr(plans, "_join_is_well_behaved", counted_check)
    monkeypatch.setattr(plans, "_join_chain", counted_chain)
    trace = evaluate_well_behaved(plan, _functional_graph(random.Random(7), 12))
    assert counts == {"check": len(joins), "chain": len(joins)}
    assert len(trace.entries) == len(subplans(plan))
