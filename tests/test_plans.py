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
    ResourceCapError,
    Select,
    Signature,
    SpjError,
    Structure,
    bag_witness,
    chased_core,
    evaluate_naive,
    evaluate_well_behaved,
    homs_relation,
    is_well_behaved,
    optimal_cwidth,
    optimize,
    parse_plan,
    prepare,
    print_plan,
    theta_of,
)
from spjopt import plans
from spjopt.plans import number_subplans, occurrence_paths, plan_texts

import oracles
from conftest import (
    PATTERN_EDGES,
    count_parses,
    pattern_plan,
    rand_plan,
    rand_signature,
    rand_structure,
)
from oracles import (
    char_loop_tokens,
    evaluate_well_behaved_per_occurrence,
    is_well_behaved_per_occurrence,
    numbered_arity,
    operator_count,
    subplans,
)

SIG = Signature({"R": 2, "S": 2})
SIG_E = Signature({"E": 2})


def test_parse_example_plan():
    p = parse_plan("(join (theta (1 3)) R (project (cols 1) S))", SIG)
    assert isinstance(p, Join)
    assert numbered_arity(p, SIG) == 3


def test_parse_basic_and_empty_projection():
    assert parse_plan("R", SIG) == Basic("R")
    p = parse_plan("(project (cols) R)", SIG)
    assert numbered_arity(p, SIG) == 0


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
                oracles._Tokens(text)
            assert (str(err.value), err.value.line, err.value.column) == (
                str(exc), exc.line, exc.column
            )
            continue
        toks = oracles._Tokens(text)
        got = []
        for tok in toks.tokens:
            where = toks.error("", tok)
            got.append((tok[0], tok[1], where.line, where.column))
        assert got == expected, repr(text)
        # The parser's own scan: the same words, kinds and positions.
        scanned = []
        for index, word in enumerate(plans._words(text)):
            where = plans._syntax_error(text, index, "")
            scanned.append((plans._word_kind(word), word, where.line, where.column))
        assert scanned == expected, repr(text)
        checked += 1
    assert checked >= 300


def test_parse_validates_against_signature():
    with pytest.raises(PlanSyntaxError):
        parse_plan("Q", SIG)
    with pytest.raises(ArityError):
        numbered_arity(parse_plan("(project (cols 3) R)"), SIG)
    with pytest.raises(ArityError):
        numbered_arity(parse_plan("(join (theta (1 5)) R S)"), SIG)


def test_arity_rules():
    assert numbered_arity(parse_plan("(join (theta) R (project (cols 1) S))"), SIG) == 3
    assert numbered_arity(parse_plan("(project (cols 1 1 2) R)"), SIG) == 3
    assert numbered_arity(Basic("R"), SIG) == 2


def _occurrence_texts(plan):
    numbers, distinct = number_subplans(plan)
    texts = plan_texts(distinct)
    return [texts[n] for n in numbers]


def test_subplans_postorder_occurrences():
    p = parse_plan("(join (theta (1 3)) R (project (cols 1) S))", SIG)
    assert _occurrence_texts(p) == ["R", "S", "(project (cols 1) S)", print_plan(p)]
    assert occurrence_paths(number_subplans(p)[1]) == [(0,), (1, 0), (1,), ()]
    # repeated subtrees appear once per occurrence
    q = parse_plan("(join (theta (1 3)) R R)", SIG)
    assert _occurrence_texts(q) == ["R", "R", print_plan(q)]
    assert plans.plan_size(q) == 3
    chain = parse_plan("(project (cols 1) (project (cols 1) (project (cols 1 2) R)))", SIG)
    assert plans.plan_size(chain) == 4


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
    # the closure reading, the only one, they all carry old information,
    # although no single column k makes every other one directly equated
    # into [m1] + {k} by a pair written in theta.
    p = parse_plan(
        "(join (theta (1 3) (3 4) (4 5) (5 6) (6 7)) R"
        + " (project (cols 1) S)" * 5 + ")",
        SIG,
    )
    assert is_well_behaved(p, SIG)[0]


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
    by_text = {text: e.cardinality for e, text in zip(trace.entries, trace.texts)}
    assert by_text["(project (cols 1) S)"] == 2
    assert trace.max_intermediate == 2


def test_trace_shape():
    data = rand_structure(random.Random(1), SIG, max_domain=3, max_rows=4)
    p = parse_plan("(join (theta (1 3)) R (project (cols 1) S))", SIG)
    trace = evaluate_naive(p, data)
    assert len(trace.entries) == len(subplans(p))
    assert trace.entries[-1].path == ()
    assert trace.max_intermediate >= max(e.cardinality for e in trace.entries)


def test_compiled_evaluator_runs_plans_that_are_not_well_behaved():
    data = Structure(SIG, range(3), {"R": [(0, 1), (1, 2), (2, 2)], "S": [(0, 0), (1, 2)]})
    plan = parse_plan("(join (theta) R S)", SIG)
    assert not is_well_behaved(plan, SIG)[0]
    fast, naive = evaluate_well_behaved(prepare(plan, data.signature), data), evaluate_naive(plan, data)
    assert fast.rows == naive.rows and len(fast.output) == 6


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
        fast = evaluate_well_behaved(prepare(plan, data.signature), data)
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
    trace = evaluate_well_behaved(prepare(p, data.signature), data)
    assert trace.internal_peak <= len(edges) * len(data.universe)
    assert trace.output == evaluate_naive(p, data).output
    assert trace.max_intermediate <= len(edges) * len(data.universe)


def test_operator_count():
    assert operator_count(parse_plan("R", SIG)) == 0
    assert operator_count(parse_plan("(project (cols 1) (select (theta) R))", SIG)) == 2
    assert operator_count(parse_plan("(join (theta) (select (theta) R) (select (theta) R))", SIG)) == 3


def _shared_plans(rng, count):
    """Random well-behaved plans, and each joined with itself on every
    column, so that every subtree repeats."""
    out = []
    while len(out) < count:
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=6)
        if not is_well_behaved(plan, sig)[0]:
            continue
        m = numbered_arity(plan, sig)
        twice = Join(theta_of([(i, m + i) for i in range(1, m + 1)]), (plan, plan))
        out += [(sig, plan), (sig, twice)]
    return out


def _keyed_cycle(n):
    """The directed n-cycle through column 1, projected to it."""
    pairs = " ".join(f"({2 * i + 2} {2 * i + 3})" for i in range(n - 1))
    text = f"(project (cols 1) (join (theta {pairs} ({2 * n} 1)){' E' * n}))"
    return parse_plan(text, SIG_E)


def _synthesized_keyed_cycle_text(n):
    return print_plan(optimize(prepare(_keyed_cycle(n), SIG_E), KeySet.unary({"E": 1})).plan)


def _synthesized_keyed_cycle(n):
    """The synthesized plan of the keyed n-cycle, printed and parsed again by
    the oracle parser, which does not intern: repeated subtrees share only
    their structure, not their objects."""
    return oracles.parse_plan(_synthesized_keyed_cycle_text(n), SIG_E)


def _object_count(plan):
    """The number of distinct node objects reachable from ``plan``."""
    seen, stack = set(), [plan]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(oracles.children_of(node))
    return len(seen)


def test_parse_interns_equal_subtrees():
    text = _synthesized_keyed_cycle_text(7)
    plan = parse_plan(text, SIG_E)
    distinct = len(number_subplans(plan)[1])
    assert _object_count(plan) == distinct
    unshared = oracles.parse_plan(text, SIG_E)
    assert unshared == plan
    assert _object_count(unshared) == plans.plan_size(plan) > 10 * distinct


def _functional_graph(rng, rows):
    f = [rng.randrange(rows) for _ in range(rows)]
    f[0] = 0
    return Structure(SIG_E, range(rows), {"E": list(enumerate(f))})


def _assert_same_trace(shared, oracle):
    assert [(e.path, e.rows) for e in shared.entries] == [(e.path, e.rows) for e in oracle.entries]
    assert shared.texts == [oracles.print_plan(e.node) for e in oracle.entries]
    assert shared.output == oracle.output
    assert shared.internal_peak == oracle.internal_peak
    assert shared.max_intermediate == oracle.max_intermediate


def test_number_subplans_numbers_structure(rng):
    for _ in range(300):
        one = rand_plan(rng, rand_signature(rng), max_operators=6)
        plan = Join(frozenset(), (one, rand_plan(rng, rand_signature(rng), max_operators=6), one))
        numbers, distinct = number_subplans(plan)
        # The parser builds the same numbering as it parses.
        assert plans._parse(print_plan(plan)) == (numbers, distinct)
        occurrences = subplans(plan)
        assert occurrence_paths(distinct) == [path for path, _ in occurrences]
        assert len(numbers) == len(occurrences)
        first = {}
        for (_, node), number in zip(occurrences, numbers):
            assert first.setdefault(number, node) == node
        assert len(distinct) == len({node for _, node in occurrences})
        assert [node for node, _ in distinct] == list(first.values())
        for number, (node, kids) in enumerate(distinct):
            assert all(k < number for k in kids)
            assert [distinct[k][0] for k in kids] == list(oracles.children_of(node))


def test_is_well_behaved_matches_per_occurrence_oracle(rng):
    for _ in range(400):
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=6)
        m = numbered_arity(plan, sig)
        for p in (plan, Join(theta_of([(1, m + 1)] if m else []), (plan, plan))):
            ok, offender = is_well_behaved(p, sig)
            want_ok, want_offender = is_well_behaved_per_occurrence(p, sig)
            assert ok == want_ok
            assert offender is want_offender


def test_shared_evaluation_matches_per_occurrence_oracle(rng):
    for sig, plan in _shared_plans(rng, 120):
        data = rand_structure(rng, sig, max_domain=5, max_rows=6)
        _assert_same_trace(
            evaluate_well_behaved(prepare(plan, data.signature), data),
            evaluate_well_behaved_per_occurrence(plan, data),
        )


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_shared_evaluation_matches_oracle_on_keyed_cycles(n):
    plan = _synthesized_keyed_cycle(n)
    data = _functional_graph(random.Random(n), 12)
    _assert_same_trace(
        evaluate_well_behaved(prepare(plan, data.signature), data),
        evaluate_well_behaved_per_occurrence(plan, data),
    )


def test_each_distinct_join_is_checked_and_evaluated_once(monkeypatch):
    plan = _synthesized_keyed_cycle(7)
    joins = {node for _, node in subplans(plan) if isinstance(node, Join)}
    occurrences = sum(isinstance(node, Join) for _, node in subplans(plan))
    assert occurrences > 2 * len(joins)
    counts = {"classes": 0, "compile": 0, "run": 0}
    originals = {
        "classes": plans._column_classes, "compile": plans._compile_join, "run": plans._run_join
    }

    def counted(name):
        def call(*args):
            counts[name] += 1
            return originals[name](*args)
        return call

    monkeypatch.setattr(plans, "_column_classes", counted("classes"))
    monkeypatch.setattr(plans, "_compile_join", counted("compile"))
    monkeypatch.setattr(plans, "_run_join", counted("run"))
    trace = evaluate_well_behaved(prepare(plan, SIG_E), _functional_graph(random.Random(7), 12))
    # One set of classes per distinct join decides its well-behavedness and
    # is compiled once; each program runs once.
    assert counts == {"classes": len(joins), "compile": len(joins), "run": len(joins)}
    assert len(trace.entries) == len(subplans(plan))


def test_identity_operators_reuse_their_childs_rows():
    """A projection onto every column in order, a selection with no
    identification and a one-child join with none return their child's
    rows themselves; the join still counts them in ``internal_peak``."""
    data = Structure(SIG, range(3), {"R": [(0, 1), (1, 2), (2, 2)], "S": [(0, 0)]})
    rows = data.relations["R"]
    for text in (
        "(project (cols 1 2) R)",
        "(select (theta (2 2)) (select (theta) R))",
        "(join (theta (1 1)) (join (theta) R))",
        "(project (cols 1 2) (join (theta) (project (cols 1 2) R)))",
    ):
        trace = evaluate_well_behaved(plans.parse_prepared(text, SIG), data)
        assert all(out is rows for out in trace.rows), text
        assert trace.internal_peak == (3 if "join" in text else 0)
    trace = evaluate_well_behaved(plans.parse_prepared("(join (theta (1 2)) R)", SIG), data)
    assert trace.output == frozenset({(2, 2)}) and trace.internal_peak == 1


def test_printed_subplans_are_counted_exactly(rng, monkeypatch):
    """The cap on printed subplan text counts exactly the characters that
    printing every occurrence's subplan takes."""
    for _ in range(150):
        sig = rand_signature(rng)
        one = rand_plan(rng, sig, max_operators=6)
        for plan in (one, Join(frozenset(), (one, one))):
            numbering = number_subplans(plan)
            texts = plan_texts(numbering[1])
            total = sum(len(texts[n]) for n in numbering[0])
            monkeypatch.setattr(plans, "PRINTED_SUBPLANS_CAP", total)
            plans.check_printed_subplans(numbering)
            monkeypatch.setattr(plans, "PRINTED_SUBPLANS_CAP", total - 1)
            with pytest.raises(ResourceCapError, match=f"occurrences print {total}$"):
                plans.check_printed_subplans(numbering)


def test_join_chain_is_capped_before_it_builds_a_step(monkeypatch):
    """A chain step of more cells (rows times slots) than the cap raises
    before it is built, whether or not the bound from the largest bucket is
    exact; at the cap it runs."""
    data = Structure(SIG, range(3), {"R": [(0, 1), (1, 2), (2, 2)], "S": [(0, 0), (1, 1)]})
    cross = parse_plan("(join (theta) R S R)", SIG)
    # R's key column 2 has buckets of 1 and 2 rows: the bound is 3 x 2 = 6
    # rows, the step 1 + 2 + 2 = 5 rows, each of 3 slots.
    keyed = parse_plan("(join (theta (2 4)) R R)", SIG)
    for plan, rows, slots in ((cross, 18, 6), (keyed, 5, 3)):
        cells = rows * slots
        monkeypatch.setattr(plans, "JOIN_STEP_CELLS_CAP", cells)
        trace = evaluate_well_behaved(prepare(plan, SIG), data)
        assert trace.internal_peak == rows and trace.rows == evaluate_naive(plan, data).rows
        monkeypatch.setattr(plans, "JOIN_STEP_CELLS_CAP", cells - 1)
        needs = rf"capped at {cells - 1} cells per step, a step needs {cells} \({rows} rows of {slots} slots\)$"
        with pytest.raises(ResourceCapError, match=needs):
            evaluate_well_behaved(prepare(plan, SIG), data)


def test_evaluators_agree_on_random_plans_that_are_not_well_behaved(rng):
    """The compiled program computes every subplan's rows as the naive
    evaluator does on plans whose joins it cannot bound."""
    agreed = 0
    while agreed < 200:
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=6)
        if is_well_behaved(plan, sig)[0]:
            continue
        data = rand_structure(rng, sig, max_domain=4, max_rows=5)
        assert evaluate_well_behaved(prepare(plan, sig), data).rows == evaluate_naive(plan, data).rows
        agreed += 1


def _random_digraph(rng, vertices, out_degree):
    arcs = [
        (a, b)
        for a in range(vertices)
        for b in rng.sample([v for v in range(vertices) if v != a], out_degree)
    ]
    return Structure(SIG_E, range(vertices), {"E": arcs})


def _assert_kernel_matches_old_chain(plan, data):
    """The compiled kernel and the old chain agree on a well-behaved plan;
    returns whether the plan is well-behaved."""
    if not is_well_behaved(plan, data.signature)[0]:
        return False
    _assert_same_trace(
        evaluate_well_behaved(prepare(plan, data.signature), data),
        evaluate_well_behaved_per_occurrence(plan, data),
    )
    return True


def test_join_kernel_matches_old_chain_on_triangle_witnesses():
    tri = parse_plan("(project (cols 1 2 4) (join (theta (2 3) (4 5) (6 1)) E E E))", SIG_E)
    core = chased_core(prepare(tri, SIG_E), KeySet.empty(), None)
    report = optimal_cwidth(core, KeySet.empty(), cap=oracles.UNCAPPED.width_universe)
    _, family = bag_witness(core, KeySet.empty(), report)
    plans_ = [tri, optimize(prepare(tri, SIG_E), KeySet.empty()).plan]
    for n in range(1, 11):
        data = family.generate(n)
        for plan in plans_:
            assert _assert_kernel_matches_old_chain(plan, data)
    assert len(data.relations["E"]) >= 100


@pytest.mark.parametrize("name, edges", PATTERN_EDGES.items())
def test_join_kernel_matches_old_chain_on_pattern_plans(name, edges):
    """The synthesized plans match the old chain.  The patterns are not
    well-behaved: their answer is the pattern's homomorphisms at the output
    vertices, and their chains follow the pattern's cycle, one walk per
    row.  Under the default cap the longest walks evaluated, near 400 MB,
    are the 8 x 4^9 rows of 10 slots of the Mobius 10-ladder on the
    8-vertex out-degree-4 graph and the 10 x 3^11 rows of 12 slots of the
    squared 12-cycle on the 10-vertex out-degree-3 one; the squared
    12-cycle's walks of 10 arcs on the out-degree-4 graph, 8 x 4^10 rows of
    11 slots, are refused."""
    rng = random.Random(name)
    pattern = pattern_plan(edges, (0, 1))
    graph = Structure(SIG_E, range(1 + max(map(max, edges))), {"E": edges})
    synthesized = optimize(prepare(pattern, SIG_E), KeySet.empty()).plan
    for vertices, out_degree in ((10, 3), (8, 4)):
        data = _random_digraph(rng, vertices, out_degree)
        assert len(data.relations["E"]) >= 30
        assert _assert_kernel_matches_old_chain(synthesized, data)
        assert not _assert_kernel_matches_old_chain(pattern, data)
        if (name, out_degree) == ("squared12", 4):
            rows = 8 * 4 ** 10
            with pytest.raises(ResourceCapError, match=rf"a step needs {rows * 11} \({rows} rows of 11 slots\)$"):
                evaluate_well_behaved(prepare(pattern, SIG_E), data)
        else:
            trace = evaluate_well_behaved(prepare(pattern, SIG_E), data)
            assert trace.output == homs_relation(graph, (0, 1), data) and trace.output
            peaks = {("mobius10", 3): 10 * 3 ** 9, ("mobius10", 4): 8 * 4 ** 9, ("squared12", 3): 10 * 3 ** 11}
            assert trace.internal_peak == peaks[name, out_degree]


@pytest.mark.parametrize("text", [
    "(project (cols) R)",
    "(project (cols 2) R)",
    "(project (cols 2 2 1) R)",
    "(select (theta) R)",
    "(select (theta (1 2)) R)",
    "(select (theta (2 1) (1 1)) T)",
    "(join (theta) R)",
    "(join (theta (1 2)) R)",
    "(join (theta (1 2) (2 3)) R S)",
    "(join (theta (1 3) (1 4)) R S)",
    "(join (theta (2 3)) R (project (cols 2) S))",
    "(join (theta (1 2)) (project (cols) S) R)",
    "(join (theta (1 3) (2 4) (5 1)) (project (cols 2 1) T) S (project (cols 1) R))",
])
def test_join_kernel_matches_old_chain_on_edge_cases(text, rng):
    sig = Signature({"R": 2, "S": 2, "T": 3})
    plan = parse_plan(text, sig)
    assert is_well_behaved(plan, sig)[0]
    for trial in range(40):
        data = rand_structure(rng, sig, max_domain=3, max_rows=0 if trial == 0 else 8)
        assert _assert_kernel_matches_old_chain(plan, data)


def test_trace_aggregates_match_its_entries(rng):
    """``output`` and ``max_intermediate`` read the per-subplan rows; the
    per-occurrence entries, built only on access, agree with them."""
    compiled = lambda p, data: evaluate_well_behaved(prepare(p, data.signature), data)  # noqa: E731
    checked = {evaluate_naive: 0, compiled: 0}
    for _ in range(200):
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=5)
        m = numbered_arity(plan, sig)
        twice = Join(theta_of([(i, m + i) for i in range(1, m + 1)]), (plan, plan))
        data = rand_structure(rng, sig, max_domain=4, max_rows=4)
        for p in (plan, twice):
            for evaluate in checked:
                trace = evaluate(p, data)
                assert "entries" not in trace.__dict__
                assert trace.output == trace.entries[-1].rows
                assert trace.max_intermediate == max(e.cardinality for e in trace.entries)
                assert len(trace.entries) == len(subplans(p))
                checked[evaluate] += 1
    assert min(checked.values()) >= 100


def test_evaluate_naive_matches_recursive_oracle(rng):
    for _ in range(300):
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=5)
        m = numbered_arity(plan, sig)
        twice = Join(theta_of([(i, m + i) for i in range(1, m + 1)]), (plan, plan))
        data = rand_structure(rng, sig, max_domain=4, max_rows=4)
        for p in (plan, twice):
            _assert_same_trace(evaluate_naive(p, data), oracles.evaluate_naive_recursive(p, data))


# ---------------------------------------------------------------------------
# The iterative walks against the recursive oracles
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """``fn(*args)``, or the type, text and position of the error it raised."""
    try:
        return fn(*args)
    except SpjError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _rand_raw_plan(rng, depth):
    """A random plan over R/2, S/2 and the unknown relation Q, whose
    projection and theta indices may fall outside their range, and whose
    joins may repeat a child."""
    if depth == 0 or rng.random() < 0.3:
        return Basic(rng.choice("RRRSSSQ"))
    op = rng.choice(("select", "project", "join", "join"))

    def theta():
        return theta_of((rng.randint(-1, 7), rng.randint(-1, 7)) for _ in range(rng.randint(0, 2)))

    if op == "select":
        return Select(theta(), _rand_raw_plan(rng, depth - 1))
    if op == "project":
        cols = tuple(rng.randint(-1, 5) for _ in range(rng.randint(0, 3)))
        return Project(cols, _rand_raw_plan(rng, depth - 1))
    kids = [_rand_raw_plan(rng, depth - 1) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        kids.insert(rng.randrange(len(kids) + 1), rng.choice(kids))
    return Join(theta(), tuple(kids))


def _mutations(rng, text):
    """``text``, a prefix of it and a copy with one character dropped."""
    cut = rng.randrange(len(text) + 1)
    drop = rng.randrange(len(text))
    return [text, text[:cut], text[:drop] + text[drop + 1:]]


def test_parse_matches_recursive_oracle(rng):
    gen = random.Random(5)
    alphabet = "()  \t\r\n\n;;-0123RSxy_#é"
    texts = ["".join(gen.choice(alphabet) for _ in range(gen.randint(0, 40))) for _ in range(3000)]
    for _ in range(300):
        plan = rand_plan(rng, rand_signature(rng), max_operators=6)
        texts += _mutations(rng, print_plan(plan))
        texts += _mutations(rng, print_plan(_rand_raw_plan(rng, 4)))
    parsed = 0
    for text in texts:
        for sig in (None, SIG):
            got = _outcome(parse_plan, text, sig)
            assert got == _outcome(oracles.parse_plan, text, sig), repr(text)
            parsed += not isinstance(got, tuple)
    assert parsed >= 600


# Characters and words of plan texts, to corrupt well-formed ones with.
_PLAN_CHARS = "()  \t\r\n;-0123RSTxy_#\u00e9"
_PLAN_WORDS = [
    "(", "(", ")", ")", "select", "project", "join", "theta", "cols",
    "R", "S", "Q", "1", "2", "3", "-1", " ", "\n", "; c\n", "x$",
]


@st.composite
def _plan_texts(draw):
    """A random well-formed plan's text, possibly with a few characters or
    words spliced in and a few cut out, or a random run of plan words; with
    the plan's signature."""
    rng = draw(st.randoms(use_true_random=False))
    sig = rand_signature(rng)
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(_PLAN_WORDS), max_size=30))), sig
    text = oracles.print_plan(rand_plan(rng, sig, max_operators=6))
    inserts = st.one_of(
        st.text(_PLAN_CHARS, max_size=3), st.sampled_from(_PLAN_WORDS).map(lambda w: f" {w} ")
    )
    edits = draw(st.lists(
        st.tuples(st.integers(0, len(text)), st.integers(0, 2), inserts), max_size=3
    ))
    for at, cut, insert in edits:
        text = text[:at] + insert + text[at + cut:]
    return text, sig


@settings(max_examples=400, deadline=None)
@given(_plan_texts())
def test_parse_matches_recursive_oracle_hypothesis(text_and_sig):
    text, sig = text_and_sig
    for signature in (None, sig, SIG):
        got = _outcome(parse_plan, text, signature)
        assert got == _outcome(oracles.parse_plan, text, signature)


def test_print_and_validate_match_recursive_oracles(rng):
    valid = 0
    for _ in range(1500):
        plan = _rand_raw_plan(rng, 4)
        assert print_plan(plan) == oracles.print_plan(plan)
        got = _outcome(numbered_arity, plan, SIG)
        assert got == _outcome(oracles.validate_plan, plan, SIG), oracles.print_plan(plan)
        valid += isinstance(got, int)
    assert 100 <= valid <= 1400


def test_long_subplans_are_printed_piece_by_piece():
    """Subplans longer than the printer keeps whole, a long relation name
    among them, print as the recursive oracle prints them."""
    long_name = "R" * (2 * plans._KEPT_TEXT)
    shared = parse_plan("(project (cols 2 1) (join (theta (1 2)) R S))")
    for _ in range(4):
        shared = Join(theta_of([(1, 3)]), (shared, Select(frozenset(), shared), Basic(long_name)))
    text = print_plan(shared)
    assert len(text) > 10 * plans._KEPT_TEXT
    assert text == oracles.print_plan(shared)
    assert parse_plan(text) == shared


def test_deep_plans_need_no_recursion():
    depth = 2000
    text = "(project (cols 1 2) (join (theta (2 3)) " * depth + "R" + " R))" * depth
    plan = parse_plan(text, SIG)
    # A failing assert must not show the plan: its repr recurses.
    printed, arity, size, operators = (
        print_plan(plan), numbered_arity(plan, SIG), plans.plan_size(plan), operator_count(plan)
    )
    assert (printed == text, arity, size, operators) == (True, 2, 3 * depth + 1, 2 * depth)
    numbers, distinct = number_subplans(plan)
    assert len(distinct) == 2 * depth + 1
    assert occurrence_paths(distinct)[-3:] == [(0, 1), (0,), ()]
    assert is_well_behaved(plan, SIG)[0]


# ---------------------------------------------------------------------------
# Prepared plans
# ---------------------------------------------------------------------------


def test_prepared_plans_are_kept_per_text_and_signature(monkeypatch):
    parsed = count_parses(monkeypatch)
    text = "(join (theta) R R)"
    narrow, wide = Signature({"R": 2}), Signature({"R": 3})
    a, b = plans.parse_prepared(text, narrow), plans.parse_prepared(text, wide)
    assert (a.arities[-1], b.arities[-1]) == (4, 6)
    assert plans.parse_prepared(text, Signature({"R": 2})) is a
    assert plans.parse_prepared(text, wide) is b
    assert plans.parse_prepared.cache_info().currsize == len(parsed) == 2


def test_failing_plans_are_not_kept(monkeypatch):
    parsed = count_parses(monkeypatch)
    texts = ("(join (theta) R", "(project (cols 3) R)", "(join (theta) Q)")
    for text in texts * 2:
        with pytest.raises(SpjError):
            plans.parse_prepared(text, SIG)
    assert len(parsed) == 2 * len(texts)
    assert plans.parse_prepared.cache_info().currsize == 0


def test_prepared_plans_are_evicted_at_the_bound(monkeypatch):
    parsed = count_parses(monkeypatch)
    bound = plans.PREPARED_PLANS_CACHED
    texts = [f"(project (cols{' 1' * n}) R)" for n in range(1, bound + 2)]
    prepared = [plans.parse_prepared(text, SIG) for text in texts]
    assert plans.parse_prepared.cache_info().currsize == bound
    assert all(plans.parse_prepared(t, SIG) is p for t, p in zip(texts[1:], prepared[1:]))
    assert len(parsed) == bound + 1
    assert plans.parse_prepared(texts[0], SIG) is not prepared[0]
    assert len(parsed) == bound + 2


def test_prepared_plan_evaluates_like_a_fresh_one(rng):
    """A prepared plan's program, compiled once, evaluates each data like a
    plan prepared for that call."""
    for _ in range(60):
        sig = rand_signature(rng)
        text = print_plan(rand_plan(rng, sig, max_operators=6))
        prepared = plans.parse_prepared(text, sig)
        for _ in range(3):
            data = rand_structure(rng, sig)
            kept = evaluate_well_behaved(prepared, data)
            fresh = evaluate_well_behaved(prepare(parse_plan(text, sig), sig), data)
            assert (kept.rows, kept.internal_peak) == (fresh.rows, fresh.internal_peak)
