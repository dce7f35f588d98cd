"""Plan representations and decompositions: soundness, structure, containment."""

import random

import pytest

from spjopt import (
    KeySet,
    OpenStructure,
    Signature,
    SignatureError,
    Structure,
    TreeDecomposition,
    build_representation,
    check_tree_decomposition,
    cwidth_of_decomposition,
    evaluate_naive,
    homs_relation,
    hypergraph_of,
    optimize,
    parse_plan,
    prepare,
)
from spjopt import errors, plans
from spjopt.errors import ResourceCapError
from spjopt.plans import subplan_texts

from conftest import pattern_plan, rand_plan, rand_signature, rand_structure
from oracles import (
    alpha,
    check_containment_property,
    dfs_rerooted,
    eager_build_representation,
    numbered_arity,
    print_plan,
    subplans,
)

SIG = Signature({"R": 2, "S": 2})


@pytest.fixture
def example():
    plan = parse_plan("(join (theta (1 3)) R (project (cols 1) S))", SIG)
    rep, dec = build_representation(prepare(plan, SIG))
    return plan, rep, dec


def test_example_representation_shape(example):
    plan, rep, dec = example
    struct = rep.open.structure
    assert len(struct.universe) == 3
    assert len(struct.relations["R"]) == 1
    assert len(struct.relations["S"]) == 1
    (r_row,) = struct.relations["R"]
    (s_row,) = struct.relations["S"]
    assert r_row[0] == s_row[0]  # the join identified the two first columns
    assert rep.open.tuple == (r_row[0], r_row[1], s_row[0])


def test_example_decomposition_bags(example):
    plan, rep, dec = example
    bags = sorted(tuple(sorted(bag)) for bag in dec.chi.values())
    (r_row,) = rep.open.structure.relations["R"]
    (s_row,) = rep.open.structure.relations["S"]
    a, b = r_row
    d = s_row[1]
    assert bags == sorted(
        [tuple(sorted({a, b})), tuple(sorted({a, b})), (a,), tuple(sorted({a, d}))]
    )
    assert check_tree_decomposition(hypergraph_of(rep.open), dec.edges, dec.chi)


def test_contracted_merges_bags_into_neighbours_that_hold_them():
    """A bag inside its parent's goes (an equal one too, keeping the
    parent), and a parent inside a child's is replaced by that child, which
    takes its parent and its other children, and becomes the root when the
    parent was."""
    fs = frozenset
    chain = TreeDecomposition({0: 1, 1: 2, 2: None}, 2, {0: fs({1}), 1: fs({1, 2}), 2: fs({2})})
    assert chain.contracted() == TreeDecomposition({1: None}, 1, {1: fs({1, 2})})
    equal = TreeDecomposition({0: 1, 1: None}, 1, {0: fs({1}), 1: fs({1})})
    assert equal.contracted() == TreeDecomposition({1: None}, 1, {1: fs({1})})
    chi = {0: fs({1, 2}), 1: fs({2, 3, 4}), 2: fs({2, 3}), 3: fs({3, 5})}
    star = TreeDecomposition({0: 2, 1: 2, 2: 3, 3: None}, 3, chi)
    want = TreeDecomposition({0: 1, 1: 3, 3: None}, 3, {n: chi[n] for n in (0, 1, 3)})
    assert star.contracted() == want
    # A bag re-attached to a new parent is checked against it too.
    late = TreeDecomposition({0: 1, 1: 2, 2: None}, 2, {0: fs({1, 2}), 1: fs({1}), 2: fs({1, 2, 3})})
    assert late.contracted() == TreeDecomposition({2: None}, 2, {2: fs({1, 2, 3})})
    assert chain.contracted().contracted() == chain.contracted()


def test_rerooting_turns_one_path_around(rng):
    """Re-rooting a random tree at each of its nodes gives the record that
    a depth-first search from the new root gives
    (``oracles.dfs_rerooted``): the same parent map, root and bags, so the
    same edges and children."""
    for _ in range(200):
        ids = rng.sample(range(100), rng.randint(1, 25))
        parent = {ids[0]: None}
        for i, node in enumerate(ids[1:], 1):
            parent[node] = ids[rng.randrange(i)]
        chi = {node: frozenset(rng.sample(range(9), rng.randint(0, 3))) for node in rng.sample(ids, len(ids))}
        dec = TreeDecomposition(parent, ids[0], chi)
        for node in ids:
            got, want = dec.rerooted(node), dfs_rerooted(dec, node)
            assert got == want
            assert sorted(got.edges) == sorted(want.edges) == sorted(dec.edges)
            assert got.children() == want.children()


def test_basic_plan_representation():
    rep, dec = build_representation(prepare(parse_plan("R", SIG), SIG))
    assert len(rep.open.structure.universe) == 2
    assert rep.open.tuple == tuple(sorted(rep.open.structure.universe))
    assert len(dec.nodes) == 1


def test_projection_representation_keeps_structure():
    plan = parse_plan("(project (cols 1) R)", SIG)
    rep, dec = build_representation(prepare(plan, SIG))
    assert len(rep.open.structure.universe) == 2
    assert len(rep.open.tuple) == 1
    assert len(dec.nodes) == 2
    assert dec.parent[alpha(plan)[(0,)]] == alpha(plan)[()] == dec.root


def test_alpha_is_a_bijection_onto_nodes(rng):
    for _ in range(40):
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=6)
        rep, dec = build_representation(prepare(plan, sig))
        occ = subplans(plan)
        node_of = alpha(plan)
        assert len(dec.nodes) == len(occ)
        assert sorted(node_of.values()) == list(dec.nodes)
        assert node_of[()] == dec.root
        for path, q in occ:
            node = node_of[path]
            assert frozenset(dec.beta[node]) == dec.chi[node]
            assert dec.node_text[node] == print_plan(q)
            assert dec.parent[node] == (node_of[path[:-1]] if path else None)
        assert dec.beta[dec.root] == rep.open.tuple


def test_representation_is_always_a_tree_decomposition(rng):
    for _ in range(40):
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=6)
        rep, dec = build_representation(prepare(plan, sig))
        assert check_tree_decomposition(hypergraph_of(rep.open), dec.edges, dec.chi)


def test_representation_soundness_random(rng):
    for _ in range(60):
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=5)
        rep, _ = build_representation(prepare(plan, sig))
        for _ in range(3):
            data = rand_structure(rng, sig, max_domain=4, max_rows=5)
            assert homs_relation(
                rep.open.structure, rep.open.tuple, data
            ) == evaluate_naive(plan, data).output


def test_representation_size_bound(rng):
    """Universe never exceeds the total arity occurrences in the plan."""
    for _ in range(40):
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=6)
        rep, _ = build_representation(prepare(plan, sig))
        total_arity = sum(
            sig.arity(node.relation)
            for _, node in subplans(plan)
            if hasattr(node, "relation")
        )
        assert len(rep.open.structure.universe) <= max(total_arity, 1)


def test_containment_property_holds_for_built_decompositions(rng):
    for _ in range(30):
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=5)
        rep, dec = build_representation(prepare(plan, sig))
        for _ in range(2):
            data = rand_structure(rng, sig, max_domain=4, max_rows=4)
            assert check_containment_property(plan, rep, dec, data)


def test_containment_equality_at_root(example, rng):
    plan, rep, dec = example
    for _ in range(10):
        data = rand_structure(rng, SIG, max_domain=4, max_rows=5)
        assert homs_relation(rep.open.structure, rep.open.tuple, data) == evaluate_naive(
            plan, data
        ).output


def test_adversarial_beta_breaks_containment(rng):
    """Swapping two bags' beta tuples falsifies containment on some data."""
    plan = parse_plan("(join (theta) R S)", SIG)
    rep, dec = build_representation(prepare(plan, SIG))
    nodes = [n for n in dec.beta if n != dec.root]
    a, b = nodes[0], nodes[1]
    dec.beta[a], dec.beta[b] = dec.beta[b], dec.beta[a]
    dec.chi[a] = frozenset(dec.beta[a])
    dec.chi[b] = frozenset(dec.beta[b])
    broken = False
    check_rng = random.Random(5)
    for _ in range(40):
        data = rand_structure(check_rng, SIG, max_domain=3, max_rows=4)
        if not check_containment_property(plan, rep, dec, data):
            broken = True
            break
    assert broken


def test_check_tree_decomposition_conditions():
    tri = Structure(Signature({"E": 2}), [0, 1, 2], {"E": [(0, 1), (1, 2), (2, 0)]})
    h = hypergraph_of(OpenStructure(tri, (0, 1, 2)))
    # single bag with every vertex
    assert check_tree_decomposition(h, [], {0: frozenset({0, 1, 2})})
    # three pair-bags on a path: the tuple edge is uncovered and vertex 0
    # induces a disconnected subtree
    chi = {0: frozenset({0, 1}), 1: frozenset({1, 2}), 2: frozenset({2, 0})}
    assert not check_tree_decomposition(h, [(0, 1), (1, 2)], chi)
    # also reject graphs that are not trees
    assert not check_tree_decomposition(h, [(0, 1)], chi)
    assert not check_tree_decomposition(
        h, [(0, 1), (1, 2), (2, 0)], chi
    )


def test_decomposition_node_text_matches_subplans(example):
    plan, rep, dec = example
    texts = {dec.node_text[node] for node in dec.nodes}
    assert texts == {print_plan(q) for _, q in subplans(plan)}
    assert "R" in texts and "S" in texts


def test_node_text_is_capped_before_any_text_is_built(monkeypatch):
    """Past the printed-subplans cap, ``subplan_texts`` and the
    decomposition's ``node_text`` raise after the length pass, which prints
    each operator over empty children, and before any subplan's text."""
    sig = Signature({"E": 2})
    plan = parse_plan("(project (cols 1 2 4) (join (theta (2 3) (4 5) (6 1)) E E E))", sig)
    prepared = prepare(plan, sig)
    _, dec = build_representation(prepared)
    calls = []
    node_text = plans._node_text
    monkeypatch.setattr(plans, "_node_text", lambda node, kids: calls.append(kids) or node_text(node, kids))
    monkeypatch.setattr(errors, "PRINTED_SUBPLANS_CAP", 10)
    for texts in (lambda: subplan_texts(prepared.numbering), lambda: dec.node_text):
        with pytest.raises(ResourceCapError, match="the plan's occurrences print 102$"):
            texts()
    assert calls and not any(any(kids) for kids in calls)


def test_arity_of_representation_tuple_matches_plan(rng):
    for _ in range(30):
        sig = rand_signature(rng)
        plan = rand_plan(rng, sig, max_operators=5)
        rep, _ = build_representation(prepare(plan, sig))
        assert len(rep.open.tuple) == numbered_arity(plan, sig)


def _assert_matches_eager(plan, sig):
    rep, dec = build_representation(prepare(plan, sig))
    want_rep, want = eager_build_representation(plan, sig)
    got_struct, want_struct = rep.open.structure, want_rep.open.structure
    assert got_struct.universe == want_struct.universe
    assert got_struct.relations == want_struct.relations
    assert got_struct.names == want_struct.names
    assert rep.open.tuple == want_rep.open.tuple
    assert dec.root == want.root
    assert dec.parent == want.parent
    assert dec.beta == want.beta
    assert dec.chi == want.chi
    assert dec.node_text == want.node_text


def test_lean_representation_matches_eager_reference(rng):
    """The one-loop representation and its derived decomposition equal the
    eager reference's, on random plans and on the synthesized plans of the
    keyed directed 4- to 8-cycles."""
    for _ in range(80):
        sig = rand_signature(rng)
        _assert_matches_eager(rand_plan(rng, sig, max_operators=8), sig)
    sig = Signature({"E": 2})
    for n in range(4, 9):
        cycle = pattern_plan([(i, (i + 1) % n) for i in range(n)], (0,))
        _assert_matches_eager(optimize(prepare(cycle, sig), KeySet({"E": 1}.items())).plan, sig)


@pytest.mark.parametrize("parent, chi", [
    ({}, {}),
    ({0: None, 1: 0}, {0: frozenset({0, 1, 2})}),
    ({0: 1, 1: 0, 2: None}, {0: frozenset({0, 1}), 1: frozenset({1, 2}), 2: frozenset({2})}),
], ids=["no-bags", "edge-to-a-node-without-a-bag", "disconnected"])
def test_cwidth_of_decomposition_refuses_a_non_decomposition(parent, chi):
    """``cwidth_of_decomposition`` checks its decomposition first: no bags
    over a nonempty hypergraph, a tree edge to a node that has no bag, and
    a parent map whose tree is not connected (one cycle and a lone root)
    are each refused."""
    struct = Structure(SIG, [0, 1, 2], {"R": [(0, 1)], "S": [(1, 2)]})
    with pytest.raises(SignatureError, match="^not a tree decomposition of the open structure$"):
        cwidth_of_decomposition(OpenStructure(struct, (0,)), KeySet.empty(), TreeDecomposition(parent, 0, chi))
