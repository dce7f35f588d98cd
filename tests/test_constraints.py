"""Keys and the chase: satisfaction, confluence, idempotence, semantics."""

import random

import pytest

from spjopt import (
    KeyConstraintError,
    KeySet,
    OpenStructure,
    Signature,
    Structure,
    chase,
    homs_relation,
    satisfies_keys,
)
from spjopt.constraints import key_closure

from conftest import (
    rand_keys,
    rand_multi_keys,
    rand_open_structure,
    rand_signature,
    rand_structure,
    several_keys,
)
from oracles import chase_changed, check_isomorphic, random_chase, stepwise_chase

SIG_R = Signature({"R": 2})
KEY_R1 = KeySet({"R": 1}.items())


def test_keyset_validation():
    for positions in ((), (0,), (1,), (1, 2)):
        with pytest.raises(KeyConstraintError, match="must be an int"):
            KeySet([("R", positions)])
    ks = KeySet([("R", 2), ("S", 1), ("R", 1), ("R", 2)])
    assert ks.keys == {("R", 1), ("R", 2), ("S", 1)}
    assert ks.for_relation("R") == (1, 2) and ks.for_relation("T") == ()
    assert KeySet({"R": 1}.items()) == KeySet([("R", 1)]) == KEY_R1
    with pytest.raises(KeyConstraintError):
        KEY_R1.validate_for(Signature({"S": 1}))
    with pytest.raises(KeyConstraintError):
        KeySet({"R": 3}.items()).validate_for(SIG_R)


def test_satisfies_keys_basic():
    bad = Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (0, 2)]})
    good = Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (2, 1)]})
    assert not satisfies_keys(bad, KEY_R1)
    assert satisfies_keys(good, KEY_R1)
    assert satisfies_keys(Structure(SIG_R, [], {}), KEY_R1)


def test_keyset_rejects_bad_positions():
    """A position is an int of at least 1; nothing is truncated into one."""
    for bad in (1.5, True, False, "2", ("2",)):
        with pytest.raises(KeyConstraintError, match="must be an int"):
            KeySet([("R", bad)])
    for bad in (0, -1):
        with pytest.raises(KeyConstraintError, match="must be 1-based"):
            KeySet([("R", bad)])


def test_satisfies_each_of_several_keys():
    sig = Signature({"R": 3})
    ks = KeySet([("R", 1), ("R", 3)])
    ok = Structure(sig, [0, 1, 2], {"R": [(0, 1, 2), (1, 1, 0)]})
    bad = Structure(sig, [0, 1, 2], {"R": [(0, 1, 2), (1, 1, 2)]})
    assert satisfies_keys(ok, ks)
    assert not satisfies_keys(bad, ks)
    assert satisfies_keys(bad, KeySet([("R", 1)]))


def test_chase_merges_dependents():
    s = Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (0, 2)]}, {0: "a", 1: "b", 2: "c"})
    res = chase(OpenStructure(s, (1,)), KEY_R1)
    assert res.result.tuple == (1,)
    assert res.result.structure.relations["R"] == frozenset({(0, 1)})
    assert res.merge_map == {0: 0, 1: 1, 2: 1}
    assert satisfies_keys(res.result.structure, KEY_R1)


def test_chase_fixpoint_is_identity():
    s = Structure(SIG_R, [0, 1], {"R": [(0, 1)]})
    res = chase(OpenStructure(s, (0,)), KEY_R1)
    assert not chase_changed(res)
    assert res.result.structure == s


def test_chase_two_rounds():
    sig = Signature({"R": 2, "S": 2})
    ks = KeySet({"R": 1, "S": 1}.items())
    s = Structure(sig, range(5), {"R": [(0, 1), (0, 2)], "S": [(1, 3), (2, 4)]})
    res = chase(OpenStructure(s, ()), ks)
    out = res.result.structure
    assert len(out.universe) == 3
    assert len(out.relations["R"]) == 1 and len(out.relations["S"]) == 1
    assert satisfies_keys(out, ks)


def test_chase_accepts_plain_structures():
    s = Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (0, 2)]})
    res = chase(s, KEY_R1)
    assert isinstance(res.result, Structure)
    assert satisfies_keys(res.result, KEY_R1)


def test_chase_satisfies_keys_randomized(rng):
    for _ in range(60):
        sig = rand_signature(rng)
        keys = rand_keys(rng, sig)
        s = rand_structure(rng, sig, max_domain=6, max_rows=6)
        res = chase(s, keys)
        assert satisfies_keys(res.result, keys)
        # merge map is idempotent and lands in the result universe
        out_universe = set(res.result.universe)
        for src, dst in res.merge_map.items():
            assert res.merge_map[dst] == dst
            assert dst in out_universe


def test_chase_confluence_random_orders(rng):
    for trial in range(30):
        sig = rand_signature(rng)
        keys = rand_keys(rng, sig)
        open_s = rand_open_structure(rng, sig, max_domain=6, max_rows=6)
        ours = chase(open_s, keys).result
        for seed in range(5):
            other = random_chase(open_s, keys, random.Random(1000 * trial + seed))
            assert check_isomorphic(ours, other)


def test_chase_idempotence(rng):
    for _ in range(30):
        sig = rand_signature(rng)
        keys = rand_keys(rng, sig)
        open_s = rand_open_structure(rng, sig, max_domain=6, max_rows=6)
        first = chase(open_s, keys)
        second = chase(first.result, keys)
        assert not chase_changed(second)
        assert second.result == first.result


def test_chase_preserves_semantics_on_satisfying_data(rng):
    """On key-satisfying data, the chased structure evaluates identically."""
    checked = 0
    for _ in range(40):
        sig = rand_signature(rng, max_relations=2, max_arity=2)
        keys = rand_keys(rng, sig, prob=0.8)
        open_s = rand_open_structure(rng, sig, max_domain=4, max_rows=4)
        chased = chase(open_s, keys).result
        for _ in range(3):
            data = chase(rand_structure(rng, sig, max_domain=4, max_rows=5), keys).result
            before = homs_relation(open_s.structure, open_s.tuple, data)
            after = homs_relation(chased.structure, chased.tuple, data)
            assert before == after
            checked += 1
    assert checked > 50


def test_chase_matches_stepwise_oracle(rng):
    """Same merge map (in order), structure and names as merging one
    violation at a time, with one key and with several keys per relation."""
    merged = merged_several = 0
    for trial in range(300):
        sig = rand_signature(rng, max_relations=3, max_arity=3)
        keys = rand_keys(rng, sig, prob=0.7) if trial % 2 else rand_multi_keys(rng, sig)
        if trial % 3:
            value = rand_open_structure(rng, sig, max_domain=7, max_rows=8)
        else:
            value = rand_structure(rng, sig, max_domain=7, max_rows=8)
        res = chase(value, keys)
        want, want_map = stepwise_chase(value, keys)
        assert list(res.merge_map.items()) == list(want_map.items())
        assert res.result == want
        got_s = res.result.structure if isinstance(value, OpenStructure) else res.result
        want_s = want.structure if isinstance(value, OpenStructure) else want
        assert got_s.names == want_s.names
        merged += chase_changed(res)
        merged_several += chase_changed(res) and several_keys(keys, sig)
    assert merged >= 100 and merged_several >= 25, (merged, merged_several)


def _identification_classes(universe, pairs) -> dict[int, int]:
    """Each element's class under the equivalence that ``pairs`` generate,
    named by its smallest element."""
    cls = {e: e for e in universe}
    for a, b in pairs:
        lo, hi = sorted((cls[a], cls[b]))
        cls = {e: lo if c == hi else c for e, c in cls.items()}
    return cls


def test_chase_with_identified_pairs_is_the_stepwise_chase_of_their_quotient(rng):
    """On universes whose ids have gaps (some negative), ``key_closure``
    over the positions of the sorted universe, started from identified
    pairs, equals the one-violation-at-a-time chase of ``value`` with the
    identification classes already merged: the same structure, names and
    output tuple, and a merge map that sends every element, identified or
    not, to the smallest element of its class.  ``chase`` of ``value``,
    which identifies no pair, equals the stepwise chase of ``value``."""
    merged_by_keys = identified_only = 0
    for trial in range(300):
        sig = rand_signature(rng, max_relations=3, max_arity=3)
        keys = KeySet.empty() if trial % 3 == 0 else rand_keys(rng, sig, prob=0.7)
        base = rand_open_structure(rng, sig, max_domain=7, max_rows=8)
        low = -10 if trial % 4 == 0 else 0
        ids = sorted(rng.sample(range(low, 40), len(base.structure.universe)))
        spread = dict(zip(base.structure.universe, ids))
        struct = base.structure.apply_map(spread)
        is_open = bool(trial % 2)
        value = OpenStructure(struct, [spread[e] for e in base.tuple]) if is_open else struct
        universe = struct.universe
        draws = rng.randint(0, 3) if universe else 0
        pairs = [(rng.choice(universe), rng.choice(universe)) for _ in range(draws)]
        cls = _identification_classes(universe, pairs)
        quotient = struct.apply_map(cls)
        if is_open:
            quotient = OpenStructure(quotient, [cls[e] for e in value.tuple])
        want, want_map = stepwise_chase(quotient, keys)

        position = {e: i for i, e in enumerate(universe)}
        rows = {name: [tuple(position[e] for e in row) for row in rel] for name, rel in struct.relations.items()}
        parent = key_closure(len(universe), rows, keys, [(position[a], position[b]) for a, b in pairs])
        merge = {e: universe[r] for e, r in zip(universe, parent)}
        got_s = struct.apply_map(merge)
        got = OpenStructure(got_s, [merge[e] for e in value.tuple]) if is_open else got_s
        assert got == want
        assert got_s.names == (want.structure if is_open else want).names
        for e in universe:
            rep = merge[e]
            assert rep == want_map[cls[e]]
            assert rep == min(x for x in universe if merge[x] == rep)
        assert satisfies_keys(got_s, keys)

        res = chase(value, keys)
        plain, plain_map = stepwise_chase(value, keys)
        assert res.result == plain and list(res.merge_map.items()) == list(plain_map.items())
        res_s, plain_s = (res.result.structure, plain.structure) if is_open else (res.result, plain)
        assert res_s.names == plain_s.names
        merged_by_keys += want_map != {e: e for e in want_map}
        identified_only += not keys and cls != {e: e for e in universe}
    assert merged_by_keys >= 60 and identified_only >= 40, (merged_by_keys, identified_only)
