"""File formats and the command-line front end."""

import argparse
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spjopt import (
    Caps,
    KeySet,
    OpenStructure,
    ResourceCapError,
    Signature,
    Structure,
    build_representation,
    chase,
    chased_core,
    compute_core,
    homs_relation,
    is_well_behaved,
    optimize,
    parse_plan,
    prepare,
    print_plan,
)
from spjopt import cli, plans, represent, serialize, synthesis
from spjopt.cli import main
from spjopt.errors import FormatError
from spjopt.errors import JOIN_STEP_WORDS_CAP, PRINTED_SUBPLANS_CAP, REPRESENTATION_ELEMENTS_CAP
from spjopt.serialize import (
    keys_from_text,
    plan_file_from_text,
    structure_from_json,
    structure_to_json,
)

from conftest import count_parses, mobius_ladder, pattern_plan, squared_cycle
from oracles import keys_to_text

SIG = Signature({"E": 2})

TRI_PLAN = """\
rel E 2
(project (cols 1 2 4)
  (join (theta (2 3) (4 5) (6 1)) E E E))
"""

DATA = {
    "signature": {"E": 2},
    "universe": ["a", "b", "c", "d"],
    "relations": {"E": [["a", "b"], ["b", "c"], ["c", "a"], ["a", "d"]]},
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "tri.plan").write_text(TRI_PLAN)
    (tmp_path / "empty.keys").write_text("")
    (tmp_path / "r1.keys").write_text("# comment\nkey E 1\n")
    (tmp_path / "d.json").write_text(json.dumps(DATA))
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Formats
# ---------------------------------------------------------------------------


def test_structure_json_roundtrip():
    open_s = OpenStructure(
        Structure(SIG, [0, 1], {"E": [(0, 1)]}, {0: "a", 1: "b"}), (0, 1)
    )
    doc = structure_to_json(open_s)
    assert doc["tuple"] == ["a", "b"]
    back = structure_from_json(doc)
    assert back == open_s
    closed = structure_from_json({k: v for k, v in doc.items() if k != "tuple"})
    assert isinstance(closed, Structure)


def test_structure_json_rejects_garbage():
    with pytest.raises(FormatError):
        structure_from_json({"universe": []})
    with pytest.raises(FormatError):
        structure_from_json({"signature": {"E": 2}, "universe": ["a", "a"], "relations": {}})
    with pytest.raises(FormatError):
        structure_from_json(
            {"signature": {"E": 2}, "universe": ["a"], "relations": {"E": [["a", "zzz"]]}}
        )
    with pytest.raises(FormatError):
        structure_from_json(
            {"signature": {"E": 2}, "universe": ["a"], "relations": {"F": []}}
        )


def test_structure_json_reads_rows_of_non_string_elements_by_their_str():
    """Rows are read by name; an element that is not a string is read by its
    ``str()``, and one that names no element is an error naming it."""
    doc = {"signature": {"E": 2}, "universe": ["1", "2", "a"], "relations": {"E": [["a", "2"]]}}
    for rows, expected in (([[1, "2"]], {(0, 1)}), ([["a", "a"], [2, 1]], {(2, 2), (1, 0)})):
        assert structure_from_json({**doc, "relations": {"E": rows}}).relations["E"] == expected
    for rows, message in (
        ([["a", "2"], [3, "a"]], "unknown element '3' in relation 'E'"),
        ([[["a"], "a"]], """unknown element "['a']" in relation 'E'"""),
        ([None], "bad structure document: 'NoneType' object is not iterable"),
    ):
        with pytest.raises(FormatError) as info:
            structure_from_json({**doc, "relations": {"E": rows}})
        assert str(info.value) == message


def test_named_rows_match_sorted_name_rows(rng):
    """Naming rows after sorting their ids gives the rows of sorting the
    name lists, on loaded structures whose names sort differently as
    strings and as numbers ("10" before "9")."""
    pool = [str(i) for i in range(40)] + ["a", "B", "x_1", "x_10", "x_9", "é"]
    for _ in range(200):
        universe = rng.sample(pool, rng.randint(1, 25))
        rows = [[rng.choice(universe) for _ in range(3)] for _ in range(rng.randint(0, 30))]
        data = structure_from_json({"signature": {"R": 3}, "universe": universe, "relations": {"R": rows}})
        ids = data.relations["R"]
        assert serialize.named_rows(ids, data.names) == sorted([data.names[e] for e in row] for row in ids)
    assert serialize.named_rows({(1,), (0,)}, {0: "10", 1: "9"}) == [["10"], ["9"]]


def test_named_rows_sort_the_id_rows_as_sorted_does(rng):
    """``named_rows`` sorts its id rows one column at a time; the order is
    that of ``sorted`` on random id rows of widths 0 to 4, with few and
    many distinct ids per column."""
    for _ in range(300):
        width, ids = rng.randint(0, 4), rng.choice([2, 5, 40])
        rows = frozenset(tuple(rng.randrange(ids) for _ in range(width)) for _ in range(rng.randint(0, 60)))
        assert serialize.named_rows(rows, {}).rows == tuple(sorted(rows))


def test_keys_file_roundtrip():
    ks = keys_from_text("key E 1\n# note\n\nkey R 2\n")
    assert ks == KeySet({"E": 1, "R": 2}.items())
    assert keys_from_text(keys_to_text(ks)) == ks
    with pytest.raises(FormatError):
        keys_from_text("key E\n")
    with pytest.raises(FormatError):
        keys_from_text("key E one\n")


def test_plan_file_header():
    sig, body = plan_file_from_text(TRI_PLAN)
    assert sig == Signature({"E": 2})
    parse_plan(body, sig)
    none_sig, body2 = plan_file_from_text("(project (cols) R)")
    assert none_sig is None
    with pytest.raises(FormatError):
        plan_file_from_text("rel E two\n(project (cols) E)")


def test_plan_file_header_declares_each_relation_with_one_arity(workdir, capsys):
    """A relation declared twice with two arities is refused by the loader,
    by ``check`` and by ``equiv`` (exit 2); a repeated identical line is
    accepted."""
    message = "header declares 'R' with arity 2 and with arity 3"
    with pytest.raises(FormatError, match=f"^{message}$"):
        plan_file_from_text("rel R 2\nrel R 3\nR\n")
    assert plan_file_from_text("rel R 2\n# again\nrel R 2\nR\n") == (Signature({"R": 2}), "R")
    (workdir / "twice.plan").write_text("rel R 2\nrel R 3\nR\n")
    (workdir / "r.plan").write_text("rel R 2\nR\n")
    (workdir / "same.plan").write_text("rel R 2\nrel R 2\nR\n")
    assert run(capsys, "check", "--plan", workdir / "twice.plan") == (2, "", f"spjopt: {message}\n")
    for pair in (("twice", "r"), ("r", "twice")):
        argv = ("equiv", "--plan", workdir / f"{pair[0]}.plan", "--plan2", workdir / f"{pair[1]}.plan")
        assert run(capsys, *argv) == (2, "", f"spjopt: {message}\n")
    code, out, _ = run(capsys, "check", "--plan", workdir / "same.plan")
    assert (code, json.loads(out)["arity"]) == (0, 2)
    code, out, _ = run(capsys, "equiv", "--plan", workdir / "same.plan", "--plan2", workdir / "r.plan")
    assert (code, json.loads(out)["equivalent"]) == (0, True)


# Names with the characters JSON escapes: quotes, backslashes, control
# characters and non-ASCII, astral ones included.
_JSON_NAMES = st.one_of(
    st.text(max_size=4), st.text(st.sampled_from('a"\\\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), max_size=4)
)
_JSON_SCALARS = st.one_of(_JSON_NAMES, st.integers(), st.booleans(), st.none())
# Lists of equal-length rows of strings, of ints, or of both.
_JSON_ROWS = st.tuples(
    st.integers(0, 3), st.sampled_from([_JSON_NAMES, st.integers(), _JSON_NAMES | st.integers(-5, 5)])
).flatmap(lambda row: st.lists(st.lists(row[1], min_size=row[0], max_size=row[0]), max_size=5))
_JSON_DOCS = st.recursive(
    _JSON_SCALARS | _JSON_ROWS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_JSON_NAMES, kids, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_DOCS)
def test_writer_matches_the_stdlib_hypothesis(doc):
    assert serialize.dumps(doc) == json.dumps(doc, indent=2) + "\n"


def test_writer_refuses_other_values():
    """The writer renders only the types of the CLI's documents: any other
    value, and any key but a string, raise ``TypeError``."""
    for doc in ({"a": 1.5}, {"a": (1, "x")}, {"a": [["x"], {1, 2}]}, {1: [None]}, {("k",): 1}):
        with pytest.raises(TypeError):
            serialize.dumps(doc)


def _plain(value):
    """``value`` with each :class:`serialize.NamedRows` as its list of name
    lists, as plain JSON containers."""
    if isinstance(value, serialize.NamedRows):
        return list(value)
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def test_writer_writes_named_rows_as_the_stdlib_writes_their_name_lists():
    """Named rows are written from their id rows with the bytes the stdlib
    gives their name lists: rows of 0 to 3 columns over names JSON escapes
    and names that sort differently as strings and as numbers, an empty
    answer, rows of two widths and a whole ``--trace`` document.  The rows
    equal the sorted name lists."""
    rng = random.Random(34)
    pool = ['a"b', "back\\slash", "\u00e9", "new\nline", "with space", "9", "10", "x", "\x00", "\U0001f600"]
    for _ in range(100):
        universe = rng.sample(pool, rng.randint(1, len(pool)))
        arity = rng.randint(0, 3)
        rows = [[rng.choice(universe) for _ in range(arity)] for _ in range(rng.randint(0, 12))]
        data = structure_from_json({"signature": {"R": arity}, "universe": universe, "relations": {"R": rows}})
        answer = serialize.named_rows(data.relations["R"], data.names)
        assert answer == sorted(map(list, set(map(tuple, rows)))) and len(answer) == len(data.relations["R"])
        doc = {"cardinality": len(answer), "output": answer, "nested": [[answer], {"again": answer}]}
        assert serialize.dumps(doc) == json.dumps(_plain(doc), indent=2) + "\n"
    doc = {"signature": {"E": 2}, "universe": pool, "relations": {"E": [[a, b] for a in pool for b in pool[:3]]}}
    data = structure_from_json(doc)
    trace = plans.evaluate_naive(parse_plan(TRI_PLAN.split("\n", 1)[1], SIG), data)
    document = serialize.trace_to_json(trace, plans.subplan_texts(trace.numbering), data.names)
    assert [len(entry["rows"]) for entry in document["subplans"]] == [30, 30, 30, 27, 27]
    assert serialize.dumps(document) == json.dumps(_plain(document), indent=2) + "\n"
    ragged = serialize.NamedRows(((0,), (0, 1)), {0: "a", 1: 'b"'})
    assert serialize.dumps({"output": ragged}) == json.dumps({"output": [["a"], ["a", 'b"']]}, indent=2) + "\n"
    empty = serialize.named_rows(frozenset(), data.names)
    assert empty == [] and serialize.dumps({"output": empty}) == '{\n  "output": []\n}\n'
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        serialize.dumps({"output": empty, "other": {1}})


def test_trace_occurrences_of_one_subplan_share_their_rows(workdir, capsys):
    """In the triangle's ``--trace`` document the three occurrences of ``E``
    hold one :class:`serialize.NamedRows`, and the root's is the output's;
    the CLI writes the bytes of the plain name lists."""
    data = structure_from_json(DATA)
    prepared = plans.parse_prepared(TRI_PLAN.split("\n", 1)[1], SIG)
    trace = plans.evaluate_well_behaved(prepared, data)
    document = serialize.trace_to_json(trace, plans.subplan_texts(prepared.numbering), data.names)
    rows = [entry["rows"] for entry in document["subplans"]]
    numbers = prepared.numbering[0]
    assert numbers == [0, 0, 0, 1, 2] and document["output"] is rows[-1]
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            assert (a is b) == (numbers[i] == numbers[j])
    plain = {**_plain(document), "evaluator": "well-behaved"}
    argv = ("evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json", "--trace")
    assert run(capsys, *argv) == (0, json.dumps(plain, indent=2) + "\n", "")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def test_cli_optimize_triangle(workdir, capsys):
    code, out, err = run(
        capsys, "optimize", "--plan", workdir / "tri.plan", "--keys", workdir / "empty.keys"
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["degree"] == "3/2"
    assert doc["newRelations"] == []
    assert "plan" in doc and doc["plan"].startswith("(")


def test_cli_optimize_text_format(workdir, capsys):
    code, out, _ = run(
        capsys, "optimize", "--plan", workdir / "tri.plan", "--format", "text"
    )
    assert code == 0
    parse_plan(out.strip(), SIG)


def test_cli_check_and_degree(workdir, capsys, monkeypatch):
    code, out, _ = run(capsys, "check", "--plan", workdir / "tri.plan")
    assert code == 0
    assert json.loads(out)["wellBehaved"] is True
    real, folds = cli.subplan_degrees, []
    monkeypatch.setattr(cli, "subplan_degrees", lambda *args: folds.append(args) or real(*args))
    code, out, _ = run(capsys, "degree", "--plan", workdir / "tri.plan")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputDegree"] == "3/2"
    assert doc["intermediateDegreeBound"] == "3/2"
    assert len(folds) == 1  # both degrees come from one fold


def test_cli_evaluate(workdir, capsys):
    code, out, _ = run(
        capsys, "evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cardinality"] == 3  # the rotations of the a,b,c triangle
    assert doc["evaluator"] == "well-behaved"
    code, out, _ = run(
        capsys,
        "evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json", "--trace",
    )
    doc = json.loads(out)
    assert any(entry["plan"] == "E" for entry in doc["subplans"])
    assert doc["maxIntermediate"] >= 3
    (workdir / "cross.plan").write_text("rel E 2\n(join (theta) E E)\n")
    code, out, _ = run(
        capsys, "evaluate", "--plan", workdir / "cross.plan", "--data", workdir / "d.json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["evaluator"] == "naive"
    assert doc["cardinality"] == 16


@pytest.mark.parametrize("extra", [[], ["--trace"], ["--format", "text"]], ids=["json", "trace", "text"])
def test_cli_evaluate_checks_the_data_against_the_keys(workdir, capsys, extra):
    """``a`` has two out-edges, so the data breaks ``key E 1``: evaluate
    exits 2 before it evaluates and names the key and two tuples.  Under
    ``key E 2``, which the data satisfies, it prints what it prints
    without keys."""
    evaluate = ["evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json", *extra]
    code, out, err = run(capsys, *evaluate, "--keys", workdir / "r1.keys")
    assert (code, out) == (2, "")
    assert err == "spjopt: data violates key E 1: E(a, b) and E(a, d) agree on position 1\n"
    (workdir / "r2.keys").write_text("key E 2\n")
    plain = run(capsys, *evaluate)
    assert plain[0] == 0 and run(capsys, *evaluate, "--keys", workdir / "r2.keys") == plain
    (workdir / "bad.keys").write_text("key E 3\n")
    code, out, err = run(capsys, *evaluate, "--keys", workdir / "bad.keys")
    assert (code, out) == (2, "") and "out of range" in err


def test_cli_evaluate_numbers_once_and_builds_no_occurrence_trace(workdir, capsys, monkeypatch):
    """A plain evaluate numbers its plan once, as it prepares the parsed
    plan file, whether or not the plan is well-behaved, and a later op on
    the kept plan does not number it again; the evaluator runs once.  Only
    --trace builds the per-occurrence entries; --format text reads the
    per-number row counts."""
    traces = []
    numberings = _count_numberings(monkeypatch)
    evaluate = cli.evaluate_well_behaved

    def counted(*args):
        traces.append(evaluate(*args))
        return traces[-1]

    monkeypatch.setattr(cli, "evaluate_well_behaved", counted)
    argv = ("evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json")
    assert run(capsys, *argv)[0] == 0
    assert numberings == [serialize.load_prepared(workdir / "tri.plan").plan]
    assert "entries" not in traces[-1].__dict__
    for extra, built in ((("--trace",), True), (("--format", "text"), False)):
        assert run(capsys, *argv, *extra)[0] == 0
        assert ("entries" in traces[-1].__dict__) is built
    assert len(numberings) == 1
    (workdir / "cross.plan").write_text("rel E 2\n(project (cols 4 3 2 1) (join (theta) E E))\n")
    traces.clear()
    code, out, _ = run(capsys, "evaluate", "--plan", workdir / "cross.plan", "--data", workdir / "d.json")
    assert (code, json.loads(out)["evaluator"]) == (0, "naive")
    assert len(traces) == 1 and len(numberings) == 2


def test_cli_evaluate_of_a_synthesized_plan_builds_no_join_column_rows(tmp_path, capsys, monkeypatch):
    """Plain evaluate and --format text of the synthesized Mobius 10-ladder
    plan build no column rows of the joins that only projections read; the
    plain trace read afterwards, and --trace, give the rows of
    ``evaluate_naive``, and every output its bytes."""
    pattern = tmp_path / "mobius10.plan"
    pattern.write_text("rel E 2\n" + print_plan(pattern_plan(mobius_ladder(10), (0, 1))) + "\n")
    code, body, _ = run(capsys, "optimize", "--plan", pattern, "--format", "text")
    assert code == 0
    synthesized = tmp_path / "synthesized.plan"
    synthesized.write_text("rel E 2\n" + body)
    rng = random.Random(8)
    arcs = [[f"v{a}", f"v{b}"] for a in range(7) for b in rng.sample([v for v in range(7) if v != a], 2)]
    doc = {"signature": {"E": 2}, "universe": [f"v{i}" for i in range(7)], "relations": {"E": arcs}}
    (tmp_path / "d.json").write_text(json.dumps(doc))
    data = structure_from_json(doc)
    prepared = plans.parse_prepared(body.rstrip("\n"), SIG)
    naive = plans.evaluate_naive(prepared.plan, data)
    slot_joins = sum(op == "slots" for op, _, _ in prepared.program)
    assert slot_joins >= 20 and naive.output
    traces = []
    evaluate = cli.evaluate_well_behaved
    monkeypatch.setattr(cli, "evaluate_well_behaved", lambda *args: traces.append(evaluate(*args)) or traces[-1])
    argv = ("evaluate", "--plan", synthesized, "--data", tmp_path / "d.json")

    assert run(capsys, *argv) == (0, serialize.dumps({
        "evaluator": "well-behaved",
        "cardinality": len(naive.output),
        "maxIntermediate": naive.max_intermediate,
        "output": serialize.named_rows(naive.output, data.names),
    }), "")
    texts = plans.subplan_texts(naive.numbering)
    assert run(capsys, *argv, "--format", "text") == (0, "\n".join(
        ["evaluator: well-behaved"]
        + [f"{entry.cardinality:>8}  {text}" for entry, text in zip(naive.entries, texts)]
        + [f"max intermediate: {naive.max_intermediate}\n"]
    ), "")
    plain, text = traces
    for trace in (plain, text):
        assert len(trace._columns) == slot_joins and "entries" not in trace.__dict__
    reference = serialize.trace_to_json(naive, texts, data.names)
    assert run(capsys, *argv, "--trace") == (0, serialize.dumps({**reference, "evaluator": "well-behaved"}), "")
    assert not traces[-1]._columns
    assert serialize.trace_to_json(plain, texts, data.names) == reference
    assert plain.rows == naive.rows and not plain._columns


def _count_numberings(monkeypatch) -> list:
    """Patch every binding of ``number_subplans`` in the library; returns
    the list the patched function appends each numbered plan to."""
    numbered, number = [], plans.number_subplans
    for module in (plans, represent, synthesis, cli):
        if getattr(module, "number_subplans", None) is number:
            monkeypatch.setattr(module, "number_subplans", lambda plan: numbered.append(plan) or number(plan))
    return numbered


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_optimize_numbers_the_synthesized_plan_once(workdir, capsys, monkeypatch, fmt):
    """One optimize op numbers its synthesized plan once: the well-behavedness
    check, the verification's representation and the printed plan share
    that numbering."""
    numbered = _count_numberings(monkeypatch)
    results, optimize = [], cli.optimize
    monkeypatch.setattr(cli, "optimize", lambda *args: results.append(optimize(*args)) or results[-1])
    cycle = workdir / "cycle6.plan"
    cycle.write_text("rel E 2\n" + print_plan(pattern_plan([(i, (i + 1) % 6) for i in range(6)], (0,))) + "\n")
    code, out, err = run(capsys, "optimize", "--plan", cycle, "--keys", workdir / "r1.keys", "--format", fmt)
    assert (code, err) == (0, "")
    (result,) = results
    assert sum(plan is result.plan for plan in numbered) == 1
    assert print_plan(result.plan) in out


def test_cli_keyed_cycle_plans_reoptimize_to_their_own_bytes(workdir, capsys):
    """The printed plans of the keyed directed 4- to 10-cycles optimize
    again under the default caps and print the same bytes."""
    keys = workdir / "r1.keys"
    for n in range(4, 11):
        cycle = workdir / f"cycle{n}.plan"
        cycle.write_text("rel E 2\n" + print_plan(pattern_plan([(i, (i + 1) % n) for i in range(n)], (0,))) + "\n")
        code, first, err = run(capsys, "optimize", "--plan", cycle, "--keys", keys, "--format", "text")
        assert (code, err) == (0, "")
        cycle.write_text("rel E 2\n" + first)
        assert run(capsys, "optimize", "--plan", cycle, "--keys", keys, "--format", "text") == (0, first, "")


def test_cli_check_numbers_its_plan_once(workdir, capsys, monkeypatch):
    """check reads arity, operator count and well-behavedness off one
    numbering of its plan, the one preparing the parsed plan builds."""
    numbered = _count_numberings(monkeypatch)
    code, out, err = run(capsys, "check", "--plan", workdir / "tri.plan")
    assert (code, err) == (0, "")
    assert numbered == [serialize.load_prepared(workdir / "tri.plan").plan]
    assert json.loads(out)["operators"] == 2
    assert run(capsys, "check", "--plan", workdir / "tri.plan") == (code, out, err)
    assert len(numbered) == 1


def test_cli_equiv_numbers_no_plan_again(workdir, capsys, monkeypatch):
    """equiv builds both representations on the numberings that
    preparing its two parsed plan files builds, one each."""
    numbered = _count_numberings(monkeypatch)
    other = workdir / "tri2.plan"
    other.write_text("rel E 2\n(project (cols 1 2 4) (join (theta (4 5) (6 1)) (join (theta (2 3)) E E) E))\n")
    code, out, err = run(capsys, "equiv", "--plan", workdir / "tri.plan", "--plan2", other)
    assert (code, err) == (0, "")
    assert json.loads(out)["equivalent"] is True
    assert numbered == [serialize.load_prepared(path).plan for path in (workdir / "tri.plan", other)]


def test_cli_prepares_a_plan_file_once(workdir, capsys, monkeypatch):
    """Repeated ops on one plan file and signature parse it once, get the
    same prepared plan and print the same bytes as the first."""
    parsed = count_parses(monkeypatch)
    argv = ("evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json")
    outputs = [run(capsys, *argv, *extra) for extra in ((), ("--trace",), (), ("--trace",))]
    assert outputs[0][0] == 0 and outputs[:2] == outputs[2:]
    assert run(capsys, "degree", "--plan", workdir / "tri.plan")[0] == 0  # the header's signature
    assert len(parsed) == 1
    prepared = serialize.load_prepared(workdir / "tri.plan")
    assert serialize.load_prepared(workdir / "tri.plan", SIG) is prepared
    assert serialize.load_plan(workdir / "tri.plan") == (prepared.plan, SIG)
    assert len(parsed) == 1


def test_edited_plan_file_is_parsed_again(workdir):
    path = workdir / "tri.plan"
    before = serialize.load_prepared(path)
    path.write_text(TRI_PLAN.replace("(cols 1 2 4)", "(cols 1 2)"))
    after = serialize.load_prepared(path)
    assert (before.arities[-1], after.arities[-1]) == (3, 2)
    path.write_text(TRI_PLAN)
    assert serialize.load_prepared(path) is before


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_reads_back_an_optimized_plan_without_parsing_it(workdir, capsys, monkeypatch, fmt):
    """optimize keeps the plan it prints: degree and evaluate of the
    written plan under the input's `rel` header parse only the input, and
    print the bytes they print when no plan is kept before each op."""
    parsed = count_parses(monkeypatch)
    out, synth = workdir / "optimized.out", workdir / "synth.plan"
    keys = ("--keys", workdir / "r1.keys")
    data = ("--data", workdir / "d.json")
    ops = [
        ("degree", "--plan", synth, *keys),
        ("evaluate", "--plan", synth, *data),
        ("evaluate", "--plan", synth, *data, "--trace"),
        ("evaluate", "--plan", synth, *data, "--format", "text"),
    ]

    def flow(clear: bool) -> list:
        if clear:
            plans._prepared_plans.clear()
        argv = ("optimize", "--plan", workdir / "tri.plan", *keys, "--format", fmt, "--out", out)
        outputs = [run(capsys, *argv)]
        text = out.read_text()
        outputs.append(text)
        synth.write_text("rel E 2\n" + (json.loads(text)["plan"] if fmt == "json" else text))
        for argv in ops:
            if clear:
                plans._prepared_plans.clear()
            outputs.append(run(capsys, *argv))
        return outputs

    kept = flow(clear=False)
    assert [o[0] for o in kept if type(o) is tuple] == [0] * (1 + len(ops))
    body = serialize.plan_file_from_text(synth.read_text())[1]
    assert len(parsed) == 1 and body not in parsed
    assert flow(clear=True) == kept
    assert parsed.count(body) == len(ops)


def test_cli_equiv(workdir, capsys):
    code, out, _ = run(
        capsys,
        "equiv",
        "--plan", workdir / "tri.plan",
        "--plan2", workdir / "tri.plan",
        "--keys", workdir / "empty.keys",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True
    assert doc["witnesses"]["forward"]


def test_cli_equiv_tells_a_join_with_a_nullary_fact_from_its_child(tmp_path, capsys):
    """Joining E with the nullary Z keeps E's rows only where Z holds, so
    the join is not equivalent to E in either direction: Z's fact has no
    image in E's representation."""
    header = "rel E 2\nrel Z 0\n"
    (tmp_path / "joined.plan").write_text(header + "(join (theta) E Z)\n")
    (tmp_path / "e.plan").write_text(header + "E\n")
    for first, second in (("joined", "e"), ("e", "joined")):
        code, out, err = run(
            capsys, "equiv", "--plan", tmp_path / f"{first}.plan", "--plan2", tmp_path / f"{second}.plan"
        )
        assert (code, err, json.loads(out)) == (0, "", {"equivalent": False})


def test_cli_represent_chase_core_decompose(workdir, capsys):
    code, out, _ = run(capsys, "represent", "--plan", workdir / "tri.plan")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["decomposition"]["nodes"]) == 5
    assert doc["representation"]["tuple"]

    code, out, _ = run(capsys, "chase", "--data", workdir / "d.json", "--keys", workdir / "r1.keys")
    assert code == 0
    chased = json.loads(out)
    assert chased["mergeMap"]  # a has two outgoing edges, so something merged

    code, out, _ = run(capsys, "core", "--plan", workdir / "tri.plan")
    assert code == 0
    core = json.loads(out)["core"]
    assert len(core["universe"]) == 3

    code, out, _ = run(capsys, "decompose", "--plan", workdir / "tri.plan")
    assert code == 0
    rep = json.loads(out)
    assert rep["width"] == "3/2"
    assert all("colorNumber" in bag for bag in rep["bags"])


def test_cli_core_and_decompose_chase_data_under_keys(workdir, capsys):
    """With --data, core and decompose first chase the data under --keys:
    under key E 1 the transitive triangle's b and c merge, and its core is
    one loop."""
    (workdir / "t.json").write_text(json.dumps({
        "signature": {"E": 2},
        "universe": ["a", "b", "c"],
        "relations": {"E": [["a", "b"], ["a", "c"], ["b", "c"]]},
    }))
    data = ["--data", workdir / "t.json"]
    code, out, _ = run(capsys, "core", *data, "--keys", workdir / "r1.keys")
    assert code == 0
    core = json.loads(out)["core"]
    assert core["universe"] == ["b"]
    assert core["relations"] == {"E": [["b", "b"]]}
    code, out, _ = run(capsys, "core", *data, "--keys", workdir / "empty.keys")
    assert code == 0
    assert len(json.loads(out)["core"]["universe"]) == 3

    # decompose chases but takes no core: b and c merge, a stays
    for keys, elements in (("r1.keys", {"a", "b"}), ("empty.keys", {"a", "b", "c"})):
        code, out, _ = run(capsys, "decompose", *data, "--keys", workdir / keys)
        assert code == 0
        assert {e for bag in json.loads(out)["bags"] for e in bag["bag"]} == elements


def test_cli_core_and_decompose_drop_isolated_data_elements(workdir, capsys):
    """An element of closed data in no tuple retracts onto any other, so
    core and decompose drop it; data with no tuples at all exits 2."""
    edge = {"signature": {"E": 2}, "universe": ["a", "b", "c"], "relations": {"E": [["a", "b"]]}}
    (workdir / "edge.json").write_text(json.dumps(edge))
    code, out, _ = run(capsys, "core", "--data", workdir / "edge.json")
    assert code == 0
    assert json.loads(out)["core"] == {**edge, "universe": ["a", "b"], "tuple": []}
    code, out, _ = run(capsys, "decompose", "--data", workdir / "edge.json")
    assert code == 0
    assert {e for bag in json.loads(out)["bags"] for e in bag["bag"]} == {"a", "b"}

    (workdir / "none.json").write_text(json.dumps({**edge, "relations": {"E": []}}))
    for command in ("core", "decompose"):
        code, out, err = run(capsys, command, "--data", workdir / "none.json")
        assert (code, out) == (2, "")
        assert "no tuples" in err


def test_cli_represent_dot(workdir, capsys):
    code, out, _ = run(capsys, "represent", "--plan", workdir / "tri.plan", "--format", "dot")
    assert code == 0
    assert out.startswith("graph decomposition {")


def test_cli_dot_labels_escape_quotes_and_backslashes(tmp_path, capsys):
    """An element name with a ``"`` or a ``\\`` is escaped in its DOT
    label, on stdout and in an --out file alike."""
    doc = {"signature": {"E": 2}, "universe": ['q"x', "b\\c"], "relations": {"E": [['q"x', "b\\c"]]}}
    (tmp_path / "d.json").write_text(json.dumps(doc))
    argv = ("decompose", "--data", tmp_path / "d.json", "--format", "dot")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    labels = re.findall(r'label="((?:[^"\\]|\\.)*)"', out)
    assert labels == ['{b\\\\c,q\\"x}', '{q\\"x}'], out
    assert run(capsys, *argv, "--out", tmp_path / "d.dot") == (0, "", "")
    assert (tmp_path / "d.dot").read_text() == out


def test_cli_dot_label_that_utf8_cannot_encode_exits_2(tmp_path, capsys):
    """A lone surrogate in an element name is a format error before
    anything is written: nothing on stdout, and an --out file is left as
    it was.  The JSON writer escapes it."""
    doc = {"signature": {"E": 2}, "universe": ["a", "\ud800"], "relations": {"E": [["a", "\ud800"]]}}
    (tmp_path / "d.json").write_text(json.dumps(doc))
    argv = ("decompose", "--data", tmp_path / "d.json")
    message = "spjopt: DOT label 'a,\\ud800' is not UTF-8 text\n"
    assert run(capsys, *argv, "--format", "dot") == (2, "", message)
    out = tmp_path / "d.dot"
    out.write_text("kept\n")
    assert run(capsys, *argv, "--format", "dot", "--out", out) == (2, "", message)
    assert out.read_text() == "kept\n"
    code, text, err = run(capsys, *argv)
    assert (code, err) == (0, "") and "\\ud800" in text


def test_cli_witness(workdir, capsys, tmp_path):
    code, out, _ = run(
        capsys, "witness", "--plan", workdir / "tri.plan", "--n", "1,2",
        "--out", tmp_path / "fam",
    )
    assert code == 0
    meta = json.loads(out)
    assert meta["ratio"] == "3/2"
    inst = json.loads((tmp_path / "fam_n2.json").read_text())
    assert max(len(rows) for rows in inst["relations"].values()) == 12


def test_cli_determinism(workdir, capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(
            capsys, "optimize", "--plan", workdir / "tri.plan", "--keys", workdir / "empty.keys"
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_cli_exit_codes(workdir, capsys, tmp_path):
    assert run(capsys, "degree", "--plan", tmp_path / "nope.plan")[0] == 2
    assert run(capsys, "degree")[0] == 2  # missing --plan
    (tmp_path / "noheader.plan").write_text("(project (cols) R)")
    assert run(capsys, "degree", "--plan", tmp_path / "noheader.plan")[0] == 2
    (tmp_path / "broken.json").write_text("{")
    assert run(capsys, "evaluate", "--plan", workdir / "tri.plan", "--data", tmp_path / "broken.json")[0] == 2
    # resource cap: a 17-element universe is over the default width cap of
    # 16, and --cap-universe 17 lifts it
    big = {
        "signature": {"E": 2},
        "universe": [f"v{i}" for i in range(17)],
        "relations": {"E": [[f"v{i}", f"v{(i + 1) % 17}"] for i in range(17)]},
        "tuple": [],
    }
    (tmp_path / "big.json").write_text(json.dumps(big))
    assert run(capsys, "decompose", "--data", tmp_path / "big.json")[0] == 3
    assert run(
        capsys, "decompose", "--data", tmp_path / "big.json", "--cap-universe", "17"
    )[0] != 3


@pytest.mark.parametrize(
    "change",
    [
        {"relations": [1]},
        {"relations": {"E": 5}},
        {"relations": {"E": [5]}},
        {"signature": {"E": "x"}},
        {"signature": {"E": float("inf")}},
        {"tuple": 5},
        # A string or an object where a list belongs, not its characters or keys.
        {"universe": "abcd"},
        {"universe": dict.fromkeys("abcd", 0)},
        {"relations": {"E": "ab"}},
        {"relations": {"E": ["ab", "bc"]}},
        {"relations": {"E": [{"a": 0, "b": 1}]}},
        {"tuple": "a"},
    ],
    ids=["relations-list", "rows-int", "row-int", "arity-text", "arity-infinite", "tuple-int",
         "universe-string", "universe-object", "rows-string", "row-string", "row-object", "tuple-string"],
)
def test_cli_malformed_structure_exits_2(change, tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({**DATA, **change}))
    code, out, err = run(capsys, "chase", "--data", tmp_path / "bad.json")
    assert (code, out) == (2, "")
    assert err.startswith("spjopt: bad structure document: ") and "Traceback" not in err


@pytest.mark.parametrize("arity", [2.5, True, "2"], ids=["fraction", "bool", "string"])
def test_cli_non_integer_arity_exits_2(arity, tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({**DATA, "signature": {"E": arity}}))
    code, out, err = run(capsys, "chase", "--data", tmp_path / "bad.json")
    assert (code, out) == (2, "")
    assert err.startswith("spjopt: bad structure document: ") and "Traceback" not in err


def test_cli_relation_names_of_the_form_r_digits_are_ordinary(workdir, tmp_path, capsys):
    """Names such as ``R3`` were once reserved; they now behave like any
    other name, byte for byte."""
    (tmp_path / "r3.plan").write_text(re.sub(r"\bE\b", "R3", TRI_PLAN))
    for argv in (["optimize"], ["core"], ["degree"], ["witness", "--n", "1,2"]):
        code_e, out_e, _ = run(capsys, *argv, "--plan", workdir / "tri.plan")
        code_r3, out_r3, _ = run(capsys, *argv, "--plan", tmp_path / "r3.plan")
        assert code_e == code_r3 == 0, argv
        assert out_r3 == re.sub(r"\bE\b", "R3", out_e), argv
    doc = {"signature": {"R0": 2}, "universe": ["a", "b"], "relations": {"R0": [["a", "b"]]}}
    (tmp_path / "r0.json").write_text(json.dumps(doc))
    assert run(capsys, "chase", "--data", tmp_path / "r0.json")[0] == 0


@pytest.mark.parametrize("switch", [["--seed", "1"], ["--strict-theta"]])
def test_cli_removed_switches_are_unknown_options(switch, workdir, capsys):
    assert run(capsys, "check", "--plan", workdir / "tri.plan", *switch)[0] == 1


def test_cli_deep_plans_need_no_recursion(tmp_path, capsys):
    """1,200 nested selects, the same selects over a join that is not
    well-behaved, and a 600-level project/join chain are nested far past
    the interpreter's recursion limit, and every subcommand runs on them;
    ``evaluate`` reports the second as ``naive``, not well-behaved.  The chain joins
    a fresh R atom per level at one shared element; ``key R 1`` folds them
    in the chase, so its core fits the default core cap.  The data
    satisfies ``key R 1``, as ``evaluate`` requires."""
    bodies = {
        "selects": "(select (theta (1 2)) " * 1200 + "R" + ")" * 1200,
        "naive": "(select (theta (1 2)) " * 1200 + "(join (theta) R R)" + ")" * 1200,
        "chain": "(project (cols 1 2) (join (theta (2 3)) " * 600 + "R" + " R))" * 600,
        "one": "(select (theta (1 2)) R)",
        "naive_one": "(select (theta (1 2)) (join (theta) R R))",
    }
    for name, body in bodies.items():
        (tmp_path / f"{name}.plan").write_text("rel R 2\n" + body + "\n")
    keys = tmp_path / "r.keys"
    keys.write_text("key R 1\n")
    data = tmp_path / "r.json"
    data.write_text(json.dumps({
        "signature": {"R": 2},
        "universe": ["a", "b", "c"],
        "relations": {"R": [["a", "a"], ["b", "b"], ["c", "a"]]},
    }))
    outputs = {}
    for name in bodies:
        plan = tmp_path / f"{name}.plan"
        for argv in (
            ["check"], ["represent"], ["chase"], ["core"], ["decompose"],
            ["witness", "--n", "1"], ["equiv", "--plan2", plan],
            ["optimize"], ["optimize", "--format", "text"], ["degree"],
            ["evaluate", "--data", data], ["evaluate", "--data", data, "--trace"],
        ):
            code, out, err = run(capsys, argv[0], "--plan", plan, "--keys", keys, *argv[1:])
            assert (code, err) == (0, ""), (name, argv)
            outputs[name, " ".join(map(str, argv))] = out
    for argv in ("optimize --format text", "degree", f"evaluate --data {data}"):
        assert outputs["selects", argv] == outputs["one", argv]
        assert outputs["naive", argv] == outputs["naive_one", argv]
    assert json.loads(outputs["naive", f"evaluate --data {data}"])["evaluator"] == "naive"


@pytest.mark.parametrize("command", ["evaluate", "chase"])
def test_cli_data_nested_too_deeply_is_a_resource_cap(workdir, capsys, command):
    """A data file of 100,000 nested brackets reaches the recursion limit
    while it is read, which exits 3 with one line and no traceback."""
    deep = workdir / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    plan = ("--plan", workdir / "tri.plan") if command == "evaluate" else ()
    code, out, err = run(capsys, command, *plan, "--data", deep)
    assert (code, out) == (3, "")
    assert err == "spjopt: resource cap: input nested too deeply (recursion limit reached)\n"


def test_cli_out_of_memory_is_a_resource_cap(workdir, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError()

    monkeypatch.setitem(cli._COMMANDS, "evaluate", cli._COMMANDS["evaluate"]._replace(handler=exhausted))
    code, out, err = run(
        capsys, "evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json"
    )
    assert code == 3
    assert out == ""
    assert err == "spjopt: resource cap: out of memory\n"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every ``spjopt`` command starts a fresh interpreter that imports the
    CLI, so the import stays off ``dataclasses`` and ``inspect`` (and the
    ``ast``, ``dis`` and ``tokenize`` that ``inspect`` loads): in a fresh
    interpreter, neither is among the modules that importing
    ``spjopt.cli`` adds to ``sys.modules``."""
    probe = "import sys; before = set(sys.modules); import spjopt.cli; print(*sorted(set(sys.modules) - before))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "spjopt.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


# Runs the CLI with its address space limited to 1 GB, so a representation
# that is allocated after all fails on that limit, not on the machine.
LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from spjopt.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_limited(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=10,
    )


@pytest.mark.parametrize("command", ["optimize", "degree"])
def test_cli_huge_arity_hits_the_representation_cap(command, tmp_path):
    """A header arity of 99,999,999 exits 3 on the representation cap,
    before the representation (optimize) or the degree analysis's atoms
    (degree) are allocated, in a child process that could not allocate
    them."""
    plan = tmp_path / "huge.plan"
    plan.write_text("rel E 99999999\n(project (cols 1) E)\n")
    done = run_limited(command, "--plan", plan)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        f"spjopt: resource cap: representation capped at {REPRESENTATION_ELEMENTS_CAP} "
        "elements, the plan's basic occurrences hold 99999999\n"
    )


def test_cli_degree_fold_hits_the_cap_before_allocating(tmp_path):
    """99 copies of a 100-atom cross product of ``W/100``: the basic
    occurrences hold 990,000 positions, under the cap, but the degree fold
    builds the shared subplan's structure and then the root's copy of it per
    occurrence, 1,000,100 elements in all.  It exits 3 before the root's
    structure is allocated, in a child process that could not allocate it."""
    shared = "(project (cols 1) (join (theta) " + " W" * 100 + "))"
    plan = tmp_path / "fan.plan"
    plan.write_text(f"rel W 100\n(join (theta){f' {shared}' * 99})\n")
    start = time.perf_counter()
    done = run_limited("degree", "--plan", plan)
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        f"spjopt: resource cap: degree analysis capped at {REPRESENTATION_ELEMENTS_CAP} "
        "elements, its structures need at least 1000100\n"
    )


@pytest.mark.parametrize("to_files", [False, True])
def test_cli_witness_family_hits_the_cap_before_allocating(workdir, to_files):
    """The triangle's D_1000 holds 3,000 elements and 3,000,000 rows: it
    exits 3 on the cap, checked for every requested n before any member is
    generated or written, in a child process that could not allocate it."""
    out = workdir / "fam"
    argv = ["witness", "--plan", workdir / "tri.plan", "--n", "2,1000"]
    start = time.perf_counter()
    done = run_limited(*argv, *(["--out", out] if to_files else []))
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        f"spjopt: resource cap: witness family capped at {REPRESENTATION_ELEMENTS_CAP} "
        "elements and rows, member n=1000 holds 3003000\n"
    )
    assert not list(workdir.glob("fam*"))


def test_cli_wide_join_check_is_linear(tmp_path):
    """The well-behavedness check of a join of two 20,000-ary atoms counts
    classes once, in a child process with a limited address space."""
    plan = tmp_path / "wide.plan"
    plan.write_text("rel E 20000\n(join (theta) E E)\n")
    done = run_limited("check", "--plan", plan)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["wellBehaved"] is False


def test_cli_deep_identifications_on_the_oldest_column_stay_linear(tmp_path):
    """Each of 40,000 levels identifies a fresh atom's first column with the
    column that has carried the innermost atom's element since the first
    level.  Every link puts the class's root under a newer, smaller id, so
    without path halving each identification would walk all the links
    before it.  ``chase`` with no keys prints the representation itself; the
    ``represent`` subcommand would also print every node's subplan, whose
    text is quadratic in the depth."""
    levels = 40_000
    plan = tmp_path / "deep.plan"
    plan.write_text(
        "rel E 2\n" + "(project (cols 2 4) (join (theta (1 4)) E " * levels + "E" + "))" * levels + "\n"
    )
    done = run_limited("chase", "--plan", plan)
    assert (done.returncode, done.stderr) == (0, "")
    doc = json.loads(done.stdout)
    assert doc["mergeMap"] == {}
    structure = doc["structure"]
    assert len(structure["universe"]) == levels + 2
    assert len(structure["relations"]["E"]) == levels + 1
    assert structure["tuple"] == ["x1", "x0"]


# An unkeyed chain of 1,500 projected joins: its basic occurrences hold
# 3,002 positions, but degree analysis builds about n^2/2 elements.
UNKEYED_CHAIN = "rel E 2\n" + "(project (cols 1) (join (theta) " * 1_500 + "E" + " E))" * 1_500 + "\n"
HUGE_ARITY = "rel E 99999999\nE\n"
REPRESENTATION_CAPPED = (
    f"resource cap: representation capped at {REPRESENTATION_ELEMENTS_CAP} elements, "
    "the plan's basic occurrences hold 99999999\n"
)


@pytest.mark.parametrize("files, argv, code, message", [
    ({"p.plan": HUGE_ARITY}, ["represent", "--plan", "p.plan"], 3, REPRESENTATION_CAPPED),
    ({"p.plan": HUGE_ARITY}, ["degree", "--plan", "p.plan"], 3, REPRESENTATION_CAPPED),
    ({"p.plan": HUGE_ARITY}, ["optimize", "--plan", "p.plan"], 3, REPRESENTATION_CAPPED),
    ({"p.plan": UNKEYED_CHAIN}, ["degree", "--plan", "p.plan"], 3,
     f"resource cap: degree analysis capped at {REPRESENTATION_ELEMENTS_CAP} elements, "
     "its structures need at least 1001000\n"),
    ({"p.plan": "rel E 2\nE\n", "q.plan": "rel E 3\nE\n"}, ["equiv", "--plan", "p.plan", "--plan2", "q.plan"],
     2, "{d}/q.plan: conflicting arity for 'E'\n"),
    ({"p.plan": "E\n", "q.plan": "E\n"}, ["equiv", "--plan", "p.plan", "--plan2", "q.plan"],
     2, "no signature available; add `rel` headers or pass --data\n"),
    ({"p.plan": "rel E\nE\n"}, ["check", "--plan", "p.plan"], 2, "expected `rel <Name> <arity>`\n"),
    ({"p.plan": "rel E 3\nE\n", "d.json": json.dumps(DATA)}, ["check", "--plan", "p.plan", "--data", "d.json"],
     2, "{d}/p.plan: header declares E/3, which conflicts with the data signature\n"),
    ({"d.json": json.dumps({**DATA, "tuple": ["z"]})}, ["chase", "--data", "d.json"],
     2, "unknown element 'z' in tuple\n"),
], ids=["represent-cap/represent", "represent-cap/degree", "represent-cap/optimize", "degree-fold-cap",
        "equiv-conflicting-headers", "equiv-no-signature", "header-without-arity", "header-conflicts-with-data",
        "unknown-tuple-element"])
def test_cli_rare_errors_exit_with_their_code(files, argv, code, message, tmp_path, capsys):
    """Input errors and caps that other tests reach only in a child process,
    or not at all, exit with their code and one stderr line."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run(capsys, *[tmp_path / a if a in files else a for a in argv]) == (
        code, "", "spjopt: " + message.format(d=tmp_path)
    )


@pytest.mark.parametrize("argv", [
    ["represent"], ["represent", "--format", "dot"], ["evaluate", "--trace"], ["evaluate", "--format", "text"],
], ids=["represent", "represent-dot", "evaluate-trace", "evaluate-text"])
def test_cli_quadratic_subplan_text_hits_the_cap(tmp_path, argv):
    """Printing every occurrence's subplan of the 4,000-level chain would
    take 706 MB: it exits 3 before any subplan text is built, in a child
    process with a limited address space."""
    levels = 4_000
    plan = tmp_path / "deep.plan"
    plan.write_text(
        "rel E 2\n" + "(project (cols 2 4) (join (theta (1 4)) E " * levels + "E" + "))" * levels + "\n"
    )
    data = tmp_path / "d.json"
    data.write_text(json.dumps(DATA))
    start = time.perf_counter()
    done = run_limited(argv[0], "--plan", plan, *(["--data", data] if argv[0] == "evaluate" else []), *argv[1:])
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith(
        f"spjopt: resource cap: printed subplans capped at {PRINTED_SUBPLANS_CAP} characters, "
        "the plan's occurrences print "
    )


def test_cli_check_prints_a_deep_offender_in_linear_memory(tmp_path):
    """check of a join of the 4,000-level chain with an atom prints the
    whole plan as its offending subplan, 176 KB, without building the text
    of every subplan, in a child process with a limited address space."""
    levels = 4_000
    chain = "(project (cols 2 4) (join (theta (1 4)) E " * levels + "E" + "))" * levels
    plan = tmp_path / "deep.plan"
    plan.write_text(f"rel E 2\n(join (theta) {chain} E)\n")
    done = run_limited("check", "--plan", plan)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == serialize.dumps({
        "ok": True,
        "arity": 4,
        "operators": 2 * levels + 1,
        "wellBehaved": False,
        "keysUnary": True,
        "offendingSubplan": f"(join (theta) {chain} E)",
    })


def test_cli_evaluates_a_plan_that_is_not_well_behaved_by_hash_joins(tmp_path):
    """The unkeyed 10-vertex Mobius ladder is one join of 15 E atoms and not
    well-behaved; on an 18-row E its cross product has 18^15 combinations,
    but its hash-join chain evaluates it at once, in a child process with a
    limited address space.  The ladder has no homomorphism into this graph,
    so the answer is empty."""
    edges = mobius_ladder(10)
    plan = tmp_path / "mobius10.plan"
    plan.write_text("rel E 2\n" + print_plan(pattern_plan(edges, (0, 1))) + "\n")
    arcs = [[f"v{a}", f"v{(a + step) % 9}"] for a in range(9) for step in (1, 2)]
    data = tmp_path / "d.json"
    doc = {"signature": {"E": 2}, "universe": [f"v{i}" for i in range(9)], "relations": {"E": arcs}}
    data.write_text(json.dumps(doc))
    start = time.perf_counter()
    done = run_limited("evaluate", "--plan", plan, "--data", data)
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stderr) == (0, "")
    loaded = structure_from_json(doc)
    answer = homs_relation(Structure(SIG, range(10), {"E": edges}), (0, 1), loaded)
    out = json.loads(done.stdout)
    assert out["evaluator"] == "naive"
    assert out["output"] == serialize.named_rows(answer, loaded.names)


def test_cli_join_chain_is_capped_before_it_builds_a_step(tmp_path):
    """The cross product of five copies of a 60-row E builds 60^3 chain
    rows of 6 slots; its next step would hold 60^4 rows of 8 slots, past
    the cap, and it exits 3 before building it."""
    plan = tmp_path / "cross.plan"
    plan.write_text("rel E 2\n(join (theta) E E E E E)\n")
    arcs = [[f"v{a:02}", f"v{b:02}"] for a in range(10) for b in range(6)]
    data = tmp_path / "d.json"
    data.write_text(json.dumps({
        "signature": {"E": 2}, "universe": [f"v{i:02}" for i in range(10)], "relations": {"E": arcs},
    }))
    start = time.perf_counter()
    done = run_limited("evaluate", "--plan", plan, "--data", data)
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        f"spjopt: resource cap: join chain capped at {JOIN_STEP_WORDS_CAP} words per step, "
        f"a step needs {60 ** 4 * (8 + 6)} ({60 ** 4} rows of 8 slots)\n"
    )


def test_cli_join_chain_cap_counts_the_words_of_narrow_rows(tmp_path):
    """The cross product of two copies of a 2,237-row unary U would hold
    5,004,169 rows of 2 slots: 10 million cells, but at 8 words a row just
    past the words cap, so it exits 3 before building them."""
    plan = tmp_path / "cross.plan"
    plan.write_text("rel U 1\n(join (theta) U U)\n")
    names = [f"u{i}" for i in range(2237)]
    data = tmp_path / "d.json"
    data.write_text(json.dumps({
        "signature": {"U": 1}, "universe": names, "relations": {"U": [[n] for n in names]},
    }))
    start = time.perf_counter()
    done = run_limited("evaluate", "--plan", plan, "--data", data)
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stdout) == (3, "")
    assert 2237**2 * 8 > JOIN_STEP_WORDS_CAP
    assert done.stderr == (
        f"spjopt: resource cap: join chain capped at {JOIN_STEP_WORDS_CAP} words per step, "
        f"a step needs {2237**2 * 8} ({2237**2} rows of 2 slots)\n"
    )


@pytest.mark.parametrize("edges", [mobius_ladder(14), mobius_ladder(16), squared_cycle(14), squared_cycle(16)],
                         ids=["mobius14", "mobius16", "squared14", "squared16"])
def test_cli_join_chain_cap_bounds_unkeyed_pattern_inputs(tmp_path, edges):
    """The width workload's larger unkeyed inputs on a 6-vertex graph of
    out-degree 3: their chains walk the pattern's cycle, one row per walk.
    The walks of 11 arcs, 6 x 3^11 rows of 12 slots, are built; those of
    12 arcs, 6 x 3^12 rows of 13 slots, would pass the words cap, and the
    plan exits 3 on it before building them, in a child process with a
    limited address space."""
    plan = tmp_path / "pattern.plan"
    plan.write_text("rel E 2\n" + print_plan(pattern_plan(edges, (0, 1))) + "\n")
    arcs = [[f"v{a}", f"v{(a + step) % 6}"] for a in range(6) for step in (1, 2, 3)]
    data = tmp_path / "d.json"
    data.write_text(json.dumps({
        "signature": {"E": 2}, "universe": [f"v{i}" for i in range(6)], "relations": {"E": arcs},
    }))
    start = time.perf_counter()
    done = run_limited("evaluate", "--plan", plan, "--data", data)
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stdout) == (3, "")
    rows = 6 * 3 ** 12
    assert done.stderr == (
        f"spjopt: resource cap: join chain capped at {JOIN_STEP_WORDS_CAP} words per step, "
        f"a step needs {rows * (13 + 6)} ({rows} rows of 13 slots)\n"
    )


def test_cli_evaluates_the_keyed_4_cycle_input_at_once(tmp_path, capsys):
    """The directed 4-cycle pattern is not well-behaved; on a 60-row
    functional graph (``key E 1`` holds) its chain stays within the graph's
    rows, so it evaluates in well under a second, to the vertices on a
    closed walk of length 4."""
    rng = random.Random(4)
    f = [rng.randrange(60) for _ in range(60)]
    f[0] = 0
    plan = tmp_path / "cycle4.plan"
    plan.write_text("rel E 2\n" + print_plan(pattern_plan([(i, (i + 1) % 4) for i in range(4)], (0,))) + "\n")
    data = tmp_path / "d.json"
    data.write_text(json.dumps({
        "signature": {"E": 2},
        "universe": [f"v{i:02}" for i in range(60)],
        "relations": {"E": [[f"v{a:02}", f"v{b:02}"] for a, b in enumerate(f)]},
    }))
    start = time.perf_counter()
    code, out, err = run(capsys, "evaluate", "--plan", plan, "--data", data)
    assert time.perf_counter() - start < 0.5
    assert (code, err) == (0, "")
    answer = [[f"v{x:02}"] for x in range(60) if f[f[f[f[x]]]] == x]
    assert json.loads(out)["output"] == answer and answer


def test_cli_optimizes_keyed_c160_under_a_raised_cap(tmp_path, capsys):
    """Key elimination keeps two of keyed Cn's n atoms, one widened to the
    n-column rotation and the closing edge as the plain atom, so under a
    cap of n the plan has 3n - 2 nodes: C80's text is under 15 KB, and C160
    exits 0 with its text under 50 KB (about 46 KB, as each closure step's
    columns are listed)."""
    keys = tmp_path / "k.keys"
    keys.write_text("key E 1\n")
    for n, size in ((80, 15_000), (160, 50_000)):
        plan = tmp_path / f"c{n}.plan"
        plan.write_text("rel E 2\n" + print_plan(pattern_plan([(i, (i + 1) % n) for i in range(n)], (0,))) + "\n")
        argv = ["optimize", "--plan", plan, "--keys", keys, "--cap-universe", str(n), "--format", "text"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and len(out) < size


# Runs the CLI with the interpreter's recursion limit at 200.
LOW_RECURSION_CLI = """
import sys
sys.setrecursionlimit(200)
from spjopt.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_cli_long_decompositions_need_no_recursion(tmp_path, capsys):
    """Keyed C300 under a cap of 300 and the 300-edge directed path under a
    cap of 305 optimize in a child process whose recursion limit is 200:
    the width search keeps one suspended search per state on a stack, and
    the plan is assembled bottom-up in one loop over the bags.  Each prints
    what a run under the usual limit prints."""
    keys = tmp_path / "k.keys"
    keys.write_text("key E 1\n")
    cases = {
        "c300": ([(i, (i + 1) % 300) for i in range(300)], (0,), ["--keys", keys, "--cap-universe", "300"]),
        "path300": ([(i, i + 1) for i in range(300)], (0, 1), ["--cap-universe", "305"]),
    }
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for name, (edges, out, flags) in cases.items():
        plan = tmp_path / f"{name}.plan"
        plan.write_text("rel E 2\n" + print_plan(pattern_plan(edges, out)) + "\n")
        argv = ["optimize", "--plan", plan, *flags, "--format", "text"]
        done = subprocess.run(
            [sys.executable, "-c", LOW_RECURSION_CLI, *map(str, argv)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert run(capsys, *argv) == (0, done.stdout, "")


def test_cli_optimizes_mobius20_under_a_raised_cap(tmp_path, capsys):
    """The exact width search decides the 20-vertex Mobius ladder once the
    cap admits it; optimize verifies the equivalence of its output."""
    plan = tmp_path / "mobius20.plan"
    plan.write_text("rel E 2\n" + print_plan(pattern_plan(mobius_ladder(20), (0, 1))) + "\n")
    code, out, err = run(capsys, "optimize", "--plan", plan, "--cap-universe", "20")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["degree"] == "3"
    assert is_well_behaved(parse_plan(doc["plan"], SIG), SIG)[0]


def test_cli_multi_key_diagnostic(workdir, capsys):
    """Two keys on one relation are accepted like any set of unary keys; the
    option that once admitted them is gone."""
    (workdir / "multi.keys").write_text("key E 1\nkey E 2\n")
    argv = ("degree", "--plan", workdir / "tri.plan", "--keys", workdir / "multi.keys")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"outputDegree": "1", "intermediateDegreeBound": "1"}
    assert run(capsys, *argv, "--force-multi-keys")[0] == 1


def test_cli_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--plan", "{bad}"],
        ["degree", "--plan", "{tri}", "--keys", "{bad}"],
        ["evaluate", "--plan", "{tri}", "--data", "{bad}"],
        ["equiv", "--plan", "{tri}", "--plan2", "{bad}"],
    ],
    ids=["plan", "keys", "data", "equiv-plan2"],
)
def test_cli_non_utf8_file_is_a_format_error(workdir, capsys, argv):
    bad = workdir / "latin1.txt"
    bad.write_bytes("rel E 2\n(project (cols 1) E) # caf\xe9\n".encode("latin-1"))
    paths = {"bad": bad, "tri": workdir / "tri.plan"}
    code, out, err = run(capsys, *[a.format(**paths) for a in argv])
    assert code == 2
    assert out == ""
    assert err == f"spjopt: {bad}: not UTF-8 text\n"


def test_cli_plan_syntax_error_names_the_file_and_its_line(tmp_path, capsys):
    """A plan syntax error's line counts the header, blank and comment
    lines before the plan text, and the error names the file; an error
    with no position names the file alone."""
    bad = tmp_path / "bad.plan"
    bad.write_text("rel E 2\n\n# c\n(frob E)\n")
    assert run(capsys, "check", "--plan", bad) == (2, "", f"spjopt: {bad}:4:2: unknown operator 'frob'\n")
    bad.write_text("rel E 2\n(project (cols 1) F)\n")
    assert run(capsys, "check", "--plan", bad) == (2, "", f"spjopt: {bad}: unknown relation 'F'\n")


def test_cli_path_through_a_file_is_an_input_error(workdir, capsys):
    tri = workdir / "tri.plan"
    code, out, err = run(capsys, "check", "--plan", tri / "x")
    assert (code, out) == (2, "")
    assert err.startswith("spjopt: ") and err.count("\n") == 1
    code, out, err = run(capsys, "degree", "--plan", tri, "--out", tri / "x")
    assert (code, out) == (2, "")
    assert err.startswith("spjopt: ") and err.count("\n") == 1


def test_cli_unreadable_file_is_an_input_error(workdir, capsys, monkeypatch):
    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(serialize, "open", denied, raising=False)
    code, out, err = run(capsys, "check", "--plan", workdir / "tri.plan")
    assert (code, out) == (2, "")
    assert err == f"spjopt: [Errno 13] Permission denied: '{workdir / 'tri.plan'}'\n"


def test_cli_malformed_crlf_data_reports_the_text_mode_position(workdir, capsys):
    """A JSON error's line, column and char count newlines as text-mode
    reading does: each ``\\r\\n`` is one character."""
    bad = workdir / "crlf.json"
    bad.write_bytes(b'{\r\n  "signature": {"E": 2},\r\n  "universe": ["a", "b"],\r\n'
                    b'  "relations": {"E": [["a", oops]]}\r\n}\r\n')
    code, out, err = run(capsys, "evaluate", "--plan", workdir / "tri.plan", "--data", bad)
    assert (code, out) == (2, "")
    assert err == f"spjopt: {bad}: Expecting value: line 4 column 29 (char 81)\n"


def test_cli_out_overwrites_a_file_in_place(workdir, capsys, tmp_path):
    """``--out`` over a longer file leaves no tail of it, over a shorter one
    writes all; the witness family files are written the same way."""
    argv = ["degree", "--plan", workdir / "tri.plan"]
    expected = run(capsys, *argv)[1]
    out = tmp_path / "out.json"
    for old in ("x" * 5000, "{}", ""):
        out.write_text(old)
        assert run(capsys, *argv, "--out", out) == (0, "", "")
        assert out.read_text() == expected
    prefix = tmp_path / "fam"
    witness = ["witness", "--plan", workdir / "tri.plan", "--n", "1"]
    member = json.dumps(json.loads(run(capsys, *witness)[1])["instances"]["1"], indent=2) + "\n"
    (tmp_path / "fam_n1.json").write_text(" " * 50000)
    assert run(capsys, *witness, "--out", prefix)[0] == 0
    assert (tmp_path / "fam_n1.json").read_text() == member


def test_cli_out_creates_a_file_with_the_mode_open_gives(workdir, capsys, tmp_path):
    """A new ``--out`` file gets the mode ``open(path, "w")`` gives under
    the umask."""
    for umask in (0o022, 0o077, 0o002):
        old = os.umask(umask)
        try:
            with open(tmp_path / f"ref{umask}", "w"):
                pass
            out = tmp_path / f"out{umask}"
            assert run(capsys, "degree", "--plan", workdir / "tri.plan", "--out", out)[0] == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode == (tmp_path / f"ref{umask}").stat().st_mode == 0o100666 & ~umask


def test_cli_out_is_cut_only_when_it_is_a_regular_file(workdir, capsys, tmp_path):
    """``--out /dev/null`` succeeds: a character device is written, not
    cut.  A directory, or a path through a file, exits 2 with the system's
    message."""
    argv = ["degree", "--plan", workdir / "tri.plan", "--out"]
    assert run(capsys, *argv, os.devnull) == (0, "", "")
    tri = workdir / "tri.plan"
    assert run(capsys, *argv, tmp_path) == (2, "", f"spjopt: [Errno 21] Is a directory: '{tmp_path}'\n")
    assert run(capsys, *argv, tri / "x") == (2, "", f"spjopt: [Errno 20] Not a directory: '{tri / 'x'}'\n")
    assert tri.read_text() == TRI_PLAN


def test_cli_data_lists_do_not_leak_between_calls(workdir, capsys, monkeypatch):
    seen = []
    check = cli._COMMANDS["check"]._replace(handler=lambda args: seen.append(args.data))
    monkeypatch.setitem(cli._COMMANDS, "check", check)
    assert run(capsys, "check", "--data", "a.json")[0] == 0
    assert run(capsys, "check", "--data", "b.json", "--data", "c.json")[0] == 0
    assert run(capsys, "check")[0] == 0
    assert seen == [["a.json"], ["b.json", "c.json"], []]
    # and on real files: each evaluate sees only its own database
    (workdir / "e.json").write_text(json.dumps({**DATA, "relations": {"E": [["a", "b"]]}}))
    for db, expected in (("d.json", 3), ("e.json", 0), ("d.json", 3)):
        code, out, _ = run(capsys, "evaluate", "--plan", workdir / "tri.plan", "--data", workdir / db)
        assert code == 0
        assert json.loads(out)["cardinality"] == expected


def test_cli_repeated_data_is_an_input_error(workdir, capsys):
    """Every subcommand reads one data file: a second ``--data``, once
    ignored, exits 2 with a message that gives the count."""
    (workdir / "e.json").write_text(json.dumps({**DATA, "relations": {"E": [["a", "b"]]}}))
    data = ["--data", workdir / "d.json", "--data", workdir / "e.json"]
    plan = ["--plan", workdir / "tri.plan"]
    for argv in (
        ["check", *plan], ["represent", *plan], ["chase"], ["core"], ["degree", *plan],
        ["optimize", *plan], ["evaluate", *plan], ["equiv", *plan, "--plan2", workdir / "tri.plan"],
        ["witness", *plan], ["decompose"],
    ):
        assert run(capsys, *argv, *data) == (2, "", "spjopt: --data given 2 times; pass one data file\n"), argv
    code, _, err = run(capsys, "evaluate", *plan, *data, "--data", workdir / "d.json")
    assert (code, err) == (2, "spjopt: --data given 3 times; pass one data file\n")


# The argv shapes perfbench/worker.py passes, with the witness family of its set-up.
BENCHMARK_ARGVS = (
    ["optimize", "--plan", "p.plan", "--out", "o.json", "--keys", "k.keys", "--cap-universe", "16"],
    ["degree", "--plan", "p.plan", "--out", "o.json", "--keys", "k.keys", "--cap-universe", "16"],
    ["evaluate", "--plan", "p.plan", "--data", "d.json", "--out", "o.json"],
    ["witness", "--plan", "p.plan", "--n", "1,2", "--out", "fam"],
)


def test_cli_parser_is_built_once(workdir, capsys):
    """A process whose argv always has the canonical shape builds no
    parser; the first argv that does not builds it, once."""
    cli._build_parser.cache_clear()
    for argv in (["check", "--plan", workdir / "tri.plan"], ["degree"], ["evaluate", "--trace"]):
        run(capsys, *argv)
    for argv in BENCHMARK_ARGVS:
        assert cli._read_argv(argv) is not None, argv
    assert cli._build_parser.cache_info().misses == 0
    for argv in (["frobnicate"], ["degree", "--pl", workdir / "tri.plan"], ["check", "--plan=x"]):
        run(capsys, *argv)
    assert cli._build_parser.cache_info().misses == 1


def _argv_grid():
    """Argvs for the differential test of the argv reader: every option of
    every subcommand in every order, repeated options, zero to three
    ``--data``, each ``--format`` value and a bad one, abbreviations,
    ``--flag=value``, values that start with ``-``, missing and bad values,
    help, an unknown subcommand and an empty argv."""
    values = {"--cap-universe": "7", "--n": "2,1", "--format": "json"}
    for name, command in cli._COMMANDS.items():
        flags = [flag for flag, _ in cli._SHARED_OPTIONS + command.options]
        for order in itertools.permutations(flags):
            argv = [name]
            for flag in order:
                argv += [flag] if flag == "--trace" else [flag, values.get(flag, flag[2:] + ".x")]
            yield argv
        for k in range(4):
            yield [name] + [x for i in range(k) for x in ("--data", f"d{i}.json")]
        for flag in flags:
            if flag == "--trace":
                yield [name, "--trace", "--trace", "--plan", "p"]
                yield [name, "--trace", "x"]
                continue
            yield [name, flag, "a", flag, "b"]
            yield [name, "--plan", "p", flag]
            for value in ("-1", "-", "--", "-x", "", "0", "3,3", " -1", "1,x"):
                yield [name, flag, value]
            yield [name, flag + "=v"]
            yield [name, flag[:4], "v"]
        for value in ("json", "text", "dot", "xml"):
            yield [name, "--format", value]
        yield [name, "-h"]
        yield [name, "--help"]
        yield [name, "--plan", "p", "--help"]
        yield [name, "--out", "o", "--frob", "x"]
        yield [name, "extra"]
    yield ["frobnicate", "--plan", "p"]
    yield ["--plan", "p", "check"]
    yield ["-h"]
    yield []


def test_cli_argv_reader_agrees_with_argparse(capsys, monkeypatch):
    """On every argv of the grid, ``main`` dispatches argparse's namespace,
    or exits with argparse's code and output; the canonical argvs, every
    permutation among them, go through the reader, which builds the same
    namespace as argparse."""
    seen = []
    for name, command in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, command._replace(handler=lambda args: seen.append(vars(args))))
    parser = cli._build_parser()
    read = 0
    for argv in _argv_grid():
        try:
            expected = (0, "", "", [vars(parser.parse_args(argv))])
        except SystemExit as exc:
            captured = capsys.readouterr()
            expected = (0 if exc.code == 0 else 1, captured.out, captured.err, [])
        namespace = cli._read_argv(argv)
        if namespace is not None:
            assert expected[3] == [vars(namespace)], argv
            read += 1
        assert (*run(capsys, *argv), seen) == expected, argv
        seen.clear()
    assert read > 9000


SHARED_OPTIONS = {"--plan", "--keys", "--data", "--out", "--cap-universe"}
MODE_OPTIONS = {
    "check": {},
    "represent": {"--format": ("json", "dot")},
    "chase": {},
    "core": {},
    "degree": {},
    "optimize": {"--format": ("json", "text")},
    "evaluate": {"--trace": None, "--format": ("json", "text")},
    "equiv": {"--plan2": None},
    "witness": {"--n": None},
    "decompose": {"--format": ("json", "dot")},
}


def test_cli_each_subcommand_takes_only_the_options_it_reads():
    """Each subcommand accepts the five shared options and its own mode
    options, 57 option slots and 8 ``--format`` values in all, and the
    argv shapes the benchmark passes still parse."""
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(MODE_OPTIONS)
    slots = formats = 0
    for name, sub in subparsers.choices.items():
        options = {
            flag: action.choices for action in sub._actions
            for flag in action.option_strings if flag != "--help" and flag.startswith("--")
        }
        assert options == {**dict.fromkeys(SHARED_OPTIONS), **MODE_OPTIONS[name]}, name
        slots += len(options)
        formats += len(options.get("--format") or ())
    assert (slots, formats) == (57, 8)
    for argv in BENCHMARK_ARGVS:
        assert parser.parse_args(argv).command == argv[0]


def test_cli_cap_universe_reads_an_int_of_at_least_zero(workdir, capsys):
    """A negative or non-integer ``--cap-universe`` is a usage error (exit
    1), read by the parser before any stage runs; 0 is a cap like any other,
    so the core search of the triangle refuses under it (exit 3)."""
    plan = ["--plan", workdir / "tri.plan"]
    for value, message in (
        ("-1", "a universe cap is at least 0, got -1"),
        ("-20", "a universe cap is at least 0, got -20"),
        ("abc", "invalid int value: 'abc'"),
    ):
        code, out, err = run(capsys, "optimize", *plan, "--cap-universe", value)
        assert (code, out) == (1, ""), value
        assert err.endswith(f"error: argument --cap-universe: {message}\n"), err
    code, _, err = run(capsys, "optimize", *plan, "--cap-universe", "0")
    assert (code, err) == (3, "spjopt: resource cap: core search capped at universe 0, got 3\n")


def test_api_core_search_is_capped_as_the_cli_is(workdir, capsys):
    """Keyed C13's chased representation has 13 elements.  Every subcommand
    that searches its core refuses it under the default caps, and so do
    ``compute_core`` and ``chased_core`` under ``Caps().core_universe`` and
    ``optimize`` under ``Caps()``, with the CLI's message."""
    plan = pattern_plan([(i, (i + 1) % 13) for i in range(13)], (0,))
    (workdir / "c13.plan").write_text(f"rel E 2\n{print_plan(plan)}\n")
    message = "core search capped at universe 12, got 13"
    for command in ("core", "decompose", "witness", "optimize"):
        got = run(capsys, command, "--plan", workdir / "c13.plan", "--keys", workdir / "r1.keys")
        assert got == (3, "", f"spjopt: resource cap: {message}\n"), command
    keys = KeySet([("E", 1)])
    prepared = prepare(plan, SIG)
    chased = chase(build_representation(prepared)[0].open, keys).result
    assert len(chased.structure.universe) == 13
    for capped in (
        lambda: compute_core(chased, Caps().core_universe),
        lambda: chased_core(prepared, keys, Caps().core_universe),
        lambda: optimize(prepared, keys, Caps()),
    ):
        with pytest.raises(ResourceCapError, match=f"^{message}$"):
            capped()


def test_cli_witness_n_reads_ints_of_at_least_one(workdir, capsys):
    """A ``witness --n`` that is not comma-separated ints of at least 1 is
    a usage error (exit 1), read by the parser before any stage runs; an
    empty value names no member."""
    plan = ["--plan", workdir / "tri.plan"]
    for value, message in (
        ("1,x", "expected comma-separated ints, got '1,x'"),
        ("two", "expected comma-separated ints, got 'two'"),
        ("0", "a family index is at least 1, got 0"),
        ("-1", "a family index is at least 1, got -1"),
    ):
        code, out, err = run(capsys, "witness", *plan, "--n", value)
        assert (code, out) == (1, ""), value
        assert err.endswith(f"error: argument --n: {message}\n"), err
    code, out, err = run(capsys, "witness", *plan, "--n", "")
    assert (code, err) == (0, "")
    assert json.loads(out)["n"] == [] and json.loads(out)["instances"] == {}


def test_cli_witness_n_drops_repeated_indices(workdir, capsys, monkeypatch, tmp_path):
    """A ``witness --n`` index given twice names its member once, at its
    first place: ``--n 2,1,2`` checks and builds member 2 once and prints
    the bytes of ``--n 2,1``, with ``--out`` (each file listed once) and
    without it."""
    checked, check = [], cli.check_family_size
    monkeypatch.setattr(cli, "check_family_size", lambda *args: checked.append(args[-1]) or check(*args))
    plan = ["--plan", workdir / "tri.plan"]
    for out in ([], ["--out", tmp_path / "fam"]):
        repeated = run(capsys, "witness", *plan, "--n", "2,1,2", *out)
        assert checked == [2, 1]
        assert repeated == run(capsys, "witness", *plan, "--n", "2,1", *out)
        checked.clear()
        doc = json.loads(repeated[1])
        assert doc["n"] == [2, 1]
        if out:
            assert doc["files"] == [f"{out[1]}_n2.json", f"{out[1]}_n1.json"]
        else:
            assert list(doc["instances"]) == ["2", "1"]


@pytest.mark.parametrize("value", ["x", "3", "17"])
def test_cli_ignores_cap_environment_variable(workdir, capsys, monkeypatch, tmp_path, value):
    big = {
        "signature": {"E": 2},
        "universe": [f"v{i}" for i in range(17)],
        "relations": {"E": [[f"v{i}", f"v{(i + 1) % 17}"] for i in range(17)]},
        "tuple": [],
    }
    (tmp_path / "big.json").write_text(json.dumps(big))
    cases = [
        (["optimize", "--plan", workdir / "tri.plan"], 0),
        (["decompose", "--data", tmp_path / "big.json"], 3),
        (["decompose", "--data", tmp_path / "big.json", "--cap-universe", "17"], 0),
        (["degree"], 2),
    ]
    monkeypatch.setenv("SPJOPT_CAP_UNIVERSE", value)
    assert [run(capsys, *argv)[0] for argv, _ in cases] == [code for _, code in cases]


_FUZZ_WORDS = ["(", ")", " ", "\n", "join", "theta", "project", "cols", "select", "rel", "key",
               "E", "F", "0", "1", "2", "3", "-1", "99", '"', ",", "[", "]", "{", "}", ":", "\\", "é"]


def _mutate(rng, text):
    """``text`` after one to three random edits: a slice deleted, a slice
    repeated, a word of the plan, keys or JSON syntax inserted, or a
    character swapped for one."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = rng.randint(i, min(len(text), i + 8))
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:i] + text[j:]
        elif edit == 1:
            text = text[:j] + text[i:j] + text[j:]
        elif edit == 2:
            text = text[:i] + rng.choice(_FUZZ_WORDS) + text[i:]
        else:
            text = text[:i] + rng.choice(_FUZZ_WORDS) + text[i + 1:]
    return text


def test_cli_fuzzed_inputs_exit_with_a_documented_code(tmp_path, capsys):
    """Seeded fuzzing in process: 1,500 runs of a random subcommand on
    mutated plan, keys and data texts.  Each run returns 0, 1, 2 or 3 and
    no exception escapes ``main``."""
    rng = random.Random(36)
    plans = [TRI_PLAN, "rel E 2\n(project (cols 1) (join (theta (2 3) (4 1)) E E))\n",
             "rel E 2\n(select (theta (1 2)) (join (theta) E E))\n"]
    data = json.dumps(DATA)
    commands = list(cli._COMMANDS)
    codes = dict.fromkeys(range(4), 0)
    for i in range(1500):
        (tmp_path / "p.plan").write_text(_mutate(rng, rng.choice(plans)) if i % 4 else rng.choice(plans))
        (tmp_path / "q.plan").write_text(_mutate(rng, rng.choice(plans)))
        (tmp_path / "k.keys").write_text(_mutate(rng, "key E 1\n") if rng.random() < 0.5 else "key E 2\n")
        (tmp_path / "d.json").write_text(_mutate(rng, data) if rng.random() < 0.7 else data)
        command = rng.choice(commands)
        argv = [command, "--plan", tmp_path / "p.plan"]
        if rng.random() < 0.5:
            argv += ["--keys", tmp_path / "k.keys"]
        if command in ("evaluate", "core", "decompose", "chase") or rng.random() < 0.3:
            argv += ["--data", tmp_path / "d.json"]
        if command == "equiv":
            argv += ["--plan2", tmp_path / "q.plan"]
        if command == "witness":
            argv += ["--n", rng.choice(["1", "1,2", "0", "x"]), "--out", tmp_path / "fam"]
        if rng.random() < 0.2:
            argv += ["--cap-universe", rng.choice(["0", "4", "-1", "x"])]
        code, _, _ = run(capsys, *argv)
        assert code in codes, argv
        codes[code] += 1
    assert min(codes[0], codes[1], codes[2]) >= 100 and codes[3] >= 5, codes


def test_cli_equiv_checks_each_header_against_the_data_signature(workdir, capsys):
    """With ``--data``, ``equiv`` loads both plans under the data's
    signature and checks each file's header against it, as every other
    subcommand does: a relation the data lacks, or a different arity, exits
    2 with the header's message.  A header the data agrees with is read."""
    data = ["--data", workdir / "d.json"]
    (workdir / "f.plan").write_text("rel E 2\nrel F 1\nE\n")
    (workdir / "e3.plan").write_text("rel E 3\nE\n")
    for name, declared in (("f.plan", "F/1"), ("e3.plan", "E/3")):
        message = f"spjopt: {workdir / name}: header declares {declared}, which conflicts with the data signature\n"
        for first, second in ((workdir / name, workdir / "tri.plan"), (workdir / "tri.plan", workdir / name)):
            assert run(capsys, "equiv", "--plan", first, "--plan2", second, *data) == (2, "", message)
        assert run(capsys, "check", "--plan", workdir / name, *data) == (2, "", message)
    code, out, err = run(capsys, "equiv", "--plan", workdir / "tri.plan", "--plan2", workdir / "tri.plan", *data)
    assert (code, err, json.loads(out)["equivalent"]) == (0, "", True)


# An int with more digits than Python converts (sys.get_int_max_str_digits()).
BIG_INT = "9" * 5_000
BIG_DATA = {
    "signature arity": json.dumps(DATA).replace('{"E": 2}', '{"E": ' + BIG_INT + "}"),
    "universe element": json.dumps(DATA).replace('"universe": ["a"', '"universe": [' + BIG_INT),
    "row entry": json.dumps(DATA).replace('[["a", "b"]', '[["a", ' + BIG_INT + "]"),
}


@pytest.mark.parametrize("slot", sorted(BIG_DATA))
def test_load_structure_reports_an_oversized_int_as_a_format_error(slot, tmp_path):
    """``json.loads`` raises a plain ``ValueError``, not a
    ``JSONDecodeError``, for an int past Python's digit limit anywhere in
    the document; the loader reports it as a format error naming the file."""
    path = tmp_path / "d.json"
    path.write_text(BIG_DATA[slot])
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: Exceeds the limit "):
        serialize.load_structure(str(path))


# Every integer a user writes: the files that hold it (over a plan, keys and
# data that load), the extra argv that reads it and a part of its error line.
_OVERSIZED = {
    "plan cols": ({"p.plan": f"rel E 2\n(project (cols {BIG_INT}) E)\n"}, [], "-digit limit"),
    "plan theta": ({"p.plan": f"rel E 2\n(select (theta (1 {BIG_INT})) E)\n"}, [], "-digit limit"),
    "rel arity": ({"p.plan": f"rel E {BIG_INT}\nE\n"}, [], "bad arity '99"),
    "key position": ({"k.keys": f"key E {BIG_INT}\n"}, ["--keys", "k.keys"], "bad position '99"),
    **{
        f"data {slot}": ({"d.json": text}, ["--data", "d.json"], "d.json: Exceeds the limit")
        for slot, text in BIG_DATA.items()
    },
    "--cap-universe": ({}, ["--cap-universe", BIG_INT], "argument --cap-universe: invalid int value"),
    "--n": ({}, ["--n", BIG_INT], "argument --n: expected comma-separated ints"),
}


@pytest.mark.parametrize("slot", list(_OVERSIZED))
def test_cli_oversized_integers_exit_with_one_error_line(slot, tmp_path, capsys):
    """A 5,000-digit integer in any slot a user controls exits 1 or 2 on
    every subcommand that reads the slot, with one error line on stderr
    (after argparse's usage, for exit 1) that names the slot's fault, and
    no exception escaping ``main``."""
    files, extra, fault = _OVERSIZED[slot]
    texts = {"p.plan": "rel E 2\n(project (cols 1) E)\n", "k.keys": "key E 1\n", "d.json": json.dumps(DATA)}
    for name, text in {**texts, **files}.items():
        (tmp_path / name).write_text(text)
    if slot == "--n":
        commands = ["witness"]
    elif slot == "key position":
        commands = [c for c in cli._COMMANDS if c != "represent"]  # represent reads no keys
    else:
        commands = list(cli._COMMANDS)
    for command in commands:
        argv = [command, "--plan", "p.plan"] + extra
        if command == "equiv":
            argv += ["--plan2", "p.plan"]
        if command == "evaluate" and "--data" not in extra:
            argv += ["--data", "d.json"]
        code, out, err = run(capsys, *[tmp_path / a if a in texts else a for a in argv])
        lines = err.splitlines()
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("spjopt: "), (command, err[:300])
        else:
            assert code == 1 and lines[0].startswith("usage: "), (command, err[:300])
            assert [line for line in lines if "error:" in line] == lines[-1:], (command, err[:300])
        assert fault in lines[-1] and out == "", (command, err[:300])
