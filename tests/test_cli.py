"""File formats and the command-line front end."""

import json

import pytest

from spjopt import KeySet, OpenStructure, Signature, Structure, parse_plan
from spjopt import cli
from spjopt.cli import main
from spjopt.errors import FormatError
from spjopt.serialize import (
    keys_from_text,
    keys_to_text,
    plan_file_from_text,
    structure_from_json,
    structure_to_json,
)

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


def test_keys_file_roundtrip():
    ks = keys_from_text("key E 1\n# note\n\nkey R 2\n")
    assert ks == KeySet.unary({"E": 1, "R": 2})
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


def test_cli_check_and_degree(workdir, capsys):
    code, out, _ = run(capsys, "check", "--plan", workdir / "tri.plan")
    assert code == 0
    assert json.loads(out)["wellBehaved"] is True
    code, out, _ = run(capsys, "degree", "--plan", workdir / "tri.plan")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputDegree"] == "3/2"
    assert doc["intermediateDegreeBound"] == "3/2"


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


def test_cli_represent_dot(workdir, capsys):
    code, out, _ = run(capsys, "represent", "--plan", workdir / "tri.plan", "--format", "dot")
    assert code == 0
    assert out.startswith("graph decomposition {")


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
    # resource cap: a 17-element universe with cap from the environment
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


def test_cli_deep_plan_is_a_resource_cap(tmp_path, capsys):
    """1,200 nested selects exceed the recursion limit: exit 3 with one
    line on stderr, no traceback and nothing on stdout."""
    depth = 1200
    text = "rel R 2\n" + "(select (theta (1 2)) " * depth + "R" + ")" * depth + "\n"
    (tmp_path / "deep.plan").write_text(text)
    code, out, err = run(capsys, "check", "--plan", tmp_path / "deep.plan")
    assert code == 3
    assert out == ""
    assert err.startswith("spjopt: resource cap: ")
    assert err.count("\n") == 1


def test_cli_out_of_memory_is_a_resource_cap(workdir, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError()

    monkeypatch.setitem(cli._COMMANDS, "evaluate", exhausted)
    code, out, err = run(
        capsys, "evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json"
    )
    assert code == 3
    assert out == ""
    assert err == "spjopt: resource cap: out of memory\n"


def test_cli_multi_key_diagnostic(workdir, capsys):
    (workdir / "multi.keys").write_text("key E 1\nkey E 2\n")
    code, _, err = run(
        capsys, "degree", "--plan", workdir / "tri.plan", "--keys", workdir / "multi.keys"
    )
    assert code == 2
    assert "multiple keys" in err
    code, out, _ = run(
        capsys,
        "degree", "--plan", workdir / "tri.plan", "--keys", workdir / "multi.keys",
        "--force-multi-keys",
    )
    assert code == 0


def test_cli_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1
