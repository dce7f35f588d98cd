"""Golden CLI output: the SHA-256 of stdout and the exit code of a fixed set
of invocations, recorded in ``tests/golden/cli.json``.

The inputs are the triangle, a keyed two-atom path and a few fixed-seed
random plans from ``conftest``, each with a key-satisfying database.  Every
subcommand and ``--format`` variant is run on them, plus the usage errors.
The directed 4- and 5-cycles projected to one column, under ``key E 1``,
pin the keyed pipeline: ``optimize``, ``degree``, ``core``, ``decompose``
and ``witness`` on them.
``--help`` is left out: argparse's help layout differs between Python
versions.

After an intended change of output, rewrite the goldens with

    PYTHONPATH=src:tests python tests/test_cli_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from spjopt import Signature, print_plan
from spjopt.cli import main
from spjopt.serialize import dumps, structure_to_json

from conftest import rand_keys, rand_plan, rand_satisfying_structure, rand_signature
from oracles import keys_to_text

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
RANDOM_SEEDS = (3, 12, 21, 34, 37)

TRIANGLE = "(project (cols 1 2 4) (join (theta (2 3) (4 5) (6 1)) E E E))"
TRIANGLE_ROTATED = "(project (cols 4 1 2) (join (theta (4 5) (1 6)) (join (theta (2 3)) E E) E))"
TRIANGLE_DATA = {
    "signature": {"E": 2},
    "universe": ["a", "b", "c", "d"],
    "relations": {"E": [["a", "b"], ["b", "c"], ["c", "a"], ["a", "d"]]},
}
KEYED_PATH = "(project (cols 1 4) (join (theta (2 3)) R R))"
KEYED_DATA = {
    "signature": {"R": 2},
    "universe": ["a", "b", "c"],
    "relations": {"R": [["a", "b"], ["b", "c"], ["c", "c"]]},
}
CYCLE_LENGTHS = (4, 5)


def _cycle_plan(n: int) -> str:
    """The directed n-cycle of E atoms, projected to its first vertex."""
    theta = " ".join(f"({2 * i} {2 * i + 1})" for i in range(1, n))
    return f"(project (cols 1) (join (theta (1 {2 * n}) {theta}) {' '.join('E' * n)}))"


def _header(sig: Signature) -> str:
    return "".join(f"rel {name} {sig.arity(name)}\n" for name in sig.symbols())


def _write_inputs(root: Path) -> list[str]:
    """Write every input file under ``root``; returns the input names."""
    (root / "tri.plan").write_text(f"rel E 2\n{TRIANGLE}\n")
    (root / "tri_rot.plan").write_text(f"rel E 2\n{TRIANGLE_ROTATED}\n")
    (root / "tri.keys").write_text("")
    (root / "tri.json").write_text(json.dumps(TRIANGLE_DATA))
    (root / "path.plan").write_text(f"rel R 2\n{KEYED_PATH}\n")
    (root / "path.keys").write_text("key R 1\n")
    (root / "path.json").write_text(json.dumps(KEYED_DATA))
    names = ["tri", "path"]
    for seed in RANDOM_SEEDS:
        rng = random.Random(seed)
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        plan = rand_plan(rng, sig, max_operators=5)
        keys = rand_keys(rng, sig)
        data = rand_satisfying_structure(rng, sig, keys, max_domain=4, max_rows=4)
        name = f"rand{seed}"
        (root / f"{name}.plan").write_text(_header(sig) + print_plan(plan) + "\n")
        (root / f"{name}.keys").write_text(keys_to_text(keys))
        (root / f"{name}.json").write_text(json.dumps(structure_to_json(data)))
        names.append(name)
    for n in CYCLE_LENGTHS:
        (root / f"cycle{n}.plan").write_text(f"rel E 2\n{_cycle_plan(n)}\n")
        (root / f"cycle{n}.keys").write_text("key E 1\n")
    return names


def _cases(names: list[str]) -> dict[str, list[str]]:
    """Case name -> argv, with input files named relative to the input root."""
    cases: dict[str, list[str]] = {}
    for name in names:
        plan, keys, data = f"{name}.plan", f"{name}.keys", f"{name}.json"
        pk = ["--plan", plan, "--keys", keys]
        for fmt in ("json", "dot"):
            cases[f"{name}/represent/{fmt}"] = ["represent", "--plan", plan, "--format", fmt]
            cases[f"{name}/decompose/{fmt}"] = ["decompose", *pk, "--format", fmt]
        for fmt in ("json", "text"):
            cases[f"{name}/optimize/{fmt}"] = ["optimize", *pk, "--format", fmt]
            cases[f"{name}/evaluate/{fmt}"] = ["evaluate", "--plan", plan, "--data", data, "--format", fmt]
        cases.update({
            f"{name}/check": ["check", *pk, "--data", data],
            f"{name}/chase/plan": ["chase", *pk],
            f"{name}/chase/data": ["chase", "--data", data, "--keys", keys],
            f"{name}/core/plan": ["core", *pk],
            f"{name}/core/data": ["core", "--data", data, "--keys", keys],
            f"{name}/decompose/data": ["decompose", "--data", data, "--keys", keys],
            f"{name}/degree": ["degree", *pk],
            f"{name}/evaluate/trace": ["evaluate", "--plan", plan, "--data", data, "--trace"],
            f"{name}/equiv/self": ["equiv", *pk, "--plan2", plan],
            f"{name}/witness": ["witness", *pk, "--n", "1,2"],
            f"{name}/cap": ["optimize", *pk, "--cap-universe", "2"],
        })
    for n in CYCLE_LENGTHS:
        pk = ["--plan", f"cycle{n}.plan", "--keys", f"cycle{n}.keys"]
        cases.update({
            f"cycle{n}/optimize/json": ["optimize", *pk],
            f"cycle{n}/optimize/text": ["optimize", *pk, "--format", "text"],
            f"cycle{n}/degree": ["degree", *pk],
            f"cycle{n}/core": ["core", *pk],
            f"cycle{n}/decompose": ["decompose", *pk],
            f"cycle{n}/witness": ["witness", *pk, "--n", "1,2"],
            f"cycle{n}/cap": ["optimize", *pk, "--cap-universe", "2"],
        })
    cases.update({
        "tri/equiv/rotated": ["equiv", "--plan", "tri.plan", "--plan2", "tri_rot.plan"],
        "tri/equiv/path": ["equiv", "--plan", "tri.plan", "--plan2", "path.plan"],
        "usage/frobnicate": ["frobnicate"],
        "usage/no-args": [],
        "usage/bad-option": ["optimize", "--plan", "tri.plan", "--bogus"],
        "usage/bad-format": ["optimize", "--plan", "tri.plan", "--format", "xml"],
        "usage/bad-n": ["witness", "--plan", "tri.plan", "--n", "1,x"],
        "usage/bad-n-other-command": ["degree", "--plan", "tri.plan", "--n", "two"],
        "usage/trace-other-command": ["optimize", "--plan", "tri.plan", "--trace"],
        "usage/plan2-other-command": ["degree", "--plan2", "tri.plan"],
        "usage/format-not-printed/check": ["check", "--plan", "tri.plan", "--format", "dot"],
        "usage/format-not-printed/represent": ["represent", "--plan", "tri.plan", "--format", "text"],
        "usage/missing-plan": ["optimize"],
    })
    return cases


def _outputs(root: Path) -> dict[str, tuple[int, str]]:
    """Case name -> (exit code, stdout), run with ``root`` as the input
    directory."""
    results = {}
    for case, argv in _cases(_write_inputs(root)).items():
        resolved = [str(root / a) if (root / a).is_file() else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(resolved)
        results[case] = (code, out.getvalue())
    return results


def record(root: Path) -> dict[str, list]:
    """Case name -> [exit code, SHA-256 of stdout], run with ``root`` as
    the input directory."""
    return {
        case: [code, hashlib.sha256(out.encode("utf-8")).hexdigest()]
        for case, (code, out) in _outputs(root).items()
    }


def test_cli_output_matches_goldens(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = record(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [case for case in expected if got[case] != expected[case]]
    assert not changed, changed


def test_writer_matches_the_stdlib_on_every_golden_document(tmp_path):
    """Every JSON document the golden cases print, and every file under
    ``tests/golden``, is written as ``json.dumps(doc, indent=2)`` writes
    it."""
    docs = [json.loads(path.read_text()) for path in sorted(GOLDEN.parent.glob("*.json"))]
    for code, out in _outputs(tmp_path).values():
        if code == 0 and out.startswith("{"):
            docs.append(json.loads(out))
            assert dumps(docs[-1]) == out
    assert len(docs) > 100
    for doc in docs:
        assert dumps(doc) == json.dumps(doc, indent=2) + "\n"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        doc = record(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
