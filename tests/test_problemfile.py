import copy
import importlib.resources
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import absnormal
from absnormal.anf import evaluate
from absnormal.cones import linearize_anf, linearize_mpcc
from absnormal.problemfile import (
    PROBLEM_SCHEMA,
    ProblemFileError,
    check_schema_keywords,
    load_corpus_problem,
    parse_problem_data,
    schema_errors,
    schema_violation,
)
from absnormal.transforms import mpcc_point_from_eval, to_mpcc

from branch_oracles import anf_branches, branch_union, cone_equal, union_from_branches


def test_shipped_schema_file_is_a_valid_schema():
    import jsonschema

    ref = importlib.resources.files("absnormal") / "schema" / "problem.schema.json"
    shipped = json.loads(ref.read_text())
    jsonschema.validators.validator_for(shipped).check_schema(shipped)


def test_shipped_schema_rejects_unknown_fields_with_exact_message():
    data = {
        "name": "tiny",
        "dimensions": {"n_t": 1, "s": 0, "m1": 0, "m2": 0},
        "objective": {"linear": ["1"]},
        "switching": [],
        "points": [{"label": "origin", "t": ["0"], "expected": {"akq": "holds", "kkt": "holds"}}],
    }
    with pytest.raises(ProblemFileError) as top:
        parse_problem_data(dict(data, bogus=1))
    assert str(top.value) == "schema violation at $: Additional properties are not allowed ('bogus' was unexpected)"
    with pytest.raises(ProblemFileError) as nested:
        parse_problem_data(data)
    assert str(nested.value) == (
        "schema violation at $['points'][0]['expected']: "
        "Additional properties are not allowed ('kkt' was unexpected)"
    )


def test_corpus_files_validate_against_schema():
    import jsonschema

    for name in ("E1", "E2", "E3", "E4"):
        ref = importlib.resources.files("absnormal") / "corpus" / f"{name}.json"
        jsonschema.validate(json.loads(ref.read_text()), PROBLEM_SCHEMA)


def _corpus_documents() -> list[dict]:
    files = importlib.resources.files("absnormal") / "corpus"
    return [json.loads((files / f"{name}.json").read_text()) for name in ("E1", "E2", "E3", "E4")]


_KEYS = ["name", "t", "label", "linear", "quadratic", "constant", "eq", "ineq", "akq", "b-stationary",
         "n_t", "s", "m1", "m2", "points", "expected", "minimizer", "σ=+", "bogus", "zz"]
_LEAVES = [True, False, None, 1.0, -2.0, 0.5, -1, 0, 3, "holds", "x", "1/2"]


def _random_value(rng: random.Random, depth: int = 0):
    """A bool, float, null, int or string, or below depth 2 also a list or a dict."""
    r = rng.randrange(len(_LEAVES) + (3 if depth < 2 else 0))
    if r < len(_LEAVES):
        return _LEAVES[r]
    if r < len(_LEAVES) + 2:
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(3))]
    return {rng.choice(_KEYS): _random_value(rng, depth + 1) for _ in range(rng.randrange(3))}


def _mutate(rng: random.Random, doc: dict) -> dict:
    """One to three edits of ``doc``: a replaced value, a deleted key or an added key."""
    for _ in range(rng.randint(1, 3)):
        parents = [doc]
        for node in parents:
            children = node.values() if isinstance(node, dict) else node
            parents.extend(c for c in children if isinstance(c, (dict, list)))
        node = rng.choice(parents)
        if isinstance(node, list):
            if node:
                node[rng.randrange(len(node))] = _random_value(rng)
        elif node and rng.randrange(3) == 0:
            del node[rng.choice(list(node))]
        else:
            key = rng.choice(list(node) + _KEYS) if rng.randrange(2) else rng.choice(_KEYS)
            node[key] = _random_value(rng)
    return doc


def test_schema_check_agrees_with_jsonschema_best_match():
    import jsonschema

    validator = jsonschema.validators.validator_for(PROBLEM_SCHEMA)(PROBLEM_SCHEMA)
    rng = random.Random(20201)
    documents = _corpus_documents()
    rejected = set()
    for _ in range(1500):
        doc = _mutate(rng, copy.deepcopy(rng.choice(documents)))
        error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
        expected = None
        if error is not None:
            path = "".join(f"[{p!r}]" for p in error.absolute_path)
            expected = f"schema violation at ${path}: {error.message}"
            rejected.add(error.validator)
        assert schema_violation(doc) == expected, doc
    # every keyword's message was compared
    assert rejected == {"type", "enum", "minimum", "required", "additionalProperties"}


def test_schema_check_follows_draft_2020_12_types():
    assert list(schema_errors({"type": "integer"}, True)) == [((), "True is not of type 'integer'")]
    assert list(schema_errors({"minimum": 0}, False)) == []
    assert list(schema_errors({"type": "integer", "minimum": 0}, 2.0)) == []
    assert list(schema_errors({"type": ["string", "integer"]}, 0.5)) == [
        ((), "0.5 is not of type 'string', 'integer'")
    ]
    assert list(schema_errors({"enum": [1, [0]]}, True)) == [((), "True is not one of [1, [0]]")]
    assert list(schema_errors({"enum": [1, [0]]}, [False])) == [((), "[False] is not one of [1, [0]]")]
    assert list(schema_errors({"enum": [1, [0]]}, 1.0)) == []


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "pattern": "x"},
        {"properties": {"a": {"items": {"format": "date"}}}},
        {"additionalProperties": True},
        {"type": "float"},
    ],
)
def test_schema_keyword_walk_rejects_what_the_check_does_not_implement(schema):
    with pytest.raises(RuntimeError, match="problem schema"):
        check_schema_keywords(schema)


_WITHOUT_JSONSCHEMA = """
import contextlib, io, sys
import absnormal.cli
if "jsonschema" in sys.modules:
    sys.exit("importing absnormal.cli imported jsonschema")
sys.modules["jsonschema"] = None  # any import of it now raises ImportError
with contextlib.redirect_stdout(io.StringIO()):
    code = absnormal.cli.main(["corpus", "run"])
if code != 0:
    sys.exit(f"corpus run exited {code}")
import test_problemfile
test_problemfile.test_shipped_schema_rejects_unknown_fields_with_exact_message()
"""


def test_cli_imports_and_runs_without_jsonschema():
    src = Path(absnormal.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_JSONSCHEMA], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_lin_cone_union_constructors():
    pf = load_corpus_problem("E1")
    e = evaluate(pf.program, [0, 0])
    u = branch_union(linearize_anf(pf.program, e))
    v = union_from_branches(anf_branches(pf.program, e))
    assert [label for label, _ in u.members] == [label for label, _ in v.members]
    for (_, a), (_, b) in zip(u.members, v.members):
        assert cone_equal(a, b)
    mp = to_mpcc(pf.program)
    um = branch_union(linearize_mpcc(mp, mpcc_point_from_eval(e)))
    assert [label for label, _ in um.members] == ["P={}", "P={1}"]


def test_cli_branch_cap(capsys):
    from absnormal.cli import main

    code = main(["branches", "E2", "--point", "origin", "--branch-cap", "4"])
    err = capsys.readouterr().err
    assert code == 3
    assert "cap" in err


def _two_switch_problem(label: str) -> dict:
    """A problem with s = 2 that annotates the branch ``label``."""
    return {
        "name": "two-switch",
        "dimensions": {"n_t": 2, "s": 2, "m1": 0, "m2": 0},
        "objective": {"linear": ["0", "1"]},
        "switching": [{"linear": ["1", "0", "0", "0"]}, {"linear": ["0", "1", "0", "0"]}],
        "tangent_annotations": {label: [{"eq": [["1", "0", "0", "0"]]}]},
    }


@pytest.mark.parametrize("label", ["σ=+", "σ=+0", "P={1}", "sigma=++"])
def test_annotation_label_must_be_a_definite_signature(label):
    with pytest.raises(ProblemFileError, match="unknown branch label"):
        parse_problem_data(_two_switch_problem(label))


def test_annotation_label_of_a_definite_signature_is_accepted():
    pf = parse_problem_data(_two_switch_problem("σ=+-"))
    assert list(pf.annotations) == ["σ=+-"]


def test_eval_and_reformulate_take_no_branch_cap(capsys):
    from absnormal.cli import main

    assert main(["eval", "E1", "--branch-cap", "4"]) == 3
    assert main(["reformulate", "E1", "--slack", "--branch-cap", "4"]) == 3
    assert "--branch-cap" in capsys.readouterr().err
