import json

import importlib.resources

import pytest

from absnormal.anf import evaluate
from absnormal.cones import linearize_anf, linearize_mpcc
from absnormal.problemfile import PROBLEM_SCHEMA, ProblemFileError, load_corpus_problem, parse_problem_data
from absnormal.transforms import enumerate_branches, mpcc_point_from_eval, to_mpcc

from branch_oracles import branch_union, cone_equal, union_from_branches


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


def test_lin_cone_union_constructors():
    pf = load_corpus_problem("E1")
    e = evaluate(pf.program, [0, 0])
    u = branch_union(linearize_anf(pf.program, e))
    v = union_from_branches(enumerate_branches(pf.program, e))
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
