import copy
import dataclasses
import importlib.resources
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from absnormal import stationarity
from absnormal.anf import evaluate
from absnormal.cli import _ser_program, main, recheck_report
from absnormal.cones import BranchLinearization, PolyCone
from absnormal.cq import ABS_E, ABS_I, FORMULATIONS, MPCC_E, MPCC_I, PointAnalysis, analyze_point
from absnormal.ratmath import (
    FEASIBLE,
    INFEASIBLE,
    KIND_FARKAS,
    KIND_POINT,
    LpCertificate,
    LpResult,
    vec_neg,
    zero_vec,
)
from absnormal.problemfile import (
    ProblemFileError,
    load_corpus_problem,
    parse_problem,
    parse_problem_data,
)
from absnormal.transforms import MpccProgram

from branch_oracles import anf_branches, mpcc_branches
from conftest import bench_kinks, fallback_kinks_problem, qkinks_problem, random_affine_program


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def minimal_problem(**overrides):
    data = {
        "name": "tiny",
        "dimensions": {"n_t": 2, "s": 1, "m1": 1, "m2": 0},
        "objective": {"linear": ["0", "1"]},
        "equalities": [{"linear": ["0", "1", "-1"]}],
        "switching": [{"linear": ["1", "0", "0"]}],
        "points": [{"label": "origin", "t": ["0", "0"]}],
    }
    data.update(overrides)
    return data


def test_parse_corpus_problem_valid():
    pf = load_corpus_problem("E1")
    assert pf.program.s == 1
    assert pf.points[0].minimizer


def test_parse_decimal_coefficients_exactly():
    data = minimal_problem(equalities=[{"linear": ["0", "0.5", "-0.5"]}])
    pf = parse_problem_data(data)
    from fractions import Fraction

    assert pf.program.c_e[0].linear[1] == Fraction(1, 2)


def test_parse_rejects_unknown_fields():
    data = minimal_problem(extra_field=1)
    with pytest.raises(ProblemFileError, match="schema"):
        parse_problem_data(data)


def test_parse_rejects_wrong_annotation_label():
    data = minimal_problem(tangent_annotations={"σ=++": [{"eq": [["1", "0", "0"]]}]})
    with pytest.raises(ProblemFileError, match="unknown branch label"):
        parse_problem_data(data)


def test_parse_rejects_wrong_point_length():
    data = minimal_problem(points=[{"label": "bad", "t": ["0"]}])
    with pytest.raises(ProblemFileError, match="coordinates"):
        parse_problem_data(data)


def test_parse_rejects_invalid_program():
    data = minimal_problem(switching=[{"linear": ["1", "0", "1"]}])  # z depends on zeta
    with pytest.raises(ProblemFileError, match="triangularity"):
        parse_problem_data(data)


def test_parse_problem_file_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  bad}')
    with pytest.raises(ProblemFileError, match=r":2:"):
        parse_problem(str(path))


def test_cli_check_cq_e1_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check-cq", "E1", "--point", "origin", "--all")
    assert code == 0
    report = json.loads(out)
    assert report["points"][0]["cq"]["akq"]["status"] == "holds"


def test_cli_check_cq_point_by_coordinates(capsys):
    code, out, _ = run_cli(capsys, "check-cq", "E1", "--point", "0,0")
    assert code == 0


def test_cli_verify_relations_e3_exit_one_but_consistent(capsys):
    code, out, _ = run_cli(capsys, "verify-relations", "E3", "--point", "origin")
    assert code == 1  # AKQ fails (expected), so the verdict class is "fails"
    report = json.loads(out)
    relations = report["points"][0]["relations"]
    assert relations["consistent"] is True
    assert relations["kink_verdicts"]["abadie[abs-i]"]["status"] == "fails"


def test_cli_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "E2", "--point", "origin")
    assert code == 0
    report = json.loads(out)
    assert report["points"][0]["eval"]["active_inequalities"] == [1, 2]


def test_cli_unknown_verdict_exit_two(tmp_path, capsys):
    # E3 without its annotations: the tangent cones stay uncertified
    data = json.loads((_corpus_path("E3")).read_text())
    del data["tangent_annotations"]
    path = tmp_path / "e3_bare.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "check-cq", str(path), "--point", "origin", "--akq")
    assert code == 2
    report = json.loads(out)
    assert report["points"][0]["cq"]["akq"]["status"] == "unknown"
    assert report["points"][0]["cq"]["akq"]["blocking"]
    # every kink verdict is Unknown, so the relations are consistent but no
    # converse is observed, and both commands recheck clean and exit 2
    code, out, _ = run_cli(capsys, "verify-relations", str(path), "--recheck")
    assert code == 2
    report = json.loads(out)
    assert report["recheck"]["errors"] == []
    relations = report["points"][0]["relations"]
    assert relations["consistent"] is True
    assert {v["status"] for v in relations["kink_verdicts"].values()} == {"unknown"}
    assert "untestable" in {arrow.get("converse_observation") for arrow in relations["arrows"]}
    code, out, _ = run_cli(capsys, "check-cq", str(path), "--all", "--recheck")
    assert code == 2
    report = json.loads(out)
    assert report["recheck"]["errors"] == []
    cq = report["points"][0]["cq"]
    assert {cq[kind]["status"] for kind in ("akq", "gkq", "mpcc-acq", "mpcc-gcq")} == {"unknown"}


def _corpus_path(name):
    import importlib.resources

    return importlib.resources.files("absnormal") / "corpus" / f"{name}.json"


def test_cli_branches_and_cones(capsys):
    code, out, _ = run_cli(capsys, "branches", "E2", "--point", "origin", "--form", "mpcc-e")
    assert code == 0
    report = json.loads(out)
    assert len(report["points"][0]["branches"]["mpcc-e"]) == 8
    code, out, _ = run_cli(capsys, "cones", "E1", "--point", "origin", "--dual")
    assert code == 0
    report = json.loads(out)
    section = report["points"][0]["cones"]["abs-i"]
    assert section["branches"][0]["tangent_source"] == "affine"
    assert "lin_union_dual" in section
    # cones serialize with both H-rows and generator lists
    lin = section["branches"][0]["lin"]
    assert lin["rays"] == [["1", "1", "1"]] and lin["lineality"] == []


def test_cli_eval_reports_infeasible_point(capsys):
    code, out, _ = run_cli(capsys, "eval", "E1", "--point", "1,5")
    assert code == 0
    report = json.loads(out)
    assert report["points"][0]["eval"]["feasible"] is False


def test_cli_check_cq_rejects_infeasible_point(capsys):
    code, out, err = run_cli(capsys, "check-cq", "E1", "--point", "1,5")
    assert code == 3
    assert "not feasible" in err


def test_cli_reformulate(capsys):
    code, out, _ = run_cli(capsys, "reformulate", "E2", "--slack-mpcc")
    assert code == 0
    report = json.loads(out)
    assert report["slack"]["dimensions"] == {"n_t": 4, "s": 3, "m1": 3, "m2": 0}
    assert report["slack-mpcc"]["variables"] == {"n_x": 4, "pairs": 3}
    assert len(report["slack-mpcc"]["complementarity_pairs"]) == 3


def test_cli_usage_error_exit_three(capsys):
    assert main(["check-cq"]) == 3  # missing problem argument
    assert main(["no-such-command"]) == 3
    assert main(["check-cq", "/nonexistent/file.json"]) == 3


def test_cli_out_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "eval", "E1", "--point", "origin", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["command"] == "eval"


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "E1", "--point", "origin"),
        ("check-cq", "E2", "--all", "--recheck"),
        ("corpus", "run"),
        ("corpus", "run", "--recheck"),
    ],
)
def test_cli_out_unwritable_is_an_error_not_a_verdict(tmp_path, capsys, argv):
    out_path = tmp_path / "missing-dir" / "report.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("site", ["cli-point", "coefficient", "point", "annotation-row", "annotation-ineq-row"])
def test_zero_denominator_is_an_input_error_not_a_verdict(tmp_path, capsys, site):
    data = minimal_problem(
        tangent_annotations={"σ=+": [{"eq": [["1", "0", "0"]]}, {"ineq": [["0", "1", "0"]]}]}
    )
    # where a problem file's error says the bad string sits
    where = {
        "coefficient": "objective",
        "point": "points[0]",
        "annotation-row": "tangent annotation σ=+[0]",
        "annotation-ineq-row": "tangent annotation σ=+[1]",
    }.get(site)
    if site == "coefficient":
        data["objective"]["linear"][1] = "1/0"
    elif site == "point":
        data["points"][0]["t"][0] = "1/0"
    elif site == "annotation-row":
        data["tangent_annotations"]["σ=+"][0]["eq"][0][2] = "1/0"
    elif site == "annotation-ineq-row":
        data["tangent_annotations"]["σ=+"][1]["ineq"][0][0] = "1/0"
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data))
    point = "1/0,0" if site == "cli-point" else "origin"
    code, out, err = run_cli(capsys, "check-stationarity", str(path), "--point", point)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "1/0" in err
    assert "Traceback" not in err
    if where is not None:
        assert err == f"error: {path}: {where}: zero denominator in '1/0'\n"


@pytest.mark.parametrize("key", ["n_t", "s", "m1", "m2"])
def test_integral_float_dimension_is_an_input_error(tmp_path, capsys, key):
    # draft 2020-12 counts 1.0 as an integer, so the schema lets it through
    data = minimal_problem()
    data["dimensions"][key] = float(data["dimensions"][key])
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "check-stationarity", str(path))
    value = data["dimensions"][key]
    assert (code, out, err) == (3, "", f"error: {path}: dimensions: non-integer dimension {key} = {value!r}\n")


def test_cli_recheck_passes_everywhere(capsys):
    for name in ("E1", "E2", "E3", "E4"):
        code, out, _ = run_cli(capsys, "check-cq", name, "--all", "--recheck")
        report = json.loads(out)
        assert report["recheck"]["errors"] == []
        code, out, _ = run_cli(capsys, "check-stationarity", name, "--recheck")
        report = json.loads(out)
        assert report["recheck"]["errors"] == []


def test_recheck_detects_tampered_multipliers(capsys):
    code = main(["check-stationarity", "E1", "--point", "origin", "--m", "--form", "anf"])
    out = capsys.readouterr().out
    report = json.loads(out)
    verdict = report["points"][0]["stationarity"]["m-anf"]
    assert verdict["status"] == "holds"
    verdict["multipliers"]["lam_e"] = ["5"]
    pf = load_corpus_problem("E1")
    errors = recheck_report(pf, report)
    assert errors


def test_recheck_detects_tampered_witness(capsys):
    code = main(["check-cq", "E3", "--point", "origin", "--akq"])
    report = json.loads(capsys.readouterr().out)
    verdict = report["points"][0]["cq"]["akq"]
    assert verdict["status"] == "fails"
    pf = load_corpus_problem("E3")
    assert recheck_report(pf, report) == []
    verdict["witness"] = ["0", "1", "0"]  # tangent to both branches
    assert recheck_report(pf, report) == [
        f"point origin akq: witness lies inside the tangent bound of branch {label}" for label in ("σ=+", "σ=-")
    ]
    verdict["witness"] = ["1", "0", "0"]  # in no branch linearized cone
    assert recheck_report(pf, report) == ["point origin akq: witness is not linearized-feasible"]
    code = main(["check-cq", "E3", "--point", "origin", "--branches"])
    report = json.loads(capsys.readouterr().out)
    assert recheck_report(pf, report) == []
    entry = report["points"][0]["cq"]["branches"]["abs-i"][0]
    assert (entry["branch"], entry["acq"]["status"]) == ("σ=+", "fails")
    entry["acq"]["branch"] = "σ=?"
    assert recheck_report(pf, report) == ["point origin abs-i σ=+ acq: no branch 'σ=?' in formulation abs-i"]


@pytest.mark.parametrize(
    "place, edit, message",
    [
        (("gkq",), {"kind": "mpcc-gcq", "formulation": "mpcc-e"}, "the entry is kind mpcc-gcq of mpcc-e, where the report writes kind gkq of abs-i"),
        (("akq",), {"formulation": "abs-e"}, "the entry is kind akq of abs-e, where the report writes kind akq of abs-i"),
        (("akq",), {"note": "tampered"}, "a verdict of kind akq that fails writes no note"),
        (("gkq-slack",), {"blocking": ["σ=+"]}, "a verdict of kind gkq that holds writes no blocking"),
        (("mpcc-gcq",), {"branch": "P={}"}, "a verdict of kind mpcc-gcq that holds writes no branch"),
        (("abs-i", "acq"), {"formulation": "mpcc"}, "the entry is kind branch-acq of mpcc, where the report writes kind branch-acq of anf"),
        (("mpcc-i", "gcq"), {"kind": "branch-acq"}, "the entry is kind branch-acq of mpcc, where the report writes kind branch-gcq of mpcc"),
        (("abs-i", "gcq"), {"blocking": ["σ=+"]}, "a verdict of kind branch-gcq that holds writes no blocking"),
        (("bogus",), None, "the entry is kind gkq of abs-i, where the report writes no qualification verdict"),
    ],
    ids=["kind", "formulation", "note", "blocking", "kink-branch", "branch-form", "branch-kind", "branch-blocking", "name"],
)
def test_recheck_names_a_qualification_entry_out_of_place(capsys, place, edit, message):
    # each entry must be the verdict its place in the report names, setting
    # only the fields that its kind and status write; ``place`` is a cq name,
    # or a formulation and a field of its first branch's entry
    code, out, _ = run_cli(capsys, "check-cq", "E4", "--point", "origin", "--all", "--recheck")
    report = json.loads(out)
    assert (code, report.pop("recheck")) == (1, {"errors": []})
    cq = report["points"][0]["cq"]
    if len(place) == 1:
        where = place[0]
        entry = cq.setdefault(where, dict(cq["gkq"]))
    else:
        key, which = place
        branch = cq["branches"][key][0]
        where, entry = f"{key} {branch['branch']} {which}", branch[which]
    entry.update(edit or {})
    assert recheck_report(load_corpus_problem("E4"), report) == [f"point origin {where}: {message}"]


def test_branch_verdict_writing_a_field_it_never_writes_exits_three_not_as_a_verdict(capsys, monkeypatch):
    # the branch list's self-check holds each branch verdict to the same rule
    import absnormal.cq

    real = absnormal.cq.check_branch_cq

    def blocked(ba, which):
        verdict = real(ba, which)
        return dataclasses.replace(verdict, blocking=(ba.label,)) if verdict.status == "holds" else verdict

    monkeypatch.setattr(absnormal.cq, "check_branch_cq", blocked)
    code, out, err = run_cli(capsys, "check-cq", "E4", "--branches")
    assert (code, out) == (3, "")
    assert err == (
        "error: internal: branch-gcq certificate failed self-check: "
        "['a verdict of kind branch-gcq that holds writes no blocking']\n"
    )


def test_recheck_detects_tampered_dual_witness(capsys):
    code = main(["check-cq", "E3", "--point", "origin", "--gkq"])
    report = json.loads(capsys.readouterr().out)
    verdict = report["points"][0]["cq"]["gkq"]
    assert verdict["status"] == "fails"
    pf = load_corpus_problem("E3")
    assert recheck_report(pf, report) == []
    verdict["witness"] = ["1", "0", "-1"]  # inside the linearized dual: no escape
    assert recheck_report(pf, report)
    verdict["witness"] = ["0", "5", "0"]  # outside the tangent dual
    assert recheck_report(pf, report)


def test_cli_corpus_run_matches_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "corpus", "run")
    code2, out2, _ = run_cli(capsys, "corpus", "run")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    report = json.loads(out1)
    assert report["summary"]["all_matched"] is True


def kinks_problem(k: int, sign: int) -> dict:
    """t_{k+1} = sum_i (i+1)|t_i| with objective sign * t_{k+1}: all k switches
    are degenerate at the origin, which minimizes +t_{k+1} and maximizes -t_{k+1}."""
    block = 2 * k + 1
    equality = ["0"] * block
    equality[k] = "-1"
    for i in range(k):
        equality[k + 1 + i] = str(i + 1)
    return {
        "name": f"kinks{k}",
        "dimensions": {"n_t": k + 1, "s": k, "m1": 1, "m2": 0},
        "objective": {"linear": ["0"] * k + [str(sign)]},
        "equalities": [{"linear": equality}],
        "switching": [
            {"linear": ["1" if j == i else "0" for j in range(block)]} for i in range(k)
        ],
        "points": [{"label": "origin", "t": ["0"] * (k + 1)}],
    }


def write_problem(tmp_path, data) -> str:
    path = tmp_path / f"{data['name']}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("k", [2, 3])
def test_maximizer_fails_with_three_top_prefixes_and_mutations_are_caught(tmp_path, capsys, k):
    path = write_problem(tmp_path, kinks_problem(k, -1))
    code, out, _ = run_cli(capsys, "check-stationarity", path, "--m", "--recheck")
    assert code == 1
    report = json.loads(out)
    assert report["recheck"]["errors"] == []
    del report["recheck"]
    pf = parse_problem(path)
    stat = report["points"][0]["stationarity"]
    for kind in ("m-anf", "m-mpcc"):
        cases = stat[kind]["closed_cases"]
        assert [len(c["assignment"]) for c in cases] == [1, 1, 1]
        for i in range(len(cases)):
            dropped = copy.deepcopy(report)
            del dropped["points"][0]["stationarity"][kind]["closed_cases"][i]
            assert any("covers" in msg for msg in recheck_report(pf, dropped))
        farkas = [
            i for i, c in enumerate(cases) if c["certificate"]["kind"] == KIND_FARKAS
        ]
        assert farkas
        negated = copy.deepcopy(report)
        cert = negated["points"][0]["stationarity"][kind]["closed_cases"][farkas[0]]["certificate"]
        j = next(j for j, y in enumerate(cert["dual_eq"]) if y != "0")
        cert["dual_eq"][j] = str(-Fraction(cert["dual_eq"][j]))
        assert recheck_report(pf, negated)


def test_case_cap_bounds_solved_lps_not_case_count(tmp_path, capsys, monkeypatch):
    # seed-1 kinks11 with its two inequalities: 3^11 assignments exceed the
    # default cap.  Its 14 multipliers against 12 stationary rows are not
    # unique, so the depth-first search decides; lam_i = (1, 0) with every
    # other multiplier 0 makes every pair vanish, so each prefix of u=0 cases
    # is feasible and the search solves one case LP per switch, 11 in all
    kinks = bench_kinks()
    path = write_problem(tmp_path, kinks.problem_data(kinks.draw(random.Random(1), 11, 1, True)))
    monkeypatch.setattr(stationarity, "DEFAULT_CASE_CAP", 11)
    code, out, _ = run_cli(capsys, "check-stationarity", path, "--m", "--form", "anf")
    assert code == 0
    verdict = json.loads(out)["points"][0]["stationarity"]["m-anf"]
    assert verdict["case"] == ["pair-u=0"] * 11
    assert verdict["multipliers"]["lam_i"] == ["1", "0"]
    monkeypatch.setattr(stationarity, "DEFAULT_CASE_CAP", 10)
    code, out, err = run_cli(capsys, "check-stationarity", path, "--m", "--form", "anf")
    assert code == 3
    assert err.startswith("error:") and "cap of 10 case LPs" in err
    monkeypatch.setattr(stationarity, "DEFAULT_CASE_CAP", 2)
    code, out, err = run_cli(capsys, "corpus", "run")
    assert code == 3
    assert err.startswith("error:")


def test_check_stationarity_counts_b_case_lps_against_the_case_cap(tmp_path, capsys, monkeypatch):
    # B is bounded by the case LPs it solves, not by its 2^k branches: every
    # pair of fallback3 needs its own prefix, 2^4 - 1 = 15 case LPs with the
    # root prefix's, and check-stationarity takes no branch cap
    path = write_problem(tmp_path, fallback_kinks_problem(3))
    lps = count_calls(monkeypatch, stationarity, "lp_solve")
    assert run_cli(capsys, "check-stationarity", path, "--b")[::2] == (0, "")
    assert len(lps) == 15
    monkeypatch.setattr(stationarity, "DEFAULT_CASE_CAP", 14)
    code, out, err = run_cli(capsys, "check-stationarity", path, "--b")
    assert (code, out) == (3, "")
    assert err == "error: the multiplier case search over 3 degenerate switches needs more than the cap of 14 case LPs\n"
    monkeypatch.setattr(stationarity, "DEFAULT_CASE_CAP", 15)
    assert run_cli(capsys, "check-stationarity", path, "--b")[::2] == (0, "")
    code, out, err = run_cli(capsys, "check-stationarity", "E2", "--branch-cap", "1")
    assert (code, out) == (3, "")
    assert "unrecognized arguments: --branch-cap 1" in err


def test_check_stationarity_rejects_infeasible_point(capsys):
    code, out, err = run_cli(capsys, "check-stationarity", "E1", "--point", "1,5")
    assert code == 3
    assert "not feasible" in err


def test_recheck_walks_relation_and_branch_witnesses(capsys):
    pf = load_corpus_problem("E3")
    code, out, _ = run_cli(capsys, "verify-relations", "E3", "--point", "origin", "--recheck")
    report = json.loads(out)
    assert report.pop("recheck")["errors"] == []
    kink = report["points"][0]["relations"]["kink_verdicts"]["guignard[abs-i]"]
    assert kink["status"] == "fails"
    kink["witness"][1] = "1"  # pairs nonzero with the tangent line's free direction
    assert any("guignard[abs-i]" in msg for msg in recheck_report(pf, report))

    code, out, _ = run_cli(capsys, "check-cq", "E3", "--point", "origin", "--all", "--recheck")
    report = json.loads(out)
    assert report.pop("recheck")["errors"] == []
    gcq = report["points"][0]["cq"]["branches"]["abs-i"][0]["gcq"]
    assert (gcq["branch"], gcq["status"], gcq["witness"]) == ("σ=+", "fails", ["-1", "0", "0"])
    # (1, 0, 0) escapes the linearized dual of σ=- only: a valid kink-level
    # witness, but not for the branch σ=+
    gcq["witness"][0] = "1"
    errors = recheck_report(pf, report)
    assert errors == ["point origin abs-i σ=+ gcq: witness does not escape the linearized dual"]


def test_recheck_rebuilds_cones_from_the_problem_file(capsys):
    # the recheck reads verdict entries only: deleting or rewriting the cones
    # section changes nothing, and a witness is checked against the cones of
    # the problem file even where a rewritten section would vouch for it
    pf = load_corpus_problem("E3")
    for command, extra, abadie, guignard in (
        ("check-cq", ["--all"], "akq", "gkq"),
        ("verify-relations", [], "abadie[abs-i]", "guignard[abs-i]"),
    ):
        code, out, _ = run_cli(capsys, command, "E3", "--point", "origin", *extra, "--recheck")
        report = json.loads(out)
        assert (code, report.pop("recheck")["errors"]) == (1, [])
        point = report["points"][0]
        # one entry per branch, no cone rows
        assert point["cones"]["abs-i"] == {
            "dim": 3,
            "branches": [{"branch": label, "tangent_source": "annotation"} for label in ("σ=+", "σ=-")],
        }
        del point["cones"]
        assert recheck_report(pf, report) == []
        # tangent pieces that leave out (0, 1, 0), which does lie in both
        point["cones"] = {
            key: {
                "dim": 3,
                "branches": [
                    {"branch": label, "lin": {"eq": [], "ineq": []}, "tangent": [{"eq": [["0", "1", "0"]]}]}
                    for label in ("σ=+", "σ=-")
                ],
            }
            for key in ("abs-i", "abs-e")
        }
        assert recheck_report(pf, report) == []

        def verdict(report, name):
            point = report["points"][0]
            return (point["cq"] if command == "check-cq" else point["relations"]["kink_verdicts"])[name]

        moved = copy.deepcopy(report)
        verdict(moved, abadie)["witness"] = ["0", "1", "0"]
        assert recheck_report(pf, moved) == [
            f"point origin {abadie}: witness lies inside the tangent bound of branch {label}"
            for label in ("σ=+", "σ=-")
        ]
        infeasible = copy.deepcopy(report)
        infeasible["points"][0]["t"] = ["1", "0"]
        assert recheck_report(pf, infeasible) == [
            "point origin: reported switching solution does not re-solve",
            "point origin: reported signature mismatch",
            "point origin: point is not feasible, so no witness rechecks",
        ]
        verdict(report, guignard)["formulation"] = "abs-x"
        assert recheck_report(pf, report) == [
            f"point origin {guignard}: no formulation 'abs-x' to recheck the witness in"
        ]


def count_formulation_builds(monkeypatch) -> list:
    """Record the key of every formulation a ``PointAnalysis`` analyzes, in
    the order the analyses complete."""
    built = []
    analyze = PointAnalysis._analyze

    def counted(pa, key):
        fa = analyze(pa, key)
        built.append(key)
        return fa

    monkeypatch.setattr(PointAnalysis, "_analyze", counted)
    return built


def test_recheck_analyzes_the_point_once_and_only_for_a_witness(tmp_path, capsys, monkeypatch):
    kinks = bench_kinks()
    kinks3 = write_problem(tmp_path, kinks.problem_data(kinks.draw(random.Random(1), 3)))
    built = count_formulation_builds(monkeypatch)
    # the command reads every formulation once (the branch list); the recheck
    # analyzes only the formulations its witnesses name: none on seed-1
    # kinks3, all four on E3, and abs-i alone for the E3 gkq witness.
    # kinks3 has no inequality, so its slack forms share the analyses of
    # their inequality forms, and only those two are built
    once, twice = dict.fromkeys(FORMULATIONS, 1), dict.fromkeys(FORMULATIONS, 2)
    twins_shared = {ABS_I: 1, MPCC_I: 1}
    for problem, argv, builds in (
        (kinks3, ("check-cq", "--all"), twins_shared),
        (kinks3, ("verify-relations",), twins_shared),
        ("E3", ("check-cq", "--all"), twice),
        ("E3", ("verify-relations",), twice),
        ("E3", ("check-cq", "--gkq"), {**once, ABS_I: 2}),
    ):
        built.clear()
        out = run_cli(capsys, argv[0], problem, "--point", "origin", *argv[1:], "--recheck")[1]
        assert (json.loads(out)["recheck"]["errors"], Counter(built)) == ([], builds), (problem, argv)


def test_a_command_analyzes_only_the_formulations_it_prints(capsys, monkeypatch):
    built = count_formulation_builds(monkeypatch)
    for form, builds in ((ABS_I, [ABS_I]), (MPCC_E, [ABS_I, ABS_E, MPCC_E])):
        built.clear()
        code, out, err = run_cli(capsys, "cones", "E2", "--point", "origin", "--form", form)
        assert (code, err, list(json.loads(out)["points"][0]["cones"])) == (0, "", [form])
        assert built == builds, form
    # E2's origin has 2 abs-i branches and 8 abs-e branches: the cap refuses
    # only a formulation that the report reads
    code, out, err = run_cli(capsys, "cones", "E2", "--point", "origin", "--form", ABS_I, "--branch-cap", "4")
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "check-cq", "E2", "--point", "origin", "--akq", "--branch-cap", "4")
    assert (code, out) == (3, "") and err.startswith("error: ")


def test_check_cq_report_does_not_grow_with_the_cones(tmp_path, capsys):
    kinks = bench_kinks()
    path = write_problem(tmp_path, kinks.problem_data(kinks.draw(random.Random(1), 4, 1, True)))
    report_path = tmp_path / "kinks4-ineq-cq.json"
    code, out, err = run_cli(capsys, "check-cq", path, "--all", "--recheck", "--out", str(report_path))
    assert (code, out, err) == (0, "", "")
    assert report_path.stat().st_size < 256 * 1024
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["recheck"] == {"errors": []}
    assert {key: len(section["branches"]) for key, section in report["points"][0]["cones"].items()} == {
        "abs-i": 16,
        "abs-e": 64,
        "mpcc-i": 16,
        "mpcc-e": 64,
    }


MALFORMED = "malformed entry: "


@pytest.mark.parametrize(
    "argv, name, field, value, message",
    [
        (("E1", "shoulder", "--b"), "b-anf", "ray", 5, MALFORMED + "ray: expected a dict, not 5"),
        (
            ("E1", "shoulder", "--b"),
            "b-anf",
            "ray",
            {"kind": KIND_FARKAS, "dual_eq": ["x", "1", "1"], "dual_ineq": []},
            MALFORMED + "ray: dual_eq: Invalid literal for Fraction: 'x'",
        ),
        (("E1", "origin", "--m"), "m-anf", "multipliers", 3, MALFORMED + "multipliers: expected a dict, not 3"),
        (("E1", "origin", "--m"), "m-anf", "multipliers", None, "holds without multipliers"),
        (("E1", "origin", "--m"), "m-anf", "case", [1], MALFORMED + "case: expected a str, not 1"),
        (("E1", "origin", "--m"), "m-anf", "bogus", "1", MALFORMED + "unknown field 'bogus'"),
        (("E3", "origin", "--gkq"), "gkq", "witness", 5, MALFORMED + "witness: expected a list, not 5"),
        (
            ("E3", "origin", "--gkq"),
            "gkq",
            "witness",
            ["1", 0.5, "0"],
            MALFORMED + "witness: refusing inexact value 0.5; use int, Fraction, or a string like '2/3'",
        ),
        (("E3", "origin", "--gkq"), "gkq", "kind", None, MALFORMED + "field 'kind' missing"),
        (("E3", "origin", "--gkq"), "gkq", "witness", ["1", "0"], "witness has 2 entries, expected 3"),
        (("E3", "origin", "--gkq"), "gkq", "kind", "x", "unknown kind 'x'"),
        (("E3", "origin", "--gkq"), "gkq", "status", "x", "unknown status 'x'"),
        (("E3", "origin", "--gkq"), "gkq", "status", "holds", "holds with a witness"),
        (("E1", "shoulder", "--b"), "b-anf", "kind", "x", "unknown kind 'x'"),
        (("E1", "shoulder", "--b"), "b-anf", "status", "x", "a B-stationarity verdict holds or fails, not 'x'"),
    ],
    ids=[
        "ray-int",
        "ray-literal",
        "multipliers-int",
        "multipliers-missing",
        "case-int",
        "unknown-field",
        "witness-int",
        "witness-float",
        "kind-missing",
        "witness-short",
        "cq-kind-unknown",
        "cq-status-unknown",
        "cq-holds-with-witness",
        "b-kind-unknown",
        "b-status-unknown",
    ],
)
def test_malformed_verdict_entry_is_a_named_recheck_error(capsys, argv, name, field, value, message):
    # a field no verdict writes is a recheck error, not an exception out of recheck_report
    problem, point, flag = argv
    command = "check-cq" if name == "gkq" else "check-stationarity"
    report = json.loads(run_cli(capsys, command, problem, "--point", point, flag)[1])
    entry = report["points"][0]["cq" if name == "gkq" else "stationarity"][name]
    if value is None:
        del entry[field]
    else:
        entry[field] = value
    assert recheck_report(load_corpus_problem(problem), report) == [f"point {point} {name}: {message}"]


def _set_t(report):
    report["points"][0]["t"] = ["x", "0"]


def _set_eval_z(report):
    report["points"][0]["eval"]["z"] = 5


def _list_branches(report):
    cq = report["points"][0]["cq"]
    cq["branches"] = list(cq["branches"].values())


def _shorten_t(report):
    report["points"][0]["t"] = ["0"]


def _replace_point(report):
    report["points"][0] = 5


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_t, "point origin t: malformed entry: Invalid literal for Fraction: 'x'"),
        (_set_eval_z, "point origin eval z: malformed entry: expected a list, not 5"),
        (_list_branches, "point origin branches: malformed entry: expected a dict, not a list"),
        (_shorten_t, "point origin: t has 1 entries, expected 2"),
        (_replace_point, "points: malformed entry: expected a dict, not 5"),
    ],
    ids=["t-literal", "eval-z-int", "branches-list", "t-short", "point-int"],
)
def test_malformed_point_entry_part_is_a_named_recheck_error(capsys, edit, message):
    # the parts of a point entry that are not verdict entries are read as
    # strictly as the verdicts: a malformed one is a recheck error, not an
    # exception out of recheck_report
    report = json.loads(run_cli(capsys, "check-cq", "E3", "--all")[1])
    assert recheck_report(load_corpus_problem("E3"), report) == []
    edit(report)
    assert recheck_report(load_corpus_problem("E3"), report) == [message]


def test_point_entry_with_an_unknown_label_is_a_named_recheck_error():
    # an entry without ``t`` names its point by label; a label the problem
    # file does not know is a recheck error, not a ProblemFileError (exit 3)
    assert recheck_report(load_corpus_problem("E3"), {"points": [{"label": "nope"}]}) == [
        "point nope: malformed entry: no point labeled 'nope' and the value does not parse as coordinates"
    ]
    # a label that is not a string is read as the command line reads --point
    assert recheck_report(load_corpus_problem("E3"), {"points": [{"label": 5}]}) == [
        "point 5: t has 1 entries, expected 2"
    ]


def test_b_stationarity_recheck_needs_every_branch_once(tmp_path, capsys):
    # a Holds with no strong multipliers closes each branch by its own prefix;
    # each one dropped leaves its branch uncovered
    path = write_problem(tmp_path, fallback_kinks_problem(1))
    pf = parse_problem(path)
    code, out, _ = run_cli(capsys, "check-stationarity", path, "--point", "origin", "--b", "--recheck")
    report = json.loads(out)
    assert report.pop("recheck")["errors"] == []
    cases = report["points"][0]["stationarity"]["b-anf"]["closed_cases"]
    assert [case["assignment"] for case in cases] == [["pair-u>=0"], ["pair-v>=0"]]
    for i, case in enumerate(cases):
        dropped = copy.deepcopy(report)
        del dropped["points"][0]["stationarity"]["b-anf"]["closed_cases"][i]
        assert recheck_report(pf, dropped) == [
            f"point origin b-anf: no closed case covers the case assignment {case['assignment']}"
        ]


def test_failed_self_check_exits_three_not_as_a_verdict(capsys, monkeypatch):
    monkeypatch.setattr(stationarity, "verify_multipliers", lambda system, ms: ["forged"])
    code, out, err = run_cli(capsys, "check-stationarity", "E1", "--point", "origin", "--m")
    assert code == 3
    assert out == ""
    assert err.startswith("error: internal: ") and "self-check" in err


def forged_point(problem):
    return LpResult(FEASIBLE, LpCertificate(KIND_POINT, point=zero_vec(problem.n_vars)))


def forged_ray(problem):
    weights = LpCertificate(
        KIND_FARKAS, dual_eq=zero_vec(len(problem.eq_rows)), dual_ineq=zero_vec(len(problem.ineq_rows))
    )
    return LpResult(INFEASIBLE, weights)


def test_forged_m_fails_exits_three_not_as_a_verdict(capsys, monkeypatch):
    # every infeasible case LP answers with zero Farkas weights: the M
    # decider's self-check rejects the Fails it would make, on one form as on
    # both, before any translation or report
    real = stationarity.lp_solve

    def forged_if_infeasible(problem):
        res = real(problem)
        return forged_ray(problem) if res.status == INFEASIBLE else res

    monkeypatch.setattr(stationarity, "lp_solve", forged_if_infeasible)
    for form in (("--form", "anf"), ()):
        code, out, err = run_cli(capsys, "check-stationarity", "E3", "--point", "origin", "--m", *form)
        assert (code, out) == (3, ""), form
        assert err.startswith("error: internal: m-anf certificate failed self-check: "), form
        assert "['pair-u=0']: Farkas ray does not witness a positive right-hand side" in err, form


@pytest.mark.parametrize(
    "forged, message",
    [
        (forged_ray, "b-anf certificate failed self-check: [\"case ['pair-u>=0']: Farkas ray does not witness a positive right-hand side\"]"),
        (forged_point, "branch σ=+: no prefix closes it, yet its case LP is feasible"),
    ],
    ids=["forged-ray", "feasible-leaf"],
)
def test_branch_self_checks_exit_three_not_as_a_verdict(tmp_path, capsys, monkeypatch, forged, message):
    # kinks1 maximized fixes its multipliers, and their signs leave every
    # prefix open with no LP but the root's, solved first; the failing
    # branch's case LP, solved after the search for its Farkas ray, is
    # forged: a ray that certifies nothing, or a feasible LP that the search
    # contradicts, is the tool's fault
    solved = []
    real_lp_solve = stationarity.lp_solve

    def forged_after_the_root(problem):
        solved.append(problem)
        return forged(problem) if len(solved) > 1 else real_lp_solve(problem)

    monkeypatch.setattr(stationarity, "lp_solve", forged_after_the_root)
    path = write_problem(tmp_path, kinks_problem(1, -1))
    code, out, err = run_cli(capsys, "check-stationarity", path, "--point", "origin", "--b")
    assert (code, out, len(solved)) == (3, "", 2)
    assert err == f"error: internal: {message}\n"


def e3_with_t1_nonnegative() -> dict:
    """E3 with the inequality t1 >= 0: only the σ=+ branch has directions
    off the feasible line, so kink Guignard fails with one witness sign."""
    data = json.loads(_corpus_path("E3").read_text(encoding="utf-8"))
    data["name"] = "e3-half"
    data["dimensions"]["m2"] = 1
    data["inequalities"] = [{"linear": ["1", "0", "0"]}]
    return data


def test_negated_guignard_witness_exits_three_not_as_a_verdict(tmp_path, capsys, monkeypatch):
    # hull_escape hands the kink decider the negated dual vector.  On E3 the
    # two branches mirror each other, so the negation escapes the other
    # branch's linearized dual and is a valid witness; with t1 >= 0 it
    # escapes none, and the decider's self-check rejects it
    import absnormal.cq

    real = absnormal.cq.hull_escape
    monkeypatch.setattr(absnormal.cq, "hull_escape", lambda *args: None if (w := real(*args)) is None else vec_neg(w))
    code, out, _ = run_cli(capsys, "check-cq", "E3", "--gkq")
    assert code == 1
    assert json.loads(out)["points"][0]["cq"]["gkq"]["witness"] == ["1", "0", "0"]
    code, out, err = run_cli(capsys, "check-cq", write_problem(tmp_path, e3_with_t1_nonnegative()), "--gkq")
    assert (code, out) == (3, "")
    assert err == "error: internal: gkq certificate failed self-check: ['witness does not escape the linearized dual']\n"


def test_abadie_witness_inside_a_member_exits_three_not_as_a_verdict(capsys, monkeypatch):
    # union_covers reports a lineality direction of its first member (an E3
    # tangent piece is a line) as uncovered
    import absnormal.cq

    monkeypatch.setattr(absnormal.cq, "union_covers", lambda members, target: (False, members[0].generators()[1][0]))
    code, out, err = run_cli(capsys, "check-cq", "E3", "--akq")
    assert (code, out) == (3, "")
    assert err == (
        "error: internal: akq certificate failed self-check: ['witness lies inside the tangent bound of branch σ=+', "
        "'witness lies inside the tangent bound of branch σ=-']\n"
    )


def test_branch_fails_naming_another_branch_exits_three_not_as_a_verdict(capsys, monkeypatch):
    # a branch Fails relabeled to the formulation's other branch: its witness
    # is checked against that branch's cones alone, and lies outside them
    import absnormal.cq

    real = absnormal.cq.check_branch_cq
    other = {"σ=+": "σ=-", "σ=-": "σ=+", "P={}": "P={1}", "P={1}": "P={}"}

    def relabeled(ba, which):
        verdict = real(ba, which)
        return dataclasses.replace(verdict, branch=other[verdict.branch]) if verdict.status == "fails" else verdict

    monkeypatch.setattr(absnormal.cq, "check_branch_cq", relabeled)
    for problem in ("E3", "E4"):
        code, out, err = run_cli(capsys, "check-cq", problem, "--branches")
        assert (code, out) == (3, ""), problem
        assert err == "error: internal: branch-acq certificate failed self-check: ['witness is not linearized-feasible']\n"


def test_mpcc_system_disagreement_exits_three_not_as_a_verdict(capsys, monkeypatch):
    # the counterpart's M verdict is the abs-normal certificate re-checked in
    # the system read off the MPCC data; a wrong MPCC pair row must surface
    real = stationarity.multiplier_system

    def flipped(program, point):
        system = real(program, point)
        if not isinstance(program, MpccProgram):
            return system
        coeffs, offset = system.pair_u[0]
        flipped_row = (tuple(-x for x in coeffs), -offset)
        return dataclasses.replace(system, pair_u=(flipped_row,) + system.pair_u[1:])

    rebind(monkeypatch, real, flipped)
    for argv in (("check-stationarity", "E1", "--point", "origin"), ("corpus", "run")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: internal: ") and "target system" in err


def _no_polar_double_description(*args, **kwargs):
    raise AssertionError("double description on a polar in a decision path")


def test_qualifications_decide_without_polar_double_description(tmp_path, capsys, monkeypatch):
    # no decision builds an H-representation from generators: Guignard is
    # decided by conic-hull membership and carried tangent pieces are rows
    import absnormal.cones
    import absnormal.ratmath
    import absnormal.ratmath.dd

    for module in (absnormal.ratmath.dd, absnormal.ratmath, absnormal.cones):
        monkeypatch.setattr(module, "generators_to_hrep", _no_polar_double_description)
    expected = {"E1": 0, "E2": 0, "E3": 1, "E4": 1, write_problem(tmp_path, kinks_problem(2, 1)): 0}
    for problem, exit_code in expected.items():
        for argv in (("check-cq", problem, "--all"), ("verify-relations", problem)):
            code, out, err = run_cli(capsys, *argv, "--recheck")
            assert (code, err) == (exit_code, ""), argv
            assert json.loads(out)["recheck"]["errors"] == []
    code, out, err = run_cli(capsys, "corpus", "run")
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "cones", "E3")
    assert (code, err) == (0, "")
    assert json.loads(out)["points"]


def test_each_branch_makes_one_guignard_pass(capsys, monkeypatch):
    # check-cq --all and verify-relations decide each branch's Guignard
    # first, and the kink Guignard skips a branch whose own holds; a
    # kink-only call makes every pass, and no skip costs an LP.  E1 has no
    # inequality, so its slack forms share their branches with abs-i and
    # mpcc-i, and each shared branch is decided once
    import absnormal.cones
    import absnormal.ratmath.lp

    passes = count_calls(monkeypatch, absnormal.cones, "hull_escape")
    lps = count_calls(monkeypatch, absnormal.ratmath.lp, "lp_solve")
    expected = {"E1": (0, 6, 0), "E2": (0, 26, 0), "E3": (1, 12, 12), "E4": (1, 8, 0)}
    for problem, (exit_code, passes_made, lps_solved) in expected.items():
        for argv in (("check-cq", problem, "--all"), ("verify-relations", problem)):
            passes.clear()
            lps.clear()
            assert run_cli(capsys, *argv)[::2] == (exit_code, ""), argv
            assert (len(passes), len(lps)) == (passes_made, lps_solved), argv
    passes.clear()
    lps.clear()
    assert run_cli(capsys, "check-cq", "E3", "--gkq", "--mpcc-gcq", "--recheck")[::2] == (1, "")
    assert (len(passes), len(lps)) == (2, 2)


def test_corrupted_mapped_b_certificate_exits_three(capsys, monkeypatch):
    # the closed prefixes of a B Holds are checked once by substitution: a
    # root LP point that does not solve the Lagrangian rows, yet has
    # nonnegative pair multipliers, closes the root and is the tool's own fault
    real = stationarity.lp_solve

    def corrupt_point(problem):
        res = real(problem)
        if res.status != FEASIBLE:
            return res
        point = res.certificate.point
        return LpResult(FEASIBLE, LpCertificate(KIND_POINT, point=point[:-1] + (point[-1] + Fraction(1, 2),)))

    monkeypatch.setattr(stationarity, "lp_solve", corrupt_point)
    for form in ("anf", "mpcc"):
        code, out, err = run_cli(capsys, "check-stationarity", "E1", "--point", "origin", "--b", "--form", form)
        assert (code, out) == (3, "")
        assert err.startswith("error: internal: b-anf certificate failed self-check")
        assert "case []: Lagrangian gradient row does not vanish" in err


def rebind(monkeypatch, original, replacement) -> None:
    """Replace ``original`` wherever the package binds it."""
    modules = [m for name, m in sys.modules.items() if name == "absnormal" or name.startswith("absnormal.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def test_b_fails_recheck_builds_only_the_failing_branch(capsys):
    pf = load_corpus_problem("E1")
    code, out, _ = run_cli(capsys, "check-stationarity", "E1", "--point", "shoulder", "--b", "--recheck")
    assert code == 1
    report = json.loads(out)
    assert report.pop("recheck")["errors"] == []
    stat = report["points"][0]["stationarity"]
    assert (stat["b-anf"]["failing_branch"], stat["b-mpcc"]["failing_branch"]) == ("σ=+", "P={}")

    assert recheck_report(pf, report) == []
    for kind, label in (("b-anf", "P={}"), ("b-anf", "σ=-"), ("b-anf", "σ=++"), ("b-mpcc", "σ=+"), ("b-mpcc", None)):
        tampered = copy.deepcopy(report)
        tampered["points"][0]["stationarity"][kind]["failing_branch"] = label
        assert recheck_report(pf, tampered) == [f"point shoulder {kind}: unknown failing branch {label!r}"]


def _flip_ray(entry):
    for name in ("dual_eq", "dual_ineq"):
        entry["ray"][name] = [str(-Fraction(y)) for y in entry["ray"][name]]


def _truncate_ray(entry):
    entry["ray"]["dual_eq"].pop()


def _point_kind(entry):
    entry["ray"]["kind"] = KIND_POINT


def _other_branch(entry):
    entry["failing_branch"] = "σ=-" if entry["kind"] == "b-anf" else "P={1}"


@pytest.mark.parametrize(
    "edit, messages",
    [
        (
            _flip_ray,
            [
                " case ['pair-u>=0']: negative inequality weight in Farkas ray",
                " case ['pair-u>=0']: Farkas ray does not witness a positive right-hand side",
            ],
        ),
        (_truncate_ray, [" case ['pair-u>=0']: dual_eq has 1 entries, expected 2"]),
        (_point_kind, [" case ['pair-u>=0']: unexpected certificate kind 'feasible-point' for infeasible"]),
        (lambda entry: entry.pop("ray"), [": fails without a ray"]),
        (_other_branch, [" case ['pair-v>=0']: Farkas combination is nonzero at column 1"]),
    ],
    ids=["flipped", "truncated", "point-kind", "missing", "other-branch"],
)
def test_b_fails_ray_tampers_are_named_recheck_errors(capsys, edit, messages):
    # E4's origin fails B on its first branch, σ=+ or P={}, the case
    # ['pair-u>=0'] in both forms; its ray is checked on that case LP, as an
    # M Fails's rays are, and closes no other branch (a label that names no
    # branch: test_b_fails_recheck_builds_only_the_failing_branch)
    pf = load_corpus_problem("E4")
    _, out, _ = run_cli(capsys, "check-stationarity", "E4", "--b")
    report = json.loads(out)
    assert recheck_report(pf, report) == []
    for kind in ("b-anf", "b-mpcc"):
        tampered = copy.deepcopy(report)
        edit(tampered["points"][0]["stationarity"][kind])
        assert recheck_report(pf, tampered) == [f"point origin {kind}{message}" for message in messages], kind


def test_malformed_case_certificate_is_a_named_recheck_error(capsys):
    # the Farkas ray of the one M case: its weights are checked against the
    # case LP's rows before any product
    pf = load_corpus_problem("E1")
    _, out, _ = run_cli(capsys, "check-stationarity", "E1", "--point", "shoulder", "--m", "--form", "anf")
    report = json.loads(out)
    for field, value, message in (
        ("dual_eq", [], "dual_eq has 0 entries, expected 3"),
        ("dual_ineq", ["1", "1"], "dual_ineq has 2 entries, expected 0"),
    ):
        tampered = copy.deepcopy(report)
        tampered["points"][0]["stationarity"]["m-anf"]["closed_cases"][0]["certificate"][field] = value
        assert recheck_report(pf, tampered) == [f"point shoulder m-anf case []: {message}"]


def test_b_recheck_at_an_infeasible_point_is_a_named_error(capsys):
    # a point entry whose t is not feasible has no multiplier system
    pf = load_corpus_problem("E1")
    _, out, _ = run_cli(capsys, "check-stationarity", "E1", "--point", "shoulder", "--b")
    report = json.loads(out)
    report["points"][0]["t"][1] = "7"
    assert recheck_report(pf, report) == [
        f"point shoulder {kind}: point is not feasible, so no branch rechecks" for kind in ("b-anf", "b-mpcc")
    ]


def test_m_recheck_at_an_infeasible_point_is_a_named_error(capsys):
    # the multiplier systems are the point's too: an M verdict at a t that is
    # not feasible is named as the B verdicts are
    pf = load_corpus_problem("E1")
    _, out, _ = run_cli(capsys, "check-stationarity", "E1", "--point", "shoulder", "--m")
    report = json.loads(out)
    assert recheck_report(pf, report) == []
    report["points"][0]["t"][1] = "7"
    assert recheck_report(pf, report) == [
        f"point shoulder {kind}: point is not feasible, so no branch rechecks" for kind in ("m-anf", "m-mpcc")
    ]


# wrong-type and wrong-length values, one of which replaces a report field
WRONG_VALUES = (None, True, 0, "x", "1/0", [], ["1"], ["1"] * 7, [[]], {}, {"kind": "x"})


def field_paths(node, path=()):
    """The path of every dict field and list item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def test_stationarity_mutations_are_recheck_errors_never_exceptions(tmp_path, capsys):
    # each field of each stationarity entry of E1-E4, and of a B Holds closed
    # below the root, deleted or replaced by two seeded wrong values
    rng = random.Random(20180)
    problems = [(name, load_corpus_problem(name)) for name in ("E1", "E2", "E3", "E4")]
    fallback = write_problem(tmp_path, fallback_kinks_problem(2))
    problems.append((fallback, parse_problem(fallback)))
    mutations = named = 0
    for problem, pf in problems:
        _, out, _ = run_cli(capsys, "check-stationarity", problem)
        for entry in json.loads(out)["points"]:
            for path in field_paths(entry["stationarity"]):
                for value in (KeyError, *rng.sample(WRONG_VALUES, 2)):
                    tampered = copy.deepcopy(entry)
                    node = tampered["stationarity"]
                    for key in path[:-1]:
                        node = node[key]
                    if value is KeyError:
                        del node[path[-1]]
                    else:
                        node[path[-1]] = value
                    errors = recheck_report(pf, {"points": [tampered]})
                    assert isinstance(errors, list) and all(isinstance(e, str) for e in errors), (problem, path, value)
                    mutations += 1
                    named += bool(errors)
    # some edits name nothing: a zero put for a zero, a deleted verdict
    assert mutations == 1680 and named >= 1640


# a value of each field that some stationarity verdict writes, put on the
# verdicts that never write it
FOREIGN_FIELDS = {
    "multipliers": {"lam_e": ["-1"], "lam_i": [], "lam_z": ["0"], "mu_u": ["1"], "mu_v": ["1"]},
    "case": ["pair-both>0"],
    "failing_branch": "σ=+",
    "ray": {"kind": KIND_FARKAS, "dual_eq": ["-1", "-1", "-1"], "dual_ineq": []},
    "closed_cases": [{"assignment": [], "certificate": {"kind": "feasible-point", "point": ["-1", "0"]}}],
}


def test_fields_a_verdict_never_writes_are_named_recheck_errors(capsys):
    # an M Holds writes multipliers and its case, an M Fails and a B Holds
    # their closed prefixes, a B Fails its failing branch and ray
    reports = [
        ("E1", load_corpus_problem("E1"), "origin"),
        ("E1", load_corpus_problem("E1"), "shoulder"),
        (str(B_BRANCHES), parse_problem(str(B_BRANCHES)), "origin"),
    ]
    seen = set()
    for problem, pf, label in reports:
        _, out, _ = run_cli(capsys, "check-stationarity", problem, "--point", label, "--recheck")
        report = json.loads(out)
        assert report.pop("recheck")["errors"] == []
        for name, entry in report["points"][0]["stationarity"].items():
            verdict = "an M-stationarity verdict" if name.startswith("m-") else "a B-stationarity verdict"
            for field, value in FOREIGN_FIELDS.items():
                if field in entry:
                    continue
                tampered = copy.deepcopy(report)
                tampered["points"][0]["stationarity"][name][field] = value
                assert recheck_report(pf, tampered) == [
                    f"point {label} {name}: {verdict} that {entry['status']} writes no {field}"
                ], (problem, label, name, field)
                seen.add((name[0], entry["status"], field))
    assert seen == {
        ("m", "holds", "failing_branch"),
        ("m", "holds", "ray"),
        ("m", "holds", "closed_cases"),
        ("m", "fails", "multipliers"),
        ("m", "fails", "case"),
        ("m", "fails", "failing_branch"),
        ("m", "fails", "ray"),
        ("b", "holds", "multipliers"),
        ("b", "holds", "case"),
        ("b", "holds", "failing_branch"),
        ("b", "holds", "ray"),
        ("b", "fails", "multipliers"),
        ("b", "fails", "case"),
        ("b", "fails", "closed_cases"),
    }
    # the entries of the parent's FOUND line: a B Holds with multipliers, a
    # case and a failing branch, and an M Holds with a closed case
    pf = load_corpus_problem("E1")
    _, out, _ = run_cli(capsys, "check-stationarity", "E1", "--point", "origin")
    report = json.loads(out)
    stationarity = report["points"][0]["stationarity"]
    stationarity["b-anf"].update({field: FOREIGN_FIELDS[field] for field in ("multipliers", "case", "failing_branch")})
    stationarity["m-anf"]["closed_cases"] = [{"assignment": ["x"], "certificate": {"kind": "feasible-point"}}]
    assert recheck_report(pf, report) == [
        "point origin m-anf: an M-stationarity verdict that holds writes no closed_cases",
        "point origin b-anf: a B-stationarity verdict that holds writes no multipliers",
        "point origin b-anf: a B-stationarity verdict that holds writes no case",
        "point origin b-anf: a B-stationarity verdict that holds writes no failing_branch",
    ]


@pytest.mark.parametrize("problem, case", [("E1", "pair-both>0"), ("b-branches", "pair-u=0")])
def test_m_holds_case_edits_are_named_recheck_errors(capsys, problem, case):
    # each degenerate pair of an M Holds lies in its named case: pair-u=0 has
    # mu_u = 0, pair-v=0 mu_v = 0, pair-both>0 both positive
    if problem == "E1":
        pf = load_corpus_problem(problem)
    else:
        problem = str(B_BRANCHES)
        pf = parse_problem(problem)
    _, out, _ = run_cli(capsys, "check-stationarity", problem, "--point", "origin", "--m", "--recheck")
    report = json.loads(out)
    assert report.pop("recheck")["errors"] == []
    edits = {
        "pair-u=0": "degenerate pair 0 is not in its holds case 'pair-u=0'",
        "pair-v=0": "degenerate pair 0 is not in its holds case 'pair-v=0'",
        "pair-both>0": "degenerate pair 0 is not in its holds case 'pair-both>0'",
        "pair-u>=0": "holds case names the unknown case 'pair-u>=0'",
        "x": "holds case names the unknown case 'x'",
    }
    for name in ("m-anf", "m-mpcc"):
        entry = report["points"][0]["stationarity"][name]
        assert entry["case"] == [case]
        for value, message in [
            *[([edit], message) for edit, message in edits.items() if edit != case],
            ([], "holds case has 0 entries, expected 1"),
            ([case, case], "holds case has 2 entries, expected 1"),
            (KeyError, "holds without a case"),
        ]:
            tampered = copy.deepcopy(report)
            if value is KeyError:
                del tampered["points"][0]["stationarity"][name]["case"]
            else:
                tampered["points"][0]["stationarity"][name]["case"] = value
            assert recheck_report(pf, tampered) == [f"point origin {name}: {message}"], (name, value)


def test_b_holds_builds_and_rechecks_no_branch_problem(tmp_path, capsys):
    pf = load_corpus_problem("E1")
    code, out, _ = run_cli(capsys, "check-stationarity", "E1", "--point", "origin", "--b", "--recheck")
    assert code == 0
    report = json.loads(out)
    assert report.pop("recheck")["errors"] == []
    # the whole command too, both forms, certificates and descent LPs alike
    problems = [fallback_kinks_problem(3), kinks_problem(3, 1), kinks_problem(3, -1)]
    commands = [
        ("check-stationarity", problem, "--b", "--form", form, "--recheck")
        for problem in ("E1", "E2", "E3", "E4", *(write_problem(tmp_path, data) for data in problems))
        for form in ("anf", "mpcc")
    ]
    outputs = [run_cli(capsys, *argv) for argv in commands]
    assert {code for code, _, _ in outputs} == {0, 1}
    assert recheck_report(pf, report) == []
    for argv, expected in zip(commands, outputs):
        assert run_cli(capsys, *argv) == expected, argv
        assert json.loads(expected[1])["recheck"]["errors"] == []


def test_qualification_commands_build_no_branch_problem(capsys):
    # every qualification verdict works on branch specs and one linearization
    # per formulation, the same bytes on every run
    commands = [
        (command, name, *extra)
        for name in ("E1", "E2", "E3", "E4")
        for command, *extra in (("check-cq", "--all", "--recheck"), ("verify-relations", "--recheck"), ("cones", "--dual"))
    ] + [("corpus", "run")]
    outputs = [run_cli(capsys, *argv) for argv in commands]
    assert {code for code, _, _ in outputs} == {0, 1}
    for argv, expected in zip(commands, outputs):
        assert run_cli(capsys, *argv) == expected, argv


def test_branches_rows_equal_the_oracle_branch_problems(tmp_path, capsys):
    # each row of every --form is the built branch problem's label, sizes and
    # anchor; the report states the anchor feasible, the oracle checks it
    kinks = bench_kinks()
    problems = [(name, load_corpus_problem(name)) for name in ("E1", "E2", "E3", "E4")]
    for k in range(1, 5):
        for inequalities in (False, True):
            path = write_problem(tmp_path, kinks.problem_data(kinks.draw(random.Random(k), k, 1, inequalities)))
            problems.append((path, parse_problem(path)))
    rows = 0
    for problem, pf in problems:
        anchored = [analyze_point(pf.program, point.t) for point in pf.points]
        for key in FORMULATIONS:
            code, out, err = run_cli(capsys, "branches", problem, "--form", key)
            assert (code, err) == (0, "")
            entries = json.loads(out)["points"]
            assert len(entries) == len(anchored)
            for entry, pa in zip(entries, anchored):
                built = (anf_branches if key in (ABS_I, ABS_E) else mpcc_branches)(*pa.anchor(key))
                assert all(b.anchor_feasible() for b in built), (problem, entry["label"], key)
                assert entry["branches"] == {
                    key: [
                        {
                            "branch": b.label,
                            "variables": b.n_vars,
                            "equalities": len(b.eqs),
                            "inequalities": len(b.ineqs),
                            "anchor": [str(x) for x in b.anchor],
                            "anchor_feasible": True,
                        }
                        for b in built
                    ]
                }, (problem, entry["label"], key)
                rows += len(built)
    assert rows == 474


def test_branches_enumerates_only_the_requested_formulation(capsys):
    # abs-i has 2 branches at the E2 origin, the slack forms 8 (the cap
    # refuses those only when they are listed: test_cli_branch_cap)
    code, out, err = run_cli(capsys, "branches", "E2", "--point", "origin", "--form", "abs-i", "--branch-cap", "2")
    assert (code, err) == (0, "")
    assert [b["branch"] for b in json.loads(out)["points"][0]["branches"]["abs-i"]] == ["σ=+", "σ=-"]


def test_branches_does_not_check_annotations_but_check_cq_does(tmp_path, capsys):
    data = json.loads(importlib.resources.files("absnormal").joinpath("corpus", "E3.json").read_text("utf-8"))
    # contains (1, 0, 0), which is outside the linearized cone of σ=+
    data["tangent_annotations"]["σ=+"] = [{"eq": [["0", "1", "0"]]}]
    path = write_problem(tmp_path, data)
    code, out, err = run_cli(capsys, "branches", path)
    assert (code, err) == (0, "")
    assert set(json.loads(out)["points"][0]["branches"]) == {"abs-i", "abs-e", "mpcc-i", "mpcc-e"}
    code, out, err = run_cli(capsys, "check-cq", path)
    assert (code, out) == (3, "")
    assert err == "error: annotation for branch σ=+ is not contained in the branch linearized cone\n"


@pytest.mark.parametrize("kind", ["b-anf", "b-mpcc"])
def test_one_branch_certificate_mutation_names_exactly_that_branch(tmp_path, capsys, kind):
    # no strong multipliers: each of the 8 branches is closed by its own
    # prefix, with its own point, and those that resolve switch 1
    # differently differ
    path = write_problem(tmp_path, fallback_kinks_problem(3))
    code, out, _ = run_cli(capsys, "check-stationarity", path, "--b", "--recheck")
    assert code == 0
    report = json.loads(out)
    assert report.pop("recheck")["errors"] == []
    pf = parse_problem(path)
    cases = report["points"][0]["stationarity"][kind]["closed_cases"]
    assert len(cases) == 8 and all(len(case["assignment"]) == 3 for case in cases)
    victim, donor = 5, 1  # resolve switch 1 to different sides, share switches 2 and 3
    where = f"point origin {kind} case {cases[victim]['assignment']}"
    assert cases[victim]["certificate"]["point"] != cases[donor]["certificate"]["point"]

    def bump(point):
        point[0] = str(Fraction(point[0]) + 1)

    mutations = {
        "shared-row multiplier": (bump, "Lagrangian gradient row does not vanish"),
        "another branch's point": (
            lambda point: point.__setitem__(slice(None), cases[donor]["certificate"]["point"]),
            "pair multiplier v[0] must be nonnegative",
        ),
    }
    for what, (mutate, message) in mutations.items():
        tampered = copy.deepcopy(report)
        mutate(tampered["points"][0]["stationarity"][kind]["closed_cases"][victim]["certificate"]["point"])
        assert recheck_report(pf, tampered) == [f"{where}: {message}"], what


B_BRANCHES = Path(__file__).resolve().parent / "problems" / "b-branches.json"


def b_report(capsys, problem: str, *argv) -> dict:
    """The clean ``check-stationarity --b --recheck`` report of ``problem``
    at its origin, with its recheck entry taken out."""
    code, out, err = run_cli(capsys, "check-stationarity", problem, "--point", "origin", "--b", "--recheck", *argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report.pop("recheck")["errors"] == []
    return report


@pytest.mark.parametrize("kind", ["b-anf", "b-mpcc"])
def test_strong_b_certificate_mutation_is_a_named_recheck_error(capsys, kind):
    # E2's origin: B holds by strong multipliers, with two active
    # inequalities: the root prefix closes every branch with one point
    pf = load_corpus_problem("E2")
    report = b_report(capsys, "E2")
    verdict = report["points"][0]["stationarity"][kind]
    assert set(verdict) == {"kind", "status", "closed_cases"}
    (root,) = verdict["closed_cases"]
    assert root["assignment"] == []
    row = "Lagrangian gradient row does not vanish"
    pair_u, pair_v = "pair multiplier u[0] must be nonnegative", "pair multiplier v[0] must be nonnegative"
    # the point is (lam_e, lam_i, lam_z)
    expected = [[row, pair_u, pair_v], [row], [row], [row, pair_u]]
    for j, messages in enumerate(expected):
        tampered = copy.deepcopy(report)
        point = tampered["points"][0]["stationarity"][kind]["closed_cases"][0]["certificate"]["point"]
        point[j] = str(Fraction(point[j]) + 1)
        assert recheck_report(pf, tampered) == [f"point origin {kind} case []: {msg}" for msg in messages], j
        del point[j]
        assert recheck_report(pf, tampered) == [f"point origin {kind} case []: point has 3 entries, expected 4"], j


def test_m_certificate_is_not_a_strong_b_certificate(tmp_path, capsys):
    # M holds with the pair multiplier mu_v = -2: valid for M, but put in
    # place of the root's point it must not pass for B
    path = write_problem(tmp_path, fallback_kinks_problem(1))
    pf = parse_problem(path)
    code, out, _ = run_cli(capsys, "check-stationarity", path, "--recheck")
    assert code == 0
    report = json.loads(out)
    assert report.pop("recheck")["errors"] == []
    stat = report["points"][0]["stationarity"]
    for form in ("anf", "mpcc"):
        ms = stat[f"m-{form}"]["multipliers"]
        assert ms["mu_v"] == ["-2"]
        forged = copy.deepcopy(report)
        forged["points"][0]["stationarity"][f"b-{form}"] = {
            "kind": f"b-{form}",
            "status": "holds",
            "closed_cases": [
                {
                    "assignment": [],
                    "certificate": {"kind": "feasible-point", "point": ms["lam_e"] + ms["lam_i"] + ms["lam_z"]},
                }
            ],
        }
        assert recheck_report(pf, forged) == [f"point origin b-{form} case []: pair multiplier v[0] must be nonnegative"]


def descent_route_random_program():
    """The first random program whose origin has a degenerate switch and is
    B-stationary with no strong multipliers, so the search closes its
    branches below the root."""
    rng = random.Random(31337)
    while True:
        p = random_affine_program(rng, max_s=3)
        e = evaluate(p, zero_vec(p.n_t))
        if not e.is_feasible() or not e.alpha:
            continue
        verdict = stationarity.check_b_stationary(p, e)
        if verdict.status == "holds" and all(outcome.assignment for outcome in verdict.closed_cases):
            return p


def test_descent_route_b_holds_end_to_end(tmp_path, capsys):
    program = descent_route_random_program()
    data = {"name": "descent-route", **_ser_program(program), "points": [{"label": "origin", "t": ["0"] * program.n_t}]}
    path = write_problem(tmp_path, data)
    pf = parse_problem(path)
    report = b_report(capsys, path)
    for kind in ("b-anf", "b-mpcc"):
        verdict = report["points"][0]["stationarity"][kind]
        assert "multipliers" not in verdict
        first = verdict["closed_cases"][0]["assignment"]
        assert first and len(verdict["closed_cases"]) > 1
        # the first branch, below the first closed prefix
        hole = first + ["pair-u>=0"] * (len(evaluate(program, zero_vec(program.n_t)).alpha) - len(first))

        def bump(cases):
            point = cases[0]["certificate"]["point"]
            point[0] = str(Fraction(point[0]) + 1)

        mutations = {
            "dropped": (lambda cases: cases.pop(0), [f"no closed case covers the case assignment {hole}"]),
            "renamed": (
                lambda cases: cases[0].update(assignment=["?"]),
                ["case ['?']: unknown case '?'", f"no closed case covers the case assignment {hole}"],
            ),
            "corrupted": (bump, None),
        }
        for what, (mutate, messages) in mutations.items():
            tampered = copy.deepcopy(report)
            mutate(tampered["points"][0]["stationarity"][kind]["closed_cases"])
            errors = recheck_report(pf, tampered)
            if messages is None:
                assert errors and all(msg.startswith(f"point origin {kind} case {first}: ") for msg in errors), what
            else:
                assert errors == [
                    f"point origin {kind} {msg}" if msg.startswith("case [") else f"point origin {kind}: {msg}"
                    for msg in messages
                ], what


def test_b_branches_certificate_tampers_keep_their_messages(capsys):
    # z1 is the one degenerate switch: each side of it is closed by its own
    # prefix, in both forms
    pf = parse_problem(str(B_BRANCHES))
    report = b_report(capsys, str(B_BRANCHES))
    plus, minus = ["pair-u>=0"], ["pair-v>=0"]

    def perturb(cases):
        point = cases[1]["certificate"]["point"]
        point[0] = str(Fraction(point[0]) + 1)

    ray = {"kind": "farkas-infeasibility-ray", "dual_eq": ["1"], "dual_ineq": []}
    mutations = {
        "perturbed point": (
            perturb,
            [f"case {minus}: Lagrangian gradient row does not vanish", f"case {minus}: pair multiplier v[0] must be nonnegative"],
        ),
        "dropped case": (lambda cases: cases.pop(0), [f": no closed case covers the case assignment {plus}"]),
        "M case name": (
            lambda cases: cases[0].update(assignment=["pair-u=0"]),
            ["case ['pair-u=0']: unknown case 'pair-u=0'", f": no closed case covers the case assignment {plus}"],
        ),
        "prefix longer than k": (
            lambda cases: cases[0].update(assignment=plus + plus),
            [
                f"case {plus + plus}: case assignment of length 2 exceeds the 1 degenerate indices",
                f": no closed case covers the case assignment {plus}",
            ],
        ),
        "Farkas-kind certificate": (
            lambda cases: cases[1].update(certificate=ray),
            [f"case {minus}: feasible verdict without a point certificate"],
        ),
    }
    for kind in ("b-anf", "b-mpcc"):
        cases = report["points"][0]["stationarity"][kind]["closed_cases"]
        assert [case["assignment"] for case in cases] == [plus, minus]
        for what, (mutate, messages) in mutations.items():
            tampered = copy.deepcopy(report)
            mutate(tampered["points"][0]["stationarity"][kind]["closed_cases"])
            expected = [f"point origin {kind}{'' if msg.startswith(':') else ' '}{msg}" for msg in messages]
            assert recheck_report(pf, tampered) == expected, (kind, what)


@pytest.mark.parametrize("mutation", ["drop", "perturb"])
def test_mutated_b_decider_is_caught_by_the_recheck(capsys, monkeypatch, mutation):
    # the B decider patched for the whole run to lose, or to spoil, its last
    # closed case: the recheck reads the closed cases from the report alone
    # and names the error
    real = stationarity.check_b_stationary

    def mutated(*args, **kwargs):
        verdict = real(*args, **kwargs)
        *kept, last = verdict.closed_cases
        if mutation == "perturb":
            point = last.certificate.point
            spoiled = dataclasses.replace(last.certificate, point=(point[0] + 1,) + point[1:])
            kept.append(dataclasses.replace(last, certificate=spoiled))
        return dataclasses.replace(verdict, closed_cases=tuple(kept))

    rebind(monkeypatch, real, mutated)
    code, out, err = run_cli(capsys, "check-stationarity", str(B_BRANCHES), "--b", "--form", "anf", "--recheck")
    assert (code, err) == (3, "")
    expected = {
        "perturb": [
            "point origin b-anf case ['pair-v>=0']: Lagrangian gradient row does not vanish",
            "point origin b-anf case ['pair-v>=0']: pair multiplier v[0] must be nonnegative",
        ],
        "drop": ["point origin b-anf: no closed case covers the case assignment ['pair-v>=0']"],
    }
    assert json.loads(out)["recheck"]["errors"] == expected[mutation]


def test_strong_b_holds_at_kinks10_enumerates_no_branch(tmp_path, capsys, monkeypatch):
    kinks = bench_kinks()
    rows = []
    real_rows = BranchLinearization.rows

    def counted_rows(lin, signs):
        rows.append(signs)
        return real_rows(lin, signs)

    monkeypatch.setattr(BranchLinearization, "rows", counted_rows)
    # a B Holds builds no branch's rows, in the check, the translation or
    # the recheck, even when every branch needs its own prefix
    b_report(capsys, write_problem(tmp_path, fallback_kinks_problem(3)))
    assert rows == []
    path = write_problem(tmp_path, kinks.problem_data(kinks.draw(random.Random(1), 10)))
    report_path = tmp_path / "kinks10-b.json"
    code, out, err = run_cli(capsys, "check-stationarity", path, "--b", "--recheck", "--out", str(report_path))
    assert (code, out, err) == (0, "", "")
    assert report_path.stat().st_size < 8 * 1024
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["recheck"] == {"errors": []}
    assert [v["status"] for v in report["points"][0]["stationarity"].values()] == ["holds", "holds"]
    assert rows == []


def test_check_stationarity_builds_each_multiplier_system_once_per_pass(tmp_path, capsys, monkeypatch):
    # the M search, B and both translations share one system per form; the
    # recheck rebuilds each from the problem file, once, for the verdicts
    # that read it, which every verdict does
    kinks = bench_kinks()
    calls = count_calls(monkeypatch, stationarity, "multiplier_system")
    runs = [
        ((write_problem(tmp_path, kinks.problem_data(kinks.draw(random.Random(1), 4, sign))),), code, 2)
        for sign, code in ((1, 0), (-1, 1))
    ]
    runs += [(("E1", "--point", "shoulder", "--b"), 1, 2), (("E1", "--point", "shoulder"), 1, 2)]
    for args, code, count in runs:
        calls.clear()
        assert run_cli(capsys, "check-stationarity", *args, "--recheck")[::2] == (code, ""), args
        builds = Counter("mpcc" if isinstance(program, MpccProgram) else "anf" for program, _ in calls)
        assert builds == {"anf": count, "mpcc": count}, args


def test_back_to_back_main_calls_share_the_parser_but_no_state(capsys):
    from absnormal.cli import build_parser

    code, out, _ = run_cli(capsys, "check-stationarity", "E1", "--point", "origin", "--recheck", "--m")
    assert code == 0
    first = json.loads(out)
    assert first["recheck"] == {"errors": []}
    assert set(first["points"][0]["stationarity"]) == {"m-anf", "m-mpcc"}
    code, out, _ = run_cli(capsys, "check-stationarity", "E1", "--point", "origin")
    assert code == 0
    second = json.loads(out)
    assert "recheck" not in second
    assert set(second["points"][0]["stationarity"]) == {"m-anf", "m-mpcc", "b-anf", "b-mpcc"}
    assert build_parser() is build_parser()


def count_calls(monkeypatch, module, name) -> list:
    """Record every call of ``module.name``, wherever the package binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    rebind(monkeypatch, original, counted)
    return calls


def test_branches_anchors_only_the_listed_formulation(capsys, monkeypatch):
    import absnormal.cq

    calls = {name: count_calls(monkeypatch, absnormal.cq, name) for name in ("evaluate", "to_slack", "to_mpcc")}
    code, _, err = run_cli(capsys, "branches", "E2", "--point", "origin", "--form", "abs-i")
    assert (code, err) == (0, "")
    assert {name: len(c) for name, c in calls.items()} == {"evaluate": 1, "to_slack": 0, "to_mpcc": 0}


def test_cones_dual_builds_each_branch_dual_once(capsys, monkeypatch):
    import absnormal.cones

    calls = count_calls(monkeypatch, absnormal.cones, "dual_cone")
    counts = {}
    for name in ("E1", "E2", "E3", "E4"):
        calls.clear()
        code, out, _ = run_cli(capsys, "cones", name, "--dual")
        assert code == 0
        branches = [b for point in json.loads(out)["points"] for f in point["cones"].values() for b in f["branches"]]
        # one dual per branch cone, and one per tangent piece that is not the branch cone (annotations)
        other_pieces = [p for b in branches if b["tangent"] not in (None, [b["lin"]]) for p in b["tangent"]]
        assert len(calls) == len(branches) + len(other_pieces)
        counts[name] = len(calls)
    assert counts == {"E1": 12, "E2": 26, "E3": 16, "E4": 24}


def test_affine_qualification_commands_make_no_rational_branch_rows(tmp_path, capsys, monkeypatch):
    # a branch cone holds primitive integer rows only: its generators, the
    # own-piece containments, the rank tests and strict LPs of qkinks2 and
    # every recheck read those, so no qualification verdict or recheck makes
    # the exact rows of ``BranchLinearization.rows``
    made = []
    rows = BranchLinearization.rows

    def counted(lin, signs):
        made.append(signs)
        return rows(lin, signs)

    monkeypatch.setattr(BranchLinearization, "rows", counted)
    kinks = bench_kinks()
    problems = [
        (kinks.problem_data(kinks.draw(random.Random(1), 3)), [("check-cq", "--all", "--recheck")]),
        (kinks.problem_data(kinks.draw(random.Random(1), 2, 1, True)), [("verify-relations", "--recheck")]),
    ]
    # no qkinks2 formulation is affine: its 16 (eq) or 40 (ineq) branch cones
    # are certified branch-licq or branch-mfcq in every command
    both = [("check-cq", "--all", "--recheck"), ("verify-relations", "--recheck")]
    problems += [(qkinks_problem(2, inequalities), both) for inequalities in (False, True)]
    for data, commands in problems:
        path = write_problem(tmp_path, data)
        for argv in commands:
            code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
            assert (code, err, json.loads(out)["recheck"]) == (0, "", {"errors": []}), (data["name"], argv)
            assert made == [], (data["name"], argv)
    # the cones report prints the exact rows of each branch cone, so it makes them
    code, _, _ = run_cli(capsys, "cones", "E2", "--point", "origin", "--form", "abs-i")
    assert code == 0 and made == [(1,), (-1,)]


def test_every_cone_row_read_is_a_primitive_integer_row(tmp_path, capsys, monkeypatch):
    # a cone holds one row set: every row that any command reads from a cone
    # on the corpus and on qkinks2 (branch cones, tangent pieces, carried
    # pieces, annotations, duals) is a tuple of ints with coprime entries
    read_rows = PolyCone._read_rows
    rows = []

    def recorded(cone):
        eq, ineq = read_rows(cone)
        rows.extend(eq + ineq)
        return eq, ineq

    monkeypatch.setattr(PolyCone, "_read_rows", recorded)
    commands = [
        ("cones", "--dual"),
        ("check-cq", "--all", "--recheck"),
        ("verify-relations", "--recheck"),
        ("check-stationarity", "--recheck"),
    ]
    qkinks2 = [write_problem(tmp_path, qkinks_problem(2, inequalities)) for inequalities in (False, True)]
    for problem in ["E1", "E2", "E3", "E4"] + qkinks2:
        for argv in commands:
            code, out, err = run_cli(capsys, argv[0], problem, *argv[1:])
            assert err == "" and json.loads(out).get("recheck", {}).get("errors", []) == [], (problem, argv)
    assert len(rows) > 10_000
    assert {type(row) for row in rows} == {tuple}
    assert {type(x) for row in rows for x in row} == {int}
    assert {math.gcd(*row) for row in rows} <= {0, 1}
