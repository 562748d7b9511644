"""The report text and exit code contract.

Every report is written as ``json.dumps(report, indent=2,
ensure_ascii=False)`` plus a newline, by the one-pass writer
``cli.report_text``, and its exit code is read from the verdict sections of
each point.  The writer is compared with ``json.dumps`` on random JSON values
and on real reports; the exit code with a walk of the whole report.
"""

import contextlib
import importlib.util
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absnormal.cli import EXIT_FAILS, EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE, exit_code_for_report, main, report_text
from absnormal.cq import FAILS, UNKNOWN

ROOT = Path(__file__).resolve().parent.parent

SPECIAL = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "σ", " ", "\ud800", "\udfff", "/", "é", "😀"]
strings = st.lists(st.one_of(st.text(max_size=6), st.sampled_from(SPECIAL)), max_size=4).map("".join)
ints = st.one_of(st.integers(-5, 5), st.integers(), st.integers(-(10**60), 10**60))
leaves = st.one_of(strings, ints, st.booleans(), st.none(), st.lists(strings, max_size=5))
json_values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
    ),
    max_leaves=40,
)


def dumps(x) -> str:
    return json.dumps(x, indent=2, ensure_ascii=False)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_writer_equals_json_dumps(x):
    assert report_text(x) == dumps(x)


@pytest.mark.parametrize(
    "x",
    [[], {}, (), "", [""], [[]], [{}], {"": {}}, {"a": []}, [1], (True,), [None, "x"], ["x", 1], {"k": "v"}],
)
def test_writer_on_empty_and_one_item_containers(x):
    assert report_text(x) == dumps(x)


def test_writer_on_deep_nesting():
    x = "leaf"
    for depth in range(60):
        x = [x, depth] if depth % 3 == 0 else ({"d": x} if depth % 3 == 1 else (x,))
    assert report_text(x) == dumps(x)


@pytest.mark.parametrize(
    "x",
    [
        Fraction(1, 2),
        {"v": [Fraction(3)]},
        ["1", Fraction(1, 3)],
        0.5,
        [1.0],
        {"1/2"},
        {1: "a"},
        {"a": {None: "b"}},
    ],
    ids=["fraction", "nested-fraction", "fraction-after-str", "float", "nested-float", "set", "int-key", "none-key"],
)
def test_writer_refuses_what_is_not_report_data(x):
    with pytest.raises(TypeError):
        report_text(x)


# ---------------------------------------------------------------------------
# the contract on real reports


def statuses_anywhere(node, out):
    """Every status in the report, wherever it sits; ``consistent: false``
    counts as a failing one."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "status" and isinstance(value, str):
                out.append(value)
            elif key == "consistent" and value is False:
                out.append(FAILS)
            else:
                statuses_anywhere(value, out)
    elif isinstance(node, list):
        for item in node:
            statuses_anywhere(item, out)
    return out


def oracle_exit_code(report: dict) -> int:
    if report.get("recheck", {}).get("errors"):
        return EXIT_USAGE
    statuses = statuses_anywhere(report, [])
    if FAILS in statuses:
        return EXIT_FAILS
    return EXIT_UNKNOWN if UNKNOWN in statuses else EXIT_OK


def seed1_kinks(tmp_path_factory, k: int, inequalities: bool) -> str:
    """The benchmark's seed-1 ``kinks{k}`` instance, as a problem file."""
    kinks = sys.modules.get("bench_kinks")
    if kinks is None:
        spec = importlib.util.spec_from_file_location("bench_kinks", ROOT / "bench" / "kinks.py")
        kinks = sys.modules["bench_kinks"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(kinks)
    inst = kinks.draw(random.Random(1), k, inequalities=inequalities)
    path = tmp_path_factory.mktemp("kinks") / f"{inst.name}.json"
    path.write_text(json.dumps(kinks.problem_data(inst)), encoding="utf-8")
    return str(path)


CORPUS_COMMANDS = [
    argv + extra
    for name in ("E1", "E2", "E3", "E4")
    for argv in (
        ["eval", name],
        ["branches", name],
        ["reformulate", name, "--slack", "--mpcc", "--slack-mpcc"],
        ["cones", name],
        ["cones", name, "--dual"],
        ["cones", name, "--form", "mpcc-i"],
        ["check-cq", name],
        ["check-cq", name, "--all"],
        ["check-cq", name, "--all", "--branches"],
        ["check-cq", name, "--branches"],
        ["check-stationarity", name],
        ["verify-relations", name],
    )
    for extra in ([], ["--recheck"])
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    code, out, err = run(argv)
    assert err == ""
    report = json.loads(out)
    assert out == dumps(report) + "\n"
    assert code == oracle_exit_code(report), argv


@pytest.mark.parametrize("argv", CORPUS_COMMANDS, ids=" ".join)
def test_corpus_report_contract(argv):
    assert_contract(argv)


@pytest.mark.parametrize("recheck", [False, True])
def test_corpus_run_report_text(recheck):
    code, out, _ = run(["corpus", "run"] + (["--recheck"] if recheck else []))
    assert out == dumps(json.loads(out)) + "\n"
    assert code == EXIT_OK


@pytest.mark.parametrize("inequalities", [False, True], ids=["eq", "ineq"])
def test_kinks_report_contract(tmp_path_factory, inequalities):
    path = seed1_kinks(tmp_path_factory, 2, inequalities)
    for argv in (
        ["check-cq", path, "--point", "origin", "--all", "--recheck"],
        ["verify-relations", path, "--point", "origin", "--recheck"],
    ):
        assert_contract(argv)


def point_report(**sections) -> dict:
    return {"command": "check-cq", "points": [{"label": "p", "t": ["0"], **sections}]}


@pytest.mark.parametrize(
    "report, code",
    [
        (
            point_report(
                cq={
                    "akq": {"kind": "akq", "status": "holds"},
                    "branches": {
                        "anf": [{"branch": "σ=+", "acq": {"status": "holds"}, "gcq": {"status": "fails"}}]
                    },
                }
            ),
            EXIT_FAILS,
        ),
        (point_report(relations={"consistent": False, "arrows": [], "kink_verdicts": {}}), EXIT_FAILS),
        (
            point_report(
                relations={
                    "consistent": True,
                    "arrows": [{"lhs": {"name": "akq", "status": "unknown"}, "consistent": True}],
                }
            ),
            EXIT_UNKNOWN,
        ),
        (point_report(stationarity={"m-anf": {"status": "unknown"}, "b-anf": {"status": "fails"}}), EXIT_FAILS),
        (point_report(cq={"gkq": {"status": "holds"}}), EXIT_OK),
    ],
    ids=["fails-in-cq-branches", "relations-inconsistent", "unknown-arrow", "stationarity-fails", "holds"],
)
def test_exit_code_reads_the_verdict_sections(report, code):
    assert exit_code_for_report(report) == code == oracle_exit_code(report)


def test_exit_code_does_not_read_the_cones_or_eval():
    # statuses live only in the verdict sections; the other sections are data
    report = point_report(
        cq={"akq": {"status": "holds"}},
        eval={"status": "fails"},
        cones={"abs-i": {"status": "fails", "consistent": False}},
    )
    assert exit_code_for_report(report) == EXIT_OK
