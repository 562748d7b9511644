"""The report text and exit code contract.

Every report is written as ``json.dumps(report, indent=2,
ensure_ascii=False)`` plus a newline, by the one-pass writer
``cli.report_text``, and its exit code is read from the verdict sections of
each point.  The writer is compared with ``json.dumps`` on random JSON values
and on real reports; the exit code with a walk of the whole report.  The
real reports are pinned by a sha256 of their exit code, stderr and stdout, so
a change that moves a byte of them fails here.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absnormal.anf import evaluate
from absnormal.cli import (
    EXIT_FAILS,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    _reader,
    _ser,
    exit_code_for_report,
    main,
    report_text,
)
from absnormal.cq import FAILS, HOLDS, UNKNOWN
from absnormal.problemfile import parse_problem_data
from absnormal.ratmath import zero_vec
from absnormal.stationarity import StationarityVerdict, check_b_stationary, check_m_stationary_anf

from conftest import bench_kinks, fallback_kinks_problem, qkinks_problem, random_affine_program

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


def test_m_verdicts_round_trip_through_their_entries():
    # a verdict entry is written from the dataclass fields; reading it back
    # gives the verdict itself: M and B, Holds and Fails, closed prefixes
    # with Farkas rays and with points, and an M Fails and a B Holds closed
    # at the root and below it
    rng = random.Random(909090)
    fallback = parse_problem_data(fallback_kinks_problem(2)).program
    seen = set()
    checked = 0
    while checked < 40:
        p = random_affine_program(rng) if checked else fallback
        e = evaluate(p, zero_vec(p.n_t))
        if not e.is_feasible():
            continue
        m_verdict = check_m_stationary_anf(p, e)
        for verdict in (m_verdict, check_b_stationary(p, e, m_verdict=m_verdict)):
            entry = _ser(verdict)
            assert report_text(entry) == dumps(entry)
            assert _reader(StationarityVerdict)(json.loads(dumps(entry))) == verdict
            below_root = any(outcome.assignment for outcome in verdict.closed_cases)
            seen.add((verdict.kind, verdict.status, verdict.multipliers is not None, below_root))
        checked += 1
    assert seen == {
        ("m-anf", HOLDS, True, False),
        ("m-anf", FAILS, False, False),
        ("m-anf", FAILS, False, True),
        ("b-anf", HOLDS, False, False),
        ("b-anf", HOLDS, False, True),
        ("b-anf", FAILS, False, False),
    }


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


def kinks_commands(
    directory: Path, k: int, inequalities: bool, sign: int, commands, quadratic: bool = False
) -> list[tuple[str, list[str]]]:
    """The digest key and argv of each of ``commands`` on the benchmark's
    seed-1 ``kinks{k}`` instance, or with ``quadratic`` its ``qkinks{k}``
    twin (``sign`` 1), written as a problem file to ``directory``."""
    if quadratic:
        data = qkinks_problem(k, inequalities)
    else:
        kinks = bench_kinks()
        data = kinks.problem_data(kinks.draw(random.Random(1), k, sign, inequalities))
    path = directory / f"{data['name']}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    tag = f"{'q' if quadratic else ''}kinks{k}-{'ineq' if inequalities else 'eq'}{'' if sign > 0 else '-max'}"
    return [(f"{tag} {' '.join(argv)}", [argv[0], str(path), "--point", "origin", *argv[1:]]) for argv in commands]


CORPUS_COMMANDS = [
    argv + extra
    for name in ("E1", "E2", "E3", "E4")
    for argv in (
        ["eval", name],
        ["branches", name],
        ["branches", name, "--form", "abs-e"],
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


def assert_contract(argv, digest: str | None):
    """The report is its own JSON text, its exit code is the oracle's and the
    whole output has the pinned ``digest``."""
    code, out, err = run(argv)
    assert err == ""
    report = json.loads(out)
    assert out == dumps(report) + "\n"
    assert code == oracle_exit_code(report), argv
    assert output_digest(code, out, err) == digest, argv
    return report


def output_digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\n{err}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("argv", CORPUS_COMMANDS, ids=" ".join)
def test_corpus_report_contract(argv):
    assert_contract(argv, CORPUS_DIGESTS.get(" ".join(argv)))


@pytest.mark.parametrize("recheck", [False, True])
def test_corpus_run_report_text(recheck):
    code, out, _ = run(["corpus", "run"] + (["--recheck"] if recheck else []))
    assert out == dumps(json.loads(out)) + "\n"
    assert code == EXIT_OK


QUALIFICATION_ARGV = (["check-cq", "--all", "--recheck"], ["verify-relations", "--recheck"])
STATIONARITY_ARGV = (["check-stationarity", "--recheck"],)
# no formulation of qkinks is affine: its branches are certified branch-licq
# (eq) or branch-mfcq (ineq), which the cones report names
CERTIFIED_ARGV = QUALIFICATION_ARGV + (["cones", "--dual"],)


KINKS_CASES = {
    "eq": (2, False, 1, QUALIFICATION_ARGV),
    "ineq": (2, True, 1, QUALIFICATION_ARGV),
    "kinks3-eq": (3, False, 1, QUALIFICATION_ARGV),
    "kinks4-eq+t_5": (4, False, 1, STATIONARITY_ARGV),
    "kinks4-eq-t_5": (4, False, -1, STATIONARITY_ARGV),
    "qkinks2-eq": (2, False, 1, CERTIFIED_ARGV, True),
    "qkinks2-ineq": (2, True, 1, CERTIFIED_ARGV, True),
}


@pytest.mark.parametrize("case", KINKS_CASES.values(), ids=KINKS_CASES.keys())
def test_kinks_report_contract(tmp_path_factory, case):
    for key, argv in kinks_commands(tmp_path_factory.mktemp("kinks"), *case):
        assert_contract(argv, KINKS_DIGESTS.get(key))


# no multipliers of this program are strongly stationary, so its B Holds
# closes each of its two branches by its own prefix, in both forms
B_BRANCHES = Path(__file__).resolve().parent / "problems" / "b-branches.json"
PROBLEM_COMMANDS = [
    ("b-branches check-stationarity --b --recheck", ["check-stationarity", str(B_BRANCHES), "--b", "--recheck"])
]


@pytest.mark.parametrize("key, argv", PROBLEM_COMMANDS, ids=[key for key, _ in PROBLEM_COMMANDS])
def test_problem_report_contract(key, argv):
    report = assert_contract(argv, PROBLEM_DIGESTS.get(key))
    for verdict in report["points"][0]["stationarity"].values():
        assert verdict["status"] == "holds" and len(verdict["closed_cases"]) == 2


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


# ---------------------------------------------------------------------------
# pinned outputs: sha256 of the exit code, stderr and stdout of each command
# (``output_digest``); regenerate them only for a deliberate change of report
# bytes, with ``PYTHONPATH=src python tests/test_report_writer.py``

CORPUS_DIGESTS = {
    "eval E1": "d2c7f385d42c9b66861f7540204ec6139c466a60ed7aafff03ed53223f7fe384",
    "eval E1 --recheck": "c44e2718ef550438575e191372e0d14208df0e617a5a56c80d4958f1e25b50c4",
    "branches E1": "05e3640b5b9f9cf69c312522b27f1ba232be28d056ca6b35ec5670909c3fad47",
    "branches E1 --recheck": "c2f138f8ea9e2145645ae7d31cb3d7e93560b070dde5bd67b987984ed9412591",
    "branches E1 --form abs-e": "be418d44c22618904c2dca54a09d8c7156c1254999d73663e956c54bdd3b6779",
    "branches E1 --form abs-e --recheck": "1e03ef7ea4919388ea2529cbe538929e9a2210a9cc014c3fb52a5db871d53600",
    "reformulate E1 --slack --mpcc --slack-mpcc": "2d8ea3b9147d40be32007f7feb611433647ce390a6284958f082618f5c606cd6",
    "reformulate E1 --slack --mpcc --slack-mpcc --recheck": "b56d648675461904dc396e182afb0429de8ad8624efba601d850563b8d7e2de6",
    "cones E1": "d709805f1c3461999413510baa50502668eb2a8464744ec759f555061198e4d4",
    "cones E1 --recheck": "b1af39f21ec710fd2d4e87d212caa8f52bdb43d91782a5b839bdd395272687ad",
    "cones E1 --dual": "36535b01efb8c88ef6071805730ba4cee429d4cecee355e7ee4c0361e095c7eb",
    "cones E1 --dual --recheck": "336619643dc47393882895bd46644978a7131188150a238f2cd2d07458809331",
    "cones E1 --form mpcc-i": "21a01c022c86cac687e4c99d8917ef235a286639d729ecfa38663b51636c40be",
    "cones E1 --form mpcc-i --recheck": "0d3e92669518525cd25e66fc46aeab2a0ba6504fac7dd5938d434db044801a38",
    "check-cq E1": "c88f3eab0c644578df2486493f396ea3e7d69ecb3e8db560a30fbb153d6751e6",
    "check-cq E1 --recheck": "1a1a2a65023f21c5458532c4ac1b350961672d3d6903642f8cbd16c960b94645",
    "check-cq E1 --all": "6d98c49710ee2ebe163e0cc8fd779cb648e5b7a451e7f7c58429383a327ac65e",
    "check-cq E1 --all --recheck": "fae409215ec08ec5ef3181874f7d0336467aff6a999c0ac49a242a93d9f3739d",
    "check-cq E1 --all --branches": "6d98c49710ee2ebe163e0cc8fd779cb648e5b7a451e7f7c58429383a327ac65e",
    "check-cq E1 --all --branches --recheck": "fae409215ec08ec5ef3181874f7d0336467aff6a999c0ac49a242a93d9f3739d",
    "check-cq E1 --branches": "fbb5926a1c04f347876bb421793701f139b83b852e049ea0dcdbf2d88f24ae0b",
    "check-cq E1 --branches --recheck": "d651bb9296d7c92fee01bf0c8c556d36ed8c8fcb066ee82e5695c4ce80ba7183",
    "check-stationarity E1": "aa3dd025af706462e467655601088a87097e22bdef05203c2685ae065ba75569",
    "check-stationarity E1 --recheck": "e2f871b0c5f01d4c7d4aee82757f3d3266b5f6a21a3f7b656e7a701b9331eb6c",
    "verify-relations E1": "6ab742787330896416a6ad471209c1dd4f06599765be3c22a7146e1dd607149c",
    "verify-relations E1 --recheck": "4fc1d03245aa22e9450a0b7cc2e659f6feb2e7d68d14727d7c8be481bcdd3108",
    "eval E2": "5a5da98a1180b555225f02bf33c07c795df565cfef79dc78f43c99d4c7393a37",
    "eval E2 --recheck": "1c206e7e4bbbf047f6f96cd518ee40cab58831677bb689deaf0e4743f9617f35",
    "branches E2": "c2b6580d86ebc6d3c3c3511e7b805abc4b37000ea9c4aa0fd97fdddc2c9d3466",
    "branches E2 --recheck": "cc1255db92e1b231eb4fbf29b6ee5bc38cb71d2013106ecc077989a0450d0d8b",
    "branches E2 --form abs-e": "90c2054a9dc83cd1db42914ee8e6744737f699cec4c333ed8c494702b803175c",
    "branches E2 --form abs-e --recheck": "8ca70335c3e8114ced19fda6ad5b3e043265a6e7c48bb27877bec56dd7d699d8",
    "reformulate E2 --slack --mpcc --slack-mpcc": "d2a05e18a63401c4d4689983fa040fae56feb708636df9a613c5176fd2a399c7",
    "reformulate E2 --slack --mpcc --slack-mpcc --recheck": "cc878f43ef8127391975080d6ba462a66f57e1780a104d2081121dca8bd4531b",
    "cones E2": "f240f240f7b95bc99c604aa886cb4c902c01cc0fff9341aae37fccd2073f7d20",
    "cones E2 --recheck": "7330c0062bc809344a4fbbc99f6ff36b4ac063244862e25ac929efe88e10a0a5",
    "cones E2 --dual": "7e1ee3b83711fe8aaea00f0e802e1d4c06bc78363b8c75da5fee115eaf77336e",
    "cones E2 --dual --recheck": "6e328ee7568946dcf59ae05d3ddf1fac3aea5980c645ee9137ba2b3f2bddb688",
    "cones E2 --form mpcc-i": "5b058e161850e51cccbf8b674e83ac062ba192bfab1a93a0d5478df487b44574",
    "cones E2 --form mpcc-i --recheck": "0ffd06fc7bbed2bd700845e5054f1f251dec15228907aa0fc656e64ea731f2f2",
    "check-cq E2": "bff55a882246bfbd15d24704e978c2b93a49b055a0df540be314ebe7d920e220",
    "check-cq E2 --recheck": "1c65bb27861b271f10bd602145c2437b59dc210c3baa31da6a44cd4457aa11e2",
    "check-cq E2 --all": "5f4beb4959e21a1eace8b51f6836f50a6f4b3bcb1c37164cd7ef09fcd7fc6cd8",
    "check-cq E2 --all --recheck": "0c4a8d22b1bab4e54e60e8971e4c65aa815076d97895c6e6bf0d5c9043675bc5",
    "check-cq E2 --all --branches": "5f4beb4959e21a1eace8b51f6836f50a6f4b3bcb1c37164cd7ef09fcd7fc6cd8",
    "check-cq E2 --all --branches --recheck": "0c4a8d22b1bab4e54e60e8971e4c65aa815076d97895c6e6bf0d5c9043675bc5",
    "check-cq E2 --branches": "992218b93e9d73aee062b29bdbcddccc2dc9dd0e07b5b982b7a5221c1b118638",
    "check-cq E2 --branches --recheck": "61a7a17e713ab1fbf454893d755068e0e102c6d326955b275c608c726ee96075",
    "check-stationarity E2": "8d83135ac1af94102fb8e896c9b1369ff5fe4088eb87eaac78d0ea953996ffa0",
    "check-stationarity E2 --recheck": "4ba53e91616d9160314748880b3895a0350c5d9a436d83fd39a0bb63d4c4bc5d",
    "verify-relations E2": "d8f709ca4394b5d5dd1971594a1a62626741f6a495a9a64565c66273fdb174de",
    "verify-relations E2 --recheck": "7148554a7f60a174e778803be9d45d3168a1b1386ea5b4f0f74c131633bb88fd",
    "eval E3": "a08ad7ee0145cbf02aa272044b35147753e16ae936d1525f0e46268e557be4ca",
    "eval E3 --recheck": "93322fcc150a2f4509991289f6d247ab7f68b6285aa719a7392a6d152df320f1",
    "branches E3": "38b9a3bd394d8d792e45a3efc44307839acb2daf8f40a89e8bd8f9d57883fc41",
    "branches E3 --recheck": "5987cf7592a6a5d2d4791522ae0917aca5e5b7b95442d7809ce0efac8df32cb7",
    "branches E3 --form abs-e": "4822306f81a08dde4fb897b53dcacaead5e9fe176fcd475137bb4e732a3f234c",
    "branches E3 --form abs-e --recheck": "b9377c04e7c8d5ec14f1fdb3ce8f550a40f74d94687e676b8e2bfe357445c87d",
    "reformulate E3 --slack --mpcc --slack-mpcc": "2ad6dbf2c92a9417a6de2ea1a88ed6249cfaca8b676a1d4cd385802f72711134",
    "reformulate E3 --slack --mpcc --slack-mpcc --recheck": "3897512485a23fc8d99c9d084af67f2ad637a4f82e4b629a47aebe2bdf2c7888",
    "cones E3": "7507ed21067fdd734ce932dc5ce3a6c65a5735092333c801b1bcdc04d7cc91af",
    "cones E3 --recheck": "76ccfe02ea8779281e4c168300bebdfab1958c8a229dd2001d617e3d7ccb0ab5",
    "cones E3 --dual": "e0b83a419caa5f3654e3e104d9109a0289391e0ee6e4e81fc815796842b9e803",
    "cones E3 --dual --recheck": "efa5d7ac7a74818218cf79ade718b9605d9affb4af1af48eaa1343456efd281b",
    "cones E3 --form mpcc-i": "51c9765a9a506a2237b4c301e8c9bae846c0e09827eff85de288c23a86bb0ab3",
    "cones E3 --form mpcc-i --recheck": "0abdc01cb7dc44ff8ff3b10068c21f1dda28fdc4bac1fcb6a70ff20ca3c8f7aa",
    "check-cq E3": "026e4ac4ac9adfcef5c3e0da9bffda8e85d3363445b54e911c0fa2fdc5024ad6",
    "check-cq E3 --recheck": "c63904056bebf17157293ff24e0c33e578662a227b264bef4d0d2831440c80b0",
    "check-cq E3 --all": "a6acf0d56312c496a303188e566587799dc0b6b4a0e2d57b8bfacc4e32ff53cb",
    "check-cq E3 --all --recheck": "a4b3d32160579671c732f781fb6c136a6af3709099c87cb437f75bcd8ea4f5d0",
    "check-cq E3 --all --branches": "a6acf0d56312c496a303188e566587799dc0b6b4a0e2d57b8bfacc4e32ff53cb",
    "check-cq E3 --all --branches --recheck": "a4b3d32160579671c732f781fb6c136a6af3709099c87cb437f75bcd8ea4f5d0",
    "check-cq E3 --branches": "5cf603cefdb8baf3c5b4c1ec12c461bd5a50785e8005b162ec252585c38b9456",
    "check-cq E3 --branches --recheck": "bcd1ecd9e4fd4a208d4eda194966a3a6838d23f63c12384ef15c9bc7e9bf0880",
    "check-stationarity E3": "da1980c0012a210c60fbea4c8095b5473b5f312c62627376a52b992d930850b3",
    "check-stationarity E3 --recheck": "5e8a62a389cb2cce2fd04b23c2268cb204e2e92aaf09059f4e998999b0bf136d",
    "verify-relations E3": "49c5702ff3fff8966081230cfe0e3410504179868bad7d4d6199f9bed5977a19",
    "verify-relations E3 --recheck": "65c6c39c8b42e927112b918e57b9a5429279b0d663f5fe6b6cf262d1dec60f73",
    "eval E4": "43a609b29c7f016fb26717f46c4389115a4f82d92b53572129cd36cdd02e9429",
    "eval E4 --recheck": "fac4b5b89bcac10213406b2a0c671ff1b232023751aa41536137863e869569cf",
    "branches E4": "428e8ce01200b8dcc9377616a898b43a2ab37b2a9ecbc4a3de80dcef7f64055e",
    "branches E4 --recheck": "d5cd218052a7f64a27ff9e20bc3cd992edac016c5c1201e4bdd4c8ad682c8858",
    "branches E4 --form abs-e": "ee4be3c3a4962aece3ba618fcf3ccfb6e21a66204539445145aab33b8af4d58e",
    "branches E4 --form abs-e --recheck": "621abcc12e8f6a2629b088d82de06a974bb6da83088ea1fdf889e49f2ac4bd68",
    "reformulate E4 --slack --mpcc --slack-mpcc": "b228bcdf4e98704c8718498a97414b8169980e36130e452e2bc93fb104f5fec4",
    "reformulate E4 --slack --mpcc --slack-mpcc --recheck": "b3a477f393d94f3a429813ba9fbf0926d7e754eef0bbe1fe4ccaf565e8d33868",
    "cones E4": "84398796c1a26594213a835e6bc4a0dcdecafaf11b9559f8dbbfccf7f0b0a9d8",
    "cones E4 --recheck": "ab1a93231609930e582c857b4d018bf460d2aa726e0717a8a99344a0c5fd969b",
    "cones E4 --dual": "caff899364ac3bd357ab77889d01b9e2499852bfef79b846b9819fb3167b6c5c",
    "cones E4 --dual --recheck": "ed2a34906e18c27f8e93457650b4612850d7886eeb60bda53e0a07f093374d27",
    "cones E4 --form mpcc-i": "49c0c5e40b451e03aae52fecd305b082b101bd2850a1cd93c291eb5d4eeada62",
    "cones E4 --form mpcc-i --recheck": "78649604c47f3ab0b3c3300c63273a0c583ebb11f679cb46851668c91c9da315",
    "check-cq E4": "f77159529ca0e87a3fa38ef733765fadd62a89836129bd83dcf0687dd6bb5240",
    "check-cq E4 --recheck": "92712326d5038182ca2c15b93a1c153f228f84ce39f993500f7f7d61a328334c",
    "check-cq E4 --all": "241b42b167843adce84442401df1e69a6fc24fae2d046774770ae92859933fd7",
    "check-cq E4 --all --recheck": "f1c95d2d167f65fb1e28d3fd1324f6183c64862762c0b9028ddd3d7c7d1ff9a8",
    "check-cq E4 --all --branches": "241b42b167843adce84442401df1e69a6fc24fae2d046774770ae92859933fd7",
    "check-cq E4 --all --branches --recheck": "f1c95d2d167f65fb1e28d3fd1324f6183c64862762c0b9028ddd3d7c7d1ff9a8",
    "check-cq E4 --branches": "ee0363af46f99c8765f1cf406d82a961d781eb5fe5b6c96f53791be3f04a8ddb",
    "check-cq E4 --branches --recheck": "1633674f1c3c98c7324165b10dcef8ee4a3195f4b53b9ab13d9a94487762be21",
    "check-stationarity E4": "2c5fadd0916105720b7123e91df5376acb041670f6e1252fd7999ba8732cbe64",
    "check-stationarity E4 --recheck": "e00fde6a49af23cd053cd06cc63e586a87e2d086179fe97d4ab696b2ae73ad8a",
    "verify-relations E4": "1b730997d932954e9ae2c2dfaaa87d4522bd2ef9163d05c3e82afe024a33bd2c",
    "verify-relations E4 --recheck": "21dc2c2a2598651d41577980badfe2c609bf54164068d810ccffc30a7e155342",
}

KINKS_DIGESTS = {
    "kinks2-eq check-cq --all --recheck": "e70743832df61180b81e094cbfe593639b3f3ea2cc0b591c4547c364da462b68",
    "kinks2-eq verify-relations --recheck": "54359e2200cb0bf3e70b740c01957dc673fcbc27e8c27b8119fcc186dc935aae",
    "kinks2-ineq check-cq --all --recheck": "6d01ed1e7a4b6fb28c1ff237c8f2ea46c119d544b3fde77cae750e758ffd7fbe",
    "kinks2-ineq verify-relations --recheck": "a3f9a1dd5deddf2f57110d45bc7dc02c6a4c2fad90629ab63cc719538c42e860",
    "kinks3-eq check-cq --all --recheck": "9291f7a59342778944f4025e897e149e010f2f2a5be56767e6a65ca0b2fc2f42",
    "kinks3-eq verify-relations --recheck": "3c578fbe9450ca7bc9f43a2c04c163401e3232a3993f8f49fe22bdf6df6c1b23",
    "kinks4-eq check-stationarity --recheck": "837155c33dd7b3b430f2a972effd522c6b3ee2c59542a0b2384a4a2f9c5bc81d",
    "kinks4-eq-max check-stationarity --recheck": "96a7b14405d959e44541f367e62f37df8634a1366c89b83b991eadbc23b1a5ec",
    "qkinks2-eq check-cq --all --recheck": "6b36f5dc546b7aa4aeb59cf24c1d5860ca884b665e2065c5d7145bd3404be60d",
    "qkinks2-eq verify-relations --recheck": "53b363244d50880fb94de126a5801f50e6abc622d6ee39062dc678e49758273b",
    "qkinks2-eq cones --dual": "d9016ea0a34200f573afe221a9c79a19bf7dd1bea73dd70c012a32b9fc021d49",
    "qkinks2-ineq check-cq --all --recheck": "5be0ea2f9d1c2b71155d8b12dd8e4ef3f3ea3ca92612b969a89d952e13bc6147",
    "qkinks2-ineq verify-relations --recheck": "d154c0e4b4efcd7a430fc67219bccb6585a5f70bb56b8447c565901d702f27f9",
    "qkinks2-ineq cones --dual": "36dd820dd3f7871910609679012323badd44bed01e03cb369f41197a838c4986",
}
PROBLEM_DIGESTS = {
    "b-branches check-stationarity --b --recheck": "95ae3d70feb6db5ccc5827fd719e08ad9902b4f3b58afb3861da8c768546290f",
}


def print_digests() -> None:
    """Print ``CORPUS_DIGESTS``, ``KINKS_DIGESTS`` and ``PROBLEM_DIGESTS`` as
    the current code writes them."""
    with tempfile.TemporaryDirectory() as directory:
        tables = {
            "CORPUS_DIGESTS": [(" ".join(argv), argv) for argv in CORPUS_COMMANDS],
            "KINKS_DIGESTS": [pair for case in KINKS_CASES.values() for pair in kinks_commands(Path(directory), *case)],
            "PROBLEM_DIGESTS": PROBLEM_COMMANDS,
        }
        for name, commands in tables.items():
            sys.stdout.write(f"{name} = {{\n")
            for key, argv in commands:
                sys.stdout.write(f'    "{key}": "{output_digest(*run(argv))}",\n')
            sys.stdout.write("}\n\n")


if __name__ == "__main__":
    print_digests()
