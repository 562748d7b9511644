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
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absnormal.anf import evaluate
from absnormal.cli import (
    EXIT_FAILS,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    _parse_lp_certificate,
    _parse_m_verdict,
    _ser,
    exit_code_for_report,
    main,
    report_text,
)
from absnormal.cq import FAILS, HOLDS, UNKNOWN
from absnormal.ratmath import zero_vec
from absnormal.stationarity import check_m_stationary_anf

from conftest import bench_kinks, random_affine_program

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
    # must give the same multipliers, failed cases and case certificates
    rng = random.Random(909090)
    seen = set()
    checked = 0
    while checked < 40:
        p = random_affine_program(rng)
        e = evaluate(p, zero_vec(p.n_t))
        if not e.is_feasible():
            continue
        verdict = check_m_stationary_anf(p, e)
        entry = _ser(verdict)
        assert report_text(entry) == dumps(entry)
        back = _parse_m_verdict(json.loads(dumps(entry)))
        assert (back.kind, back.status) == (verdict.kind, verdict.status)
        assert back.multipliers == verdict.multipliers
        assert back.failed_cases == verdict.failed_cases
        for case in verdict.failed_cases:
            assert _parse_lp_certificate(_ser(case.certificate)) == case.certificate
        seen.add(verdict.status)
        checked += 1
    assert seen == {HOLDS, FAILS}


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


def seed1_kinks(tmp_path_factory, k: int, inequalities: bool, sign: int = 1) -> str:
    """The benchmark's seed-1 ``kinks{k}`` instance, as a problem file."""
    kinks = bench_kinks()
    inst = kinks.draw(random.Random(1), k, sign, inequalities)
    path = tmp_path_factory.mktemp("kinks") / f"{inst.name}.json"
    path.write_text(json.dumps(kinks.problem_data(inst)), encoding="utf-8")
    return str(path)


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


@pytest.mark.parametrize(
    "k, inequalities, sign, commands",
    [
        (2, False, 1, QUALIFICATION_ARGV),
        (2, True, 1, QUALIFICATION_ARGV),
        (3, False, 1, QUALIFICATION_ARGV),
        (4, False, 1, STATIONARITY_ARGV),
        (4, False, -1, STATIONARITY_ARGV),
    ],
    ids=["eq", "ineq", "kinks3-eq", "kinks4-eq+t_5", "kinks4-eq-t_5"],
)
def test_kinks_report_contract(tmp_path_factory, k, inequalities, sign, commands):
    path = seed1_kinks(tmp_path_factory, k, inequalities, sign)
    tag = f"kinks{k}-{'ineq' if inequalities else 'eq'}{'' if sign > 0 else '-max'}"
    for argv in commands:
        digest = KINKS_DIGESTS.get(f"{tag} {' '.join(argv)}")
        assert_contract([argv[0], path, "--point", "origin", *argv[1:]], digest)


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
# (``output_digest``); regenerate them only for a deliberate change of report bytes

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
    "check-cq E1": "e59faad818cd483a31cf99bbd83c56bb525bdbc3d22f33b10ffb2576ce6f69ce",
    "check-cq E1 --recheck": "248dd104a4754a225ef7b6b89ad6c8c20ec0a9b9fcd3797bb4902c30f0b97712",
    "check-cq E1 --all": "0cb528ce78d7ac6a4ed40c1ac4eeb5f5689d9aa16e1516539caee80454c1f2a3",
    "check-cq E1 --all --recheck": "df59aa5cb4ce3ab70f224f4f2e46ab3adca09214d4dab845d692a0c83b2e13d3",
    "check-cq E1 --all --branches": "0cb528ce78d7ac6a4ed40c1ac4eeb5f5689d9aa16e1516539caee80454c1f2a3",
    "check-cq E1 --all --branches --recheck": "df59aa5cb4ce3ab70f224f4f2e46ab3adca09214d4dab845d692a0c83b2e13d3",
    "check-cq E1 --branches": "d4f4fe6b7c27c861af4c84ad42fe29a32e406730228d82bcc78ba4d811190e6b",
    "check-cq E1 --branches --recheck": "a183d9cc756d8ceed89acf774f888e6fab0aaf74524658efdba80466a6bbbdf7",
    "check-stationarity E1": "bcb7edaf35e4993d9ff98a36077192144e44950e917565c69a1f1d0e7d2ad632",
    "check-stationarity E1 --recheck": "4c21d992584a7c7a457d483bb6c69748e45da47214d2353ffd8c4899ec0f5afb",
    "verify-relations E1": "c5418bf2d4e1351980ea8ac17d26fd3c610fd5c097daa810d3c7f0706881e1ff",
    "verify-relations E1 --recheck": "183b7807754f059826bf785295218865281ef12c67b3bec9d913c6ccb0dad337",
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
    "check-cq E2": "d9f2ce3630b4551a8a10fc4033de60f48f61d23257b14a5501b9af0263af3e6f",
    "check-cq E2 --recheck": "50c64995e2faa2e6b63bb12f7168111d042e133e2f358ed45bbd01033f32acb5",
    "check-cq E2 --all": "ef17e0efea2e42dc78e1e34b91f126b16c894d57e407902b71fc17d1724c1954",
    "check-cq E2 --all --recheck": "68085153934045e62d0b40c07bd16905b181975f18ec7fa4ec7a2cb1f44d81ac",
    "check-cq E2 --all --branches": "ef17e0efea2e42dc78e1e34b91f126b16c894d57e407902b71fc17d1724c1954",
    "check-cq E2 --all --branches --recheck": "68085153934045e62d0b40c07bd16905b181975f18ec7fa4ec7a2cb1f44d81ac",
    "check-cq E2 --branches": "089a13f94ef0e12cbc1a06cd9577931d0f45205e84c31341c3b21617addb2986",
    "check-cq E2 --branches --recheck": "f04a2a887c3b589c2a340eab55623b154263fd2c423581b934bda03a627cf7b0",
    "check-stationarity E2": "ca12bc13525673448ac0d3809a09d0dc78c00f359aea09a1b3e499b949a26463",
    "check-stationarity E2 --recheck": "430a32360c6b72b85d269c5f07c1aa664e775cb741062f7db5527120b707604c",
    "verify-relations E2": "db8b19fa6e13da444e690469ea1f7274278ccb45a2083161055d93d4b7e779f0",
    "verify-relations E2 --recheck": "1a3c449ca11c3149ddf4b2e1153abb06749cfb7f0369144a05e6302d0e0bdf0d",
    "eval E3": "a08ad7ee0145cbf02aa272044b35147753e16ae936d1525f0e46268e557be4ca",
    "eval E3 --recheck": "93322fcc150a2f4509991289f6d247ab7f68b6285aa719a7392a6d152df320f1",
    "branches E3": "38b9a3bd394d8d792e45a3efc44307839acb2daf8f40a89e8bd8f9d57883fc41",
    "branches E3 --recheck": "5987cf7592a6a5d2d4791522ae0917aca5e5b7b95442d7809ce0efac8df32cb7",
    "branches E3 --form abs-e": "4822306f81a08dde4fb897b53dcacaead5e9fe176fcd475137bb4e732a3f234c",
    "branches E3 --form abs-e --recheck": "b9377c04e7c8d5ec14f1fdb3ce8f550a40f74d94687e676b8e2bfe357445c87d",
    "reformulate E3 --slack --mpcc --slack-mpcc": "2ad6dbf2c92a9417a6de2ea1a88ed6249cfaca8b676a1d4cd385802f72711134",
    "reformulate E3 --slack --mpcc --slack-mpcc --recheck": "3897512485a23fc8d99c9d084af67f2ad637a4f82e4b629a47aebe2bdf2c7888",
    "cones E3": "177c82b8698ae390bfb495d3d9ef930748c29cc41c5914989dfc1b50448e4d3f",
    "cones E3 --recheck": "3c8b4f064a765316dd2858ec3bf013afa6e48f55b351119eeecd18a261686362",
    "cones E3 --dual": "a8e9026a7731d28a3833fc0a440a2fd4c7d22f01f1c2fcbd2bd9b1a696d25fe4",
    "cones E3 --dual --recheck": "6480ed0b7788307ababfb305aaacaa19caf6c74fb8ca400cc7889a6a19bd4b47",
    "cones E3 --form mpcc-i": "e68b4573bf2c31d81f6dc49b858de06695f80cdc585d3e27f606d6f249eeb2ed",
    "cones E3 --form mpcc-i --recheck": "632103ffa2a32037865f94202fc4cc29e9abcd4205f78cf3fa1ce0d33b368733",
    "check-cq E3": "ed77391c28743b10df71b8a28b9ec7f3740d2ce458645411b49c679e6f7ffd2a",
    "check-cq E3 --recheck": "142e703cbbdc2138c795fd08d2e68fceb44fd06ae010b659b2fe2246d763e539",
    "check-cq E3 --all": "fb6b985389212149d00e8f750ce2aa900785bc029bcff82ac2a009bfe0ff66c2",
    "check-cq E3 --all --recheck": "54ad1d38049d4703f8951d85deafad176b5949bf96fc1bb9d0e99ee6134d1acd",
    "check-cq E3 --all --branches": "fb6b985389212149d00e8f750ce2aa900785bc029bcff82ac2a009bfe0ff66c2",
    "check-cq E3 --all --branches --recheck": "54ad1d38049d4703f8951d85deafad176b5949bf96fc1bb9d0e99ee6134d1acd",
    "check-cq E3 --branches": "d7e257dfca865ad2d0714e344ec20b3100419c1e4f101fcdc834029749dfc55e",
    "check-cq E3 --branches --recheck": "47a81bec0006fea1081f52c20936bf7603ceed49e6d63f882ea985685d5e10db",
    "check-stationarity E3": "34f32b3287f9b397f1684b3eb195b7dbf10cde587d599d820c66237157922176",
    "check-stationarity E3 --recheck": "3191b636a28fb73928af52cf2e19bc8815fee9f7bf422a291cb8ccf4dec50922",
    "verify-relations E3": "e7875e86c3b537a56d506a122e998813219820627a56d1705722346b68cd17a4",
    "verify-relations E3 --recheck": "35336ffae917e60e693e4526b76553fccd68a4ba69ff19255fc0cf68d620c515",
    "eval E4": "43a609b29c7f016fb26717f46c4389115a4f82d92b53572129cd36cdd02e9429",
    "eval E4 --recheck": "fac4b5b89bcac10213406b2a0c671ff1b232023751aa41536137863e869569cf",
    "branches E4": "428e8ce01200b8dcc9377616a898b43a2ab37b2a9ecbc4a3de80dcef7f64055e",
    "branches E4 --recheck": "d5cd218052a7f64a27ff9e20bc3cd992edac016c5c1201e4bdd4c8ad682c8858",
    "branches E4 --form abs-e": "ee4be3c3a4962aece3ba618fcf3ccfb6e21a66204539445145aab33b8af4d58e",
    "branches E4 --form abs-e --recheck": "621abcc12e8f6a2629b088d82de06a974bb6da83088ea1fdf889e49f2ac4bd68",
    "reformulate E4 --slack --mpcc --slack-mpcc": "b228bcdf4e98704c8718498a97414b8169980e36130e452e2bc93fb104f5fec4",
    "reformulate E4 --slack --mpcc --slack-mpcc --recheck": "b3a477f393d94f3a429813ba9fbf0926d7e754eef0bbe1fe4ccaf565e8d33868",
    "cones E4": "51d43887f6111bb2fb773cef297486f115f1d708cdc79effe36d0bdb008ca73f",
    "cones E4 --recheck": "d8ff5065acd7f4417d5190eecb616584ed5d1c53ed5fa68f2f85ac535b36342d",
    "cones E4 --dual": "7fbf570246cb1c25e39d81ef30c29102d048537c25cac84dd4620dc5c1437ef0",
    "cones E4 --dual --recheck": "72d362a238220a1407e7016a05493f8576b209b5b1e4554387c1428c221d6ff9",
    "cones E4 --form mpcc-i": "2d58badf4bd2e5a3c8b0c3ee26865a80cfd34ac7e3f9aa464030a34f581ec96d",
    "cones E4 --form mpcc-i --recheck": "adb44385eb3b2f662e11aabd60ba15c8d2e6cc98fac9e05c2ea1a3d31a6e41d5",
    "check-cq E4": "005862a9f5ba41befac79d717a605440982cdcff1e41614d37b4093025addea2",
    "check-cq E4 --recheck": "4a819364f834582338b29d633346891678c5d50e4cf6144ffbef758f18ed0faf",
    "check-cq E4 --all": "0e1dcd359e6b75413392b521bdf0de9b04f0da976623efd99cf8d01dbceb28c9",
    "check-cq E4 --all --recheck": "bb82882ac254643ab4a8cf1f9dbd9c0669c7edaa8f9acc7c955e2f472dc4903a",
    "check-cq E4 --all --branches": "0e1dcd359e6b75413392b521bdf0de9b04f0da976623efd99cf8d01dbceb28c9",
    "check-cq E4 --all --branches --recheck": "bb82882ac254643ab4a8cf1f9dbd9c0669c7edaa8f9acc7c955e2f472dc4903a",
    "check-cq E4 --branches": "3b09225eaa5b447684a34b68e6d72c263d039942166a9108255cae0fc9754283",
    "check-cq E4 --branches --recheck": "1be9b03be22c09a6ab8a504ddc488cb7e9abc665f0e76c38e306314dcd5b4c59",
    "check-stationarity E4": "dbe6253bcfc8af662aaa565410587f8fc3526ee1dc8985d3bc492fff10bbc5ec",
    "check-stationarity E4 --recheck": "4945043f21f7b3789fa4431317af259eecdf2357b1a5d15a5f67c3f018cacec9",
    "verify-relations E4": "01f9170fd5e2250aab5e5852c506e6eea212ebf10d9e977f7307be1c3367ec37",
    "verify-relations E4 --recheck": "209c467cb967d6737870418f541c25ec14286e5443399e1a9d4ae5896fc4b554",
}

KINKS_DIGESTS = {
    "kinks2-eq check-cq --all --recheck": "d08f3cf2e0b5bc84023fa231350e92b5ae7a7cfb4bde4ab2848e81525b6a583d",
    "kinks2-eq verify-relations --recheck": "8a983352bc32f81264e4b162f79e286afeea5fe357b8dfd71c41cfc25e3837d5",
    "kinks2-ineq check-cq --all --recheck": "2d8da8d031b9a07b251e3da3b06c1a539aee7a74aa16952171fad7905a93385a",
    "kinks2-ineq verify-relations --recheck": "dd3c6552f789878c78ddf5c5168116101c1ae0bd7ca215646abd1275a04b065f",
    "kinks3-eq check-cq --all --recheck": "1b8e66c1cc32e46833e2a77bcbb85a635ae47a2b3d4ec0ed9be091926c33b68a",
    "kinks3-eq verify-relations --recheck": "b5064cd141a910636b7ae02139058624e9ae3332b678f6e0000c6cf52f55d3b2",
    "kinks4-eq check-stationarity --recheck": "4f48b0881443f7e9ba223741e89bbfffb1dfa6255ab55ed77f1a56b053846811",
    "kinks4-eq-max check-stationarity --recheck": "ee6ab35337f1e999f7e8552797a5c73e23f6615cc4d2439158bd96a2731b74cd",
}
