"""The benchmark's workloads: operation lists with their expected answers.

One operation is one ``absnormal.cli.main(argv)`` call.  Every operation
carries the exit code it must return and a check of its report against an
answer that does not come from the tool under test: the ``expected`` entries
of the corpus files (derived in ``src/absnormal/corpus/WORKSHEETS.md``) for
``corpus``, and the hand derivation in ``README.md`` for the ``kinks``
workloads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import kinks

WORKLOADS = ("corpus", "kinks-cq", "kinks-stat")

# About the wall time of one cycle at the commit that defined the benchmark, on
# a 2-vCPU Xeon container.  A run makes seconds / nominal cycles, so the
# operation list of a run depends only on its arguments.
NOMINAL_CYCLE_S = {"corpus": 4.0, "kinks-cq": 6.0, "kinks-stat": 3.6}

FORMS = ("abs-i", "abs-e", "mpcc-i", "mpcc-e")
# the corpus files' qualification keys, with the kind verify-relations names
# their verdicts by ("<kind>[<formulation>]")
KINK_KEYS = {"akq": "abadie", "gkq": "guignard", "mpcc-acq": "abadie", "mpcc-gcq": "guignard"}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[dict], list[str]]

    @property
    def label(self) -> str:
        return " ".join(Path(a).stem if a.endswith(".json") else a for a in self.argv)


class Workload:
    """Builds the operations of each cycle of one workload from its seed.

    The ``kinks`` workloads give every operation an instance not used before in
    the run, so the content-keyed generator cache in ``cones`` starts cold for
    each, as it would in a separate CLI process.
    """

    def __init__(self, name: str, seed: int, src: Path, workdir: Path) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.src = src
        self.workdir = workdir
        self._seen: set[kinks.Kinks] = set()

    def cycle(self, index: int) -> list[Op]:
        """The operations of cycle ``index``, writing the problem files they read."""
        if self.name == "corpus":
            return _corpus_ops(self.seed, self.src)
        specs = KINKS_CQ_CYCLE if self.name == "kinks-cq" else KINKS_STAT_CYCLE
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        ops = []
        for command, k, sign, inequalities in specs:
            inst = kinks.draw(rng, k, sign, inequalities)
            while inst in self._seen:
                inst = kinks.draw(rng, k, sign, inequalities)
            self._seen.add(inst)
            ops.append(kinks_op(command, inst, write_problem(inst, self.workdir)))
        return ops


def _status(node: dict, *path: str) -> str | None:
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, str) else None


def _mismatch(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def _recheck_clean(report: dict) -> list[str]:
    errors = report.get("recheck", {}).get("errors")
    if errors is None:
        return ["report has no recheck section"]
    return [f"recheck: {e}" for e in errors]


def _single_point(report: dict) -> dict:
    points = report.get("points") or [{}]
    return points[0]


def _branch_counts(section: dict) -> dict[str, int]:
    return {form: len(section.get(form, {}).get("branches", [])) for form in FORMS}


# ---------------------------------------------------------------------------
# corpus: every labeled point of E1-E4 under each command, plus `corpus run`

# Degenerate switches and active inequalities of each labeled point, read off
# the worksheets: a degenerate switch doubles the branches of every
# formulation, an active inequality doubles those of the slack forms.
CORPUS_DEGENERACY = {
    ("E1", "origin"): (1, 0),
    ("E1", "shoulder"): (0, 0),
    ("E2", "origin"): (1, 2),
    ("E2", "arm"): (0, 1),
    ("E3", "origin"): (1, 0),
    ("E4", "origin"): (1, 0),
}


def _corpus_branch_counts(name: str, label: str) -> dict[str, int]:
    switches, active = CORPUS_DEGENERACY[(name, label)]
    n_i, n_e = 2**switches, 2 ** (switches + active)
    return {"abs-i": n_i, "mpcc-i": n_i, "abs-e": n_e, "mpcc-e": n_e}


def _corpus_ops(seed: int, src: Path) -> list[Op]:
    ops = []
    for path in sorted((src / "absnormal" / "corpus").glob("E*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        name, dims = data["name"], data["dimensions"]
        ops.append(Op(("reformulate", name, "--slack-mpcc"), 0, _reformulate_check(dims)))
        for point in data["points"]:
            ops.extend(_corpus_point_ops(name, point))
    rng = random.Random(f"corpus:{seed}")
    rng.shuffle(ops)
    ops.append(Op(("corpus", "run"), 0, _corpus_run_check(len(CORPUS_DEGENERACY))))
    return ops


def _reformulate_check(dims: dict) -> Callable[[dict], list[str]]:
    # the slack form turns each inequality into an equality with its own switch
    m2 = dims["m2"]
    slack = {"n_t": dims["n_t"] + m2, "s": dims["s"] + m2, "m1": dims["m1"] + m2, "m2": 0}
    pairs = {"n_x": dims["n_t"] + m2, "pairs": dims["s"] + m2}

    def check(report: dict) -> list[str]:
        return _mismatch("slack dimensions", report.get("slack", {}).get("dimensions"), slack) + _mismatch(
            "slack-mpcc variables", report.get("slack-mpcc", {}).get("variables"), pairs
        )

    return check


def _corpus_point_ops(name: str, point: dict) -> list[Op]:
    label, expected = point["label"], point["expected"]
    at = ("--point", label)
    counts = _corpus_branch_counts(name, label)
    cq_code = 1 if "fails" in (expected[k] for k in KINK_KEYS) else 0
    stat_code = 1 if "fails" in (expected["m-stationary"], expected["b-stationary"]) else 0

    def check_eval(report: dict) -> list[str]:
        ev = _single_point(report).get("eval", {})
        return _mismatch("t", ev.get("t"), point["t"]) + _mismatch("feasible", ev.get("feasible"), True)

    def check_branches(report: dict) -> list[str]:
        got = {form: len(v) for form, v in _single_point(report).get("branches", {}).items()}
        return _mismatch("branch counts", got, counts)

    def check_cones(report: dict) -> list[str]:
        cones = _single_point(report).get("cones", {})
        out = _mismatch("branch counts", _branch_counts(cones), counts)
        for form in FORMS:
            section = cones.get(form, {})
            if "lin_union_dual" not in section or not all("lin_dual" in b for b in section.get("branches", [])):
                out.append(f"{form}: dual cones missing")
        return out

    def check_cq(report: dict) -> list[str]:
        cq = _single_point(report).get("cq", {})
        out = _recheck_clean(report)
        for key in KINK_KEYS:
            # the slack forms inherit every verdict through the lifting maps
            out += _mismatch(key, _status(cq, key, "status"), expected[key])
            out += _mismatch(key + "-slack", _status(cq, key + "-slack", "status"), expected[key])
        return out

    def check_stationarity(report: dict) -> list[str]:
        st = _single_point(report).get("stationarity", {})
        out = _recheck_clean(report)
        for kind, key in (("m", "m-stationary"), ("b", "b-stationary")):
            for form in ("anf", "mpcc"):
                out += _mismatch(f"{kind}-{form}", _status(st, f"{kind}-{form}", "status"), expected[key])
        return out

    def check_relations(report: dict) -> list[str]:
        rel = _single_point(report).get("relations", {})
        out = _recheck_clean(report) + _mismatch("relations consistent", rel.get("consistent"), True)
        verdicts = rel.get("kink_verdicts", {})
        for key, kind in KINK_KEYS.items():
            side = "mpcc" if key.startswith("mpcc") else "abs"
            for suffix in ("i", "e"):
                name_ = f"{kind}[{side}-{suffix}]"
                out += _mismatch(name_, _status(verdicts, name_, "status"), expected[key])
        return out

    return [
        Op(("eval", name) + at, 0, check_eval),
        Op(("branches", name) + at, 0, check_branches),
        Op(("cones", name) + at + ("--dual",), 0, check_cones),
        Op(("check-cq", name) + at + ("--all", "--recheck"), cq_code, check_cq),
        Op(("check-stationarity", name) + at + ("--recheck",), stat_code, check_stationarity),
        Op(("verify-relations", name) + at + ("--recheck",), cq_code, check_relations),
    ]


def _corpus_run_check(n_points: int) -> Callable[[dict], list[str]]:
    # six expectation rows plus the relations and form-agreement rows per point,
    # under a two-line header
    rows = 2 + 8 * n_points

    def check(report: dict) -> list[str]:
        return _mismatch("all matched", report.get("summary", {}).get("all_matched"), True) + _mismatch(
            "table rows", len(report.get("table", [])), rows
        )

    return check


# ---------------------------------------------------------------------------
# kinks workloads: seeded kinks{k} instances at the origin

# (command, k, objective sign, inequality variant) of each operation in a cycle.
# kinks-cq: the qualification path.  Two fast (k=2), two middle (k=3) and two
# slow (k=2 with inequalities) operations put the median latency in the middle
# of the k=3 cluster, away from the gaps between clusters.
KINKS_CQ_CYCLE = (
    ("check-cq", 2, 1, False),
    ("verify-relations", 2, 1, False),
    ("check-cq", 3, 1, False),
    ("verify-relations", 3, 1, False),
    ("check-cq", 2, 1, True),
    ("verify-relations", 2, 1, True),
)


# kinks-stat: the stationarity path, 3^4 case LPs per form.  The minimizer
# twice and the maximizer once put the median latency inside the minimizer
# cluster, away from the gap between the two objectives.
KINKS_STAT_CYCLE = (
    ("check-stationarity", 4, 1, False),
    ("check-stationarity", 4, -1, False),
    ("check-stationarity", 4, 1, False),
)


def write_problem(inst: kinks.Kinks, workdir: Path) -> str:
    path = workdir / f"{inst.name}.json"
    path.write_text(json.dumps(kinks.problem_data(inst), indent=1) + "\n", encoding="utf-8")
    return str(path)


def kinks_op(command: str, inst: kinks.Kinks, path: str) -> Op:
    at = ("--point", "origin")
    if command == "check-cq":
        return Op((command, path) + at + ("--all", "--recheck"), 0, _kinks_cq_check(inst))
    if command == "verify-relations":
        return Op((command, path) + at + ("--recheck",), 0, _kinks_relations_check(inst))
    code = 0 if kinks.stationarity_status(inst) == "holds" else 1
    return Op((command, path) + at + ("--recheck",), code, _kinks_stat_check(inst))


def _kinks_cq_check(inst: kinks.Kinks) -> Callable[[dict], list[str]]:
    counts = kinks.expected_branch_counts(inst)

    def check(report: dict) -> list[str]:
        point = _single_point(report)
        cq = point.get("cq", {})
        out = _recheck_clean(report) + _mismatch("branch counts", _branch_counts(point.get("cones", {})), counts)
        for key in kinks.CQ_KEYS:
            out += _mismatch(key, _status(cq, key, "status"), "holds")
        for form in FORMS:
            entries = cq.get("branches", {}).get(form, [])
            out += _mismatch(f"{form} branch verdicts", len(entries), counts[form])
            bad = [
                e.get("branch")
                for e in entries
                if _status(e, "acq", "status") != "holds" or _status(e, "gcq", "status") != "holds"
            ]
            if bad:
                out.append(f"{form}: branch qualification not holding on {bad}")
        return out

    return check


def _kinks_relations_check(inst: kinks.Kinks) -> Callable[[dict], list[str]]:
    counts = kinks.expected_branch_counts(inst)

    def check(report: dict) -> list[str]:
        point = _single_point(report)
        rel = point.get("relations", {})
        out = _recheck_clean(report) + _mismatch("branch counts", _branch_counts(point.get("cones", {})), counts)
        out += _mismatch("relations consistent", rel.get("consistent"), True)
        verdicts = rel.get("kink_verdicts", {})
        for kind in ("abadie", "guignard"):
            for form in FORMS:
                key = f"{kind}[{form}]"
                out += _mismatch(key, _status(verdicts, key, "status"), "holds")
        return out

    return check


def _kinks_stat_check(inst: kinks.Kinks) -> Callable[[dict], list[str]]:
    status = kinks.stationarity_status(inst)
    multipliers = kinks.expected_multipliers(inst)

    def check(report: dict) -> list[str]:
        st = _single_point(report).get("stationarity", {})
        out = _recheck_clean(report)
        for key in ("m-anf", "m-mpcc", "b-anf", "b-mpcc"):
            out += _mismatch(key, _status(st, key, "status"), status)
        if status == "holds" and multipliers is not None:
            for key in ("m-anf", "m-mpcc"):
                out += _mismatch(f"{key} multipliers", st.get(key, {}).get("multipliers"), multipliers)
        return out

    return check
