"""Command line interface: batch verification with self-contained JSON reports.

Subcommands: eval, branches, reformulate, cones, check-cq,
check-stationarity, verify-relations, and corpus run.  Reports are
deterministic (stable ordering, canonical rational strings, no timestamps):
identical inputs produce byte-identical output, the text of
``json.dumps(report, indent=2, ensure_ascii=False)`` and a newline.
``--recheck`` re-validates every inline certificate and witness against the
problem data by substitution.

Exit codes: 0 all holds/consistent, 1 some verdict fails (for ``corpus run``:
some expectation missed), 2 some verdict unknown, 3 usage or input errors
(a zero denominator among them), an exceeded branch or case cap, a report
that ``--out`` cannot write, or a failed internal self-check.  The verdict
codes are read from the verdict sections of each point.
"""

from __future__ import annotations

import argparse
import functools
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring

from . import __version__
from .anf import AbsNormalProgram, EvalResult, evaluate
from .cones import PolyCone, dual_cone, dual_union
from .cq import (
    ABS_E,
    ABS_I,
    FAILS,
    FORMULATIONS,
    HOLDS,
    KINK_VERDICTS,
    MPCC_I,
    SLACK_FORMS,
    UNKNOWN,
    CQVerdict,
    PointAnalysis,
    analyze_point,
    branch_verdicts,
    decide_kink_cq,
    verify_cq_verdict,
    verify_relations,
)
from .problemfile import (
    CORPUS_NAMES,
    ProblemFile,
    ProblemFileError,
    ProblemPoint,
    load_corpus_problem,
    parse_problem,
)
from .ratmath import rat
from .stationarity import (
    CaseLimitError,
    StationarityVerdict,
    check_b_stationary,
    check_m_stationary_anf,
    multiplier_system,
    translate_m_verdict,
    verify_stationarity_verdict,
)
from .transforms import (
    DEFAULT_BRANCH_CAP,
    BranchLimitError,
    enumerate_branches,
    enumerate_mpcc_branches,
    to_mpcc,
    to_slack,
)

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


# ---------------------------------------------------------------------------
# serialization helpers


def _svec(v) -> list[str]:
    """An exact vector as canonical strings: ``str`` of an ``int`` is the
    same text as of the equal ``Fraction``."""
    return list(map(str, v))


@functools.cache
def _entry_fields(cls) -> tuple[tuple[str, object], ...] | None:
    """(name, default) of each field of a dataclass; None for any other type."""
    return tuple((f.name, f.default) for f in fields(cls)) if is_dataclass(cls) else None


def _ser(obj):
    """A verdict or certificate as a report entry: a dataclass's fields by
    name in declaration order, less those at their default; rationals as
    canonical strings, tuples as lists."""
    if isinstance(obj, tuple):
        if obj and isinstance(obj[0], (Fraction, int)):
            return _svec(obj)  # a vector, in one pass
        return [_ser(x) for x in obj]
    if type(obj) is Fraction:
        return str(obj)
    entry_fields = _entry_fields(type(obj))
    if entry_fields is None:
        return obj
    return {name: _ser(v) for name, default in entry_fields if (v := getattr(obj, name)) != default}


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write_json(node, out: list[str], indent: str) -> None:
    """Append ``node`` to ``out`` exactly as ``json.dumps(node, indent=2,
    ensure_ascii=False)`` writes it, ``indent`` being its line's indentation.

    Accepts dicts with ``str`` keys, lists, tuples, strings, ints, bools and
    None; anything else (a ``Fraction``, a float) raises ``TypeError``.
    """
    if isinstance(node, str):
        out.append(encode_basestring(node))
    elif node is None or node is True or node is False:
        out.append(_JSON_CONSTANTS[node])
    elif isinstance(node, int):
        out.append(int.__repr__(node))
    elif isinstance(node, (list, tuple, dict)) and not node:
        out.append("{}" if isinstance(node, dict) else "[]")
    elif isinstance(node, (list, tuple)):
        inner = indent + "  "
        sep = ",\n" + inner
        if isinstance(node[0], str):
            try:
                # a list of strings (a vector, a cone row) in one join
                out.append("[\n" + inner + sep.join(map(encode_basestring, node)) + "\n" + indent + "]")
                return
            except TypeError:
                pass
        out.append("[\n" + inner)
        for i, item in enumerate(node):
            if i:
                out.append(sep)
            _write_json(item, out, inner)
        out.append("\n" + indent + "]")
    elif isinstance(node, dict):
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("{\n" + inner)
        for i, (key, value) in enumerate(node.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append((sep if i else "") + encode_basestring(key) + ": ")
            _write_json(value, out, inner)
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def report_text(report: dict) -> str:
    """``json.dumps(report, indent=2, ensure_ascii=False)``, in one pass."""
    out: list[str] = []
    _write_json(report, out, "")
    return "".join(out)


def _ser_func(func) -> dict:
    out = {"constant": str(func.constant), "linear": _svec(func.linear)}
    if func.quadratic is not None and not func.quadratic.is_zero():
        out["quadratic"] = [_svec(r) for r in func.quadratic.rows]
    return out


def _ser_rows(eq, ineq) -> dict:
    return {"eq": [_svec(r) for r in eq], "ineq": [_svec(r) for r in ineq]}


def _ser_cone(cone: PolyCone) -> dict:
    return _ser_rows(cone.eq_rows, cone.ineq_rows)


def _ser_hv(cone: PolyCone, rows=None) -> dict:
    """The cone's rows, or the exact ``(eq, ineq)`` rows it was made from, and its generators."""
    rays, lineality = cone.generators()
    head = _ser_cone(cone) if rows is None else _ser_rows(*rows)
    return {**head, "rays": [_svec(r) for r in rays], "lineality": [_svec(l) for l in lineality]}


def _checked(data, tp):
    if not isinstance(data, tp):
        got = f"a {type(data).__name__}" if isinstance(data, (list, dict)) else repr(data)
        raise ValueError(f"expected a {tp.__name__}, not {got}")
    return data


def _read_named(name: str, read, data):
    """``read(data)``, a failure named by ``name`` as a ``ValueError``."""
    try:
        return read(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None


# a rational vector of a report, as ``_reader`` reads it
_VECTOR = tuple[Fraction, ...]


@functools.cache
def _reader(tp):
    """The reader of a report entry back into the value of type ``tp`` that
    ``_ser`` wrote it from: a dataclass by field name and type, an absent
    field at its default, rationals through ``rat``, lists as tuples.  Data
    that no value of ``tp`` writes raises ``ValueError`` or ``TypeError``."""
    if tp is Fraction:
        return rat
    args = typing.get_args(tp)
    if isinstance(tp, types.UnionType):  # an optional field, written only when set
        read = _reader(next(a for a in args if a is not type(None)))
        return lambda data: None if data is None else read(data)
    if typing.get_origin(tp) is tuple:
        read = _reader(args[0])
        return lambda data: tuple(map(read, _checked(data, list)))
    if typing.get_origin(tp) is dict:
        read = _reader(args[1])
        return lambda data: {key: _read_named(key, read, value) for key, value in _checked(data, dict).items()}
    entry_fields = _entry_fields(tp)
    if entry_fields is None:
        return lambda data: _checked(data, tp)
    readers = {name: _reader(field_type) for name, field_type in typing.get_type_hints(tp).items()}
    required = {name for name, default in entry_fields if default is MISSING}

    def read_fields(data):
        if unknown := _checked(data, dict).keys() - readers.keys():
            raise ValueError(f"unknown field {min(unknown)!r}")
        if missing := required - data.keys():
            raise ValueError(f"field {min(missing)!r} missing")
        return tp(**{name: _read_named(name, readers[name], value) for name, value in data.items()})

    return read_fields


# ---------------------------------------------------------------------------
# report sections


def _eval_section(label: str, e: EvalResult) -> dict:
    return {
        "label": label,
        "t": _svec(e.t),
        "z": _svec(e.z),
        "signature": list(e.sigma),
        "active_switches": [i + 1 for i in e.alpha],
        "active_inequalities": [k + 1 for k in e.active_i],
        "equality_residuals": _svec(e.residual_e),
        "inequality_values": _svec(e.value_i),
        "feasible": e.is_feasible(),
    }


def _cones_section(pa: PointAnalysis, include_dual: bool, forms) -> dict:
    """The ``cones`` report: each branch's linearized and tangent cones, with
    generators, and their duals when ``include_dual``."""
    out = {}
    for key in FORMULATIONS:
        if forms and key not in forms:
            continue
        fa = pa.formulation(key)
        branches = []
        lin_duals = []
        for ba in fa.branches:
            # the branch's linearized cone printed with its exact rows
            lin = _ser_hv(ba.lin, fa.lin.rows(ba.spec.signs))
            # a certified tangent piece is the linearized cone object itself: serialize it once
            tangent = [lin if p is ba.lin else _ser_hv(p) for p in ba.tangent_pieces] if ba.tangent_known else None
            entry = {"branch": ba.label, "lin": lin, "tangent": tangent, "tangent_source": ba.tangent_source}
            if include_dual:
                # each branch dual is built once, and reused where the tangent union is the linearized cone
                lin_duals.append(dual_cone(ba.lin))
                entry["lin_dual"] = _ser_cone(lin_duals[-1])
                if ba.tangent_pieces == (ba.lin,):
                    entry["tangent_dual"] = entry["lin_dual"]
                elif ba.tangent_known:
                    entry["tangent_dual"] = _ser_cone(dual_union(list(ba.tangent_pieces), fa.lin.dim))
            branches.append(entry)
        section = {"dim": fa.lin.dim, "branches": branches}
        if include_dual:
            # the dual of the union is the intersection of the member duals (cones.dual_union)
            union_dual = functools.reduce(PolyCone.intersect, lin_duals, PolyCone.full_space(fa.lin.dim))
            section["lin_union_dual"] = _ser_cone(union_dual)
        out[key] = section
    return out


def _branch_list_section(pa: PointAnalysis) -> dict:
    """Each formulation's branches and tangent sources; the cones are the ``cones`` report's."""
    return {
        fa.key: {"dim": fa.lin.dim, "branches": [{"branch": b.label, "tangent_source": b.tangent_source} for b in fa.branches]}
        for fa in map(pa.formulation, FORMULATIONS)
    }


def _cq_section(pa: PointAnalysis, which: set[str], include_branches: bool) -> dict:
    """The kink verdicts named in ``which`` (``KINK_VERDICTS`` names), each one
    on the slack form too when ``which`` holds ``slack``, and the branch
    verdicts of every formulation when ``include_branches``.  The branch
    verdicts come first, so that kink Guignard reads them."""
    branches = branch_verdicts(pa) if include_branches else None

    def kink(key: str, condition: str) -> dict:
        gcq = None if branches is None else [v for _, v in branches[key]]
        return _ser(decide_kink_cq(pa.formulation(key), condition, gcq))

    out = {}
    for name, (key, condition) in KINK_VERDICTS.items():
        if name in which:
            out[name] = kink(key, condition)
    if "slack" in which:
        for name, (key, condition) in KINK_VERDICTS.items():
            out[f"{name}-slack"] = kink(SLACK_FORMS[key], condition)
    if include_branches:
        out["branches"] = {
            key: [
                {"branch": ba.label, "acq": _ser(acq), "gcq": _ser(gcq)}
                for ba, (acq, gcq) in zip(pa.formulation(key).branches, branches[key])
            ]
            for key in FORMULATIONS
        }
    return out


def _stationarity_verdicts(pa: PointAnalysis, which: set[str], forms: set[str]) -> dict[str, StationarityVerdict]:
    """The verdicts ``which`` (``m``, ``b``) in the ``forms`` (``anf``,
    ``mpcc``), by name in report order: M on the abs-normal form, its
    translation to the counterpart (re-checked in the system read off the
    MPCC data, with no second case search), B given the M verdict, and B's
    translation, made the same way.  Each form's multiplier system is built once and shared; the
    counterpart is anchored only when ``forms`` holds ``mpcc``."""
    out = {}
    p, e = pa.anchor(ABS_I)
    system = multiplier_system(p, e)
    if "mpcc" in forms:
        counterpart_system = multiplier_system(*pa.anchor(MPCC_I))
    m_anf = None
    if "m" in which:
        m_anf = check_m_stationary_anf(p, e, system=system)
        if "anf" in forms:
            out["m-anf"] = m_anf
        if "mpcc" in forms:
            out["m-mpcc"] = translate_m_verdict(m_anf, counterpart_system, "m-mpcc")
    if "b" in which:
        b_anf = check_b_stationary(p, e, m_anf, system)
        if "anf" in forms:
            out["b-anf"] = b_anf
        if "mpcc" in forms:
            out["b-mpcc"] = translate_m_verdict(b_anf, counterpart_system, "b-mpcc")
    return out


def _relations_section(pa: PointAnalysis) -> dict:
    report, kink, _ = verify_relations(pa)
    kink_out = {f"{which}[{key}]": _ser(verdict) for (which, key), verdict in sorted(kink.items())}
    return {"consistent": report.consistent, "arrows": [_ser(a) for a in report.arrows], "kink_verdicts": kink_out}


def _branches_section(pa: PointAnalysis, forms) -> dict:
    """One row per branch of each requested formulation at the anchored
    point: its label, and the sizes and anchor of its smooth branch problem,
    which are the formulation's.  An abs-normal branch over ``(t, z)`` adds
    one sign row per switch to ``c_i``; a counterpart branch over
    ``(x, u, v)`` pins one side of each pair and signs the other."""
    out = {}
    for key in FORMULATIONS:
        if forms and key not in forms:
            continue
        program, point = pa.anchor(key)
        if key in (ABS_I, ABS_E):
            specs = enumerate_branches(point, pa.branch_cap)
            sizes = {"variables": program.block_dim, "equalities": program.m1 + program.s}
            anchor = point.t + point.z
        else:
            specs = enumerate_mpcc_branches(point, pa.branch_cap)
            sizes = {"variables": program.dim, "equalities": program.m1 + 2 * program.s}
            anchor = point.coords
        row = {
            **sizes,
            "inequalities": program.m2 + program.s,
            "anchor": _svec(anchor),
            # analyze_point rejects an infeasible point, and every branch
            # signature dominates the point's signature
            "anchor_feasible": True,
        }
        out[key] = [{"branch": spec.label, **row} for spec in specs]
    return out


# ---------------------------------------------------------------------------
# verdict aggregation and rechecking


# the sections of a point entry that hold verdict statuses
_VERDICT_SECTIONS = ("cq", "stationarity", "relations")


def _collect_statuses(node, out: list[str]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "status" and isinstance(value, str):
                out.append(value)
            elif key == "consistent" and value is False:
                out.append(FAILS)
            else:
                _collect_statuses(value, out)
    elif isinstance(node, list):
        for item in node:
            _collect_statuses(item, out)


def exit_code_for_report(report: dict) -> int:
    """The exit code from the statuses in each point's verdict sections
    (a ``consistent: false`` counts as a failing verdict); the cones and the
    evaluation carry none and are not read."""
    statuses: list[str] = []
    for point_entry in report.get("points", []):
        for name in _VERDICT_SECTIONS:
            _collect_statuses(point_entry.get(name), statuses)
    if FAILS in statuses:
        return EXIT_FAILS
    if UNKNOWN in statuses:
        return EXIT_UNKNOWN
    return EXIT_OK


# the kind and formulation of the kink verdict under each report name: ``akq``
# and ``akq-slack`` in a ``cq`` section, ``abadie[abs-i]`` among the relations'
# kink verdicts
_KINK_ENTRIES = {
    **{name: (name, key) for name, (key, _) in KINK_VERDICTS.items()},
    **{f"{name}-slack": (name, SLACK_FORMS[key]) for name, (key, _) in KINK_VERDICTS.items()},
    **{f"{c}[{form}]": (name, form) for name, (key, c) in KINK_VERDICTS.items() for form in (key, SLACK_FORMS[key])},
}
# the kind and form of the branch verdict under each formulation's ``acq`` and ``gcq``
_BRANCH_ENTRIES = {
    (key, which): (f"branch-{which}", "mpcc" if key.startswith("mpcc") else "anf")
    for key in FORMULATIONS
    for which in ("acq", "gcq")
}


def recheck_report(pf: ProblemFile, report: dict, branch_cap: int = DEFAULT_BRANCH_CAP) -> list[str]:
    """Re-validate every certificate and witness in the report's verdict
    entries by substitution, each by its module's verifier
    (``verify_cq_verdict``, ``verify_stationarity_verdict``), against cones
    rebuilt from the problem file: a formulation is analyzed, once, with the
    file's annotations and ``branch_cap``, when some kink, branch or relation
    witness names it.  A qualification verdict that its verifier finds
    valid must also be the kind and formulation its place in the report
    names (``_KINK_ENTRIES``, ``_BRANCH_ENTRIES``).  A part of a point entry that no
    report writes is a named ``malformed entry`` error."""
    errors: list[str] = []

    def read(where: str, data, tp, default=None):
        """``data`` read as ``tp``; when malformed, ``default`` and a named error."""
        try:
            return _reader(tp)(data)
        except (TypeError, ValueError) as exc:
            errors.append(f"{where}: malformed entry: {exc}")
            return default

    for point_entry in read("points", report.get("points", []), tuple[dict, ...], ()):
        label = point_entry.get("label", "?")
        prefix = f"point {label}"
        try:
            t = read(f"{prefix} t", point_entry["t"], _VECTOR) if "t" in point_entry else pf.point(str(label)).t
        except ProblemFileError as exc:  # no point of the file has the label
            errors.append(f"{prefix}: malformed entry: {exc}")
            continue
        if t is None:
            continue
        if len(t) != pf.program.n_t:
            errors.append(f"{prefix}: t has {len(t)} entries, expected {pf.program.n_t}")
            continue
        e = evaluate(pf.program, t)
        ev = read(f"{prefix} eval", point_entry["eval"], dict) if "eval" in point_entry else None
        if ev is not None:
            z = read(f"{prefix} eval z", ev.get("z"), _VECTOR)
            if z is not None and z != e.z:
                errors.append(f"{prefix}: reported switching solution does not re-solve")
            signature = read(f"{prefix} eval signature", ev.get("signature"), tuple[int, ...])
            if signature is not None and signature != e.sigma:
                errors.append(f"{prefix}: reported signature mismatch")
        cq = read(f"{prefix} cq", point_entry.get("cq", {}), dict, {})
        branches = read(f"{prefix} branches", cq.get("branches", {}), dict[str, tuple[dict, ...]], {})
        relations = read(f"{prefix} relations", point_entry.get("relations", {}), dict, {})
        kink_verdicts = read(f"{prefix} kink_verdicts", relations.get("kink_verdicts", {}), dict, {})
        stationarity = read(f"{prefix} stationarity", point_entry.get("stationarity", {}), dict, {})
        # every verdict entry: where, its type, its formulation (None: the verdict's own), the kind and
        # formulation its place names (None: no verdict is written there) and the entry; branch
        # verdicts name the form ("anf"/"mpcc"), so their formulation is their section's
        entries = [
            (f"{prefix} {name}", CQVerdict, None, _KINK_ENTRIES.get(name), entry)
            for name, entry in [*cq.items(), *kink_verdicts.items()]
            if name != "branches"
        ]
        entries += [
            (f"{prefix} {key} {b.get('branch')} {which}", CQVerdict, key, _BRANCH_ENTRIES.get((key, which)), b.get(which))
            for key, branch_entries in branches.items()
            for b in branch_entries
            for which in ("acq", "gcq")
        ]
        entries += [(f"{prefix} {name}", StationarityVerdict, None, None, entry) for name, entry in stationarity.items()]
        verdicts = [(where, *rest, v) for where, cls, *rest, entry in entries if (v := read(where, entry, cls)) is not None]
        kink = [(where, key or v.formulation, named, v) for where, key, named, v in verdicts if type(v) is CQVerdict]
        if not e.is_feasible() and any(verdict.witness is not None for *_, verdict in kink):
            errors.append(f"{prefix}: point is not feasible, so no witness rechecks")
            kink = []
        pa = PointAnalysis(pf.program, e, annotations=pf.annotations, branch_cap=branch_cap)
        for where, key, named, v in kink:
            msgs = verify_cq_verdict(v, key, pa.formulation)
            if not msgs and (v.kind, v.formulation) != named:  # valid, but not the verdict of its place
                written = "kind {} of {}".format(*named) if named else "no qualification verdict"
                msgs = [f"the entry is kind {v.kind} of {v.formulation}, where the report writes {written}"]
            errors.extend(f"{where}: {msg}" for msg in msgs)
        systems = functools.cache(lambda form: multiplier_system(*pa.anchor(form)))
        for where, *_, verdict in verdicts:
            if type(verdict) is StationarityVerdict:
                errors.extend(_recheck_stationarity(pa, systems, where, verdict))
    return errors


def _recheck_stationarity(pa: PointAnalysis, systems, prefix: str, verdict: StationarityVerdict) -> list[str]:
    """Recheck one stationarity verdict by ``verify_stationarity_verdict``;
    ``systems(form)`` is the point's multiplier system of the formulation
    ``form``, built once."""
    kind = verdict.kind
    if kind not in ("m-anf", "m-mpcc", "b-anf", "b-mpcc"):
        return [f"{prefix}: unknown kind {kind!r}"]
    # every multiplier system and certificate is checked at the point, which
    # only a feasible point has
    if not pa.point_eval.is_feasible():
        return [f"{prefix}: point is not feasible, so no branch rechecks"]
    # a message about one case prefix follows the verdict name directly
    return [
        f"{prefix} {msg}" if msg.startswith("case [") else f"{prefix}: {msg}"
        for msg in verify_stationarity_verdict(systems(ABS_I if kind.endswith("-anf") else MPCC_I), verdict)
    ]


# ---------------------------------------------------------------------------
# commands


def _report_skeleton(command: str, pf: ProblemFile | None) -> dict:
    out = {"tool": {"name": "absnormal", "version": __version__}, "command": command}
    if pf is not None:
        out["problem"] = {"name": pf.name, "digest": pf.digest}
    return out


def _selected_points(pf: ProblemFile, point_arg: str | None) -> list[ProblemPoint]:
    if point_arg is not None:
        return [pf.point(point_arg)]
    if not pf.points:
        raise ProblemFileError("the problem file lists no points; pass --point")
    return list(pf.points)


def _point_report(command: str, pf: ProblemFile, args, sections) -> dict:
    """The report of ``command``: one entry per selected point, its label and
    ``t`` followed by the sections ``sections(point)`` returns."""
    report = _report_skeleton(command, pf)
    report["points"] = [
        {"label": p.label, "t": _svec(p.t), **sections(p)} for p in _selected_points(pf, args.point)
    ]
    return report


def _analyze(pf: ProblemFile, point: ProblemPoint, cap: int = DEFAULT_BRANCH_CAP) -> PointAnalysis:
    return analyze_point(pf.program, point.t, pf.annotations, branch_cap=cap)


def cmd_eval(pf: ProblemFile, args) -> dict:
    return _point_report("eval", pf, args, lambda p: {"eval": _eval_section(p.label, evaluate(pf.program, p.t))})


def cmd_branches(pf: ProblemFile, args) -> dict:
    forms = {args.form} if args.form else None
    return _point_report(
        "branches",
        pf,
        args,
        lambda p: {"branches": _branches_section(_analyze(pf, p, args.branch_cap), forms)},
    )


def cmd_reformulate(pf: ProblemFile, args) -> dict:
    report = _report_skeleton("reformulate", pf)
    p = pf.program
    if args.slack or args.slack_mpcc:
        slack = to_slack(p)
        report["slack"] = _ser_program(slack)
    if args.mpcc:
        report["mpcc"] = _ser_mpcc(to_mpcc(p))
    if args.slack_mpcc:
        report["slack-mpcc"] = _ser_mpcc(to_mpcc(slack))
    return report


def _ser_program(p: AbsNormalProgram) -> dict:
    return {
        "dimensions": {"n_t": p.n_t, "s": p.s, "m1": p.m1, "m2": p.m2},
        "objective": _ser_func(p.f),
        "equalities": [_ser_func(f) for f in p.c_e],
        "inequalities": [_ser_func(f) for f in p.c_i],
        "switching": [_ser_func(f) for f in p.c_z],
    }


def _ser_mpcc(mp) -> dict:
    return {
        "variables": {"n_x": mp.n_x, "pairs": mp.s},
        "objective": _ser_func(mp.objective),
        "equalities": [_ser_func(f) for f in mp.ce_funcs],
        "switching": [_ser_func(f) for f in mp.cz_funcs],
        "inequalities": [_ser_func(f) for f in mp.ci_funcs],
        "complementarity_pairs": [
            {"u": mp.u_index(i) + 1, "v": mp.v_index(i) + 1} for i in range(mp.s)
        ],
    }


def cmd_cones(pf: ProblemFile, args) -> dict:
    forms = {args.form} if args.form else None

    def sections(p: ProblemPoint) -> dict:
        pa = _analyze(pf, p, args.branch_cap)
        return {"cones": _cones_section(pa, args.dual, forms)}

    return _point_report("cones", pf, args, sections)


def cmd_check_cq(pf: ProblemFile, args) -> dict:
    which = {name for name in KINK_VERDICTS if args.all or getattr(args, name.replace("-", "_"))}
    if args.all:
        which.add("slack")
    include_branches = args.branches or args.all
    if not which and not include_branches:
        which = set(KINK_VERDICTS)

    def sections(p: ProblemPoint) -> dict:
        pa = _analyze(pf, p, args.branch_cap)
        return {
            "eval": _eval_section(p.label, pa.point_eval),
            "cq": _cq_section(pa, which, include_branches),
            "cones": _branch_list_section(pa),
        }

    return _point_report("check-cq", pf, args, sections)


def cmd_check_stationarity(pf: ProblemFile, args) -> dict:
    which = {key for key in ("m", "b") if getattr(args, key)} or {"m", "b"}
    forms = {args.form} if args.form else {"anf", "mpcc"}

    def sections(p: ProblemPoint) -> dict:
        verdicts = _stationarity_verdicts(_analyze(pf, p), which, forms)
        return {"stationarity": {name: _ser(v) for name, v in verdicts.items()}}

    return _point_report("check-stationarity", pf, args, sections)


def cmd_verify_relations(pf: ProblemFile, args) -> dict:
    def sections(p: ProblemPoint) -> dict:
        pa = _analyze(pf, p, args.branch_cap)
        return {
            "eval": _eval_section(p.label, pa.point_eval),
            "relations": _relations_section(pa),
            "cones": _branch_list_section(pa),
        }

    return _point_report("verify-relations", pf, args, sections)


# ---------------------------------------------------------------------------
# corpus verification


def _observed_verdicts(pf: ProblemFile, point: ProblemPoint, cap: int) -> tuple[dict, bool, bool]:
    pa = _analyze(pf, point, cap)
    relations, kink, _ = verify_relations(pa)
    stat = _stationarity_verdicts(pa, {"m", "b"}, {"anf", "mpcc"})
    observed = {name: kink[(condition, key)].status for name, (key, condition) in KINK_VERDICTS.items()}
    observed["m-stationary"] = stat["m-anf"].status
    observed["b-stationary"] = stat["b-anf"].status
    forms_agree = all(stat[f"{x}-anf"].status == stat[f"{x}-mpcc"].status for x in ("m", "b"))
    return observed, relations.consistent, forms_agree


def cmd_corpus(args) -> dict:
    report = _report_skeleton("corpus run", None)
    problems = []
    table = [
        "problem  point     check          expected  observed  result",
        "-------  --------  -------------  --------  --------  ------",
    ]
    all_ok = True
    for name in CORPUS_NAMES:
        pf = load_corpus_problem(name)
        entry = {"name": pf.name, "digest": pf.digest, "points": []}
        for point in pf.points:
            observed, consistent, forms_agree = _observed_verdicts(pf, point, args.branch_cap)
            matches = all(observed.get(k) == v for k, v in point.expected.items())
            ok = matches and consistent and forms_agree
            all_ok = all_ok and ok
            rows = [(key, expected_value, observed.get(key, "?")) for key, expected_value in point.expected.items()]
            rows.append(("relations", HOLDS, HOLDS if consistent else FAILS))
            rows.append(("form-agree", HOLDS, HOLDS if forms_agree else FAILS))
            for check, expected_value, got in rows:
                table.append(
                    f"{pf.name:<7}  {point.label:<8}  {check:<13}  {expected_value:<8}  "
                    f"{got:<8}  {'ok' if got == expected_value else 'MISMATCH'}"
                )
            entry["points"].append(
                {
                    "label": point.label,
                    "observed": observed,
                    "expected": point.expected,
                    "relations_consistent": consistent,
                    "stationarity_forms_agree": forms_agree,
                    "matches": ok,
                }
            )
        problems.append(entry)
    report["problems"] = problems
    report["table"] = table
    report["summary"] = {"all_matched": all_ok}
    return report


def corpus_exit_code(report: dict) -> int:
    return EXIT_OK if report["summary"]["all_matched"] else EXIT_FAILS


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process (parsing keeps no state in it)."""
    parser = argparse.ArgumentParser(
        prog="absnormal",
        description="Exact verification of kink/complementarity constraint "
        "qualifications and stationarity for nonsmooth programs in abs-normal form.",
    )
    parser.add_argument("--version", action="version", version=f"absnormal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_branch_cap(sp):
        sp.add_argument(
            "--branch-cap",
            type=int,
            default=DEFAULT_BRANCH_CAP,
            help=f"refuse enumerations beyond this many branches (default {DEFAULT_BRANCH_CAP})",
        )

    def add_common(sp, with_point=True):
        sp.add_argument("problem", help="problem file (JSON) or corpus name E1..E4")
        if with_point:
            sp.add_argument("--point", help="point label from the file or comma-separated coordinates")
        sp.add_argument("--out", help="write the report to this path instead of stdout")
        sp.add_argument("--recheck", action="store_true", help="re-validate all inline certificates")

    add_common(sub.add_parser("eval", help="solve the switching system and classify the point"))
    sp = sub.add_parser("branches", help="list the smooth branch problems at a point")
    add_common(sp)
    add_branch_cap(sp)
    sp.add_argument("--form", choices=list(FORMULATIONS), help="restrict to one formulation")

    sp = sub.add_parser("reformulate", help="emit the slack and counterpart reformulations")
    add_common(sp, with_point=False)
    sp.add_argument("--slack", action="store_true")
    sp.add_argument("--mpcc", action="store_true")
    sp.add_argument("--slack-mpcc", action="store_true", dest="slack_mpcc")

    sp = sub.add_parser("cones", help="emit branch linearized/tangent cones")
    add_common(sp)
    add_branch_cap(sp)
    sp.add_argument("--dual", action="store_true", help="include dual cones")
    sp.add_argument("--form", choices=list(FORMULATIONS))

    sp = sub.add_parser("check-cq", help="decide the kink and counterpart qualifications")
    add_common(sp)
    add_branch_cap(sp)
    sp.add_argument("--all", action="store_true")
    for name in KINK_VERDICTS:
        sp.add_argument(f"--{name}", action="store_true")
    sp.add_argument("--branches", action="store_true", help="include per-branch verdicts")

    sp = sub.add_parser("check-stationarity", help="decide M-/B-stationarity")
    add_common(sp)
    sp.add_argument("--m", action="store_true")
    sp.add_argument("--b", action="store_true")
    sp.add_argument("--form", choices=["anf", "mpcc"])

    sp = sub.add_parser("verify-relations", help="cross-check every proved implication")
    add_common(sp)
    add_branch_cap(sp)

    sp = sub.add_parser("corpus", help="bundled corpus operations")
    sp.add_argument("action", choices=["run"])
    sp.add_argument("--out")
    sp.add_argument("--recheck", action="store_true")
    add_branch_cap(sp)

    return parser


def _load_problem_arg(arg: str) -> ProblemFile:
    if arg in CORPUS_NAMES:
        return load_corpus_problem(arg)
    return parse_problem(arg)


def _emit(report: dict, out_path: str | None, code: int) -> int:
    """Write the report and return the exit ``code``; a report that cannot be
    written is the tool's failure, not a verdict, and exits 3."""
    text = report_text(report) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return code
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {out_path}: {exc.strerror or exc}\n")
        return EXIT_USAGE
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage errors
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        if args.command == "corpus":
            report = cmd_corpus(args)
            code = corpus_exit_code(report)
            if args.recheck:
                report["recheck"] = {"errors": [], "note": "corpus reports carry no inline certificates"}
            return _emit(report, args.out, code)

        pf = _load_problem_arg(args.problem)
        handlers = {
            "eval": cmd_eval,
            "branches": cmd_branches,
            "reformulate": cmd_reformulate,
            "cones": cmd_cones,
            "check-cq": cmd_check_cq,
            "check-stationarity": cmd_check_stationarity,
            "verify-relations": cmd_verify_relations,
        }
        report = handlers[args.command](pf, args)
        if getattr(args, "recheck", False):
            errors = recheck_report(pf, report, getattr(args, "branch_cap", DEFAULT_BRANCH_CAP))
            report["recheck"] = {"errors": errors}
            if errors:
                return _emit(report, args.out, EXIT_USAGE)
        return _emit(report, args.out, exit_code_for_report(report))
    except (ProblemFileError, BranchLimitError, CaseLimitError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except RuntimeError as exc:
        # a failed self-check or an escaping subdivision cap: the tool's own
        # failure, never to be read as a verdict
        sys.stderr.write(f"error: internal: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
