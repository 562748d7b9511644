"""Deciders for Abadie/Guignard kink and complementarity qualifications.

Everything reduces to exact cone comparisons over the branch decomposition:

* an Abadie condition asks whether the tangent pieces cover the linearized
  cones (of one branch, or of all branches for the kink-level conditions),
* a Guignard condition asks for equal duals; by biduality that is whether
  every linearized generator lies in the closed conic hull of the tangent
  pieces, decided by substitution or one exact LP per generator, with no
  H-representation of a dual,
* the four formulations are analyzed with the same engine, each when a
  verdict first reads it, with tangent knowledge transported along the branch
  homeomorphisms where a branch cannot certify its own tangent cone,
* a program with no inequality is its own slack form, so there abs-e and
  mpcc-e share the analyses of abs-i and mpcc-i (``PointAnalysis``).

A branch is its spec (``transforms.BranchSpec``) and its linearized cone from
the linearization of its formulation at the point; no branch problem is
built.  Verdicts are tri-state.  Fails always rests on re-checkable material
(witness rays, dual vectors); Unknown names the blocking branches instead of
guessing.  One function decides whether a kink or branch verdict is valid,
by substitution: ``verify_cq_verdict``.  The kink decider and the branch list
(``branch_verdicts``) self-check what they return through it, and
``--recheck`` re-validates each report entry; a failed self-check is a
RuntimeError, never a verdict.  Problem files may supply trusted tangent-cone
annotations for branches outside every certificate class; an annotation
that a branch needs is sanity-checked against its linearized cone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

from .anf import AbsNormalProgram, EvalResult, evaluate
from .cones import (
    BranchLinearization,
    PolyCone,
    SubdivisionDepthExceeded,
    TangentCertificate,
    cone_contains,
    dual_cone,  # unused here; bench/test_bench.py asserts the tracer rebinds cq.dual_cone
    hull_escape,
    linearize_anf,
    linearize_mpcc,
    tangent_cone_branch,
    union_covers,
)
from .ratmath import Vec, integer_dot, primitive_integer, vec_neg
from .transforms import (
    DEFAULT_BRANCH_CAP,
    BranchSpec,
    mpcc_point_from_eval,
    slack_point,
    to_mpcc,
    to_slack,
)

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

ABS_I = "abs-i"
ABS_E = "abs-e"
MPCC_I = "mpcc-i"
MPCC_E = "mpcc-e"

FORMULATIONS = (ABS_I, ABS_E, MPCC_I, MPCC_E)

# each derived formulation: its source formulation and the branch map from
# the source, in the order of the relation arrows; abs-i is the given program
_SOURCES = {
    MPCC_I: (ABS_I, "transport"),
    MPCC_E: (ABS_E, "transport"),
    ABS_E: (ABS_I, "lift"),
}

# the report name of each kink-level verdict: (formulation, condition); the
# same condition on a formulation's slack form carries the same name
KINK_VERDICTS = {
    "akq": (ABS_I, "abadie"),
    "gkq": (ABS_I, "guignard"),
    "mpcc-acq": (MPCC_I, "abadie"),
    "mpcc-gcq": (MPCC_I, "guignard"),
}
SLACK_FORMS = {ABS_I: ABS_E, MPCC_I: MPCC_E}
_KINK_NAMES = {
    (form, condition): name
    for name, (key, condition) in KINK_VERDICTS.items()
    for form in (key, SLACK_FORMS[key])
}
_TWINS = {slack: key for key, slack in SLACK_FORMS.items()}


class AnnotationError(ValueError):
    pass


@dataclass(frozen=True)
class CQVerdict:
    kind: str  # "akq" | "gkq" | "mpcc-acq" | "mpcc-gcq" | "branch-acq" | "branch-gcq"
    formulation: str
    status: str
    branch: str | None = None
    witness: Vec | None = None
    blocking: tuple[str, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class BranchAnalysis:
    spec: BranchSpec
    lin: PolyCone
    tangent_pieces: tuple[PolyCone, ...] | None
    tangent_source: str | None
    certificate: TangentCertificate

    @property
    def label(self) -> str:
        return self.spec.label

    @property
    def form(self) -> str:
        """``anf`` for an abs-normal branch, ``mpcc`` for a counterpart branch."""
        return "anf" if self.spec.kind == "signature" else "mpcc"

    @property
    def tangent_known(self) -> bool:
        return self.tangent_pieces is not None

    @property
    def upper_pieces(self) -> tuple[PolyCone, ...]:
        """The tangent pieces, or the linearized cone that bounds them when uncertified."""
        return self.tangent_pieces if self.tangent_known else (self.lin,)


@dataclass(frozen=True)
class FormulationAnalysis:
    key: str
    lin: BranchLinearization  # the formulation linearized at the point
    branches: tuple[BranchAnalysis, ...]

    def upper_members(self) -> list[PolyCone]:
        """Pieces of the tightest known superset of the tangent union."""
        return [piece for ba in self.branches for piece in ba.upper_pieces]

    def lower_members(self) -> list[PolyCone]:
        """Pieces of the known subset of the tangent union (certified branches only)."""
        return [piece for ba in self.branches for piece in ba.tangent_pieces or ()]

    def blocking(self) -> tuple[str, ...]:
        return tuple(ba.label for ba in self.branches if not ba.tangent_known)

    @functools.cached_property
    def _positions(self) -> dict[tuple[int, ...], int]:
        return {ba.spec.signs: i for i, ba in enumerate(self.branches)}

    def source_position(self, signs: tuple[int, ...]) -> int:
        """The position of the branch whose signature leads ``signs``."""
        return self._positions[signs[: len(self.lin.base)]]


# ---------------------------------------------------------------------------
# tangent resolution (certificates first, then transported annotations)


def _validated_pieces(pieces, lin: PolyCone, label: str) -> tuple[PolyCone, ...]:
    for piece in pieces:
        if piece.dim != lin.dim:
            raise AnnotationError(f"annotation for branch {label} has wrong dimension")
        if not cone_contains(lin, piece):
            raise AnnotationError(
                f"annotation for branch {label} is not contained in the branch linearized cone"
            )
    return tuple(pieces)


def analyze_branch(lin: BranchLinearization, spec: BranchSpec, annotation_pieces=None) -> BranchAnalysis:
    """Branch ``spec`` with its linearized cone from the linearization ``lin``
    of its formulation at the point, and its tangent cone when certified or
    annotated."""
    cone = lin.cone(spec.signs)
    tangent, cert = tangent_cone_branch(cone, lin.affine)
    if tangent is not None:
        return BranchAnalysis(spec, cone, (tangent,), cert.status, cert)
    if annotation_pieces is not None:
        pieces = _validated_pieces(annotation_pieces, cone, spec.label)
        return BranchAnalysis(spec, cone, pieces, "annotation", cert)
    return BranchAnalysis(spec, cone, None, None, cert)


def _distinct(rows) -> tuple:
    """The nonzero primitive integer rows of ``rows``, each once, in the order they first occur."""
    return tuple(r for r in dict.fromkeys(map(primitive_integer, rows)) if any(r))


def _left_inverse(how: str, source: BranchLinearization, lin: BranchLinearization):
    """A source row composed with the left inverse of the branch map ``how``:
    (t, w, z, z_w) -> (t, z) for the lift, (x, u, v) -> (x, u - v) for the split."""
    n = source.n_x
    if how == "lift":
        zeros = (0,) * (lin.n_x - n)
        return lambda row: row[:n] + zeros + row[n:] + zeros
    return lambda row: row + vec_neg(row[n:])


def _carry(ba: BranchAnalysis, source: BranchAnalysis, how: str, compose) -> BranchAnalysis:
    """``ba`` with the tangent pieces of ``source`` carried to it along the
    branch map (``how`` is ``lift`` or ``transport``), when ``ba`` cannot
    certify itself and ``source`` knows its tangent cone; otherwise ``ba`` as
    it is.

    The branch map is linear and injective; ``compose`` maps a row of a source
    piece through its left inverse.  A carried piece is ``ba.lin`` plus those
    rows: the pin and graph rows of ``ba.lin`` fix the range of the map, and
    its other rows hold on the image because each source piece lies in its
    own branch's linearized cone.  Each piece keeps the first of its equal
    rows and none of its zero rows.  No generator is built."""
    if ba.tangent_known or not source.tangent_known:
        return ba
    lin = ba.lin
    pieces = tuple(
        PolyCone(
            lin.dim,
            _distinct(lin.eq_rows + tuple(map(compose, piece.eq_rows))),
            _distinct(lin.ineq_rows + tuple(map(compose, piece.ineq_rows))),
        )
        for piece in source.tangent_pieces
    )
    pieces = _validated_pieces(pieces, ba.lin, ba.label)
    return replace(ba, tangent_pieces=pieces, tangent_source=f"{how}:{source.tangent_source}")


def check_branch_cq(ba: BranchAnalysis, which: str) -> CQVerdict:
    """Abadie ("acq") or Guignard ("gcq") for one branch."""
    kind = "branch-acq" if which == "acq" else "branch-gcq"
    if not ba.tangent_known:
        return CQVerdict(
            kind,
            ba.form,
            UNKNOWN,
            branch=ba.label,
            blocking=(ba.label,),
            note="branch tangent cone not certified (not affine, no full-rank or strict-direction certificate)",
        )
    if which == "acq":
        try:
            ok, witness = union_covers(list(ba.tangent_pieces), ba.lin)
        except SubdivisionDepthExceeded:
            return CQVerdict(kind, ba.form, UNKNOWN, branch=ba.label, blocking=(ba.label,), note="subdivision depth cap exceeded")
        if ok:
            return CQVerdict(kind, ba.form, HOLDS, branch=ba.label, note=f"tangent source: {ba.tangent_source}")
        return CQVerdict(kind, ba.form, FAILS, branch=ba.label, witness=witness)
    witness = hull_escape(ba.tangent_pieces, ba.lin)
    if witness is None:
        return CQVerdict(kind, ba.form, HOLDS, branch=ba.label, note=f"tangent source: {ba.tangent_source}")
    return CQVerdict(kind, ba.form, FAILS, branch=ba.label, witness=witness)


def _guignard_escape(branches, members: list[PolyCone], own) -> Vec | None:
    """A dual vector of the members escaping the dual of the linearized cone
    of one of ``branches``; ``own(ba)`` are the members tried first for
    branch ``ba``."""
    for ba in branches:
        witness = hull_escape(members, ba.lin, own(ba))
        if witness is not None:
            return witness
    return None


def decide_kink_cq(fa: FormulationAnalysis, which: str, branch_gcq=None) -> CQVerdict:
    """``_decide_kink_cq``'s verdict, once ``verify_cq_verdict`` finds it valid in ``fa``."""
    return _checked(_decide_kink_cq(fa, which, branch_gcq), fa.key, lambda _: fa)


def _decide_kink_cq(fa: FormulationAnalysis, which: str, branch_gcq=None) -> CQVerdict:
    """Equality of the tangent union with the linearized union ("abadie"), or of
    their duals ("guignard"), with sound bounds when some branches are uncertified:
    the tangent union lies between the certified pieces (lower members) and
    the certified pieces plus the uncertified linearized cones (upper members).

    ``branch_gcq``, when given, are the ``branch-gcq`` verdicts of the
    branches of ``fa``, in order.  Guignard skips a branch whose verdict
    holds: its linearized cone lies in the conic hull of its own tangent
    pieces, which are lower members, so no member set lets it escape.  The
    verdict and its witness are those without ``branch_gcq``."""
    kind = _KINK_NAMES[(fa.key, which)]
    upper = fa.upper_members()
    all_known = not fa.blocking()
    if which == "abadie":
        for ba in fa.branches:
            if any(cone_contains(piece, ba.lin) for piece in ba.upper_pieces):
                continue  # covered by one of its own pieces, as union_covers would find
            try:
                ok, witness = union_covers(upper, ba.lin)
            except SubdivisionDepthExceeded:
                return CQVerdict(kind, fa.key, UNKNOWN, blocking=(ba.label,), note="subdivision depth cap exceeded")
            if not ok:
                # the witness lies in a linearized piece but outside every
                # possible tangent piece, so equality fails no matter how the
                # uncertified branches resolve
                return CQVerdict(kind, fa.key, FAILS, witness=witness, branch=ba.label)
        if all_known:
            return CQVerdict(kind, fa.key, HOLDS)
        return CQVerdict(kind, fa.key, UNKNOWN, blocking=fa.blocking())
    # Guignard: the linearized union lies in the conic hull of the lower
    # members (Holds) or escapes that of the upper members (Fails)
    branches = fa.branches
    if branch_gcq is not None:
        branches = [ba for ba, v in zip(branches, branch_gcq, strict=True) if v.status != HOLDS]
    witness = _guignard_escape(branches, fa.lower_members(), lambda ba: ba.tangent_pieces or ())
    if witness is None:
        return CQVerdict(kind, fa.key, HOLDS)
    if not all_known:  # with every branch certified the upper members are the lower ones
        witness = _guignard_escape(branches, upper, lambda ba: ba.upper_pieces)
    if witness is not None:
        return CQVerdict(kind, fa.key, FAILS, witness=witness)
    return CQVerdict(kind, fa.key, UNKNOWN, blocking=fa.blocking())


# ---------------------------------------------------------------------------
# the one check of a verdict's validity

# the condition that each verdict kind decides
_CONDITIONS = {name: condition for name, (_, condition) in KINK_VERDICTS.items()}
_CONDITIONS.update({"branch-acq": "abadie", "branch-gcq": "guignard"})

# the fields, with their defaults, that a verdict never writes, besides the
# witness (which has its own rule): a kink verdict's by its condition, a
# branch verdict's under "branch", each by status
_BRANCH, _BLOCKING, _NOTE = ("branch", None), ("blocking", ()), ("note", "")
_UNWRITTEN = {
    "abadie": {HOLDS: (_BRANCH, _BLOCKING, _NOTE), FAILS: (_BLOCKING, _NOTE), UNKNOWN: (_BRANCH,)},
    "guignard": {HOLDS: (_BRANCH, _BLOCKING, _NOTE), FAILS: (_BRANCH, _BLOCKING, _NOTE), UNKNOWN: (_BRANCH, _NOTE)},
    "branch": {HOLDS: (_BLOCKING,), FAILS: (_BLOCKING, _NOTE), UNKNOWN: ()},
}


def verify_cq_verdict(verdict: CQVerdict, key: str, formulation) -> list[str]:
    """Why ``verdict`` is not a valid Abadie/Guignard verdict of formulation
    ``key`` at a feasible point, by substitution: its kind and status, that
    it sets no field its kind and status never write (``_UNWRITTEN``), and a
    Fails witness against the branch cones of ``formulation(key)``, read only
    for a witness; a branch verdict's against its own branch alone.  The one
    check of a verdict's validity, for the deciders' self-checks
    (``_checked``) and ``--recheck``."""
    kind, status, w = verdict.kind, verdict.status, verdict.witness
    if kind not in _CONDITIONS:
        return [f"unknown kind {kind!r}"]
    if status not in (HOLDS, FAILS, UNKNOWN):
        return [f"unknown status {status!r}"]
    errors = []
    for name, default in _UNWRITTEN["branch" if kind.startswith("branch-") else _CONDITIONS[kind]][status]:
        if getattr(verdict, name) != default:
            errors.append(f"a verdict of kind {kind} that {status} writes no {name}")
    if w is None:
        return errors + (["fails without a witness"] if status == FAILS else [])
    if status != FAILS:
        return errors + [f"{status} with a witness"]
    if key not in FORMULATIONS:
        return errors + [f"no formulation {key!r} to recheck the witness in"]
    fa = formulation(key)
    if len(w) != fa.lin.dim:
        return errors + [f"witness has {len(w)} entries, expected {fa.lin.dim}"]
    branches = fa.branches
    if kind.startswith("branch-"):
        branches = [ba for ba in branches if ba.label == verdict.branch]
        if not branches:
            return errors + [f"no branch {verdict.branch!r} in formulation {key}"]
    if _CONDITIONS[kind] == "abadie":
        # a valid Abadie witness is linearized-feasible somewhere but escapes
        # the tangent upper bound of every branch
        g = primitive_integer(w)
        for ba in branches:
            if any(piece.contains(g) for piece in ba.upper_pieces):
                errors.append(f"witness lies inside the tangent bound of branch {ba.label}")
        if not any(ba.lin.contains(g) for ba in branches):
            errors.append("witness is not linearized-feasible")
    else:
        # a valid Guignard witness pairs nonnegatively with the whole tangent
        # upper bound and strictly negatively with some linearized direction
        for ba in branches:
            for piece in ba.upper_pieces:
                if _escapes_dual(w, piece):
                    errors.append(f"witness is not in the dual of the tangent bound of branch {ba.label}")
        if not any(_escapes_dual(w, ba.lin) for ba in branches):
            errors.append("witness does not escape the linearized dual")
    return errors


def _escapes_dual(w, cone: PolyCone) -> bool:
    """Whether some generator of the cone pairs negatively with w."""
    rays, lineality = cone.generators()
    w = primitive_integer(w)  # a positive multiple: the same signs against each generator
    return any(integer_dot(w, g) < 0 for g in rays) or any(integer_dot(w, l) != 0 for l in lineality)


def _checked(verdict: CQVerdict, key: str, formulation) -> CQVerdict:
    """``verdict``, once ``verify_cq_verdict`` finds it valid; an invalid one
    is the tool's own fault, a RuntimeError."""
    errors = verify_cq_verdict(verdict, key, formulation)
    if errors:
        raise RuntimeError(f"{verdict.kind} certificate failed self-check: {errors}")
    return verdict


# ---------------------------------------------------------------------------
# formulation assembly


@dataclass(frozen=True)
class PointAnalysis:
    """One program anchored at one evaluation point, in all four formulations.

    Only the inequality form is evaluated up front; the other anchors, and
    each formulation's branch analyses (``formulation(key)``), are built the
    first time they are read.  ``annotations`` maps inequality-form branch
    labels to trusted tangent unions.

    A program with no inequality, annotation or ``w_signs`` is its own slack
    form, exactly: ``to_slack`` embeds every function in place and
    ``slack_point`` is ``t``.  There abs-e and mpcc-e share the anchor and
    analysis of their twins abs-i and mpcc-i (``_twin``) under their own
    keys.  An annotated program's slack branches carry their pieces with
    their own rows (``lift:annotation``), so it keeps the derivation.
    """

    program: AbsNormalProgram
    point_eval: EvalResult
    w_signs: tuple[int, ...] | None = None
    annotations: dict[str, tuple[PolyCone, ...]] = field(hash=False, default_factory=dict)
    branch_cap: int = DEFAULT_BRANCH_CAP
    _analyses: dict[str, FormulationAnalysis] = field(init=False, repr=False, compare=False, default_factory=dict)
    _anchors: dict[str, tuple] = field(init=False, repr=False, compare=False, default_factory=dict)

    def anchor(self, key: str):
        """Formulation ``key`` at the point: an abs-normal program with its
        evaluation, or a counterpart with its point.  A derived formulation is
        built from the anchor of its source on first read."""
        if key == ABS_I:
            return self.program, self.point_eval
        if twin := self._twin(key):
            return self.anchor(twin)
        if key not in self._anchors:
            source, how = _SOURCES[key]
            p, e = self.anchor(source)
            if how == "transport":
                self._anchors[key] = to_mpcc(p), mpcc_point_from_eval(e)
            else:
                slack = to_slack(p)
                se = evaluate(slack, slack_point(e, self.w_signs))
                if not se.is_feasible():
                    raise RuntimeError("slack lifting must preserve feasibility")
                self._anchors[key] = slack, se
        return self._anchors[key]

    def formulation(self, key: str) -> FormulationAnalysis:
        """The branches of formulation ``key``, analyzed on first read."""
        if key not in self._analyses:
            twin = self._twin(key)
            self._analyses[key] = replace(self.formulation(twin), key=key) if twin else self._analyze(key)
        return self._analyses[key]

    def _twin(self, key: str) -> str | None:
        """The inequality form that the slack form ``key`` equals, or None."""
        if self.program.c_i or self.annotations or self.w_signs:
            return None
        return _TWINS.get(key)

    def _analyze(self, key: str) -> FormulationAnalysis:
        """Abs-i from the annotations; any other formulation from its source in
        ``_SOURCES``, whose branches carry their tangent pieces to each branch
        that cannot certify its own.  The source comes first, so its
        annotations are checked before this formulation's cap."""
        source_key, how = _SOURCES.get(key, (None, None))
        source = self.formulation(source_key) if source_key else None
        lin = (linearize_mpcc if how == "transport" else linearize_anf)(*self.anchor(key))
        specs = lin.specs(self.branch_cap)
        if source is None:
            branches = (analyze_branch(lin, spec, self.annotations.get(spec.label)) for spec in specs)
        else:
            compose = _left_inverse(how, source.lin, lin)
            branches = (
                _carry(analyze_branch(lin, spec), source.branches[source.source_position(spec.signs)], how, compose)
                for spec in specs
            )
        return FormulationAnalysis(key, lin, tuple(branches))


def analyze_point(
    p: AbsNormalProgram,
    t,
    annotations: dict[str, tuple[PolyCone, ...]] | None = None,
    w_signs: tuple[int, ...] | None = None,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> PointAnalysis:
    """The point, with each formulation analyzed on first read.

    Raises ``ValueError`` when the point is not feasible.  ``annotations`` are
    carried to the other three formulations along the branch homeomorphisms
    whenever a branch cannot certify its own tangent cone.  ``w_signs``
    chooses the slack representative (default nonnegative).
    """
    e = evaluate(p, t)
    if not e.is_feasible():
        raise ValueError("point is not feasible")
    return PointAnalysis(p, e, w_signs, annotations or {}, branch_cap)


# ---------------------------------------------------------------------------
# the relations diagram


@dataclass(frozen=True)
class RelationSide:
    name: str
    status: str


@dataclass(frozen=True)
class RelationArrow:
    id: str
    kind: str  # "iff" | "implies"
    lhs: RelationSide
    rhs: RelationSide
    consistent: bool
    converse_observation: str | None = None
    note: str = ""


@dataclass(frozen=True)
class RelationReport:
    arrows: tuple[RelationArrow, ...]

    @property
    def consistent(self) -> bool:
        return all(a.consistent for a in self.arrows)


def _implies_consistent(lhs: str, rhs: str) -> bool:
    return not (lhs == HOLDS and rhs == FAILS)


def _iff_consistent(lhs: str, rhs: str) -> bool:
    if UNKNOWN in (lhs, rhs):
        return True
    return lhs == rhs


def _aggregate(statuses) -> str:
    statuses = list(statuses)
    if any(s == FAILS for s in statuses):
        return FAILS
    if any(s == UNKNOWN for s in statuses):
        return UNKNOWN
    return HOLDS


def _converse(lhs: str, rhs: str) -> str:
    # for a proved implication lhs <= rhs (rhs => lhs is NOT proved): observe
    # whether the unproved direction happened to hold at this point
    if UNKNOWN in (lhs, rhs):
        return "untestable"
    return "agrees" if lhs == rhs else "disagrees"


def branch_verdicts(pa: PointAnalysis) -> dict[str, list[tuple[CQVerdict, CQVerdict]]]:
    """The ``branch-acq`` and ``branch-gcq`` verdicts of each branch, by
    formulation, in branch order, each checked by ``verify_cq_verdict``; a
    branch analysis that two formulations share is decided once."""
    decided: dict[tuple[int, str], CQVerdict] = {}

    def verdict(key: str, ba: BranchAnalysis, which: str) -> CQVerdict:
        if (id(ba), which) not in decided:
            decided[id(ba), which] = check_branch_cq(ba, which)
        return _checked(decided[id(ba), which], key, pa.formulation)

    return {
        key: [tuple(verdict(key, ba, which) for which in ("acq", "gcq")) for ba in pa.formulation(key).branches]
        for key in FORMULATIONS
    }


def verify_relations(
    pa: PointAnalysis,
) -> tuple[RelationReport, dict[tuple[str, str], CQVerdict], dict[str, list[tuple[CQVerdict, CQVerdict]]]]:
    """Evaluate every qualification in all four formulations and check each
    proved implication; one-sided results are only tested in the proved
    direction, with the converse observation logged as data."""
    branches = branch_verdicts(pa)
    kink: dict[tuple[str, str], CQVerdict] = {
        (which, key): decide_kink_cq(pa.formulation(key), which, [gcq for _, gcq in branches[key]])
        for key in FORMULATIONS
        for which in ("abadie", "guignard")
    }
    arrows: list[RelationArrow] = []

    def add(kind, arrow_id, lhs: RelationSide, rhs: RelationSide, one_sided=False, note=""):
        consistent = (_iff_consistent if kind == "iff" else _implies_consistent)(lhs.status, rhs.status)
        converse = _converse(lhs.status, rhs.status) if one_sided else None
        arrows.append(RelationArrow(arrow_id, kind, lhs, rhs, consistent, converse, note))

    def kink_side(which, key) -> RelationSide:
        v = kink[(which, key)]
        return RelationSide(f"{v.kind.upper()} ({key})", v.status)

    for key in FORMULATIONS:
        for pos, (which, tag) in enumerate((("abadie", "acq"), ("guignard", "gcq"))):
            add(
                "implies",
                f"branch-{tag}-all=>{which}[{key}]",
                RelationSide(
                    f"{tag.upper()} for all branches ({key})",
                    _aggregate(pair[pos].status for pair in branches[key]),
                ),
                kink_side(which, key),
            )
    # Abadie holds in a formulation iff it holds in its source
    pairs = [(source, key, "") for key, (source, _) in _SOURCES.items()]
    for lhs, rhs, note in pairs + [(MPCC_I, MPCC_E, "implied by the other Abadie equivalences")]:
        add("iff", f"abadie[{lhs}]<=>abadie[{rhs}]", kink_side("abadie", lhs), kink_side("abadie", rhs), note=note)
    for lhs, rhs in ((ABS_E, ABS_I), (MPCC_E, MPCC_I), (MPCC_I, ABS_I), (MPCC_E, ABS_E)):
        add(
            "implies",
            f"guignard[{lhs}]=>guignard[{rhs}]",
            kink_side("guignard", lhs),
            kink_side("guignard", rhs),
            one_sided=True,
        )

    # each branch of a derived formulation against the branch it comes from
    for key, (source_key, _) in _SOURCES.items():
        source = pa.formulation(source_key)
        for ba, rhs_pair in zip(pa.formulation(key).branches, branches[key], strict=True):
            lhs_pair = branches[source_key][source.source_position(ba.spec.signs)]
            for tag, lhs, rhs in zip(("acq", "gcq"), lhs_pair, rhs_pair):
                add(
                    "iff",
                    f"branch-{tag}[{source_key}:{lhs.branch}]<=>branch-{tag}[{key}:{rhs.branch}]",
                    RelationSide(f"{tag.upper()} {source_key} {lhs.branch}", lhs.status),
                    RelationSide(f"{tag.upper()} {key} {rhs.branch}", rhs.status),
                )
    return RelationReport(tuple(arrows)), kink, branches
