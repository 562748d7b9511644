"""Problem-file ingestion and the bundled verification corpus.

Problems are JSON with all numbers as exact rational strings ("3", "-2/7",
"0.25"); unknown fields are rejected.  The machine-readable schema ships with
the package (schema/problem.schema.json) and parsing validates against it
before any semantic checks.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
from dataclasses import dataclass, field

import jsonschema

from .anf import (
    AbsNormalProgram,
    ProgramError,
    QuadraticFunc,
    quadratic_from_strings,
    validate,
)
from .cones import PolyCone
from .ratmath import Vec, vec
from .transforms import parse_branch_label

PROBLEM_SCHEMA = json.loads(
    (importlib.resources.files("absnormal") / "schema" / "problem.schema.json").read_text(encoding="utf-8")
)

# built once: jsonschema.validate would re-check the schema itself on every call
_VALIDATOR = jsonschema.validators.validator_for(PROBLEM_SCHEMA)(PROBLEM_SCHEMA)


class ProblemFileError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemPoint:
    label: str
    t: Vec
    minimizer: bool = False
    expected: dict[str, str] = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class ProblemFile:
    name: str
    description: str
    program: AbsNormalProgram
    points: tuple[ProblemPoint, ...]
    annotations: dict[str, tuple[PolyCone, ...]] = field(hash=False, default_factory=dict)
    digest: str = ""

    def point(self, label_or_coords: str) -> ProblemPoint:
        for p in self.points:
            if p.label == label_or_coords:
                return p
        try:
            coords = vec(label_or_coords.split(","))
        except (ValueError, TypeError) as exc:
            raise ProblemFileError(
                f"no point labeled {label_or_coords!r} and the value does not parse as coordinates"
            ) from exc
        return ProblemPoint(label_or_coords, coords)


def parse_problem_data(data: dict, digest: str = "") -> ProblemFile:
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(data))
    if error is not None:
        path = "$" + "".join(f"[{p!r}]" for p in error.absolute_path)
        raise ProblemFileError(f"schema violation at {path}: {error.message}")
    dims = data["dimensions"]
    n_t, s, m1, m2 = dims["n_t"], dims["s"], dims["m1"], dims["m2"]
    block = n_t + s

    def located(where: str, make, *args):
        """``make(*args)``, with an input error reported at ``where``."""
        try:
            return make(*args)
        except (ProgramError, ValueError, TypeError) as exc:
            raise ProblemFileError(f"{where}: {exc}") from exc

    def funcs(key: str) -> tuple[QuadraticFunc, ...]:
        return tuple(
            located(f"{key}[{k}]", quadratic_from_strings, block, fd) for k, fd in enumerate(data.get(key, []))
        )

    program = AbsNormalProgram(
        n_t=n_t,
        s=s,
        m1=m1,
        m2=m2,
        f=located("objective", quadratic_from_strings, n_t, data["objective"]),
        c_e=funcs("equalities"),
        c_i=funcs("inequalities"),
        c_z=funcs("switching"),
    )
    issues = validate(program)
    if issues:
        raise ProblemFileError("invalid program: " + "; ".join(issues))

    points = []
    for k, pd in enumerate(data.get("points", [])):
        t = located(f"points[{k}]", vec, pd["t"])
        if len(t) != n_t:
            raise ProblemFileError(f"points[{k}]: expected {n_t} coordinates, got {len(t)}")
        points.append(
            ProblemPoint(pd["label"], t, pd.get("minimizer", False), dict(pd.get("expected", {})))
        )

    annotations: dict[str, tuple[PolyCone, ...]] = {}
    for label, pieces in data.get("tangent_annotations", {}).items():
        # a definite signature of length s, a branch where every switch is degenerate
        if parse_branch_label(label, "signature", (0,) * s) is None:
            raise ProblemFileError(
                f"tangent annotation references unknown branch label {label!r}"
            )
        cones = []
        for j, piece in enumerate(pieces):
            where = f"tangent annotation {label}[{j}]"
            eq = [located(where, vec, r) for r in piece.get("eq", [])]
            ineq = [located(where, vec, r) for r in piece.get("ineq", [])]
            for r in eq + ineq:
                if len(r) != block:
                    raise ProblemFileError(f"{where}: row length {len(r)}, expected {block}")
            cones.append(PolyCone(block, tuple(eq), tuple(ineq)))
        annotations[label] = tuple(cones)

    return ProblemFile(
        name=data["name"],
        description=data.get("description", ""),
        program=program,
        points=tuple(points),
        annotations=annotations,
        digest=digest,
    )


def parse_problem(path: str) -> ProblemFile:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: top level must be an object")
    try:
        return parse_problem_data(data, digest)
    except ProblemFileError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


CORPUS_NAMES = ("E1", "E2", "E3", "E4")


def load_corpus_problem(name: str) -> ProblemFile:
    if name not in CORPUS_NAMES:
        raise ProblemFileError(f"unknown corpus problem {name!r}; available: {', '.join(CORPUS_NAMES)}")
    ref = importlib.resources.files("absnormal") / "corpus" / f"{name}.json"
    raw = ref.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    return parse_problem_data(json.loads(raw.decode("utf-8")), digest)


def load_corpus() -> list[ProblemFile]:
    return [load_corpus_problem(name) for name in CORPUS_NAMES]
