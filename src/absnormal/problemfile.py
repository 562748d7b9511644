"""Problem-file ingestion and the bundled verification corpus.

Problems are JSON with all numbers as exact rational strings ("3", "-2/7",
"0.25"); unknown fields are rejected.  The machine-readable schema ships with
the package (schema/problem.schema.json) and parsing checks a document
against it before any semantic checks.  The check is done in-package, under
JSON Schema draft 2020-12 rules, for exactly the keywords that file uses; it
reports the error that ``jsonschema.exceptions.best_match`` would pick, with
jsonschema 4's message.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import numbers
from dataclasses import dataclass, field

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

_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    # a bool is neither a number nor an integer; 1.0 is an integer
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: not isinstance(x, bool) and (
        isinstance(x, int) or (isinstance(x, float) and x.is_integer())
    ),
}
_KEYWORDS = {"type", "properties", "required", "additionalProperties", "items", "minimum", "enum"}
_ANNOTATIONS = {"$schema", "title"}


def check_schema_keywords(schema: dict, where: str = "#") -> None:
    """Reject any keyword ``schema_errors`` does not implement, so none is skipped silently."""
    if not isinstance(schema, dict):
        raise RuntimeError(f"problem schema: {schema!r} at {where} is not an object schema")
    unknown = sorted(set(schema) - _KEYWORDS - _ANNOTATIONS)
    if unknown:
        raise RuntimeError(f"problem schema: unsupported keyword {unknown[0]!r} at {where}")
    types = schema.get("type", [])
    for name in [types] if isinstance(types, str) else types:
        if name not in _TYPES:
            raise RuntimeError(f"problem schema: unsupported type {name!r} at {where}")
    for name, sub in schema.get("properties", {}).items():
        check_schema_keywords(sub, f"{where}/properties/{name}")
    extra = schema.get("additionalProperties", False)
    if extra is not False:
        check_schema_keywords(extra, f"{where}/additionalProperties")
    if "items" in schema:
        check_schema_keywords(schema["items"], f"{where}/items")


def _equal(a, b) -> bool:
    """JSON equality: ``True`` is not ``1``, also inside arrays and objects."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def schema_errors(schema: dict, x, path: tuple = ()):
    """Yield ``(path, message)`` for each violation of ``schema`` by ``x``, in
    jsonschema's order: schema key order, then ``properties`` and ``required``
    order, extra keys in document order, array items by index."""
    for key, value in schema.items():
        if key == "type":
            types = [value] if isinstance(value, str) else value
            if not any(_TYPES[name](x) for name in types):
                yield path, f"{x!r} is not of type {', '.join(map(repr, types))}"
        elif key == "enum":
            if not any(_equal(each, x) for each in value):
                yield path, f"{x!r} is not one of {value!r}"
        elif key == "minimum":
            if _TYPES["number"](x) and x < value:
                yield path, f"{x!r} is less than the minimum of {value!r}"
        elif key == "items":
            if isinstance(x, list):
                for i, item in enumerate(x):
                    yield from schema_errors(value, item, path + (i,))
        elif not isinstance(x, dict):
            continue
        elif key == "properties":
            for name, sub in value.items():
                if name in x:
                    yield from schema_errors(sub, x[name], path + (name,))
        elif key == "required":
            for name in value:
                if name not in x:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties":
            extras = [name for name in x if name not in schema.get("properties", {})]
            if value is not False:
                for name in extras:
                    yield from schema_errors(value, x[name], path + (name,))
            elif extras:
                names = ", ".join(map(repr, sorted(extras, key=str)))
                verb = "was" if len(extras) == 1 else "were"
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"


def schema_violation(data) -> str | None:
    """The best-matching schema error of ``data``, or None: the shallowest
    path, the greatest among those, the first reported on ties."""
    best = max(schema_errors(PROBLEM_SCHEMA, data), key=lambda e: (-len(e[0]), e[0]), default=None)
    if best is None:
        return None
    path, message = best
    return "schema violation at $" + "".join(f"[{p!r}]" for p in path) + f": {message}"


check_schema_keywords(PROBLEM_SCHEMA)


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
    violation = schema_violation(data)
    if violation is not None:
        raise ProblemFileError(violation)
    dims = data["dimensions"]
    for key, value in dims.items():
        # draft 2020-12 counts 1.0 as an integer; a dimension must be an int
        if not isinstance(value, int):
            raise ProblemFileError(f"dimensions: non-integer dimension {key} = {value!r}")
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
