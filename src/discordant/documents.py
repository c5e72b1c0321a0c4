"""State documents: the JSON interchange format for states.

A document holds exactly one of:

* ``family``: a named constructor plus its parameters, e.g.
  ``{"family": {"name": "example_state", "parameters": {"b": 0.5, "c": 0.5}}}``
* ``explicit``: dimensions plus the row-major density matrix with complex
  entries written as two-element ``[re, im]`` arrays, e.g.
  ``{"explicit": {"dims": [2, 2], "matrix": [[[0.5, 0.0], ...], ...]}}``

Schema-level problems raise DocumentError (CLI exit 2); a document that parses
but describes an invalid state raises InvalidParameters (CLI exit 3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .exceptions import DiscordantError, DocumentError
from .states import (
    BipartiteState,
    bell_mixture,
    classical_classical_state,
    example_state,
    random_state,
    teahouse_ensemble,
    zero_discord_state,
)


@dataclass(frozen=True)
class StateDocument:
    """Parsed state document; exactly one of family/explicit is populated."""

    family: str | None = None
    parameters: dict[str, Any] | None = None
    dims: tuple[int, int] | None = None
    matrix: np.ndarray | None = None

    @property
    def is_family(self) -> bool:
        return self.family is not None


def _complex_from_pair(entry, where: str) -> complex:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise DocumentError(f"{where}: complex entries must be [re, im] pairs, got {entry!r}")
    re, im = entry
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise DocumentError(f"{where}: [re, im] entries must be numbers, got {entry!r}")
    return complex(re, im)


def _complex_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise DocumentError(f"{where}: expected a non-empty list of rows")
    parsed = []
    for row in rows:
        if not isinstance(row, list):
            raise DocumentError(f"{where}: rows must be lists")
        parsed.append([_complex_from_pair(entry, where) for entry in row])
    widths = {len(row) for row in parsed}
    if len(widths) != 1:
        raise DocumentError(f"{where}: ragged rows {sorted(widths)}")
    return np.array(parsed, dtype=complex)


def _complex_vector(entries, where: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise DocumentError(f"{where}: expected a non-empty list")
    return np.array([_complex_from_pair(entry, where) for entry in entries], dtype=complex)


def _pair_matrix(matrix: np.ndarray) -> list:
    """Rows of ``[re, im]`` pairs, the inverse of _complex_matrix."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _zero_discord(p: dict) -> BipartiteState:
    basis = [_complex_vector(v, "zero_discord.basis_a") for v in p["basis_a"]]
    sigmas = [_complex_matrix(s, "zero_discord.sigmas_b") for s in p["sigmas_b"]]
    return zero_discord_state(p["p"], np.array(basis), sigmas)


def _random(p: dict) -> BipartiteState:
    return random_state(p["dims"], rank=p.get("rank"), seed=p.get("seed", 0))


@dataclass(frozen=True)
class Family:
    """A named state family: its parameters and the constructor they feed."""

    summary: str
    required: tuple[str, ...]
    optional: tuple[str, ...]
    build: Callable[[dict], BipartiteState]


FAMILIES = {
    "example_state": Family(
        "b, c (floats; b^2 + c^2 <= 1 for positivity)", ("b", "c"), (),
        lambda p: example_state(float(p["b"]), float(p["c"])),
    ),
    "bell_mixture": Family(
        "a (mixing probability in [0, 1])", ("a",), (), lambda p: bell_mixture(float(p["a"])),
    ),
    "teahouse_ensemble": Family(
        "weights (9 probabilities; default equal)", (), ("weights",),
        lambda p: teahouse_ensemble(p.get("weights")).density_matrix(),
    ),
    "classical_classical": Family(
        "weights (d_A x d_B probability matrix)", ("weights",), (),
        lambda p: classical_classical_state(np.asarray(p["weights"], dtype=float)),
    ),
    "zero_discord": Family(
        "p (probabilities), basis_a (complex vectors), sigmas_b (density matrices)",
        ("p", "basis_a", "sigmas_b"), (), _zero_discord,
    ),
    "random": Family(
        "dims ([d_A, d_B]), rank (default full), seed (default 0)", ("dims",), ("rank", "seed"), _random,
    ),
}


def parse_document(obj) -> StateDocument:
    """Validate and normalize a decoded JSON object into a StateDocument."""
    if not isinstance(obj, dict):
        raise DocumentError(f"document must be a JSON object, got {type(obj).__name__}")
    has_family = "family" in obj
    has_explicit = "explicit" in obj
    if has_family == has_explicit:
        raise DocumentError("document must contain exactly one of 'family' or 'explicit'")
    unknown = set(obj) - {"family", "explicit"}
    if unknown:
        raise DocumentError(f"unknown top-level keys: {sorted(unknown)}")

    if has_family:
        block = obj["family"]
        if not isinstance(block, dict) or "name" not in block:
            raise DocumentError("'family' must be an object with a 'name'")
        name = block["name"]
        if not isinstance(name, str) or name not in FAMILIES:
            raise DocumentError(f"unknown family {name!r}; known: {', '.join(FAMILIES)}")
        parameters = block.get("parameters", {})
        if not isinstance(parameters, dict):
            raise DocumentError("'parameters' must be an object")
        extra = set(block) - {"name", "parameters"}
        if extra:
            raise DocumentError(f"unknown family keys: {sorted(extra)}")
        return StateDocument(family=name, parameters=parameters)

    block = obj["explicit"]
    if not isinstance(block, dict):
        raise DocumentError("'explicit' must be an object")
    if "dims" not in block or "matrix" not in block:
        raise DocumentError("'explicit' requires 'dims' and 'matrix'")
    dims = block["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(isinstance(d, int) and d >= 1 for d in dims)
    ):
        raise DocumentError(f"'dims' must be two positive integers, got {dims!r}")
    matrix = _complex_matrix(block["matrix"], "explicit.matrix")
    dim = dims[0] * dims[1]
    if matrix.shape != (dim, dim):
        raise DocumentError(f"matrix shape {matrix.shape} does not match dims {dims}")
    return StateDocument(dims=(dims[0], dims[1]), matrix=matrix)


def loads_document(text: str) -> StateDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as error:
        raise DocumentError(f"invalid JSON: {error}") from error
    return parse_document(obj)


def document_to_object(doc: StateDocument) -> dict:
    """Inverse of parse_document; round-trips value-identically."""
    if doc.is_family:
        return {"family": {"name": doc.family, "parameters": dict(doc.parameters or {})}}
    return {"explicit": {"dims": list(doc.dims), "matrix": _pair_matrix(doc.matrix)}}


def dumps_document(doc: StateDocument) -> str:
    return json.dumps(document_to_object(doc), indent=2, sort_keys=True)


def _family_state(name: str, parameters: dict) -> BipartiteState:
    family = FAMILIES[name]
    unknown = set(parameters) - set(family.required) - set(family.optional)
    if unknown:
        raise DocumentError(f"unknown parameters for family {name!r}: {sorted(unknown)}")
    missing = [key for key in family.required if key not in parameters]
    if missing:
        raise DocumentError(f"family {name!r} is missing parameters: {missing}")
    try:
        return family.build(parameters)
    except DiscordantError:
        raise
    except (TypeError, IndexError, ValueError, OverflowError) as error:
        # A parameter of the wrong type or value (a string, a nan seed, a
        # ragged list) fails in a float() or int() conversion or in numpy.
        raise DocumentError(f"malformed parameters for family {name!r}: {error}") from error


def document_to_state(doc: StateDocument) -> BipartiteState:
    """Build the validated state a document describes."""
    if doc.is_family:
        return _family_state(doc.family, doc.parameters or {})
    return BipartiteState(doc.dims, doc.matrix)


def state_to_document(state: BipartiteState) -> StateDocument:
    """Explicit-form document for any state."""
    return StateDocument(dims=state.dims, matrix=np.array(state.rho))
