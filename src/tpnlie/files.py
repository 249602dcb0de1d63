"""JSON persistence for systems, check reports, and hunter findings.

The on-disk format is UTF-8 JSON with rationals serialized as canonical
"p/q" or "p" strings, so files are human-diffable and exact.  Saving is
canonical (fixed key order, sorted names, sorted bracket entries, indent 2,
trailing newline): the same system always produces the same bytes, and
load(save(sys)) == sys rational-for-rational.
"""

from __future__ import annotations

import json
from pathlib import Path

from .axioms import CheckReport
from .core import (
    AlgebraSystem,
    DerivationMatrix,
    InputError,
    ProductTensor,
    SkewBracket,
    rat,
)
from .corpus import Finding

__all__ = [
    "system_to_dict",
    "system_from_dict",
    "save_system",
    "load_system",
    "report_to_dict",
    "finding_to_dict",
    "save_finding",
]


def _bracket_to_dict(bracket: SkewBracket) -> dict:
    return {
        "arity": bracket.arity,
        "entries": [
            {"indices": list(key), "value": [str(c) for c in value.coords]}
            for key, value in sorted(bracket.entries.items())
        ],
    }


def system_to_dict(system: AlgebraSystem) -> dict:
    doc: dict = {"dimension": system.dim}
    if system.basis_labels is not None:
        doc["basis"] = list(system.basis_labels)
    doc["product"] = [
        [[str(c) for c in row] for row in plane] for plane in system.product.c
    ]
    doc["brackets"] = {
        name: _bracket_to_dict(system.brackets[name]) for name in sorted(system.brackets)
    }
    doc["derivations"] = {
        name: [[str(c) for c in row] for row in system.derivations[name].m]
        for name in sorted(system.derivations)
    }
    return doc


def _rational_at(value, where: str):
    try:
        q = rat(value)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None
    # Files hold canonical "p/q" or "p" strings only, the form saving writes.
    if isinstance(value, str) and value != str(q):
        raise InputError(f"{where}: {value!r} is not a canonical rational (write {str(q)!r})")
    return q


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def system_from_dict(data, source: str = "<data>") -> AlgebraSystem:
    """Validate and build a system from parsed JSON.  Shape validation only;
    axiom checks are explicit commands, never implicit in loading."""
    _require(isinstance(data, dict), f"{source}: top level must be a JSON object")
    dim = data.get("dimension")
    _require(
        isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
        f"{source}: 'dimension' must be a positive integer",
    )

    labels = data.get("basis")
    if labels is not None:
        _require(
            isinstance(labels, list) and len(labels) == dim
            and all(isinstance(s, str) for s in labels),
            f"{source}: 'basis' must be a list of {dim} strings",
        )
        labels = tuple(labels)

    cube = data.get("product")
    _require(isinstance(cube, list) and len(cube) == dim, f"{source}: 'product' must be a {dim}-long list")
    parsed_cube = []
    for i, plane in enumerate(cube):
        _require(
            isinstance(plane, list) and len(plane) == dim,
            f"{source}: product[{i}] must be a {dim}-long list",
        )
        parsed_plane = []
        for j, row in enumerate(plane):
            _require(
                isinstance(row, list) and len(row) == dim,
                f"{source}: product[{i}][{j}] must be a {dim}-long list",
            )
            parsed_plane.append(
                tuple(
                    _rational_at(v, f"{source}: product[{i}][{j}][{k}]")
                    for k, v in enumerate(row)
                )
            )
        parsed_cube.append(tuple(parsed_plane))
    product = ProductTensor(dim, tuple(parsed_cube))

    brackets = {}
    raw_brackets = data.get("brackets", {})
    _require(isinstance(raw_brackets, dict), f"{source}: 'brackets' must be an object")
    for name, spec in raw_brackets.items():
        where = f"{source}: brackets[{name!r}]"
        _require(isinstance(spec, dict), f"{where} must be an object")
        arity = spec.get("arity")
        _require(
            isinstance(arity, int) and not isinstance(arity, bool) and arity >= 2,
            f"{where}.arity must be an integer >= 2",
        )
        raw_entries = spec.get("entries", [])
        _require(isinstance(raw_entries, list), f"{where}.entries must be a list")
        entries = {}
        for pos, entry in enumerate(raw_entries):
            ewhere = f"{where}.entries[{pos}]"
            _require(isinstance(entry, dict), f"{ewhere} must be an object")
            indices = entry.get("indices")
            _require(
                isinstance(indices, list) and len(indices) == arity
                and all(isinstance(i, int) and not isinstance(i, bool) for i in indices),
                f"{ewhere}.indices must be a list of {arity} integers",
            )
            _require(
                all(0 <= i < dim for i in indices),
                f"{ewhere}.indices has an index outside 0..{dim - 1}",
            )
            key = tuple(indices)
            _require(
                all(x < y for x, y in zip(key, key[1:])),
                f"{ewhere}.indices not strictly increasing",
            )
            _require(key not in entries, f"{ewhere}: duplicate indices {list(key)}")
            value = entry.get("value")
            _require(
                isinstance(value, list) and len(value) == dim,
                f"{ewhere}.value must be a list of {dim} rationals",
            )
            entries[key] = [_rational_at(v, f"{ewhere}.value[{k}]") for k, v in enumerate(value)]
        brackets[name] = SkewBracket(dim, arity, entries)

    derivations = {}
    raw_derivations = data.get("derivations", {})
    _require(isinstance(raw_derivations, dict), f"{source}: 'derivations' must be an object")
    for name, matrix in raw_derivations.items():
        where = f"{source}: derivations[{name!r}]"
        _require(
            isinstance(matrix, list) and len(matrix) == dim,
            f"{where} must be a {dim}x{dim} matrix",
        )
        rows = []
        for k, row in enumerate(matrix):
            _require(
                isinstance(row, list) and len(row) == dim,
                f"{where}[{k}] must be a {dim}-long list",
            )
            rows.append(
                tuple(_rational_at(v, f"{where}[{k}][{j}]") for j, v in enumerate(row))
            )
        derivations[name] = DerivationMatrix(dim, tuple(rows))

    return AlgebraSystem(dim, product, brackets, derivations, labels)


def dumps_system(system: AlgebraSystem) -> str:
    return json.dumps(system_to_dict(system), indent=2) + "\n"


def save_system(system: AlgebraSystem, path) -> None:
    Path(path).write_text(dumps_system(system), encoding="utf-8")


def load_system(path) -> AlgebraSystem:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc}") from None

    def unique_keys(pairs):
        # json.loads would silently keep the last of two equal keys, e.g.
        # two brackets of the same name.
        obj = {}
        for key, value in pairs:
            _require(key not in obj, f"{p}: duplicate key {key!r} in a JSON object")
            obj[key] = value
        return obj

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"{p}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return system_from_dict(data, source=str(p))


def report_to_dict(report: CheckReport) -> dict:
    """Stable machine form of a report; wall time is deliberately excluded
    so repeated runs emit identical bytes."""
    failed = report.counterexample is not None
    return {
        "identity": report.identity.name,
        "status": report.status,
        "tuples_checked": report.tuples_checked,
        "counterexample": list(report.counterexample) if failed else None,
        "residual": [str(c) for c in report.residual.coords] if failed else None,
    }


def finding_to_dict(finding: Finding) -> dict:
    return {
        "trial": finding.trial,
        "seed": finding.seed,
        "bracket": finding.bracket_name,
        "derivation": finding.derivation_name,
        "system": system_to_dict(finding.system),
        "extension": _bracket_to_dict(finding.extension),
        "strong_report": report_to_dict(finding.strong_report),
        "premise_reports": [report_to_dict(r) for r in finding.premise_reports],
        "failure_reports": [report_to_dict(r) for r in finding.failure_reports],
    }


def save_finding(finding: Finding, path) -> None:
    Path(path).write_text(
        json.dumps(finding_to_dict(finding), indent=2) + "\n", encoding="utf-8"
    )
