"""JSON persistence for systems, check reports, and hunter findings.

The on-disk format is UTF-8 JSON with rationals serialized as canonical
"p/q" or "p" strings, so files are human-diffable and exact.  Saving is
canonical (fixed key order, sorted names, sorted bracket entries, indent 2,
trailing newline): the same system always produces the same bytes, and
load(save(sys)) == sys rational-for-rational.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

from .axioms import CheckReport
from .core import (
    AlgebraSystem,
    DerivationMatrix,
    InputError,
    ProductTensor,
    SkewBracket,
    _bracket_key,
    _integer,
    _shown,
    _system,
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
    doc: dict = {"dimension": _system(system).dim}
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


@lru_cache(maxsize=256)
def _rational_string(value: str):
    # Files hold canonical "p/q" or "p" strings only, the form saving writes.
    # A file repeats a handful of distinct strings, so each is parsed once;
    # a refused one raises every time, and each caller names its location.
    q = rat(value)
    if value != str(q):
        raise InputError(f"{_shown(value)} is not a canonical rational (write {_shown(str(q))})")
    return q


def _rational_at(value, where: str):
    try:
        return _rational_string(value) if isinstance(value, str) else rat(value)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def _table(node, depth: int, dim: int, where: str, name: str | None = None) -> tuple:
    """``node`` as ``depth`` nested levels of ``dim``-long lists of rationals,
    returned as tuples.  ``where`` locates it in messages; ``name``, if
    given, is how the message about ``node`` itself names it."""
    _require(
        isinstance(node, list) and len(node) == dim,
        f"{name or where} must be a {dim}-long list",
    )
    if depth == 1:
        return tuple(_rational_at(v, f"{where}[{k}]") for k, v in enumerate(node))
    return tuple(_table(v, depth - 1, dim, f"{where}[{k}]") for k, v in enumerate(node))


def system_from_dict(data, source: str = "<data>") -> AlgebraSystem:
    """Validate and build a system from parsed JSON.  Shape validation only;
    axiom checks are explicit commands, never implicit in loading."""
    _require(isinstance(data, dict), f"{source}: top level must be a JSON object")
    dim = _integer(data.get("dimension"), f"{source}: 'dimension'", 1)

    labels = data.get("basis")
    if "basis" in data:
        _require(
            isinstance(labels, list) and len(labels) == dim
            and all(isinstance(s, str) for s in labels),
            f"{source}: 'basis' must be a list of {dim} strings",
        )
        labels = tuple(labels)

    cube = _table(data.get("product"), 3, dim, f"{source}: product", f"{source}: 'product'")
    product = ProductTensor(dim, cube)

    brackets = {}
    raw_brackets = data.get("brackets", {})
    _require(isinstance(raw_brackets, dict), f"{source}: 'brackets' must be an object")
    for name, spec in raw_brackets.items():
        where = f"{source}: brackets[{_shown(name)}]"
        _require(isinstance(spec, dict), f"{where} must be an object")
        arity = _integer(spec.get("arity"), f"{where}.arity", 2)
        raw_entries = spec.get("entries", [])
        _require(isinstance(raw_entries, list), f"{where}.entries must be a list")
        entries = {}
        for pos, entry in enumerate(raw_entries):
            ewhere = f"{where}.entries[{pos}]"
            _require(isinstance(entry, dict), f"{ewhere} must be an object")
            indices = entry.get("indices")
            _require(isinstance(indices, list), f"{ewhere}.indices must be a list")
            key = _bracket_key(indices, arity, dim, f"{ewhere}.indices")
            _require(key not in entries, f"{ewhere}: duplicate indices {list(key)}")
            entries[key] = _table(entry.get("value"), 1, dim, f"{ewhere}.value")
        brackets[name] = SkewBracket(dim, arity, entries)

    derivations = {}
    raw_derivations = data.get("derivations", {})
    _require(isinstance(raw_derivations, dict), f"{source}: 'derivations' must be an object")
    for name, matrix in raw_derivations.items():
        rows = _table(matrix, 2, dim, f"{source}: derivations[{_shown(name)}]")
        derivations[name] = DerivationMatrix(dim, rows)

    return AlgebraSystem(dim, product, brackets, derivations, labels)


def _text(make, what: str) -> str:
    """``make()``, the text of results; an InputError "cannot ``what``" when
    str() refuses one of their ints, past its digit limit."""
    try:
        return make()
    except InputError:  # a ValueError too, raised by a writer's argument check
        raise
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise InputError(f"cannot {what}: a number has more than {limit} digits") from None


def dumps_system(system: AlgebraSystem) -> str:
    return _text(lambda: json.dumps(system_to_dict(system), indent=2) + "\n", "write the system")


def save_system(system: AlgebraSystem, path) -> None:
    Path(path).write_text(dumps_system(system), encoding="utf-8")


def load_system(path) -> AlgebraSystem:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{p}: not UTF-8: {exc}") from None

    def unique_keys(pairs):
        # json.loads would silently keep the last of two equal keys, e.g.
        # two brackets of the same name.
        obj = {}
        for key, value in pairs:
            _require(key not in obj, f"{p}: duplicate key {_shown(key)} in a JSON object")
            obj[key] = value
        return obj

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"{p}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except InputError:
        raise
    except (ValueError, RecursionError) as exc:
        # A number past int()'s digit limit, or nesting past the recursion limit.
        raise InputError(f"{p}: unreadable JSON: {exc}") from None
    return system_from_dict(data, source=str(p))


def report_to_dict(report: CheckReport) -> dict:
    """Stable machine form of a report; wall time is deliberately excluded
    so repeated runs emit identical bytes."""
    if not isinstance(report, CheckReport):
        raise InputError(f"report must be a CheckReport, got {type(report).__name__}")
    failed = report.counterexample is not None
    return {
        "identity": report.identity.name,
        "status": report.status,
        "tuples_checked": report.tuples_checked,
        "counterexample": list(report.counterexample) if failed else None,
        "residual": [str(c) for c in report.residual.coords] if failed else None,
    }


def finding_to_dict(finding: Finding) -> dict:
    if not isinstance(finding, Finding):
        raise InputError(f"finding must be a Finding, got {type(finding).__name__}")
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
    text = _text(lambda: json.dumps(finding_to_dict(finding), indent=2) + "\n", "write the finding")
    Path(path).write_text(text, encoding="utf-8")
