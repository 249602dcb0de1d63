"""Command-line entry points: check, extend, tower, gen, hunt.

Exit codes form a closed contract:
    0   all checks passed / nothing found
    1   an identity violation in a check or verify run
    2   input error (bad flags, malformed file, unknown name)
    3   hunter finding (a mathematical result, not a failure)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from .axioms import CheckReport, IdentityId, run_suite
from .construct import build_tower, extend_bracket
from .core import AlgebraSystem, InputError, _shown
from .corpus import (
    hunt_counterexample,
    make_tensor_trunc,
    make_truncated_poly,
    make_zero_bracket_system,
    random_system,
)
from .files import _text, load_system, report_to_dict, save_finding, save_system

__all__ = ["main", "main_entry"]


def _parse_suite(spec: str) -> list[IdentityId] | None:
    """The listed identities, or None for "all": those ``run_suite`` applies."""
    if spec.strip().lower() == "all":
        return None
    ids = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            ids.append(IdentityId[token.upper()])
        except KeyError:
            known = ", ".join(i.name for i in IdentityId)
            raise InputError(f"unknown identity {_shown(token)} (known: {known})") from None
    if not ids:
        raise InputError(f"--suite {_shown(spec)} names no identity")
    return ids


def _format_reports(reports: list[CheckReport], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([report_to_dict(r) for r in reports], indent=2)
    lines = []
    for r in reports:
        line = f"{r.identity.name}: {r.status} ({r.tuples_checked} tuples, {r.elapsed:.3f}s)"
        if r.counterexample is not None:
            residual = [str(c) for c in r.residual.coords]
            line += f" counterexample={list(r.counterexample)} residual={residual}"
        lines.append(line)
    return "\n".join(lines)


def _print_reports(reports: list[CheckReport], fmt: str) -> None:
    print(_text(lambda: _format_reports(reports, fmt), "print the reports"))


def cmd_check(args) -> int:
    system = load_system(args.file)
    ids = _parse_suite(args.suite)
    reports = run_suite(system, args.bracket, args.derivation, ids)
    _print_reports(reports, args.format)
    return 0 if all(r.passed for r in reports) else 1


def cmd_extend(args) -> int:
    system = load_system(args.file)
    bracket = system.bracket(args.bracket)
    derivation = system.derivation(args.derivation)
    extension = extend_bracket(system.product, bracket, derivation)
    name = f"{args.bracket}_ext"
    extended = system.with_bracket(name, extension)
    save_system(extended, args.output)
    print(f"wrote {args.output} with bracket {name!r} (arity {extension.arity})")
    if args.verify:
        reports = run_suite(extended, name, args.derivation)
        _print_reports(reports, args.format)
        if not all(r.passed for r in reports):
            return 1
    return 0


def cmd_tower(args) -> int:
    system = load_system(args.file)
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.file).parent
    if args.out_dir and not out_dir.is_dir():
        raise InputError(f"--out-dir {_shown(args.out_dir)} is not a directory")
    levels = build_tower(system, args.bracket, args.derivation, verify=not args.no_verify)
    stem = Path(args.file).stem
    name = args.bracket
    for k, level in enumerate(levels, start=1):
        name = f"{name}_ext"
        system = system.with_bracket(name, level.bracket)
        path = out_dir / f"{stem}_level{k}.json"
        save_system(system, path)
        stored = len(level.bracket.entries)
        print(f"level {k}: bracket {name!r} (arity {level.bracket.arity}, "
              f"{stored} stored entries) -> {path}")
        if level.reports:
            _print_reports(list(level.reports), args.format)
    return 0 if all(level.all_passed for level in levels) else 1


def _flag(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise InputError(f"--family {args.family} requires --{name}")
    return value


def _zero_family(args) -> AlgebraSystem:
    base = make_truncated_poly(_flag(args, "m"))
    zero = make_zero_bracket_system(base.product, _flag(args, "arity"))
    return replace(base, brackets=zero.brackets)


# A family checks its flags left to right and names the first one missing.
_FAMILIES = {
    "trunc-poly": lambda args: make_truncated_poly(_flag(args, "m")),
    "tensor-trunc": lambda args: make_tensor_trunc(_flag(args, "a"), _flag(args, "b")),
    "zero": _zero_family,
    "random": lambda args: random_system(
        _flag(args, "dim"), _flag(args, "arity"), args.density, _flag(args, "seed")
    ),
}


def cmd_gen(args) -> int:
    save_system(_FAMILIES[args.family](args), args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_hunt(args) -> int:
    out = Path(args.output)
    if out.is_dir() or not out.parent.is_dir():
        raise InputError(f"-o {_shown(args.output)} must name a file in an existing directory")
    finding = hunt_counterexample(args.dim, args.arity, args.trials, args.seed)
    if finding is None:
        print(f"no finding in {args.trials} trials")
        return 0
    save_finding(finding, args.output)
    failing = ", ".join(r.identity.name for r in finding.failure_reports)
    print(f"finding at trial {finding.trial}: extension fails {failing}; wrote {args.output}")
    return 3


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``tpnlie`` parser, built once per process and shared by every call:
    ``parse_args`` leaves it unchanged, so callers must too."""
    parser = argparse.ArgumentParser(
        prog="tpnlie",
        description=(
            "Exact workbench for transposed Poisson n-Lie algebras given by "
            "structure constants: exhaustive identity checking, derivation-"
            "driven arity extensions, towers, and counterexample hunting."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # check, extend and tower read a bracket of a system file and print reports.
    on_file = argparse.ArgumentParser(add_help=False)
    on_file.add_argument("file")
    on_file.add_argument("--bracket", required=True)
    on_file.add_argument("--format", choices=("text", "json"), default="text")

    check = sub.add_parser("check", parents=[on_file], help="verify identities against a system file")
    check.add_argument("--derivation")
    check.add_argument("--suite", default="all", help='comma-separated identity ids or "all"')
    check.set_defaults(func=cmd_check)

    extend = sub.add_parser("extend", parents=[on_file], help="extend a bracket by a derivation")
    extend.add_argument("--derivation", required=True)
    extend.add_argument("-o", "--output", required=True)
    extend.add_argument("--verify", action="store_true", help="run the full suite on the extension")
    extend.set_defaults(func=cmd_extend)

    tower = sub.add_parser("tower", parents=[on_file], help="iterate extensions, one derivation per step")
    tower.add_argument(
        "--derivation", action="append", required=True,
        help="derivation for the next step; repeat once per step, in order",
    )
    tower.add_argument("--out-dir")
    tower.add_argument("--no-verify", action="store_true")
    tower.set_defaults(func=cmd_tower)

    gen = sub.add_parser("gen", help="generate a system file from a family")
    gen.add_argument("--family", required=True, choices=_FAMILIES)
    gen.add_argument("--m", type=int)
    gen.add_argument("--a", type=int)
    gen.add_argument("--b", type=int)
    gen.add_argument("--dim", type=int)
    gen.add_argument("--arity", type=int)
    gen.add_argument("--density", default="1/2", help='rational in [0, 1], e.g. "1/2"')
    gen.add_argument("--seed", type=int)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_gen)

    hunt = sub.add_parser("hunt", help="search for extensions that break NL or TP")
    hunt.add_argument("--dim", type=int, required=True)
    hunt.add_argument("--arity", type=int, required=True)
    hunt.add_argument("--trials", type=int, required=True)
    hunt.add_argument("--seed", type=int, required=True)
    hunt.add_argument("-o", "--output", default="finding.json")
    hunt.set_defaults(func=cmd_hunt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())
