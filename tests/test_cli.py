"""Command-line interface: flags, exit codes, output formats."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpnlie import load_system
from tpnlie.cli import build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"
W4 = str(FIXTURES / "w4.json")
TP22 = str(FIXTURES / "tp22.json")


@pytest.fixture()
def corrupted_file(tmp_path, w4):
    from tpnlie import ElementVector, SkewBracket, save_system

    entries = dict(w4.brackets["b1"].entries)
    entries[(1, 2)] = ElementVector.basis(4, 2)
    bad = w4.with_bracket("bad", SkewBracket(4, 2, entries))
    path = tmp_path / "bad.json"
    save_system(bad, path)
    return str(path)


# ---------------------------------------------------------------------------
# check


def test_check_all_pass_exit_zero(capsys):
    assert main(["check", W4, "--bracket", "b1", "--derivation", "euler", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass") == 14


def test_check_failure_exit_one(capsys, corrupted_file):
    assert main(["check", corrupted_file, "--bracket", "bad", "--suite", "NL"]) == 1
    out = capsys.readouterr().out
    assert "counterexample=[0, 1, 2]" in out


def test_check_derivation_suite_without_derivation_is_input_error(capsys):
    assert main(["check", W4, "--bracket", "b1", "--suite", "DER_BRK"]) == 2
    assert "derivation" in capsys.readouterr().err


def test_check_unknown_identity(capsys):
    assert main(["check", W4, "--bracket", "b1", "--suite", "NOPE"]) == 2


@pytest.mark.parametrize("suite", [",", "", " , "])
def test_empty_suite_is_input_error(capsys, suite):
    # Exit 0 would claim that all checks passed when none ran.
    assert main(["check", W4, "--bracket", "b1", "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert "--suite" in captured.err and "names no identity" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_check_unknown_bracket(capsys):
    assert main(["check", W4, "--bracket", "nope"]) == 2
    assert "unknown bracket" in capsys.readouterr().err


def test_check_missing_file(capsys, tmp_path):
    assert main(["check", str(tmp_path / "gone.json"), "--bracket", "b1"]) == 2


def test_check_duplicate_json_key_is_input_error(capsys, tmp_path):
    doc = json.loads(Path(W4).read_text())
    bracket = json.dumps(doc["brackets"]["b1"])
    doc["brackets"] = {"b1": "BRACKET"}
    text = json.dumps(doc).replace('"BRACKET"', f'{bracket}, "b1": {bracket}')
    path = tmp_path / "dup.json"
    path.write_text(text)
    assert main(["check", str(path), "--bracket", "b1"]) == 2
    err = capsys.readouterr().err
    assert "duplicate key 'b1'" in err
    assert "Traceback" not in err


def test_check_non_canonical_rational_is_input_error(capsys, tmp_path):
    doc = json.loads(Path(W4).read_text())
    doc["derivations"]["euler"][1][1] = "2/2"
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--bracket", "b1"]) == 2
    err = capsys.readouterr().err
    assert "derivations['euler'][1][1]" in err and "'2/2'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data",
    [
        b'\xff\xfe{"dimension": 4}',
        b"[" * 100_000,
        b'{"dimension": ' + b"1" * 5000 + b"}",
    ],
    ids=["not-utf8", "nesting-past-recursion-limit", "integer-past-digit-limit"],
)
def test_check_unreadable_file_is_input_error_naming_it(capsys, tmp_path, data):
    path = tmp_path / "unreadable.json"
    path.write_bytes(data)
    assert main(["check", str(path), "--bracket", "b1"]) == 2
    captured = capsys.readouterr()
    assert str(path) in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


# str() refuses ints past this many digits; 0 where it has no limit.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not 0 < _DIGIT_LIMIT <= 4300, reason="str() of a 6000-digit int must be refused"
)


def _zeros(dim, depth):
    return "0" if depth == 0 else [_zeros(dim, depth - 1) for _ in range(dim)]


def _digit_limit_doc(case):
    big = "1" + "0" * 3000
    if case == "NL":
        # NL passes on the zero bracket, with 4**9999 tuples checked (6021 digits).
        return {"dimension": 4, "product": _zeros(4, 3),
                "brackets": {"b": {"arity": 5000, "entries": []}}}
    # DER_MUL fails at (0, 0) with residual -big**2 (6001 digits).
    doc = {"dimension": 2, "product": _zeros(2, 3),
           "brackets": {"b": {"arity": 2, "entries": []}}, "derivations": {"d": _zeros(2, 2)}}
    doc["product"][0][0][0] = doc["derivations"]["d"][0][0] = big
    return doc


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", ["NL", "DER_MUL"])
def test_report_number_past_digit_limit_is_input_error(capsys, tmp_path, case, fmt):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_digit_limit_doc(case)))
    argv = ["check", str(path), "--bracket", "b", "--suite", case, "--format", fmt]
    assert main(argv + (["--derivation", "d"] if case == "DER_MUL" else [])) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot print the reports: a number has more than {_DIGIT_LIMIT} digits\n"
    assert captured.out == ""


def _paths(node, prefix=()):
    """Every node below a parsed JSON value, as a path of keys and indices."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


W4_DOC = json.loads(Path(W4).read_text())
REMOVE = "<remove>"  # delete the key, or drop the list element


def _still_well_formed(path, new):
    """The mutations of w4.json that leave a system `check --suite NL` accepts."""
    rational = path[0] in ("product", "derivations") and len(path) == 4 or path[-2:-1] == ("value",)
    return (
        (rational and new == -1)
        or (path[0] == "basis" and len(path) == 2 and new == "x")
        or (path == ("basis",) and new == REMOVE)
        or (path in (("derivations",), ("derivations", "euler")) and new == REMOVE)
        or (path == ("derivations",) and new == {})
        or (path == ("brackets", "b1", "entries") and new in (REMOVE, []))
        or (path[:3] == ("brackets", "b1", "entries") and len(path) == 4 and new == REMOVE)
    )


def _names(path):
    """How an error message may name the node at ``path`` or one above it."""
    head, *rest = path
    names, text = [f"'{head}'"], head
    for step, part in enumerate(rest):
        if isinstance(part, int):
            text += f"[{part}]"
        elif step == 0:
            text += f"[{part!r}]"
        else:
            text += f".{part}"
        names.append(text)
    if path in (("brackets",), ("brackets", "b1")):
        names.append("unknown bracket 'b1'")
    return names


@pytest.fixture(scope="module")
def mutation_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "w4.json"


@settings(max_examples=200, deadline=None)
@given(
    path=st.sampled_from(list(_paths(W4_DOC))),
    new=st.sampled_from([REMOVE, None, True, 1.5, "x", [], {}, -1]),
)
def test_check_malformed_file_is_input_error_naming_the_location(mutation_file, path, new):
    doc = json.loads(json.dumps(W4_DOC))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if new == REMOVE:
        del node[last]
    else:
        node[last] = new
    mutation_file.write_text(json.dumps(doc))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["check", str(mutation_file), "--bracket", "b1", "--suite", "NL"])
    err = err.getvalue()
    assert "Traceback" not in err
    if _still_well_formed(path, new):
        assert code in (0, 1), err
    else:
        assert code == 2
        assert any(name in err for name in _names(path)), (path, err)


def _nested(depth):
    node = "1"
    for _ in range(depth):
        node = [node]
    return node


@pytest.mark.parametrize(
    ("path", "new", "where"),
    [
        (("product", 0, 0, 0), "1" * 5000, "product[0][0][0]"),
        (("product", 0, 0, 0), "+" + "1" * 3000, "product[0][0][0]"),
        (("product", 0, 0, 0), _nested(300), "product[0][0][0]"),
        (("dimension",), "x" * 5000, "'dimension'"),
        (("brackets", "b1", "entries", 0, "indices"), _nested(400),
         "brackets['b1'].entries[0].indices"),
        (("brackets", "b" * 5000), {"arity": 2, "entries": [{"indices": [0], "value": []}]},
         "brackets['bbb"),
    ],
    ids=["5000-digit-cell", "3000-digit-cell-with-plus", "cell-300-deep", "long-dimension",
         "indices-400-deep", "long-bracket-name"],
)
def test_error_echoing_a_long_value_stays_one_short_line(capsys, tmp_path, path, new, where):
    doc = json.loads(json.dumps(W4_DOC))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = new
    file = tmp_path / "long.json"
    file.write_text(json.dumps(doc))
    assert main(["check", str(file), "--bracket", "b1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) <= 500, err
    assert where in err


@pytest.mark.parametrize("kind", ["bracket", "derivation"])
def test_unknown_name_lists_the_known_names_in_one_short_line(capsys, tmp_path, kind):
    # The "available: ..." list used to join every name of the file uncut.
    doc = json.loads(json.dumps(W4_DOC))
    table = doc[kind + "s"]
    table["x" * 5000] = next(iter(table.values()))
    file = tmp_path / "long.json"
    file.write_text(json.dumps(doc))
    argv = ["check", str(file), "--bracket", "b1", "--suite", "DER_MUL", "--derivation", "euler"]
    argv[argv.index("b1" if kind == "bracket" else "euler")] = "nope"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) <= 500, err
    assert f"unknown {kind} 'nope'" in err


def test_check_json_output_stable(capsys):
    args = ["check", W4, "--bracket", "b1", "--derivation", "euler", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    reports = json.loads(first)
    assert [r["identity"] for r in reports] == [
        "NL", "TP", "NP1", "NP2", "NP3", "NP4", "STRONG", "SCALE",
        "DER_MUL", "DER_BRK", "LEM1", "LEM2", "COMM", "ASSOC",
    ]
    assert all(set(r) == {"identity", "status", "tuples_checked", "counterexample", "residual"} for r in reports)


def test_check_suite_csv_subset(capsys):
    assert main(["check", W4, "--bracket", "b1", "--suite", "nl,comm"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("NL: pass")
    assert "COMM: pass" in out


# ---------------------------------------------------------------------------
# extend


def test_extend_writes_extension(tmp_path, capsys):
    out = tmp_path / "ext.json"
    code = main(
        ["extend", TP22, "--bracket", "b_d1", "--derivation", "d2", "-o", str(out), "--verify"]
    )
    assert code == 0
    system = load_system(out)
    ext = system.brackets["b_d1_ext"]
    assert ext.arity == 3
    assert set(ext.entries) == {(0, 1, 2)}
    assert [str(c) for c in ext.entries[(0, 1, 2)].coords] == ["0", "0", "0", "1"]


def test_extend_zero_derivation(tmp_path, w4, capsys):
    from tpnlie import DerivationMatrix, save_system

    src = tmp_path / "sys.json"
    save_system(w4.with_derivation("zero", DerivationMatrix.zero(4)), src)
    out = tmp_path / "out.json"
    assert main(["extend", str(src), "--bracket", "b1", "--derivation", "zero", "-o", str(out)]) == 0
    assert load_system(out).brackets["b1_ext"].entries == {}


def test_extend_unknown_derivation(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(["extend", TP22, "--bracket", "b_d1", "--derivation", "nope", "-o", str(out)])
    assert code == 2
    assert not out.exists()


@needs_digit_limit
def test_extend_constant_past_digit_limit_is_input_error(tmp_path, capsys):
    # The one extension constant is D(e_0) * [e_1, e_2] = big**3 * e_0 (6001
    # digits), from constants of 2001 digits each.
    big = "1" + "0" * 2000
    doc = {"dimension": 3, "product": _zeros(3, 3),
           "brackets": {"b": {"arity": 2, "entries": [{"indices": [1, 2], "value": [big, "0", "0"]}]}},
           "derivations": {"d": _zeros(3, 2)}}
    doc["product"][0][0][0] = doc["derivations"]["d"][0][0] = big
    src = tmp_path / "big.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["extend", str(src), "--bracket", "b", "--derivation", "d", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write the system: a number has more than {_DIGIT_LIMIT} digits\n"
    assert captured.out == "" and not out.exists()


def test_extend_verify_failure_still_writes_file(tmp_path, capsys, w4):
    # the formal derivative is not a derivation, so the verify suite's
    # DER_MUL report fails even though the extension itself gets written
    from tpnlie import formal_derivative, save_system

    src = tmp_path / "sys.json"
    save_system(w4.with_derivation("dd", formal_derivative(4)), src)
    out = tmp_path / "out.json"
    code = main(
        ["extend", str(src), "--bracket", "b1", "--derivation", "dd",
         "-o", str(out), "--verify"]
    )
    assert code == 1
    assert out.exists()
    assert "DER_MUL: fail" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# tower


def test_tower_single_step(tmp_path, capsys):
    code = main(
        ["tower", TP22, "--bracket", "b_d1", "--derivation", "d2", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    level = load_system(tmp_path / "tp22_level1.json")
    assert level.brackets["b_d1_ext"].arity == 3
    out = capsys.readouterr().out
    assert "level 1" in out


def test_tower_no_verify(tmp_path, capsys):
    code = main(
        ["tower", TP22, "--bracket", "b_d1", "--derivation", "d2",
         "--out-dir", str(tmp_path), "--no-verify"]
    )
    assert code == 0


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_tower_refuses_an_out_dir_that_is_not_a_directory(tmp_path, capsys, monkeypatch, kind):
    import tpnlie.cli

    def build_tower(*args, **kwargs):
        raise AssertionError("build_tower ran")

    monkeypatch.setattr(tpnlie.cli, "build_tower", build_tower)
    src = tmp_path / "tp22.json"
    src.write_bytes(Path(TP22).read_bytes())
    out_dir = tmp_path / "no" / "such" / "dir"
    if kind == "file":
        out_dir = tmp_path / "plain.txt"
        out_dir.write_text("")
    before = sorted(tmp_path.rglob("*"))
    code = main(
        ["tower", str(src), "--bracket", "b_d1", "--derivation", "d2", "--derivation", "d2",
         "--out-dir", str(out_dir)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out-dir ") and "is not a directory" in err
    assert sorted(tmp_path.rglob("*")) == before  # no level file, no directory


# ---------------------------------------------------------------------------
# gen


def test_gen_tensor_matches_committed_fixture(tmp_path):
    out = tmp_path / "tp22.json"
    assert main(["gen", "--family", "tensor-trunc", "--a", "2", "--b", "2", "-o", str(out)]) == 0
    assert out.read_bytes() == Path(TP22).read_bytes()


def test_gen_trunc_poly_matches_committed_fixture(tmp_path):
    out = tmp_path / "w4.json"
    assert main(["gen", "--family", "trunc-poly", "--m", "4", "-o", str(out)]) == 0
    assert out.read_bytes() == Path(W4).read_bytes()


def test_gen_zero_family(tmp_path):
    out = tmp_path / "zero.json"
    assert main(["gen", "--family", "zero", "--m", "3", "--arity", "4", "-o", str(out)]) == 0
    system = load_system(out)
    assert system.brackets["zero"].arity == 4
    assert system.brackets["zero"].entries == {}
    assert "euler" in system.derivations


def test_gen_random_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--family", "random", "--dim", "3", "--arity", "2",
            "--density", "1/2", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


GEN_FLAGS = {
    "trunc-poly": {"m": "4"},
    "tensor-trunc": {"a": "2", "b": "2"},
    "zero": {"m": "3", "arity": "4"},
    "random": {"dim": "3", "arity": "2", "seed": "7"},
}


def test_gen_missing_family_params(capsys, tmp_path):
    # Every required flag left out alone, then all of them: the message
    # names the first one missing, in the order the family reads them.
    out = tmp_path / "x.json"
    for family, flags in GEN_FLAGS.items():
        for missing in [[flag] for flag in flags] + [list(flags)]:
            argv = ["gen", "--family", family, "-o", str(out)]
            for flag, value in flags.items():
                if flag not in missing:
                    argv += [f"--{flag}", value]
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == f"error: --family {family} requires --{missing[0]}\n", argv
            assert captured.out == "" and not out.exists(), argv


def test_gen_invalid_params(capsys, tmp_path):
    out = tmp_path / "x.json"
    assert main(["gen", "--family", "trunc-poly", "--m", "1", "-o", str(out)]) == 2
    # random.Random seeds with abs(seed), so -7 would silently give seed 7's file
    argv = ["gen", "--family", "random", "--dim", "3", "--arity", "2", "--seed", "-7"]
    assert main(argv + ["-o", str(out)]) == 2
    assert "seed must be an integer >= 0, got -7" in capsys.readouterr().err
    assert not out.exists()


def _arity_file(tmp_path, arity):
    # A 2-dim zero product with a derivation and an empty bracket "b".
    path = tmp_path / f"arity{arity}.json"
    path.write_text(json.dumps({"dimension": 2, "product": _zeros(2, 3),
                                "derivations": {"d": _zeros(2, 2)},
                                "brackets": {"b": {"arity": arity, "entries": []}}}))
    return str(path)


@pytest.mark.parametrize("command", ["gen", "hunt", "check", "extend"])
def test_arity_past_the_bound_is_input_error(capsys, tmp_path, command):
    # At 10**13, itertools.combinations asked for 80 TB and failed with a
    # MemoryError traceback and exit 1, the code of a violation; extending
    # a bracket of the largest arity gives one past it.
    huge, out = str(10**13), str(tmp_path / "out.json")
    argv = {
        "gen": ["gen", "--family", "random", "--dim", "3", "--arity", huge, "--seed", "1",
                "-o", out],
        "hunt": ["hunt", "--dim", "3", "--arity", huge, "--trials", "1", "--seed", "1", "-o", out],
        "check": ["check", _arity_file(tmp_path, 10**13), "--bracket", "b", "--suite", "NL"],
        "extend": ["extend", _arity_file(tmp_path, 10_000), "--bracket", "b", "--derivation", "d",
                   "-o", out],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    got = huge if command != "extend" else "10001"
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"must be an integer in {3 if command == 'hunt' else 2}..10000, got {got}\n" in captured.err
    assert captured.out == "" and not Path(out).exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--family", "trunc-poly", "--m", "3000"],
         "truncation degree m must be an integer in 2..100, got 3000"),
        (["--family", "tensor-trunc", "--a", "2", "--b", "2000"],
         "truncation degree b must be an integer in 2..50, got 2000"),
        (["--family", "zero", "--m", "101", "--arity", "2"],
         "truncation degree m must be an integer in 2..100, got 101"),
    ],
    ids=["trunc-poly", "tensor-trunc", "zero"],
)
def test_gen_family_past_the_size_bound_is_input_error(capsys, tmp_path, flags, message):
    # m = 3000 and a*b = 4000 died with a MemoryError traceback and exit 1:
    # the d**3 product cube alone fills memory.
    out = tmp_path / "out.json"
    assert main(["gen", *flags, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


# ---------------------------------------------------------------------------
# hunt


def test_hunt_arity_two_rejected(capsys, tmp_path):
    code = main(["hunt", "--dim", "4", "--arity", "2", "--trials", "10", "--seed", "0",
                 "-o", str(tmp_path / "f.json")])
    assert code == 2
    assert "arity" in capsys.readouterr().err


def test_hunt_no_finding(capsys, tmp_path):
    code = main(["hunt", "--dim", "4", "--arity", "3", "--trials", "50", "--seed", "123",
                 "-o", str(tmp_path / "f.json")])
    assert code == 0
    assert "no finding in 50 trials" in capsys.readouterr().out
    assert not (tmp_path / "f.json").exists()


def test_hunt_finding_exits_three_and_writes_bundle(capsys, tmp_path, monkeypatch, tp22):
    # random search essentially never satisfies the premises, so drive the
    # reporting path with a fabricated finding and check the 3/0 contract
    import tpnlie.cli as cli_mod
    from tpnlie import Finding, check_identity, extend_bracket
    from tpnlie.axioms import IdentityId as I

    strong = check_identity(I.STRONG, product=tp22.product, bracket=tp22.brackets["b_d1"])
    nl = check_identity(I.NL, bracket=tp22.brackets["b_d1"])
    fake = Finding(
        trial=17,
        seed=99,
        system=tp22,
        bracket_name="b_d1",
        derivation_name="d2",
        strong_report=strong,
        extension=extend_bracket(tp22.product, tp22.brackets["b_d1"], tp22.derivations["d2"]),
        premise_reports=(nl,),
        failure_reports=(nl,),
    )
    monkeypatch.setattr(cli_mod, "hunt_counterexample", lambda *a, **k: fake)
    out = tmp_path / "finding.json"
    code = main(["hunt", "--dim", "4", "--arity", "3", "--trials", "1", "--seed", "0",
                 "-o", str(out)])
    assert code == 3
    assert "trial 17" in capsys.readouterr().out
    bundle = json.loads(out.read_text())
    assert bundle["trial"] == 17
    assert bundle["system"]["dimension"] == 4
    assert bundle["extension"]["arity"] == 3
    assert bundle["premise_reports"][0]["identity"] == "NL"


@needs_digit_limit
def test_hunt_finding_past_digit_limit_is_input_error(capsys, tmp_path, monkeypatch, tp22):
    import tpnlie.cli as cli_mod
    from tpnlie import Finding, check_identity
    from tpnlie.axioms import IdentityId as I

    nl = check_identity(I.NL, bracket=tp22.brackets["b_d1"])
    fake = Finding(17, 10**6000, tp22, "b_d1", "d2", nl, tp22.brackets["b_d1"], (nl,), (nl,))
    monkeypatch.setattr(cli_mod, "hunt_counterexample", lambda *a, **k: fake)
    out = tmp_path / "finding.json"
    assert main(["hunt", "--dim", "4", "--arity", "3", "--trials", "1", "--seed", "0",
                 "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write the finding: a number has more than {_DIGIT_LIMIT} digits\n"
    assert captured.out == "" and not out.exists()


# ---------------------------------------------------------------------------
# one parser per process


def test_calls_in_sequence_match_each_call_made_first(tmp_path, capsys):
    # The parser is built once and shared: no call may see what an earlier
    # one parsed, such as an appended --derivation, or an argparse error.
    calls = [
        ["tower", TP22, "--bracket", "b_d1", "--derivation", "d2", "--derivation", "d2",
         "--out-dir", str(tmp_path), "--format", "json"],
        ["tower", TP22, "--bracket", "b_d1", "--derivation", "d2",
         "--out-dir", str(tmp_path), "--format", "json"],
        ["check", W4, "--bracket", "b1", "--format", "yaml"],
        ["check", W4, "--bracket", "b1", "--derivation", "euler", "--format", "json"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    in_sequence = [run(argv) for argv in calls]
    first = []
    for argv in calls:
        build_parser.cache_clear()
        first.append(run(argv))
    assert in_sequence == first
    assert [code for code, _ in first] == [0, 0, 2, 0]
    assert "level 2" in first[0][1]
    assert "level 1" in first[1][1] and "level 2" not in first[1][1]


# ---------------------------------------------------------------------------
# the parsers


@pytest.mark.parametrize("command", ["check", "extend", "tower"])
def test_commands_on_a_file_share_its_arguments_in_their_help(command, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([command, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for shown in ("file", "--bracket BRACKET", "--format {text,json}"):
        assert shown in out, shown


# Each command line with the namespace it parsed to before the shared
# arguments were declared once; ``func`` is given by name.
NAMESPACES = [
    (
        ["check", "s.json", "--bracket", "b1", "--derivation", "euler", "--suite", "NL,TP",
         "--format", "json"],
        {"command": "check", "file": "s.json", "bracket": "b1", "derivation": "euler",
         "suite": "NL,TP", "format": "json", "func": "cmd_check"},
    ),
    (
        ["extend", "--format", "json", "s.json", "--bracket", "b1", "--derivation", "euler",
         "-o", "out.json", "--verify"],
        {"command": "extend", "file": "s.json", "bracket": "b1", "derivation": "euler",
         "output": "out.json", "verify": True, "format": "json", "func": "cmd_extend"},
    ),
    (
        ["tower", "s.json", "--bracket", "b1", "--derivation", "d2", "--derivation", "d2",
         "--out-dir", "out", "--no-verify"],
        {"command": "tower", "file": "s.json", "bracket": "b1", "derivation": ["d2", "d2"],
         "out_dir": "out", "no_verify": True, "format": "text", "func": "cmd_tower"},
    ),
]


@pytest.mark.parametrize("argv, expected", NAMESPACES, ids=["check", "extend", "tower"])
def test_command_lines_parse_to_their_namespaces(argv, expected):
    parsed = vars(build_parser().parse_args(argv))
    assert {**parsed, "func": parsed["func"].__name__} == expected


# ---------------------------------------------------------------------------
# packaging smoke test


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "tpnlie", "check", W4, "--bracket", "b1", "--suite", "COMM"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "COMM: pass" in result.stdout


def test_bad_flags_exit_two():
    result = subprocess.run(
        [sys.executable, "-m", "tpnlie", "check"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
