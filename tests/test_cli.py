"""Model-file grammar, subcommand dispatch, report formats, exit codes."""

import io
import json
import pathlib
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rht.cli import (
    ModelError,
    ModelFile,
    build_model,
    emit_report,
    main,
    parse_expr,
    parse_model,
)
from rht.dgc import DGC, dgc_validate
from rht.dgcore import homology_dims, validate_dg
from rht.dgl import DGL, dgl_validate
from rht.exactq import ONE, rat

MODELS = "models"


def write(tmp_path, text, name="m.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(list(argv))
    return status, buf.getvalue()


# -- expression grammar ----------------------------------------------------------------


def test_expr_signs_and_rationals():
    terms = parse_expr("3/2 x - y + 2*z", 1)
    assert terms == [
        (rat(3) / 2, ("gen", "x")),
        (-ONE, ("gen", "y")),
        (rat(2), ("gen", "z")),
    ]


def test_expr_bracket_words_nest():
    [(c, w)] = parse_expr("-[a,[b,c]]", 1)
    assert c == -ONE
    assert w == ("br", ("gen", "a"), ("br", ("gen", "b"), ("gen", "c")))


def test_expr_tensor_pairs_and_zero():
    assert parse_expr("a|b", 1) == [(ONE, ("tens", "a", "b"))]
    assert parse_expr("0", 1) == [(rat(0), None)]


def test_expr_malformed():
    for bad in ("[a,b", "a,b]", "x +", "2", "a||b", "[a b]"):
        with pytest.raises(ModelError):
            parse_expr(bad, 7)
    try:
        parse_expr("[a,b", 7)
    except ModelError as e:
        assert e.line == 7


# -- model files -------------------------------------------------------------------------


def test_sphere_file_parses_to_trivial_coalgebra(tmp_path):
    p = write(tmp_path, "object s3\nkind dgc\ngen x 3\n")
    model = build_model(parse_model(p))
    assert isinstance(model, DGC)
    assert dgc_validate(model) == []
    assert model.coproduct == {}


def test_missing_kind_reported_at_line_one(tmp_path):
    p = write(tmp_path, "object s3\ngen x 3\n")
    with pytest.raises(ModelError) as e:
        parse_model(p)
    assert e.value.line == 1


def test_even_self_bracket_is_literal_zero(tmp_path):
    # [x,x] = 0 for even x, so d y = [x,x] is the zero differential
    p = write(tmp_path, "kind dgl\ngen x 2\ngen y 5\nd y = [x,x]\n")
    model = build_model(parse_model(p))
    assert isinstance(model, DGL)
    assert dgl_validate(model) == []
    assert not model.underlying.diff


def test_genuine_degree_mismatch_rejected(tmp_path):
    p = write(tmp_path, "kind dgl\ngen x 2\ngen y 3\nd y = [x,x]\n")
    with pytest.raises(ModelError, match="degree"):
        build_model(parse_model(p))


def test_undeclared_name_and_degree_floor(tmp_path):
    with pytest.raises(ModelError, match="undeclared"):
        build_model(parse_model(write(tmp_path, "kind dg\ngen a 2\nd a = b\n")))
    with pytest.raises(ModelError, match="floor"):
        build_model(parse_model(write(tmp_path, "kind dgc\ngen a 1\n", "f2.txt")))


def test_bracket_table_fills_the_reverse_entry(tmp_path):
    p = write(
        tmp_path,
        "kind dgl\ngen v 1\ngen u 2\ngen w 3\nbracket v u = w\n",
    )
    model = build_model(parse_model(p))
    assert dgl_validate(model) == []
    # [u,v] = -(-1)^{|v||u|}[v,u] = -[v,u], filled automatically
    assert model.bracket_basis(2, 0, 1, 0) == (-ONE,)


def test_zero_denominator_is_a_model_error(tmp_path, capsys):
    p = write(tmp_path, "kind dg\ngen a 1\ngen b 0\nd a = 1/0 b\n")
    assert main(["homology", p]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}:4: malformed rational '1/0'\n"


def test_trailing_slash_coefficient_is_a_malformed_rational(tmp_path, capsys):
    p = write(tmp_path, "kind dg\ngen a 1\ngen b 2\nd b = 2/ a\n")
    assert main(["homology", p]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}:4: malformed rational '2/'\n"
    with pytest.raises(ModelError, match="malformed rational '1/2/'"):
        parse_expr("1/2/3 a", 1)


def test_truncation_in_non_ascii_digits_is_a_model_error(tmp_path, capsys):
    # '²' passes str.isdigit but not int()
    p = write(tmp_path, "kind dg\ntruncate ²\ngen a 1\n")
    assert main(["homology", p]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}:2: malformed truncation '²'\n"


# an integer is an optional '-' and ASCII digits: int() and \d also read other Unicode digits, '_' and '+'


@pytest.mark.parametrize("degree", ["٣", "1_0", "+1", "1.0", "-"])
def test_generator_degrees_are_ascii_integers(tmp_path, capsys, degree):
    p = write(tmp_path, f"kind dg\ngen a {degree}\n")
    assert main(["homology", p]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}:2: malformed degree {degree!r}\n"
    # a negative DG degree stays legal
    assert main(["homology", write(tmp_path, "kind dg\ngen a -1\n")]) == 0


def test_coefficients_are_ascii_rationals(tmp_path, capsys):
    p = write(tmp_path, "kind dg\ngen a 1\ngen b 2\nd b = ٣ a\n")
    assert main(["homology", p]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}:4: malformed word '٣ a'\n"
    with pytest.raises(ModelError, match="malformed rational '3/'"):
        parse_expr("3/٣ a", 1)


@pytest.mark.parametrize("window", ["٠:٣", "0:٣", "+0:3", "0:1_0"])
def test_windows_are_ascii_integers(capsys, window):
    assert main(["homology", f"{MODELS}/twocell.dg", "--window", window]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: malformed window {window!r}\n"


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("homology", "--truncate", "٣"),
        ("homology", "--truncate", "1_1"),
        ("homology", "--truncate", "+3"),
        ("homology", "--seed", "٣"),
        ("tower", "-n", "٢"),
        ("crosseffect", "-n", "1_0"),
    ],
)
def test_integer_arguments_are_ascii_integers(capsys, command, flag, value):
    assert main([command, f"{MODELS}/s3.dgc", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:") and f"argument {flag}: invalid int value: {value!r}\n" in captured.err
    assert main(["homology", f"{MODELS}/twocell.dg", "--truncate", "3", "--seed", "-7"]) == 0


def test_deeply_nested_bracket_word_is_a_model_error(tmp_path, capsys):
    depth = 3000
    p = write(tmp_path, "kind dgl\ngen v 1\ngen w 3\nd w = " + "[v," * depth + "v" + "]" * depth + "\n")
    assert main(["homology", p]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}:4: bracket word nested too deep\n"
    # a word that parses may still be too deep to evaluate: built here without the parser
    word = ("gen", "v")
    for _ in range(depth):
        word = ("br", ("gen", "v"), word)
    mf = ModelFile(kind="dgl", name="deep", gens=[("v", 1, 2), ("w", 3, 3)], d_lines=[("w", [(ONE, word)], 4)])
    with pytest.raises(ModelError, match="nested too deep") as e:
        build_model(mf)
    assert e.value.line == 4


def test_comments_and_blank_lines(tmp_path):
    p = write(tmp_path, "# header\n\nkind dg   # trailing\ngen a 2\n")
    mf = parse_model(p)
    assert mf.kind == "dg" and mf.gens[0][:2] == ("a", 2)


# -- reports -----------------------------------------------------------------------------


def test_json_report_round_trips():
    report = {"cap": 16, "homology": {2: 1, 3: 0}, "coeff": rat(1) / 2}
    text = emit_report(report, "json")
    back = json.loads(text)
    assert back["coeff"] == "1/2"
    assert back["homology"] == {"2": 1, "3": 0}


def test_table_report_shows_zero_rows():
    text = emit_report({"homology": {0: 0, 1: 0}}, "table")
    assert "homology.0" in text and "homology.1" in text


# -- subcommands --------------------------------------------------------------------------


def test_homology_of_shipped_two_cell():
    status, out = run("homology", f"{MODELS}/twocell.dg", "--window", "0:4")
    assert status == 0
    assert "homology.2  0" in out


def test_homotopy_of_spheres():
    status, out = run("homotopy", f"{MODELS}/s3.dgc", "--truncate", "8")
    assert status == 0 and "homotopy.3  1" in out
    status, out = run("homotopy", f"{MODELS}/s4.dgc", "--truncate", "9")
    assert status == 0 and "homotopy.4  1" in out and "homotopy.7  1" in out


def test_verify_on_every_shipped_model_exits_zero():
    import pathlib

    for p in sorted(pathlib.Path(MODELS).iterdir()):
        status, out = run("verify", str(p))
        assert status == 0, p
        assert "verdict  " in out or "verdict" in out


def test_verify_hurewicz_counterexample_flags_diverge():
    status, out = run("verify", f"{MODELS}/hurewicz-counterexample.dgl")
    assert status == 0
    assert "abelianization projection quasi-iso  no" in out
    assert "abelianized map quasi-iso            yes" in out


def test_verify_validates_the_model_once(monkeypatch):
    import rht.cli as cli

    calls, real = [], cli._validate
    monkeypatch.setattr(cli, "_validate", lambda model: calls.append(model) or real(model))
    for model in ("polynomial.dgc", "hurewicz-counterexample.dgl", "twocell.dg"):
        calls.clear()
        assert run("verify", f"{MODELS}/{model}")[0] == 0 and len(calls) == 1


def test_model_translations():
    status, out = run("model", "-t", "L", f"{MODELS}/polynomial.dgc", "--truncate", "6")
    assert status == 0 and "valid" in out and "generators.1  1" in out
    status, out = run(
        "model", "-t", "C", f"{MODELS}/hurewicz-counterexample.dgl", "--truncate", "7"
    )
    assert status == 0 and "cogenerators.2  1" in out


def test_layers_match_flag_and_json():
    status, out = run(
        "layers", "-n", "2", f"{MODELS}/polynomial.dgc", "--truncate", "7",
        "--format", "json",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["layers"]["1"]["match"] == "yes"
    assert doc["layers"]["2"]["layer"] == {"2": 1, "4": 1, "6": 2}


@pytest.mark.parametrize("n", [7, 8])
def test_layers_at_n_7_and_8_equal_their_golden_files(n):
    """The golden files were made by building each formula as the orbit
    quotient of Lie(n); layers now counts it from the character of Lie(n)."""
    status, out = run("layers", "-n", str(n), f"{MODELS}/polynomial.dgc", "--truncate", "10")
    assert status == 0
    assert out == pathlib.Path(f"tests/golden/layers-n{n}-polynomial-t10.txt").read_text(encoding="utf-8")


def test_jet_reports_exact_rationals():
    status, out = run("jet", "-n", "2", f"{MODELS}/polynomial.dgc", "--truncate", "7")
    assert status == 0
    assert "-1/2" in out
    assert "verdict" in out and "valid" in out


def test_tower_and_crosseffect():
    status, out = run("tower", "-n", "2", f"{MODELS}/s3.dgc", "--truncate", "8")
    import re

    assert status == 0 and re.search(r"^valid\s+yes$", out, re.M)
    status, out = run(
        "crosseffect", "-n", "2", f"{MODELS}/twocell.dg", "--window", "0:5"
    )
    assert status == 0 and re.search(r"^symmetry\s+valid$", out, re.M)


# -- exit codes and determinism ------------------------------------------------------------


def test_exit_codes(tmp_path, capsys):
    assert run("homology", str(tmp_path / "missing.dg"))[0] == 1
    assert run("homology", str(tmp_path))[0] == 1  # a directory is no readable model
    assert capsys.readouterr().err.splitlines()[-1] == f"error: cannot read {tmp_path}"
    bad = write(tmp_path, "object x\ngen a 2\n")
    assert run("verify", bad)[0] == 1
    assert run("homology", f"{MODELS}/s3.dgc", "--window", "junk")[0] == 2
    assert run("homotopy", f"{MODELS}/twocell.dg")[0] == 2  # wrong model kind
    assert main(["nonsense", f"{MODELS}/s3.dgc"]) == 2


@pytest.mark.parametrize(
    "text, argv, code, err, out",
    [
        # a model that fails its validator is a model error under every command but verify
        ("kind dg\ngen a 1\ngen b 2\ngen c 3\nd b = a\nd c = b\n", ["homology"], 1,
         "error: {p}: d^2 != 0 from degree 3", ""),
        # verify reports the problems itself: a table report whose verdict is a list
        ("kind dg\ngen a 1\ngen b 2\ngen c 3\nd b = a\nd c = b\n", ["verify"], 1, "",
         "verdict[0]  d^2 != 0 from degree 3: entry (0,0) = 1\n"),
        ("kind dg\ngen a 2\n", ["model", "-t", "L"], 2, "usage error: model -t L expects a dgc model", ""),
        ("kind dgc\ngen a 2\n", ["model", "-t", "C"], 2, "usage error: model -t C expects a dgl model", ""),
        ("kind dgl\ngen a 1\n", ["tower", "-n", "2"], 2, "usage error: Taylor towers are computed from dgc models", ""),
        ("kind dgl\ngen a 1\n", ["layers", "-n", "2"], 2, "usage error: Taylor towers are computed from dgc models", ""),
        ("kind dgl\ngen a 1\n", ["jet"], 2, "usage error: Taylor towers are computed from dgc models", ""),
        ("kind dg\ngen a 1\n", ["homology", "--window", "3:1"], 2, "usage error: empty window", ""),
        ("kind dgl\ngen v 1\ngen w 3\nd w = [v,v] x\n", ["homology"], 1,
         "error: {p}:4: unexpected text after bracket word: 'x'", ""),
        ("kind dgl\ngen v 1\ngen w 3\nd w = v w\n", ["homology"], 1, "error: {p}:4: malformed word 'v w'", ""),
        ("kind dgl\ngen v 1\ngen w 3\nd w = [v,v,v]\n", ["homology"], 1,
         "error: {p}:4: expected ']' in bracket word", ""),
        ("kind dgl\ngen v 1\ngen u 2\nbracket v v u\n", ["homology"], 1, "error: {p}:4: expected '='", ""),
        ("kind dgl\ngen v 1\ngen u 2\nbracket v v = [v,v]\n", ["homology"], 1,
         "error: {p}:4: bracket values must be linear in generators", ""),
        ("kind dgc\ngen x 2\ngen y 4\ndelta y = x\n", ["homology"], 1,
         "error: {p}:4: delta values must be sums of tensor pairs", ""),
        ("kind dgl\ngen v 1\ngen u 3\nbracket v v = u\n", ["homology"], 1,
         "error: {p}:4: bracket value 'u' has degree 3, expected 2", ""),
        ("kind dgc\ngen x 2\ngen y 5\ndelta y = x|x\n", ["homology"], 1,
         "error: {p}:4: delta(y) pair has degree 4, expected 5", ""),
    ],
)
def test_exit_paths(tmp_path, capsys, text, argv, code, err, out):
    p = write(tmp_path, text)
    assert main([argv[0], p, *argv[1:]]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(err.format(p=p))
    assert out in captured.out and bool(captured.out) == bool(out)


@pytest.mark.parametrize(
    "argv",
    [
        ("homology", f"{MODELS}/twocell.dg", "--truncate", "-3"),
        ("homotopy", f"{MODELS}/s3.dgc", "--truncate", "-1"),
        ("tower", "-n", "0", f"{MODELS}/s3.dgc"),
        ("layers", "-n", "0", f"{MODELS}/polynomial.dgc"),
        ("jet", "-n", "-2", f"{MODELS}/polynomial.dgc"),
        ("crosseffect", "-n", "-1", f"{MODELS}/twocell.dg"),
        # -n above 8 is refused before the model is read: the ceiling stays until a work budget replaces it
        ("tower", "-n", "9", f"{MODELS}/s3.dgc"),
        ("layers", "-n", "9", f"{MODELS}/s3.dgc", "--truncate", "4"),
        ("jet", "-n", "9", f"{MODELS}/polynomial.dgc"),
        ("jet", "-n", "9", f"{MODELS}/no-such-model.dgc"),
        # a cross effect builds 2^n subsets, and its cost about triples with each step: refused above 10
        ("crosseffect", "-n", "11", f"{MODELS}/twocell.dg"),
        ("crosseffect", "-n", "11", f"{MODELS}/no-such-model.dg"),
    ],
)
def test_out_of_range_arguments_are_usage_errors(argv, capsys):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error:")


def test_a_window_above_the_cap_is_a_usage_error(capsys):
    # at cap 6 the model cannot see pi_7(CP^3) (x) Q, so a window through 9 would print a false 0
    assert main(["homotopy", f"{MODELS}/polynomial.dgc", "--truncate", "6", "--window", "0:9"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage error: window top 9 is above the cap 6; raise the cap with --truncate\n"
    assert main(["homotopy", f"{MODELS}/polynomial.dgc", "--truncate", "6", "--window", "0:6"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "window      0:6\n" in out and "homotopy.6  0\n" in out
    # the model file's own cap (truncate 8) bounds the window when --truncate is not given
    assert main(["homology", f"{MODELS}/polynomial.dgc", "--window", "0:9"]) == 2
    assert "above the cap 8" in capsys.readouterr().err


def test_a_window_below_minus_the_cap_is_a_usage_error(capsys, monkeypatch):
    # every degree of a window is printed, so a far bottom would be unbounded output
    assert main(["homology", f"{MODELS}/twocell.dg", "--window=-300000:4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage error: window bottom -300000 is below -16; raise the cap with --truncate\n"
    assert main(["homology", f"{MODELS}/twocell.dg", "--window=-16:4"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and ["window", "-16:4"] in [line.split() for line in lines] and len(lines) == 27
    assert [line.split()[0] for line in lines[-21:]] == [f"homology.{k}" for k in range(-16, 5)]


def test_boundary_arguments_are_not_usage_errors(capsys):
    assert main(["crosseffect", "-n", "0", f"{MODELS}/twocell.dg"]) == 0
    # cap 0 is legal; it is the model that cannot be cut that low
    assert main(["tower", "-n", "1", f"{MODELS}/s3.dgc", "--truncate", "0"]) == 1
    assert main(["tower", "-n", "8", f"{MODELS}/s3.dgc", "--truncate", "0"]) == 1
    assert "usage error" not in capsys.readouterr().err


def test_reports_are_byte_identical():
    for argv in (
        ("homotopy", f"{MODELS}/s4.dgc", "--truncate", "9"),
        ("layers", "-n", "2", f"{MODELS}/polynomial.dgc", "--truncate", "7"),
        ("jet", "-n", "2", f"{MODELS}/polynomial.dgc", "--truncate", "7",
         "--format", "json"),
        ("verify", f"{MODELS}/hurewicz-counterexample.dgl"),
    ):
        assert run(*argv) == run(*argv)


# -- the benchmark's pinned commands -----------------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED = json.loads((ROOT / "perfbench" / "pinned_cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(PINNED))
def test_pinned_commands_give_the_pinned_output(command, monkeypatch):
    monkeypatch.chdir(ROOT)  # the pinned commands name their models relative to the repository
    status, out = run(*command.split())
    assert (status, out) == (PINNED[command]["exit"], PINNED[command]["stdout"])


# -- one parser per process ----------------------------------------------------------------


def test_parser_is_built_once():
    from rht.cli import _build_parser

    assert _build_parser() is _build_parser()


def test_calls_in_sequence_share_one_parser():
    """Each call's output lands in the streams redirected around that call,
    whatever the calls before it printed or raised."""
    from contextlib import redirect_stderr

    def call(*argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(list(argv))
        return status, out.getvalue(), err.getvalue()

    status, out, err = call("homology", f"{MODELS}/twocell.dg", "--truncate", "-1")
    assert (status, out) == (2, "") and err.startswith("usage error: --truncate")
    status, out, err = call("homology", f"{MODELS}/twocell.dg", "--window", "0:4")
    assert (status, err) == (0, "") and out == PINNED["homology models/twocell.dg --window 0:4"]["stdout"]
    status, out, err = call("--help")
    assert (status, err) == (0, "") and out.startswith("usage: rht") and "crosseffect" in out
    status, out, err = call("nonsense", f"{MODELS}/s3.dgc")
    assert (status, out) == (2, "") and "invalid choice: 'nonsense'" in err


# -- build_model without a recursive closure -----------------------------------------------


def _old_eval_tree(require, dg0, shell):
    """The recursive closure build_model evaluated words with before."""
    from rht.exactq import _unit_vec

    def eval_tree(word, no):
        if word[0] == "gen":
            k, i = require(word[1], no)
            return k, _unit_vec(dg0.dim(k), i)
        if word[0] == "br":
            if shell is None:
                raise ModelError("bracket words only make sense for kind dgl", no)
            ka, va = eval_tree(word[1], no)
            kb, vb = eval_tree(word[2], no)
            return ka + kb, shell.bracket_vec(ka, va, kb, vb)
        raise ModelError("tensor pairs only make sense in delta lines", no)

    return eval_tree


NILPOTENT = """kind dgl
gen a 1
gen b 1
gen c 2
gen e 3
gen f 3
bracket a a = c
bracket a b = 2 c
bracket b b = -1/3 c
bracket a c = e - f
bracket b c = 1/2 f
"""

_GEN_WORDS = st.sampled_from("abcefz").map(lambda n: ("gen", n))
_WORDS = st.recursive(
    st.one_of(_GEN_WORDS, st.just(("tens", "a", "b"))),
    lambda kids: st.tuples(st.just("br"), kids, kids),
    max_leaves=5,
)


@settings(max_examples=150, deadline=None)
@given(_WORDS, st.booleans())
def test_word_values_match_the_recursive_closure(word, lie):
    import tempfile

    from rht.cli import _eval_tree

    with tempfile.TemporaryDirectory() as tmp:
        mf = parse_model(write(pathlib.Path(tmp), NILPOTENT))
    model = build_model(mf)
    positions, per_degree = {}, {}
    for name, deg, _ in mf.gens:
        positions[name] = (deg, per_degree.get(deg, 0))
        per_degree[deg] = positions[name][1] + 1

    def require(name, no):
        if name not in positions:
            raise ModelError(f"undeclared name {name!r}", no)
        return positions[name]

    shell = model if lie else None
    args = (require, model.underlying, shell)

    def outcome(fn):
        try:
            return fn(word, 4)
        except ModelError as e:
            return ("error", str(e), e.line)

    assert outcome(lambda w, no: _eval_tree(w, no, *args)) == outcome(_old_eval_tree(*args))


def test_build_model_leaves_no_reference_cycle(cyclic_garbage, tmp_path):
    nested = write(tmp_path, NILPOTENT + "gen g 5\nd g = [a,[a,c]] - 2 [b,[a,c]]\n")
    for path in (f"{MODELS}/hurewicz-counterexample.dgl", nested):
        mf = parse_model(path)
        assert cyclic_garbage(lambda: build_model(mf)) == []


# -- the model-file contract ----------------------------------------------------------------

_NAMES = st.sampled_from(["a", "b", "c", "x", "9z"])
_COEFFICIENTS = st.sampled_from(["", "", "2 ", "1/2 ", "-3*", "0 ", "1/0 ", "2/ ", "3/00 "])
_TERMS = st.one_of(
    _NAMES,
    st.builds("[{},{}]".format, _NAMES, _NAMES),
    st.builds("[{},[{},{}]]".format, _NAMES, _NAMES, _NAMES),
    st.builds("{}|{}".format, _NAMES, _NAMES),
    st.sampled_from(["0", "[a,b", "a,b]", "[a b]", "]", ""]),
)
_EXPRESSIONS = st.lists(st.tuples(st.sampled_from([" + ", " - "]), _COEFFICIENTS, _TERMS), min_size=1, max_size=3).map(
    lambda terms: "".join(sign + coeff + term for sign, coeff, term in terms)[3:]
)
_LINES = st.one_of(
    st.builds("kind {}".format, st.sampled_from(["dg", "dgl", "dgc", "dgx"])),
    st.builds("object {}".format, _NAMES),
    st.builds("truncate {}".format, st.sampled_from(["6", "0", "x", "²"])),
    st.builds("gen {} {}".format, _NAMES, st.sampled_from(["-1", "0", "1", "2", "3", "4", "2.5"])),
    st.builds("d {} = {}".format, _NAMES, _EXPRESSIONS),
    st.builds("delta {} = {}".format, _NAMES, _EXPRESSIONS),
    st.builds("bracket {} {} = {}".format, _NAMES, _NAMES, _EXPRESSIONS),
    st.sampled_from(["", "# a comment", "d a", "bracket a = b", "gen a", "frobnicate"]),
)
# mostly a kind and declared generators first, so that many texts build; sometimes any lines at all
_MODEL_TEXTS = st.one_of(
    st.builds(
        lambda kind, gens, body: "\n".join([f"kind {kind}"] + [f"gen {n} {d}" for n, d in sorted(gens.items())] + body),
        st.sampled_from(["dg", "dgl", "dgc", "dgx"]),
        st.dictionaries(st.sampled_from("abcx"), st.sampled_from(["0", "1", "2", "3", "4", "5"]), max_size=4),
        st.lists(_LINES, max_size=5),
    ),
    st.lists(_LINES, max_size=10).map("\n".join),
)


@settings(max_examples=300, deadline=None)
@given(_MODEL_TEXTS)
@example("kind dg\ngen a 1\ngen b 0\nd a = 1/0 b")
def test_model_files_build_or_fail_with_a_located_model_error(text):
    """Any model text either builds or raises ModelError at a line; a model that
    builds and validates reports its homology as JSON that round-trips."""
    import tempfile

    from rht.cli import _validate

    with tempfile.TemporaryDirectory() as tmp:
        p = write(pathlib.Path(tmp), text + "\n")
        try:
            model = build_model(parse_model(p))
        except ModelError as e:
            assert e.line >= 1
            return
        if _validate(model):
            return
        status, out = run("homology", p, "--format", "json")
    assert status == 0
    assert json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n" == out
