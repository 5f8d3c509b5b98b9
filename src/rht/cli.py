"""Command-line front end.

Models are plain text files, one declaration per line:

    object NAME
    kind dg | dgl | dgc
    truncate D
    gen NAME DEG
    d NAME = EXPR
    delta NAME = EXPR         # dgc only
    bracket A B = EXPR        # dgl only

EXPR is a signed sum of rational-coefficient words: generator names,
bracket words ``[a,[b,c]]`` (dgl), or tensor pairs ``a|b`` (delta lines).
``#`` starts a comment.  Subcommands compute homology, rational homotopy,
Lie/coalgebra model translations, Taylor towers and layers, cross effects,
jets, and validation reports; output is an aligned table or a json
document with exact rationals rendered as ``p/q``.
"""

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .dgc import DGC, dgc_validate, to_dgc
from .dgcore import DG, homology, homology_dims, validate_dg
from .dgl import DGL, DGLMap, abelian_dgl, abelianize_dgl, dgl_validate, hurewicz_check, to_dgl
from .exactq import ONE, QMatrix, _unit_vec, format_rat, vec_add, vec_scale, zero_vec
from .quillen import cec_C, cobar_L, rational_homotopy

DEFAULT_CAP = 16
DEGREE_FLOOR = {"dg": -(10**9), "dgl": 1, "dgc": 2}  # least generator degree per kind


class ModelError(Exception):
    """Parse or validation failure with a file location."""

    def __init__(self, msg: str, line: int = 0):
        super().__init__(msg)
        self.line = line

    def render(self, path: str) -> str:
        loc = f"{path}:{self.line}" if self.line else path
        return f"error: {loc}: {self}"


# -- expression grammar ----------------------------------------------------------------

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_'^]*")
# numbers are ASCII digits only: int() and \d also take other Unicode digits, and int() takes '_' and '+'
INT_RE = re.compile(r"-?[0-9]+")
RAT_RE = re.compile(r"[0-9]+(?:/[0-9]+)?")


def _split_terms(s: str, line: int):
    """Yield (sign, chunk) for each top-level +/- separated term.  Only the
    first operator may have no term before it: a leading sign."""
    terms, depth, sign, buf, leading = [], 0, 1, [], True
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ModelError("unbalanced ']'", line)
        if ch in "+-" and depth == 0:
            chunk = "".join(buf).strip()
            if chunk:
                terms.append((sign, chunk))
            elif not leading:
                raise ModelError("empty term", line)
            sign, buf, leading = (1 if ch == "+" else -1), [], False
        else:
            buf.append(ch)
    if depth:
        raise ModelError("unbalanced '['", line)
    last = "".join(buf).strip()
    if not last:
        raise ModelError("trailing operator", line)
    terms.append((sign, last))
    return terms


def _parse_word(s: str, line: int):
    """A word is a bracket tree ('br', a, b), a tensor pair ('tens', a, b),
    or a generator name ('gen', name)."""
    s = s.strip()
    if s.startswith("["):
        try:
            word, rest = _parse_tree(s, line)
        except RecursionError:
            raise ModelError("bracket word nested too deep", line) from None
        if rest.strip():
            raise ModelError(f"unexpected text after bracket word: {rest.strip()!r}", line)
        return word
    if "|" in s:
        a, _, b = s.partition("|")
        a, b = a.strip(), b.strip()
        if not (NAME_RE.fullmatch(a) and NAME_RE.fullmatch(b)):
            raise ModelError(f"malformed tensor pair {s!r}", line)
        return ("tens", a, b)
    if not NAME_RE.fullmatch(s):
        raise ModelError(f"malformed word {s!r}", line)
    return ("gen", s)


def _parse_tree(s: str, line: int):
    s = s.strip()
    if s.startswith("["):
        body = s[1:]
        left, rest = _parse_tree(body, line)
        rest = rest.lstrip()
        if not rest.startswith(","):
            raise ModelError("expected ',' in bracket word", line)
        right, rest = _parse_tree(rest[1:], line)
        rest = rest.lstrip()
        if not rest.startswith("]"):
            raise ModelError("expected ']' in bracket word", line)
        return ("br", left, right), rest[1:]
    m = NAME_RE.match(s)
    if not m:
        raise ModelError(f"malformed bracket word near {s!r}", line)
    return ("gen", m.group()), s[m.end() :]


def parse_expr(s: str, line: int):
    """[(coefficient, word or None)]; a bare rational is only legal as 0."""
    out = []
    for sign, chunk in _split_terms(s, line):
        coeff = ONE
        m = RAT_RE.match(chunk)
        rest = chunk
        if m:
            tail = chunk[m.end() :]
            if tail[:1] == "/":  # RAT_RE stops before a slash with no denominator
                raise ModelError(f"malformed rational {m.group() + '/'!r}", line)
            if not tail.strip() or tail[:1] in (" ", "*"):
                frac = m.group()
                try:
                    coeff = Fraction(frac)
                except ZeroDivisionError:
                    raise ModelError(f"malformed rational {frac!r}", line) from None
                rest = tail.lstrip(" *")
        if not rest.strip():
            if coeff != 0:
                raise ModelError("constant term in expression", line)
            out.append((Fraction(0), None))
            continue
        out.append((sign * coeff, _parse_word(rest, line)))
    return out


# -- model files -------------------------------------------------------------------------


@dataclass
class ModelFile:
    kind: str = ""
    name: str = ""
    truncate: int = DEFAULT_CAP
    gens: list = field(default_factory=list)  # (name, degree, line)
    d_lines: list = field(default_factory=list)  # (name, expr, line)
    delta_lines: list = field(default_factory=list)
    bracket_lines: list = field(default_factory=list)  # (a, b, expr, line)


def parse_model(path: str) -> ModelFile:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    mf = ModelFile()
    seen, entries = set(), set()  # generator names; (d | delta, name) and (bracket, a, b) lines
    for no, full in enumerate(raw, start=1):
        text = full.split("#", 1)[0].strip()
        if not text:
            continue
        head, _, rest = text.partition(" ")
        rest = rest.strip()
        if head == "object":
            mf.name = rest
        elif head == "kind":
            if rest not in ("dg", "dgl", "dgc"):
                raise ModelError(f"unknown kind {rest!r}", no)
            mf.kind = rest
        elif head == "truncate":
            if not re.fullmatch(r"[0-9]+", rest):
                raise ModelError(f"malformed truncation {rest!r}", no)
            mf.truncate = int(rest)
        elif head == "gen":
            parts = rest.split()
            if len(parts) != 2 or not NAME_RE.fullmatch(parts[0]):
                raise ModelError(f"malformed generator line {text!r}", no)
            if not INT_RE.fullmatch(parts[1]):
                raise ModelError(f"malformed degree {parts[1]!r}", no)
            if parts[0] in seen:
                raise ModelError(f"duplicate generator {parts[0]!r}", no)
            seen.add(parts[0])
            mf.gens.append((parts[0], int(parts[1]), no))
        elif head in ("d", "delta"):
            name, _, expr = rest.partition("=")
            name = name.strip()
            if not _:
                raise ModelError("expected '='", no)
            if not NAME_RE.fullmatch(name):
                raise ModelError(f"malformed name {name!r}", no)
            if (head, name) in entries:
                raise ModelError(f"duplicate {head} line for {name!r}", no)
            entries.add((head, name))
            target = mf.d_lines if head == "d" else mf.delta_lines
            target.append((name, parse_expr(expr, no), no))
        elif head == "bracket":
            lhs, _, expr = rest.partition("=")
            if not _:
                raise ModelError("expected '='", no)
            parts = lhs.split()
            if len(parts) != 2:
                raise ModelError(f"malformed bracket line {text!r}", no)
            if (head, *parts) in entries:  # only the same ordered pair: a transpose line is the validator's to judge
                raise ModelError(f"duplicate bracket line for {parts[0]!r} {parts[1]!r}", no)
            entries.add((head, *parts))
            mf.bracket_lines.append((parts[0], parts[1], parse_expr(expr, no), no))
        else:
            raise ModelError(f"unknown directive {head!r}", no)
    if not mf.kind:
        raise ModelError("missing 'kind' directive", 1)
    if not mf.name:
        mf.name = "model"
    return mf


def _eval_tree(word, no: int, require, dg0: DG, shell):
    """(degree, vector) of a word in the shell Lie algebra (None unless dgl)."""
    if word[0] == "gen":
        k, i = require(word[1], no)
        return k, _unit_vec(dg0.dim(k), i)
    if word[0] == "br":
        if shell is None:
            raise ModelError("bracket words only make sense for kind dgl", no)
        ka, va = _eval_tree(word[1], no, require, dg0, shell)
        kb, vb = _eval_tree(word[2], no, require, dg0, shell)
        return ka + kb, shell.bracket_vec(ka, va, kb, vb)
    raise ModelError("tensor pairs only make sense in delta lines", no)


def build_model(mf: ModelFile):
    """ModelFile -> DG | DGL | DGC; every reference and degree is checked."""
    index = {}
    basis: dict[int, list[str]] = {}
    for name, deg, no in mf.gens:
        if deg < DEGREE_FLOOR[mf.kind]:
            raise ModelError(
                f"generator {name!r} has degree {deg}, below the {mf.kind} floor", no
            )
        basis.setdefault(deg, []).append(name)
        index[name] = (deg, len(basis[deg]) - 1)
    dg0 = DG({k: tuple(v) for k, v in sorted(basis.items())})

    def require(name, no):
        if name not in index:
            raise ModelError(f"undeclared name {name!r}", no)
        return index[name]

    # brackets first: d lines of a dgl may use bracket words
    table = {}
    if mf.kind == "dgl":
        for a, b, expr, no in mf.bracket_lines:
            (ka, ia), (kb, ib) = require(a, no), require(b, no)
            vec = zero_vec(dg0.dim(ka + kb))
            for coeff, word in expr:
                if word is None:
                    continue
                if word[0] != "gen":
                    raise ModelError("bracket values must be linear in generators", no)
                kd, idx = require(word[1], no)
                if kd != ka + kb:
                    raise ModelError(
                        f"bracket value {word[1]!r} has degree {kd}, expected {ka + kb}", no
                    )
                vec = vec_add(vec, vec_scale(coeff, _unit_vec(dg0.dim(kd), idx)))
            table[(ka, ia, kb, ib)] = vec
            if (kb, ib, ka, ia) not in table and (ka, ia) != (kb, ib):
                s = ONE if (ka * kb) % 2 else -ONE
                table[(kb, ib, ka, ia)] = vec_scale(s, vec)
    elif mf.bracket_lines:
        raise ModelError("bracket lines only make sense for kind dgl", mf.bracket_lines[0][3])

    shell = DGL(dg0, table) if mf.kind == "dgl" else None

    diff_cols: dict[int, dict[int, tuple]] = {}
    for name, expr, no in mf.d_lines:
        k, i = require(name, no)
        vec = zero_vec(dg0.dim(k - 1))
        for coeff, word in expr:
            if word is None:
                continue
            try:
                kd, v = _eval_tree(word, no, require, dg0, shell)
            except RecursionError:
                raise ModelError("bracket word nested too deep", no) from None
            if kd != k - 1:
                raise ModelError(
                    f"d({name}) term has degree {kd}, expected {k - 1}", no
                )
            vec = vec_add(vec, vec_scale(coeff, v))
        diff_cols.setdefault(k, {})[i] = vec
    diff = {}
    for k, cols in diff_cols.items():
        ent = {}
        for i, vec in cols.items():
            for r, c in enumerate(vec):
                if c:
                    ent[(r, i)] = c
        if ent:
            diff[k] = QMatrix(dg0.dim(k - 1), dg0.dim(k), ent)
    dg = DG(dg0.basis, diff)

    if mf.kind != "dgc" and mf.delta_lines:
        raise ModelError("delta lines only make sense for kind dgc", mf.delta_lines[0][2])
    if mf.kind == "dg":
        return dg
    if mf.kind == "dgl":
        return DGL(dg, table)
    cop = {}
    for name, expr, no in mf.delta_lines:
        k, i = require(name, no)
        row = {}
        for coeff, word in expr:
            if word is None:
                continue
            if word[0] != "tens":
                raise ModelError("delta values must be sums of tensor pairs", no)
            pa, pb = require(word[1], no), require(word[2], no)
            if pa[0] + pb[0] != k:
                raise ModelError(
                    f"delta({name}) pair has degree {pa[0] + pb[0]}, expected {k}", no
                )
            key = (pa, pb)
            row[key] = row.get(key, Fraction(0)) + coeff
        cop[(k, i)] = row
    return DGC(dg, cop)


def _validate(model) -> list:
    if isinstance(model, DGC):
        return dgc_validate(model)
    if isinstance(model, DGL):
        return dgl_validate(model)
    return validate_dg(model)


# -- reports -----------------------------------------------------------------------------


def emit_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_jsonable(report), indent=2, ensure_ascii=False) + "\n"
    lines = []
    _table_lines(report, lines, "")
    width = max((len(k) for k, _ in lines), default=0)
    return "".join(f"{k.ljust(width)}  {v}".rstrip() + "\n" for k, v in lines)


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return format_rat(x)
    return x


def _table_lines(x, out, prefix):
    if isinstance(x, dict):
        for k, v in x.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            _table_lines(v, out, key)
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append((prefix, "(none)"))
        for i, v in enumerate(x):
            _table_lines(v, out, f"{prefix}[{i}]")
    else:
        out.append((prefix, format_rat(x) if isinstance(x, Fraction) else str(x)))


def _dims_table(dims: dict[int, int], window) -> dict:
    lo, hi = window
    return {k: dims.get(k, 0) for k in range(lo, hi + 1)}


def _graded_dims(v: DG) -> dict[int, int]:
    return {k: v.dim(k) for k in sorted(v.degrees()) if v.dim(k)}


# -- subcommands -------------------------------------------------------------------------


def _underlying(model) -> DG:
    return model.underlying if isinstance(model, (DGL, DGC)) else model


def cmd_homology(model, mf, args, report):
    report["homology"] = _dims_table(homology(_underlying(model))[0], args.win)  # full engine, not rank-only
    return 0


def cmd_homotopy(model, mf, args, report):
    if isinstance(model, DG):
        raise UsageError("homotopy expects a dgl or dgc model")
    pi = rational_homotopy(model, mf.truncate)
    lo, hi = args.win
    report["homotopy"] = {k: pi.get(k, 0) for k in range(max(lo, 1), hi + 1)}
    return 0


def cmd_model(model, mf, args, report):
    if args.t == "L":
        if not isinstance(model, DGC):
            raise UsageError("model -t L expects a dgc model")
        out = cobar_L(model, mf.truncate)
        report["generators"] = _gen_dims(out)
        report["model"] = _graded_dims(to_dgl(out).underlying)
        report["valid"] = "yes" if dgl_validate(out) == [] else "no"
        return 0
    if not isinstance(model, (DGL,)):
        raise UsageError("model -t C expects a dgl model")
    out = cec_C(model, mf.truncate)
    report["cogenerators"] = {k: out.deg.count(k) for k in sorted(set(out.deg))}
    report["model"] = _graded_dims(to_dgc(out).underlying)
    report["valid"] = "yes" if dgc_validate(out) == [] else "no"
    return 0


def _gen_dims(free_l) -> dict[int, int]:
    degs = list(free_l.basis.deg)
    return {k: degs.count(k) for k in sorted(set(degs))}


def _tower(model, mf, n):
    from .calculus import cobar_tower

    if not isinstance(model, DGC):
        raise UsageError("Taylor towers are computed from dgc models")
    return cobar_tower(model, n, mf.truncate)


def cmd_tower(model, mf, args, report):
    tower = _tower(model, mf, args.n)
    report["stages"] = {i + 1: _graded_dims(o) for i, o in enumerate(tower.objects)}
    report["valid"] = "yes" if tower.validate() == [] else "no"
    return 0


def cmd_layers(model, mf, args, report):
    from .calculus import layer_report

    tower = _tower(model, mf, args.n)  # first: it turns away a model that is not a dgc
    match = layer_report(model.underlying, tower.layers, mf.truncate)
    report["layers"] = {
        k: {
            "layer": dict(sorted(match[k]["layer"].items())),
            "formula": dict(sorted(match[k]["formula"].items())),
            "match": "yes" if match[k]["match"] else "no",
        }
        for k in sorted(match)
    }
    return 0 if all(match[k]["match"] for k in match) else 1


def cmd_crosseffect(model, mf, args, report):
    from .calculus import IdentityFunctor, cross_effect

    x = _underlying(model)
    cr = cross_effect(IdentityFunctor(), args.n, [x] * args.n)
    report["homology"] = _dims_table(homology_dims(cr.underlying), args.win)
    report["symmetry"] = "valid" if cr.validate() == [] else "invalid"
    return 0


def cmd_jet(model, mf, args, report):
    from .calculus import jet_extract, jet_validate

    tower = jet_extract(_tower(model, mf, args.n))
    report["layers"] = {i + 1: _graded_dims(l) for i, l in enumerate(tower.layers)}
    blocks = {}
    for (i, j) in sorted(tower.blocks):
        if i == j:
            continue
        for k in sorted(tower.blocks[(i, j)]):
            m = tower.blocks[(i, j)][k]
            for (r, c), val in sorted(m.entries.items()):
                blocks[f"d_{i}{j} deg {k} ({r},{c})"] = format_rat(val)
    report["off_diagonal"] = blocks if blocks else "(zero)"
    problems = jet_validate(tower)
    report["verdict"] = "valid" if not problems else problems
    return 0 if not problems else 1


def cmd_verify(model, mf, args, report):
    problems = _validate(model)
    report["verdict"] = "valid" if not problems else problems
    if isinstance(model, DGL) and not problems:
        ab, proj = abelianize_dgl(model)
        f = DGLMap(model, abelian_dgl(ab), proj)
        q, abq = hurewicz_check(f)
        report["abelianization projection quasi-iso"] = "yes" if q else "no"
        report["abelianized map quasi-iso"] = "yes" if abq else "no"
    return 0 if not problems else 1


class UsageError(Exception):
    pass


COMMANDS = {
    "homology": cmd_homology,
    "homotopy": cmd_homotopy,
    "model": cmd_model,
    "tower": cmd_tower,
    "layers": cmd_layers,
    "crosseffect": cmd_crosseffect,
    "jet": cmd_jet,
    "verify": cmd_verify,
}

# least legal -n per subcommand: a tower needs a stage, a cross effect may be empty
N_FLOOR = {"tower": 1, "layers": 1, "jet": 1, "crosseffect": 0}
# greatest legal -n: a cross effect builds 2^n subsets; tower, layers and jet keep 8 until a work budget replaces it
N_CEILING = {"tower": 8, "layers": 8, "jet": 8, "crosseffect": 10}


def _int_arg(text: str) -> int:  # --truncate, -n and --seed
    if not INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


@functools.cache  # parsing leaves the parser as it was, and help and errors go to the streams of the call
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("path", help="model file")
    common.add_argument("--truncate", type=_int_arg, default=None, help="override the model cap")
    common.add_argument("--format", choices=("json", "table"), default="table")
    common.add_argument("--seed", type=_int_arg, default=0)
    common.add_argument("--window", default=None, help="report window a:b")
    p = argparse.ArgumentParser(prog="rht", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("homology", parents=[common], help="graded homology dimensions")
    sub.add_parser("homotopy", parents=[common], help="rational homotopy groups")
    m = sub.add_parser("model", parents=[common], help="translate between model categories")
    m.add_argument("-t", choices=("L", "C"), required=True, help="target: Lie or coalgebra")
    for name, hlp in (
        ("tower", "Taylor tower stages of the Lie model"),
        ("layers", "homogeneous layers against the derivative formula"),
        ("crosseffect", "cross effect of the identity"),
    ):
        q = sub.add_parser(name, parents=[common], help=hlp)
        q.add_argument("-n", type=_int_arg, required=True)
    j = sub.add_parser("jet", parents=[common], help="extract and check the jet of the tower")
    j.add_argument("-n", type=_int_arg, default=2)
    sub.add_parser("verify", parents=[common], help="run the matching validator")
    return p


def _parse_window(spec: str, cap: int):
    if spec is None:
        return (0, cap)
    m = re.fullmatch(r"(-?[0-9]+):(-?[0-9]+)", spec)
    if not m:
        raise UsageError(f"malformed window {spec!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise UsageError("empty window")
    if hi > cap:
        # the model is cut at the cap, so it cannot see degrees above it
        raise UsageError(f"window top {hi} is above the cap {cap}; raise the cap with --truncate")
    if lo < -cap:
        # every degree of the window is printed, so its bottom is bounded too
        raise UsageError(f"window bottom {lo} is below {-cap}; raise the cap with --truncate")
    return (lo, hi)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.truncate is not None and args.truncate < 0:
            raise UsageError(f"--truncate must be >= 0, got {args.truncate}")
        if args.command in N_FLOOR and args.n < N_FLOOR[args.command]:
            raise UsageError(f"{args.command} needs -n >= {N_FLOOR[args.command]}, got {args.n}")
        if args.command in N_CEILING and args.n > N_CEILING[args.command]:
            raise UsageError(f"{args.command} needs -n <= {N_CEILING[args.command]}, got {args.n}")
        try:
            mf = parse_model(args.path)
        except OSError:  # missing, a directory, unreadable: only the model read is caught
            print(f"error: cannot read {args.path}", file=sys.stderr)
            return 1
        if args.truncate is not None:
            mf.truncate = args.truncate
        args.win = _parse_window(args.window, mf.truncate)
        model = build_model(mf)
        problems = [] if args.command == "verify" else _validate(model)  # verify reports them itself
        if problems:
            raise ModelError("; ".join(problems), 0)
        echo = [args.command, args.path]
        if getattr(args, "t", None):
            echo += ["-t", args.t]
        if getattr(args, "n", None) is not None and args.command != "verify":
            echo += ["-n", str(args.n)]
        report = {
            "command": " ".join(echo),
            "object": mf.name,
            "kind": mf.kind,
            "cap": mf.truncate,
            "window": f"{args.win[0]}:{args.win[1]}",
            "seed": args.seed,
        }
        status = COMMANDS[args.command](model, mf, args, report)
        sys.stdout.write(emit_report(report, args.format))
        return status
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except ModelError as e:
        print(e.render(args.path), file=sys.stderr)
        return 1
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except AssertionError as e:  # the engine's own checks: a bug, not a model error
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; lower --truncate or -n", file=sys.stderr)
        return 1
    except Exception as e:  # any other failure is a bug too: named by its type, with no traceback
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
