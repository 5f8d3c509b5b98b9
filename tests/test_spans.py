"""Subspaces as matrices against the list-based code they replaced.

A subspace used to travel as a list of dense vectors: kernel_basis returned
one tuple per free column, sub_dg rebuilt a matrix from such lists, reduce_dgc
turned its span matrices back into lists, and to_dgc and to_dgc_map filled
dense columns one word at a time.  The _old_* functions below are that code,
kept as oracles.  Each test draws random inputs and checks that the matrix
paths give the same names in the same order, the same differentials and maps,
and the same errors.
"""

from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from rht.calculus import Tower, _power_with_swaps, cobar_tower, jet_extract
from rht.dgc import (
    DGC,
    CofreeDGC,
    CofreeDGCMap,
    DGCMap,
    CoTable,
    _as_dgc,
    _coproduct_map,
    _square,
    _sub_dgc,
    cofree_lambda,
    primitives_with_inclusion,
    reduce_dgc,
    to_dgc,
)
from rht.dgcore import (
    DG,
    DGMap,
    SymmetricDG,
    _places,
    _tensor_with_index,
    chain_map_space,
    compose,
    homology,
    identity_map,
    map_scale,
    projection,
    reduce_with_inclusion,
    strict_pullback,
    sub_dg,
    sum_dg,
    sum_many,
    sym_invariants,
    sym_orbits,
    tensor_map,
)
from rht.exactq import ONE, ZERO, QMatrix, image_pivot_columns, kernel_basis, rat, rref, solve_matrix
from rht.randgen import random_chain_map, random_dg

# -- the list-based code ----------------------------------------------------------


def _old_kernel_from_rref(red, pivots):
    pivot_set = set(pivots)
    basis = {j: [ZERO] * red.cols for j in range(red.cols) if j not in pivot_set}
    for (i, j), v in red.entries.items():
        if j in basis:
            basis[j][pivots[i]] = -v
    for j, v in basis.items():
        v[j] = ONE
    return [tuple(v) for v in basis.values()]


def _old_kernel_basis(m):
    return _old_kernel_from_rref(*rref(m))


def _old_sub_dg(v, vectors, prefix="k"):
    basis = {}
    cols = {}
    for k, vs in sorted(vectors.items()):
        if not vs:
            continue
        basis[k] = tuple(f"{prefix}{k}_{i}" for i in range(len(vs)))
        cols[k] = QMatrix.from_columns(vs, v.dim(k))
    diff = {}
    for k in sorted(basis):
        if (k - 1) not in basis:
            if not (v.d(k) * cols[k]).is_zero():
                raise ValueError(f"span not closed under d at degree {k}")
            continue
        img = v.d(k) * cols[k]
        sol = solve_matrix(cols[k - 1], img)
        if sol is None:
            raise ValueError(f"span not closed under d at degree {k}")
        diff[k] = sol
    out = DG(basis, diff)
    incl = DGMap(out, v, {k: cols[k] for k in basis})
    return out, incl


def _old_reduce_with_inclusion(r, v):
    if v.d(r).is_zero():
        basis = {k: names for k, names in v.basis.items() if k >= r}
        diff = {k: m for k, m in v.diff.items() if k > r}
        out = DG(basis, diff)
        return out, DGMap(out, v, {k: QMatrix.identity(v.dim(k)) for k in out.degrees()})
    vectors = {}
    std = QMatrix.identity
    for k in v.degrees():
        if k > r:
            vectors[k] = [std(v.dim(k)).column(j) for j in range(v.dim(k))]
        elif k == r:
            vectors[k] = _old_kernel_basis(v.d(r))
    return _old_sub_dg(v, vectors, prefix=f"r{r}_")


def _old_strict_pullback(f, g):
    if f.target != g.target:
        raise ValueError("pullback codomain mismatch")
    degrees = sorted(set(f.source.basis) | set(g.source.basis))
    vectors = {k: _old_kernel_basis(QMatrix.hstack([f.block(k), g.block(k)])) for k in degrees}
    prod, iu, iw = sum_dg(f.source, g.source, tags=("u", "w"))
    sub, incl = _old_sub_dg(prod, vectors, prefix="lim")
    return sub, compose(projection(iu), incl), compose(projection(iw), incl)


def _old_sym_invariants(v):
    u = v.underlying
    vectors = {}
    for k in u.degrees():
        stacked = QMatrix.vstack([a.block(k) - QMatrix.identity(u.dim(k)) for a in v.action]) if v.action else QMatrix.zero(0, u.dim(k))
        vectors[k] = _old_kernel_basis(stacked) if v.action else [QMatrix.identity(u.dim(k)).column(j) for j in range(u.dim(k))]
    fixed, incl = _old_sub_dg(u, vectors, prefix="fix")
    orbits, proj = sym_orbits(v)
    trace = compose(proj, incl)
    norm_blocks = {}
    for k in orbits.degrees():
        inverse = solve_matrix(trace.block(k), QMatrix.identity(orbits.dim(k)))
        if inverse is None:
            raise AssertionError("internal: the trace is not invertible")
        norm_blocks[k] = inverse
    norm = DGMap(orbits, fixed, norm_blocks)
    return fixed, orbits, trace, norm, compose(incl, compose(norm, proj))


def _old_chain_map_space(v, w):
    slots = []
    pos = {}
    for k in sorted(set(v.basis) & set(w.basis)):
        for r in range(w.dim(k)):
            for c in range(v.dim(k)):
                pos[(k, r, c)] = len(slots)
                slots.append((k, r, c))
    if not slots:
        return []
    rows = []
    rpos = {}
    ent = {}

    def rowid(k, r, c):
        key = (k, r, c)
        if key not in rpos:
            rpos[key] = len(rows)
            rows.append(key)
        return rpos[key]

    for k in sorted(set(v.basis) | set(w.basis)):
        dw = w.d(k)
        dv = v.d(k)
        for (r, m), a in dw.entries.items():
            for c in range(v.dim(k)):
                if (k, m, c) in pos:
                    key = (rowid(k, r, c), pos[(k, m, c)])
                    ent[key] = ent.get(key, ZERO) + a
        for (r, c0), a in dv.entries.items():
            for r2 in range(w.dim(k - 1)):
                if (k - 1, r2, r) in pos:
                    key = (rowid(k, r2, c0), pos[(k - 1, r2, r)])
                    ent[key] = ent.get(key, ZERO) - a
    system = QMatrix(len(rows), len(slots), ent)
    basis = []
    for kv in _old_kernel_basis(system):
        blocks = {}
        for idx, val in enumerate(kv):
            if val != 0:
                k, r, c = slots[idx]
                blocks.setdefault(k, {})[(r, c)] = val
        basis.append(DGMap(v, w, {k: QMatrix(w.dim(k), v.dim(k), e) for k, e in blocks.items()}))
    return basis


def _old_homology(v):
    dims = {}
    reps = {}
    for k in v.degrees():
        red, pivots = rref(v.d(k))
        cycles = _old_kernel_from_rref(red, pivots)
        z, pivot_set = len(cycles), set(pivots)
        free = [f for f in range(v.dim(k)) if f not in pivot_set]
        reversed_at = {f: z - 1 - j for j, f in enumerate(free)}
        dkp1 = v.d(k + 1)
        bnd = QMatrix(dkp1.cols, z, {(c, reversed_at[r]): x for (r, c), x in dkp1.entries.items() if r in reversed_at})
        ends = {z - 1 - p for p in image_pivot_columns(bnd)}
        chosen = [z_j for j, z_j in enumerate(cycles) if j not in ends]
        if chosen:
            dims[k] = len(chosen)
            reps[k] = chosen
    return dims, reps


def _old_primitives_with_inclusion(c, prefix="pr"):
    delta = _coproduct_map(c, _square(c.underlying))
    vectors = {k: _old_kernel_basis(delta.block(k)) for k in c.underlying.degrees()}
    return _old_sub_dg(c.underlying, vectors, prefix=prefix)


def _old_reduce_dgc(r, c):
    c = _as_dgc(c)
    dg = c.underlying
    delta = _coproduct_map(c, _square(c.underlying))
    spans = {}
    for k in dg.degrees():
        if k > r:
            spans[k] = QMatrix.identity(dg.dim(k))
        elif k == r:
            spans[k] = QMatrix.from_columns(_old_kernel_basis(dg.d(r)), dg.dim(r))
    for k in sorted(spans):
        x = spans[k]
        if x.cols == 0:
            continue
        below = {j: s for j, s in spans.items() if j < k}
        span = DGMap(DG({j: ("",) * s.cols for j, s in below.items()}), dg, below)
        square = tensor_map(span, span).block(k)
        ann = QMatrix.from_columns(_old_kernel_basis(square.transpose()), square.rows).transpose()
        keep = _old_kernel_basis(ann * (delta.block(k) * x))
        if len(keep) != x.cols:
            spans[k] = x * QMatrix.from_columns(keep, x.cols)
    if all(spans.get(k, QMatrix.zero(0, 0)).cols == dg.dim(k) for k in dg.degrees()):
        return c
    vectors = {k: [m.column(j) for j in range(m.cols)] for k, m in spans.items()}
    return _old_sub_dgc(c, vectors, prefix=f"r{r}_")[0]


def _old_sub_dgc(c, vectors, prefix):
    sub, incl = _old_sub_dg(c.underlying, vectors, prefix=prefix)
    top = max(sub.degrees(), default=0)
    delta, square = _coproduct_map(c, _square(c.underlying)), tensor_map(incl, incl)
    pair_at = {place: ((k1, i1), (k2, i2)) for (k1, i1, k2, i2), place in _tensor_with_index(sub, sub, top)[1].items()}
    table: CoTable = {}
    for k in sub.degrees():
        sol = solve_matrix(square.block(k), delta.block(k) * incl.block(k))
        if sol is None:
            raise ValueError(f"span not closed under the coproduct at degree {k}")
        for rr, i in sorted(sol.entries, key=lambda e: (e[1], e[0])):
            table.setdefault((k, i), {})[pair_at[(k, rr)]] = sol.entries[(rr, i)]
    out = DGC(sub, table)
    return out, DGCMap(out, c, incl)


def _old_jet_extract(tower):
    """The layers of the tower as kernels of its maps, and top's d split into
    blocks between them through sections of those maps."""
    problems = tower.validate()
    if problems:
        raise ValueError(problems[0])
    objs = tower.objects
    m = len(objs)
    layers = [objs[0]]
    incls = [identity_map(objs[0])]
    for j in range(1, m):
        q = tower.maps[j - 1]
        vectors = {k: _old_kernel_basis(q.block(k)) if q.source.dim(k) else [] for k in q.source.degrees()}
        layer, incl = _old_sub_dg(q.source, vectors, prefix=f"D{j + 1}")
        layers.append(layer)
        incls.append(incl)
    sections = []
    for j in range(1, m):
        q = tower.maps[j - 1]
        blocks = {}
        for k in q.target.degrees():
            sol = solve_matrix(q.block(k), QMatrix.identity(q.target.dim(k)))
            if sol is None:
                raise ValueError(f"tower map {j - 1} has no section in degree {k}")
            blocks[k] = sol
        sections.append(DGMap(q.target, q.source, blocks))
    embeds = []
    for j in range(m):
        e = incls[j]
        for s in sections[j:]:
            e = compose(s, e)
        embeds.append(e)
    top = objs[-1]
    degrees = sorted(set(top.basis) | {k + 1 for k in top.basis})
    phi = {k: QMatrix.hstack([e.block(k) for e in embeds]) for k in degrees}
    owner = {(k, r): (j, c) for j, incl in enumerate(sum_many(layers)[1], 1) for (k, c), r in _places(incl).items()}
    blocks = {}
    for k in degrees:
        if top.dim(k) == 0 or top.dim(k - 1) == 0:
            continue
        coords = solve_matrix(phi[k - 1], top.d(k) * phi[k])
        if coords is None:
            raise AssertionError("internal: splitting is not a graded isomorphism")
        split = {}
        for (r, c), v in coords.entries.items():
            (i, r_i), (j, c_j) = owner[(k - 1, r)], owner[(k, c)]
            if j > i:
                raise AssertionError("internal: differential escaped above the diagonal")
            split.setdefault((i, j), {})[(r_i, c_j)] = v
        for (i, j), ent in sorted(split.items()):
            blocks.setdefault((i, j), {})[k] = QMatrix(layers[i - 1].dim(k - 1), layers[j - 1].dim(k), ent)
    for i in range(1, m + 1):
        layer = layers[i - 1]
        for k in layer.degrees():
            got = blocks.get((i, i), {}).get(k, QMatrix.zero(layer.dim(k - 1), layer.dim(k)))
            if got != layer.d(k):
                raise AssertionError("internal: diagonal block is not the layer differential")
    return layers, blocks


def _old_to_dgc(c):
    words = c.words()
    index = {}
    basis = {}
    for k, ws in words.items():
        basis[k] = tuple(c.word_name(w) for w in ws)
        for i, w in enumerate(ws):
            index[w] = (k, i)
    diff = {}
    for k, ws in words.items():
        tgt = words.get(k - 1, ())
        if not tgt:
            continue
        cols = []
        for w in ws:
            col = [ZERO] * len(tgt)
            for x, v in c.d_word(w).items():
                col[index[x][1]] = v
            cols.append(tuple(col))
        diff[k] = QMatrix.from_columns(cols, len(tgt))
    table = {}
    for k, ws in words.items():
        for i, w in enumerate(ws):
            t = {(index[a], index[b]): v for (a, b), v in c.delta_word(w).items()}
            if t:
                table[(k, i)] = t
    return DGC(DG(basis, diff), table)


def _old_to_dgc_map(f):
    sdgc, tdgc = _old_to_dgc(f.source), _old_to_dgc(f.target)
    swords, twords = f.source.words(), f.target.words()
    blocks = {}
    for k, ws in swords.items():
        tws = twords.get(k, ())
        tindex = {w: i for i, w in enumerate(tws)}
        cols = []
        for w in ws:
            col = [ZERO] * len(tws)
            for x, v in f.apply_word(w).items():
                col[tindex[x]] = v
            cols.append(tuple(col))
        blocks[k] = QMatrix.from_columns(cols, len(tws))
    return DGCMap(sdgc, tdgc, DGMap(sdgc.underlying, tdgc.underlying, blocks))


# -- comparisons ---------------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, AssertionError) as e:
        return type(e).__name__, str(e)


def _key(x):
    """x as plain data to compare: the objects and maps with the order of their
    basis names and of their blocks, which equality leaves out; DGC and DGCMap
    are taken apart, so that their parts are compared in that order too."""
    if isinstance(x, DG):
        return x, list(x.basis.items())
    if isinstance(x, DGMap):
        return x, list(x.blocks), _key(x.source), _key(x.target)
    if isinstance(x, DGC):
        return _key(x.underlying), [(key, list(pairs.items())) for key, pairs in x.coproduct.items()]
    if isinstance(x, DGCMap):
        return _key(x.source), _key(x.target), _key(x.dgmap)
    if isinstance(x, (tuple, list)):
        return [_key(y) for y in x]
    return x


def _assert_same(got, want):
    assert _key(got) == _key(want)


def _as_lists(spans):
    return {k: m.columns() for k, m in spans.items()}


def _random_spans(rng, v):
    """Per degree: the cycles, the image of a random chain map, or random
    columns.  Only the last are seldom closed under d."""
    kind = rng.choice(["cycles", "image", "random"])
    if kind == "cycles":
        return {k: kernel_basis(v.d(k)) for k in v.degrees()}
    if kind == "image":
        f = random_chain_map(rng, random_dg(rng, -1, 3, 3, prefix="u"), v)
        return {k: f.block(k) for k in f.source.degrees() if k in v.basis}
    spans = {}
    for k in v.degrees():
        cols = [tuple(rat(rng.choice([0, 0, 1, -1, 2])) for _ in range(v.dim(k))) for _ in range(rng.randint(0, 3))]
        spans[k] = QMatrix.from_columns(cols, v.dim(k))
    return spans


def _random_cofree(rng, names, cap):
    """A cofree coalgebra on cogenerators of random degrees, with random linear
    and quadratic corestriction entries of degree -1."""
    degs = [rng.randint(2, 4) for _ in names]
    core = {}
    words = [(i,) for i in range(len(degs))] + [(i, j) for i in range(len(degs)) for j in range(i, len(degs))]
    for w in words:
        lower = [h for h, d in enumerate(degs) if d == sum(degs[i] for i in w) - 1]
        if lower and rng.random() < 0.6 and not (len(w) == 2 and w[0] == w[1] and degs[w[0]] % 2):
            core[w] = {rng.choice(lower): rat(rng.choice([1, -1, 2]))}
    return CofreeDGC(list(zip(names, degs)), cap, core)


def _random_coalgebra(rng):
    if rng.random() < 0.5:
        return _random_cofree(rng, ["a", "b", "c"][: rng.randint(1, 3)], rng.randint(5, 7))
    return cofree_lambda(random_dg(rng, min_deg=2, max_deg=4, max_pieces=3), rng.randint(5, 7))


def _fresh(c):
    """A copy of a cofree coalgebra whose expansion is not cached yet."""
    return CofreeDGC(c.cogenerators, c.cap, c.corestriction)


# -- tests ---------------------------------------------------------------------------


@st.composite
def _matrices(draw, max_dim=5):
    r, c = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(("drawn", "zero", "full rank")))
    if kind == "zero":
        return QMatrix.zero(r, c)
    entries = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])
    m = QMatrix.from_rows([[draw(entries) for _ in range(c)] for _ in range(r)]) if r else QMatrix.zero(0, c)
    # m on top of the identity: rank m.cols, an empty kernel
    return QMatrix.vstack([m, QMatrix.identity(c)]) if kind == "full rank" else m


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_kernel_matrix_columns_are_the_old_kernel_vectors(m):
    kernel, want = kernel_basis(m), _old_kernel_basis(m)
    assert (kernel.rows, kernel.cols) == (m.cols, len(want))
    assert kernel.columns() == want
    assert all(type(x) is Fraction and x for x in kernel.entries.values())
    assert (m * kernel).is_zero()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sub_dgs_and_the_dg_builders_on_them_match_the_list_code(seed):
    rng = Random(seed)
    v = random_dg(rng, -1, 3, 4)
    spans = _random_spans(rng, v)
    _assert_same(_outcome(sub_dg, v, spans, "s"), _outcome(_old_sub_dg, v, _as_lists(spans), "s"))
    for r in range(-2, 5):
        _assert_same(reduce_with_inclusion(r, v), _old_reduce_with_inclusion(r, v))
    _assert_same(homology(v), _old_homology(v))
    u, w = random_dg(rng, -1, 2, 3, prefix="u"), random_dg(rng, -1, 2, 3, prefix="w")
    _assert_same(chain_map_space(u, v), _old_chain_map_space(u, v))
    f, g = random_chain_map(rng, u, v), random_chain_map(rng, w, v)
    _assert_same(strict_pullback(f, g), _old_strict_pullback(f, g))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fixed_points_match_the_list_code(seed):
    rng = Random(seed)
    n = rng.randint(1, 3)
    x = random_dg(rng, -1, 2, 3)
    if n == 1:  # no action at all
        sym = SymmetricDG(x, 1, [])
    else:
        pw, swaps = _power_with_swaps(x, n)
        sign = rng.choice([1, -1])  # the swaps, or the swaps twisted by the sign
        sym = SymmetricDG(pw, n, [map_scale(sign, s) for s in swaps])
    _assert_same(sym_invariants(sym), _old_sym_invariants(sym))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_coalgebra_spans_and_expansions_match_the_list_code(seed):
    rng = Random(seed)
    lam = _random_coalgebra(rng)
    c = to_dgc(lam)
    _assert_same(c, _old_to_dgc(_fresh(lam)))
    for r in range(2, 6):
        got, want = _outcome(reduce_dgc, r, lam), _outcome(_old_reduce_dgc, r, lam)
        _assert_same(got, want)
    _assert_same(primitives_with_inclusion(c), _old_primitives_with_inclusion(c))
    spans = _random_spans(rng, c.underlying)
    for s in (spans, primitives_with_inclusion(c)[1].blocks):
        _assert_same(_outcome(_sub_dgc, c, _square(c.underlying), s, "s"), _outcome(_old_sub_dgc, c, _as_lists(s), "s"))
    other = _random_coalgebra(rng)
    other = CofreeDGC(other.cogenerators, lam.cap, other.corestriction)
    images = {}
    for i, d in enumerate(lam.deg):
        same = [h for h, e in enumerate(other.deg) if e == d]
        if same and rng.random() < 0.8:
            images[i] = {rng.choice(same): rat(rng.choice([1, -1, 2, Fraction(1, 3)]))}
    f = CofreeDGCMap(lam, other, images)
    _assert_same(f.to_dgc_map(), _old_to_dgc_map(CofreeDGCMap(_fresh(lam), _fresh(other), images)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_jets_match_the_list_code(seed):
    rng = Random(seed)
    lam = cofree_lambda(random_dg(rng, min_deg=2, max_deg=3, max_pieces=3), 6)
    tower = cobar_tower(lam, rng.randint(1, 3), 6)
    layers, blocks = _old_jet_extract(tower)
    # the old layers from the second on are kernels, named D<s><k>_<i>: they
    # agree with the tower's in their differentials, not in their names
    assert [{k: len(xs) for k, xs in g.basis.items()} for g in tower.layers] == [{k: len(xs) for k, xs in g.basis.items()} for g in layers]
    assert [g.diff for g in tower.layers] == [g.diff for g in layers]
    assert tower.blocks == blocks
    assert [(key, list(b)) for key, b in tower.blocks.items()] == [(key, list(b)) for key, b in blocks.items()]
    # d lowers the level, so stage 1 is no quotient complex: both reject it with the same message
    bad = Tower(DG({2: ("u",), 3: ("w",)}, {3: QMatrix(1, 1, {(0, 0): ONE})}), {2: [1], 3: [2]}, 2)
    assert _outcome(jet_extract, bad) == _outcome(_old_jet_extract, bad)
