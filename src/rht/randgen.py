"""Deterministic random generators for test and acceptance suites.

Random DGs are built as direct sums of elementary pieces (spheres and disks)
conjugated by random invertible degree-preserving changes of basis, so d^2 = 0
holds by construction while differentials look arbitrary.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .dgcore import DG, DGMap, chain_map_space, compose, map_add, map_scale, strict_pullback
from .exactq import ONE, QMatrix


def _random_invertible(rng: Random, n: int) -> tuple[QMatrix, QMatrix]:
    """Random invertible n x n matrix and its inverse, via elementary ops."""
    m = QMatrix.identity(n)
    inv = QMatrix.identity(n)
    for _ in range(2 * n):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = Fraction(rng.randint(-2, 2))
            if c == 0:
                continue
            e = QMatrix.identity(n) + QMatrix(n, n, {(i, j): c})
            einv = QMatrix.identity(n) + QMatrix(n, n, {(i, j): -c})
        elif kind == 1:
            c = Fraction(rng.choice([1, -1, 2, Fraction(1, 2)]))
            e = QMatrix.identity(n) + QMatrix(n, n, {(i, i): c - 1})
            einv = QMatrix.identity(n) + QMatrix(n, n, {(i, i): 1 / c - 1})
        else:
            if i == j:
                continue
            ent = {(k, k): ONE for k in range(n) if k not in (i, j)}
            ent[(i, j)] = ONE
            ent[(j, i)] = ONE
            e = QMatrix(n, n, ent)
            einv = e
        m = e * m
        inv = inv * einv
    return m, inv


def random_dg(
    rng: Random,
    min_deg: int = 0,
    max_deg: int = 4,
    max_pieces: int = 4,
    prefix: str = "x",
) -> DG:
    """Random DG supported in [min_deg, max_deg]."""
    dims: dict[int, int] = {}
    diff_pairs: list[tuple[int, int, int]] = []  # (degree k, src index, tgt index)
    npieces = rng.randint(1, max_pieces)
    for _ in range(npieces):
        k = rng.randint(min_deg, max_deg)
        if rng.random() < 0.5 or k == min_deg:
            dims[k] = dims.get(k, 0) + 1  # sphere
        else:
            a = dims.get(k, 0)
            b = dims.get(k - 1, 0)
            dims[k] = a + 1
            dims[k - 1] = b + 1
            diff_pairs.append((k, a, b))
    basis = {k: tuple(f"{prefix}{k}_{i}" for i in range(n)) for k, n in dims.items()}
    diff = {}
    for k in dims:
        ent = {}
        for (kk, a, b) in diff_pairs:
            if kk == k:
                ent[(b, a)] = ONE
        if dims.get(k - 1) and ent:
            diff[k] = QMatrix(dims[k - 1], dims[k], ent)
    v = DG(basis, diff)
    # conjugate by random change of basis per degree
    ps = {k: _random_invertible(rng, v.dim(k)) for k in v.degrees()}
    new_diff = {}
    for k in v.degrees():
        if v.dim(k - 1) and k in v.diff:
            p_t, _ = ps[k - 1]
            _, p_s_inv = ps[k]
            new_diff[k] = p_t * (v.d(k) * p_s_inv)
    return DG(basis, new_diff)


def random_chain_map(rng: Random, v: DG, w: DG) -> DGMap:
    """Random rational combination of a basis of the chain map space."""
    basis = chain_map_space(v, w)
    if not basis:
        return DGMap(v, w, {})
    out = DGMap(v, w, {})
    for b in basis:
        c = rng.randint(-2, 2)
        if c:
            out = map_add(out, map_scale(c, b))
    return out


def random_commuting_square(rng: Random, min_deg: int = 0, max_deg: int = 3):
    """Random commuting square (s: U->W, t: U->V, f: W->X, g: V->X) with fs = gt."""
    x = random_dg(rng, min_deg, max_deg, prefix="x")
    w = random_dg(rng, min_deg, max_deg, prefix="w")
    v = random_dg(rng, min_deg, max_deg, prefix="v")
    f = random_chain_map(rng, w, x)
    g = random_chain_map(rng, v, x)
    pb, pw, pv = strict_pullback(f, map_scale(-1, g))
    u = random_dg(rng, min_deg, max_deg, prefix="u")
    h = random_chain_map(rng, u, pb)
    s = compose(pw, h)
    t = compose(pv, h)
    return s, t, f, g
