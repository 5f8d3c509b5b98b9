"""Seeded inputs whose homology is known by construction.

A generated DG is a direct sum of spheres (one class, d = 0) and disks
(top a in degree k, bottom b in degree k - 1, d a = b), written in a random
basis per degree.  Its homology is the count of spheres per degree, so the
oracles never ask the code under test for it.  Chain maps are drawn in the
canonical basis, where every chain map is easy to write down, and then
conjugated into the random bases.

Only constructors (`DG`, `DGMap`, `QMatrix`) and matrix products are used, so
the inputs do not change when the elimination or homology code changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from rht.dgcore import DG, DGMap
from rht.exactq import QMatrix

ONE = Fraction(1)


@dataclass(frozen=True)
class GenDG:
    """A DG with its homology and the data to draw chain maps out of or into it."""

    dg: DG
    homology: dict[int, int]
    # per degree: ("s", i) sphere, ("t", i) disk top, ("b", i) disk bottom
    roles: dict[int, tuple[tuple[str, int], ...]]
    # per degree (P, P^-1): generated coordinates = P * canonical coordinates
    change: dict[int, tuple[QMatrix, QMatrix]]

    def dim(self, k: int) -> int:
        return len(self.roles.get(k, ()))


def _random_invertible(rng: Random, n: int) -> tuple[QMatrix, QMatrix]:
    """A product of shears with small integer entries, and its inverse."""
    m, inv = QMatrix.identity(n), QMatrix.identity(n)
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        diag = {(r, r): ONE for r in range(n)}
        m = QMatrix(n, n, {**diag, (i, j): c}) * m
        inv = inv * QMatrix(n, n, {**diag, (i, j): -c})
    return m, inv


def random_pieces(rng: Random, min_deg: int = 0, max_deg: int = 4, max_pieces: int = 4) -> list[tuple[str, int]]:
    """Spheres ("s", k) and disks ("d", k) in degrees [min_deg, max_deg]."""
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        k = rng.randint(min_deg, max_deg)
        pieces.append(("s", k) if rng.random() < 0.5 or k == min_deg else ("d", k))
    return pieces


def layout_dg(rng: Random, pieces, prefix: str = "x") -> GenDG:
    """Spheres ("s", k) and disks ("d", k) with top in degree k, in a random basis."""
    roles: dict[int, list[tuple[str, int]]] = {}
    homology: dict[int, int] = {}
    for piece, (kind, k) in enumerate(pieces):
        if kind == "s":
            roles.setdefault(k, []).append(("s", piece))
            homology[k] = homology.get(k, 0) + 1
        else:
            roles.setdefault(k, []).append(("t", piece))
            roles.setdefault(k - 1, []).append(("b", piece))
    frozen = {k: tuple(r) for k, r in sorted(roles.items())}
    change = {k: _random_invertible(rng, len(r)) for k, r in frozen.items()}
    basis = {k: tuple(f"{prefix}{k}_{i}" for i in range(len(r))) for k, r in frozen.items()}
    diff = {}
    for k, r in frozen.items():
        if k - 1 not in frozen:
            continue
        below = {role: i for i, role in enumerate(frozen[k - 1])}
        ent = {(below[("b", p)], i): ONE for i, (kind, p) in enumerate(r) if kind == "t"}
        if ent:
            canon = QMatrix(len(frozen[k - 1]), len(r), ent)
            diff[k] = change[k - 1][0] * (canon * change[k][1])
    return GenDG(DG(basis, diff), homology, frozen, change)


def random_chain_map(rng: Random, v: GenDG, w: GenDG) -> DGMap:
    """A chain map with coefficients in -2..2 on the canonical generators.

    A sphere goes to a combination of cycles (spheres and disk bottoms); a disk
    top goes anywhere and its bottom goes to the boundary of that image.
    """
    blocks = {}
    canon: dict[int, dict[tuple[int, int], Fraction]] = {}
    for k, roles in v.roles.items():
        targets = w.roles.get(k, ())
        for j, (kind, piece) in enumerate(roles):
            if kind == "b":
                continue
            image = {}
            for i, (tkind, _) in enumerate(targets):
                if kind == "s" and tkind == "t":
                    continue
                c = rng.randint(-2, 2)
                if c:
                    image[i] = Fraction(c)
            col = canon.setdefault(k, {})
            for i, c in image.items():
                col[(i, j)] = c
            if kind == "t":
                below_v = v.roles[k - 1].index(("b", piece))
                below_w = {role: i for i, role in enumerate(w.roles.get(k - 1, ()))}
                bcol = canon.setdefault(k - 1, {})
                for i, c in image.items():
                    tkind, tpiece = targets[i]
                    if tkind == "t":
                        bcol[(below_w[("b", tpiece)], below_v)] = c
    for k, ent in canon.items():
        if not ent or k not in w.roles:
            continue
        m = QMatrix(w.dim(k), v.dim(k), ent)
        blocks[k] = w.change[k][0] * (m * v.change[k][1])
    return DGMap(v.dg, w.dg, blocks)
