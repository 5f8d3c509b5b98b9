"""Randomized sign-integrity sweep.

Builds random inputs for each structural construction and runs the exact
validators (d^2 = 0, Jacobi, coassociativity, Delta a chain map).  Any report
line is a bug.  Every tenth round also checks the symmetric-group action on
the cross effects cr_n F(x, ..., x), n = 2..4, of the identity, the tensor
square and the cofree Lambda functor: the action must validate, and a copy
with one off-diagonal action entry negated must be reported as no longer an
involution.
"""

import argparse
import random

from rht.calculus import IdentityFunctor, LambdaFunctor, TensorPowerFunctor, cross_effect, join, test_cube
from rht.dgc import (
    cofree_lambda,
    dgc_ho_pushout,
    dgc_validate,
    identity_dgc_map,
    suspension_dgc,
    to_dgc,
    trivial_dgc,
)
from rht.dgcore import (
    DGMap,
    SymmetricDG,
    big_loops,
    big_suspension,
    cone_dg,
    ho_cube,
    ho_square,
    paths_dg,
    tensor_dg,
    validate_dg,
)
from rht.dgl import abelian_dgl, dgl_ho_pullback, dgl_validate, identity_dgl_map, zero_dgl_map
from rht.exactq import QMatrix
from rht.randgen import random_chain_map, random_dg

CROSS_EFFECT_FUNCTORS = (IdentityFunctor(), TensorPowerFunctor(2), LambdaFunctor(6))


def negate_one_entry(sym: SymmetricDG):
    """(i, sym with the first off-diagonal entry of generator i negated), or
    None when the action has no such entry.  The generators are signed
    permutations, so generator i is then no longer an involution."""
    for i, a in enumerate(sym.action):
        for k, m in sorted(a.blocks.items()):
            flipped = m.scale(-1)  # keeps the shared -1 and 1 entries
            for rc in sorted(m.entries):
                if rc[0] != rc[1]:
                    blocks = dict(a.blocks)
                    blocks[k] = QMatrix(m.rows, m.cols, {**m.entries, rc: flipped.entries[rc]})
                    action = list(sym.action)
                    action[i] = DGMap(a.source, a.target, blocks)
                    return i, SymmetricDG(sym.underlying, sym.n, action)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    bad = 0
    for i in range(args.count):
        v, w = random_dg(rng, 0, 3), random_dg(rng, 0, 3)
        checks = [tensor_dg(v, w), cone_dg(v)[0], paths_dg(v)[0],
                  big_suspension(v)[0], big_loops(v)[0]]
        c = random_dg(rng, 0, 2)
        checks.append(ho_square("pullback", random_chain_map(rng, v, c),
                                random_chain_map(rng, w, c))[0])
        cu = test_cube(rng.choice((2, 3)), random_dg(rng, 1, 3, 1))
        checks.append(ho_cube("limit", cu, cap=5))
        for x in checks:
            r = validate_dg(x)
            if r:
                bad += 1
                print(f"[{i}] {r[0]}")
        a, b = abelian_dgl(random_dg(rng, 1, 3)), abelian_dgl(random_dg(rng, 1, 3))
        r = dgl_validate(dgl_ho_pullback(zero_dgl_map(a, b), identity_dgl_map(b))[0])
        if r:
            bad += 1
            print(f"[{i}] dgl: {r[0]}")
        ca = trivial_dgc(random_dg(rng, 1, 3))
        # cofree expansions carry a nonzero coproduct, so Delta's identities are exercised
        lam = to_dgc(cofree_lambda(random_dg(rng, 2, 4), 8))
        coalgebras = [dgc_ho_pushout(identity_dgc_map(ca), identity_dgc_map(ca))[0], lam, suspension_dgc(lam)]
        coalgebras += [join(trivial_dgc(random_dg(rng, 1, 3)), t) for t in (1, 2, 3)]
        for x in coalgebras:
            r = dgc_validate(x)
            if r:
                bad += 1
                print(f"[{i}] dgc: {r[0]}")
        if i % 10:
            continue
        for f in CROSS_EFFECT_FUNCTORS:
            for n in (2, 3, 4):
                name = f"cr_{n} {type(f).__name__}"
                cr = cross_effect(f, n, [random_dg(rng, 2, 3, 1)] * n)
                r = cr.validate()
                if r:
                    bad += 1
                    print(f"[{i}] {name}: {r[0]}")
                corrupted = negate_one_entry(cr)
                if corrupted is not None and f"generator {corrupted[0]} is not an involution" not in corrupted[1].validate():
                    bad += 1
                    print(f"[{i}] {name}: a negated action entry is not reported")
    print(f"{args.count} rounds, {bad} failures")
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__":
    main()
