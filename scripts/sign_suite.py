"""Randomized sign-integrity sweep.

Builds random inputs for each structural construction and runs the exact
validators (d^2 = 0, Jacobi, coassociativity, Delta a chain map).  Any report
line is a bug.
"""

import argparse
import random

from rht.calculus import join, test_cube
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
from rht.randgen import random_chain_map, random_dg


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
    print(f"{args.count} rounds, {bad} failures")
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__":
    main()
