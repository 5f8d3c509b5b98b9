"""Taylor tower layers of a cobar Lie model against the derivative formula.

For each bracket length n the layer of the word-length filtration of L(C)
is compared with Lie(n) (x) (s^-1 C~)^{(x)n}, coinvariants taken with the
sign-twisted action, placed in degree 1-n.
"""

import argparse

from rht.calculus import taylor_layers_cobar
from rht.dgc import cofree_lambda
from rht.dgcore import DG
from rht.quillen import sphere_model


def pick_model(name: str, cap: int):
    if name.startswith("s") and name[1:].isdigit():
        return sphere_model(int(name[1:]))
    if name == "polynomial":
        return cofree_lambda(DG({2: ("v",)}), cap + 1)
    if name == "exterior":
        return cofree_lambda(DG({3: ("w",)}), cap + 1)
    raise SystemExit(f"unknown model {name!r} (use sN, polynomial, exterior)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("model", nargs="?", default="s2")
    ap.add_argument("-n", type=int, default=3)
    ap.add_argument("--cap", type=int, default=9)
    args = ap.parse_args()
    c = pick_model(args.model, args.cap)
    _, _, report = taylor_layers_cobar(c, args.n, args.cap)
    for k in sorted(report):
        r = report[k]
        flag = "ok" if r["match"] else "MISMATCH"
        print(f"n={k}: layer {r['layer']}  formula {r['formula']}  [{flag}]")
    raise SystemExit(0 if all(r["match"] for r in report.values()) else 1)


if __name__ == "__main__":
    main()
