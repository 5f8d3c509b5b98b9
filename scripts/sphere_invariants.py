"""Rational homotopy and homology of sphere models.

Reproduces the classical table: pi_*(S^n) (x) Q is Q in degree n for n odd,
and Q in degrees n and 2n-1 for n even.
"""

import argparse

from rht.quillen import rational_homology, rational_homotopy, sphere_model


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--cap", type=int, default=16)
    args = ap.parse_args()
    for n in range(2, args.max_n + 1):
        c = sphere_model(n)
        pi = rational_homotopy(c, args.cap)
        h = rational_homology(c, args.cap)
        pi_str = ", ".join(f"pi_{k}=Q^{v}" for k, v in sorted(pi.items()) if v)
        h_str = ", ".join(f"H_{k}=Q^{v}" for k, v in sorted(h.items()) if v)
        print(f"S^{n}:  {pi_str}  |  {h_str}")


if __name__ == "__main__":
    main()
