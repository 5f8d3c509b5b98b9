"""Expected answers computed without the code under test."""

from __future__ import annotations

import math


def free_lie_ranks(gen_degrees, top: int) -> list[int]:
    """Ranks l_0..l_top of the free graded Lie algebra on generators of the given degrees.

    By Poincare-Birkhoff-Witt the enveloping algebra, the tensor algebra with
    series 1 / (1 - sum t^d), has the series of the graded symmetric algebra on
    the Lie algebra: a factor 1 / (1 - t^k) per even-degree basis element and
    an exterior factor (1 + t^k) per odd one.  Peeling factors degree by degree
    gives each l_k.
    """
    tensor = [1] + [0] * top
    for n in range(1, top + 1):
        tensor[n] = sum(tensor[n - d] for d in gen_degrees if d <= n)
    ranks = [0] * (top + 1)
    series = [1] + [0] * top  # product of the factors for degrees < k
    for k in range(1, top + 1):
        ranks[k] = tensor[k] - series[k]
        for _ in range(ranks[k]):
            if k % 2 == 0:
                for n in range(k, top + 1):
                    series[n] += series[n - k]
            else:
                for n in range(top, k - 1, -1):
                    series[n] += series[n - k]
    return ranks


def wedge_homotopy(sphere_degrees, cap: int) -> dict[str, int]:
    """Rational homotopy ranks pi_1..pi_cap of a wedge of spheres, as the CLI's JSON reports them.

    The Quillen model is the free Lie algebra on the desuspended spheres, and
    pi_{k+1} is its degree-k part.
    """
    ranks = free_lie_ranks([d - 1 for d in sphere_degrees], cap - 1)
    return {str(k): ranks[k - 1] for k in range(1, cap + 1)}


def kunneth(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Homology dimensions of a tensor product over a field."""
    out: dict[int, int] = {}
    for i, m in a.items():
        for j, n in b.items():
            out[i + j] = out.get(i + j, 0) + m * n
    return {k: v for k, v in out.items() if v}


def shift(h: dict[int, int], by: int, times: int = 1) -> dict[int, int]:
    return {k + by: v * times for k, v in h.items() if v * times}


def lie_dim(n: int) -> int:
    """dim Lie(n) = (n - 1)!."""
    return math.factorial(n - 1)
