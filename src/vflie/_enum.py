"""Shared enumeration helpers: exponent vectors, weighted vectors, tails."""

from __future__ import annotations

from math import comb as binom

__all__ = ["binom", "monomials_of_degree", "weighted_vectors", "bounded_tails"]


def _bounded_vectors(weights, caps, total: int):
    """All b in N^r, r = len(weights), with sum(weights[i] * b_i) == total
    and b_i <= caps[i], lexicographically increasing.  Prefixes grow one
    coordinate at a time, each in increasing order, and the last coordinate
    takes whatever weight is left, if it can."""
    if not weights:
        return [()] if total == 0 else []
    level = [((), total)]
    for w, cap in zip(weights[:-1], caps):
        level = [
            (prefix + (b,), left - w * b)
            for prefix, left in level
            for b in range(min(cap, left // w) + 1)
        ]
    w, cap = weights[-1], caps[-1]
    return [prefix + (left // w,) for prefix, left in level if left % w == 0 and left // w <= cap]


def monomials_of_degree(nvars: int, degree: int):
    """All exponent vectors of the given total degree, lex increasing."""
    return _bounded_vectors((1,) * nvars, (degree,) * nvars, degree)


def weighted_vectors(r: int, weight: int):
    """All b in N^r with sum(i * b_i) == weight, coordinates weighted 1..r,
    lex increasing."""
    return _bounded_vectors(range(1, r + 1), (weight,) * r, weight)


def bounded_tails(r: int, weight: int):
    """All a in N^r with a_i < i (1-based) and sum a_i == weight, lex increasing."""
    return _bounded_vectors((1,) * r, range(r), weight)
