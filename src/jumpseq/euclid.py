"""Euclidean division chains and the Bezout pair used by blow-up chunks."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import List


@dataclass(frozen=True)
class EuclidData:
    """The division chain r_0 = p, r_1 = q, r_{i-1} = f_i r_i + r_{i+1}.

    ``N`` is the number of divisions until the remainder hits zero,
    ``f`` the successive quotients and ``epsilon`` their sum
    f_1 + ... + f_N.
    """

    p: int
    q: int
    N: int
    f: List[int] = field(default_factory=list)
    epsilon: int = 0


def euclid_data(p: int, q: int) -> EuclidData:
    if p <= 0 or q <= 0:
        raise ValueError("euclid_data requires positive integers, got (%d, %d)" % (p, q))
    if gcd(p, q) != 1:
        raise ValueError("euclid_data requires coprime integers, got (%d, %d)" % (p, q))
    r0, r1 = p, q
    f = []
    while r1 > 0:
        f.append(r0 // r1)
        r0, r1 = r1, r0 % r1
    return EuclidData(p=p, q=q, N=len(f), f=f, epsilon=sum(f))


def bezout(p: int, q: int):
    """The unique (a, b) with a*q - b*p = 1, a <= p and b < q."""
    if gcd(p, q) != 1:
        raise ValueError("bezout requires coprime integers, got (%d, %d)" % (p, q))
    if p == 1:
        return (1, q - 1)
    a = pow(q, -1, p)
    b = (a * q - 1) // p
    if not (a * q - b * p == 1 and 0 < a <= p and 0 <= b < q):
        raise ArithmeticError("Bezout pair (%d, %d) fails a*q - b*p = 1 for (p, q) = (%d, %d)"
                              % (a, b, p, q))
    return (a, b)
