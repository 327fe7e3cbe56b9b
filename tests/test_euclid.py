from math import gcd

import pytest
from hypothesis import given, strategies as st

import jumpseq.euclid as euclid
from jumpseq.euclid import bezout, euclid_data


def test_chain_5_3():
    ed = euclid_data(5, 3)
    assert ed.N == 3
    assert ed.f == [1, 1, 2]
    assert ed.epsilon == 4


def test_chain_3_2():
    ed = euclid_data(3, 2)
    assert ed.f == [1, 2]
    assert ed.epsilon == 3


def test_chain_q_one():
    ed = euclid_data(5, 1)
    assert ed.f == [5]
    assert ed.epsilon == 5


def test_chain_requires_coprime():
    with pytest.raises(ValueError):
        euclid_data(4, 2)


def test_bezout_oracles():
    assert bezout(3, 2) == (2, 1)
    assert bezout(5, 3) == (2, 1)
    assert bezout(5, 1) == (1, 0)
    assert bezout(1, 4) == (1, 3)


def test_bezout_checks_its_identity(monkeypatch):
    """A wrong modular inverse is caught by an explicit check, which also
    holds under python -O."""
    monkeypatch.setattr(euclid, "pow", lambda *args: 1, raising=False)
    with pytest.raises(ArithmeticError):
        bezout(5, 3)


coprime_pairs = st.tuples(st.integers(1, 60), st.integers(1, 60)).filter(
    lambda pq: gcd(pq[0], pq[1]) == 1
)


@given(coprime_pairs)
def test_bezout_identity_and_bounds(pq):
    p, q = pq
    a, b = bezout(p, q)
    assert a * q - b * p == 1
    assert 0 < a <= p
    assert 0 <= b < max(q, 1)


@given(coprime_pairs, st.integers(0, 40))
def test_epsilon_is_quotient_sum(pq, s):
    """Also eps(s*q + p, q) = s + eps(p, q): the first quotient grows by
    exactly s and the chain is otherwise the same, so a chunk's length
    kbar_l - kbar_{l-1} equals eps(pbar_l, qbar_l) by construction."""
    p, q = pq
    ed = euclid_data(p, q)
    # replay the division chain independently
    r0, r1, quotients = p, q, []
    while r1:
        quotients.append(r0 // r1)
        r0, r1 = r1, r0 % r1
    assert ed.f == quotients
    assert ed.epsilon == sum(quotients)
    assert ed.N == len(quotients)
    assert euclid_data(s * q + p, q).epsilon == s + ed.epsilon
