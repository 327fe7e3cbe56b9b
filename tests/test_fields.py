import random
import time
from fractions import Fraction

import pytest

from jumpseq.errors import InvalidSpecError, JumpseqError
from jumpseq.fields import Fp, GroundField, QQ, _MR_BOUND, _is_prime, prime_field


def test_rationals_coercion():
    assert QQ(3) == Fraction(3)
    assert QQ("3/4") == Fraction(3, 4)
    assert QQ(Fraction(1, 2)) == Fraction(1, 2)
    assert QQ.zero == 0 and QQ.one == 1


def test_rationals_render_parse_roundtrip():
    for s in ["0", "1", "-2", "3/4", "-5/7"]:
        assert QQ.render(QQ.parse(s)) == s


def test_rationals_render_past_digit_limit():
    """Numerators and denominators with more digits than str() makes
    render exactly."""
    digits = "".join(str(k % 10) for k in range(1, 5001))
    n = 0
    for d in digits:
        n = 10 * n + int(d)
    assert QQ.render(Fraction(-n, 7)) == "-%s/7" % digits
    assert QQ.render(Fraction(1, n)) == "1/" + digits
    assert QQ.render(Fraction(n * 10 ** 600)) == digits + "0" * 600


def test_prime_field_arithmetic():
    F = prime_field(7)
    a, b = F(3), F(5)
    assert a + b == F(1)
    assert a * b == F(1)
    assert a - b == F(5)
    assert b / a == F(4)
    assert a ** 6 == F(1)
    assert -a == F(4)


def test_prime_field_render():
    F = prime_field(101)
    assert F.render(F(-1)) == "100"
    assert F.render(F("13")) == "13"


def test_prime_field_parses_fractions():
    F = prime_field(101)
    assert F.parse("1/2") == F(51) and F.parse("1/2") * 2 == F.one
    assert F.parse("-3/4") * 4 == F(-3)
    assert F.parse("7/1") == F(7)


def test_prime_field_rejects_zero_denominator():
    F = prime_field(101)
    for s in ("1/0", "1/101", "3/-202"):
        with pytest.raises(JumpseqError):
            F.parse(s)


def test_parse_rejects_malformed_literals():
    """A literal that is not an integer or fraction, or divides by zero, is
    bad input data (InvalidSpecError), not a ValueError, ZeroDivisionError
    or TypeError."""
    for fld in (QQ, prime_field(101)):
        for s in ("abc", "1/0", "", "1/x", 1.5):
            with pytest.raises(InvalidSpecError):
                fld.parse(s)


def test_field_json_roundtrip():
    for fld in (QQ, prime_field(101)):
        assert GroundField.from_json(fld.to_json()) == fld


def test_invalid_fields_rejected():
    with pytest.raises(ValueError):
        GroundField(6)


def test_primality_is_decided_fast_and_exactly():
    """Miller-Rabin on the first 13 prime bases: 2^61 - 1 is accepted in
    well under a second (trial division took about 80 s); 2^61 + 1, the
    Carmichael numbers 561 and 41041 and the least strong pseudoprimes to
    the first 9 and the first 12 prime bases are refused; below 20 000 and
    on random numbers up to the bound the answer is sympy's."""
    sympy = pytest.importorskip("sympy")
    start = time.perf_counter()
    assert GroundField.from_json({"kind": "prime", "p": 2 ** 61 - 1}).characteristic == 2 ** 61 - 1
    assert time.perf_counter() - start < 0.1
    for n in (2 ** 61 + 1, 561, 41041, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError):
            GroundField(n)
        with pytest.raises(InvalidSpecError, match="not a prime"):
            GroundField.from_json({"kind": "prime", "p": n})
    assert [n for n in range(-2, 20000) if _is_prime(n) != sympy.isprime(n)] == []
    rng = random.Random(0)
    for n in [rng.randrange(_MR_BOUND) for _ in range(300)] + [_MR_BOUND - 168]:
        assert _is_prime(n) == sympy.isprime(n), n


def test_primality_refused_past_bound():
    """At or past the bound below which the 13 bases decide primality, a
    field is refused as bad input, prime or not."""
    for n in (_MR_BOUND, 10 ** 29 + 319):
        with pytest.raises(InvalidSpecError, match="too large"):
            GroundField.from_json({"kind": "prime", "p": n})


def test_primality_is_decided_once(monkeypatch):
    """``from_json`` leaves primality to the constructor, so a prime spec
    costs one Miller-Rabin run, and a composite one is refused after one."""
    import jumpseq.fields as fields
    calls = []
    monkeypatch.setattr(fields, "_is_prime", lambda n: calls.append(n) or _is_prime(n))
    assert GroundField.from_json({"kind": "prime", "p": 2 ** 61 - 1}).characteristic == 2 ** 61 - 1
    assert calls == [2 ** 61 - 1]
    calls.clear()
    with pytest.raises(InvalidSpecError, match="not a prime"):
        GroundField.from_json({"kind": "prime", "p": 561})
    assert calls == [561]


def test_huge_characteristic_refused_without_decimal():
    """p = 10^5000 has more digits than str() makes, so the refusal gives
    its size in bits rather than p itself, from the constructor as from
    input data."""
    for make in (lambda n: GroundField(n),
                 lambda n: GroundField.from_json({"kind": "prime", "p": n})):
        with pytest.raises(InvalidSpecError, match="16610 bits is too large"):
            make(10 ** 5000)


def test_cross_field_elements_rejected():
    F7, F11 = prime_field(7), prime_field(11)
    with pytest.raises(ValueError):
        F11(Fp(3, 7))
    assert F7(Fp(3, 7)) == F7(3)


def test_prime_field_elements_never_equal_ints():
    """An element of F_p is equal to no int, since it cannot hash as every
    int of its residue class: Fp(1, 5) equals neither 1 nor 6, and sets and
    dict keys keep it apart from both."""
    one = Fp(1, 5)
    assert one != 1 and one != 6 and 1 != one
    assert not Fp(0, 7) and Fp(0, 7) != 0
    assert len({one, 1, 6}) == 3 and {1: "int"}.get(one) is None
    assert one == prime_field(5)(6) and one + 5 == one
