"""Ground fields with exact arithmetic: the rationals and prime fields.

A :class:`GroundField` is a small factory/descriptor object.  Elements of
the rationals are plain :class:`fractions.Fraction`; elements of a prime
field are :class:`Fp` instances.  Both have decidable equality and exact
inverses, which is all the rest of the library needs.

A coefficient is written out by one function, :func:`render`, from its
numerator and denominator, whether it comes from a field element, a
polynomial's integer form or an expansion's.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import InvalidSpecError


#: The first 13 primes.  Miller-Rabin to these bases decides primality
#: exactly below :data:`_MR_BOUND` (Sorenson and Webster, "Strong
#: pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether ``n`` is prime, by deterministic Miller-Rabin.  An ``n`` at
    or past :data:`_MR_BOUND`, where these bases no longer decide, raises
    :class:`InvalidSpecError`."""
    if n >= _MR_BOUND:  # n may be past the digit limit of str(), so give its size
        raise InvalidSpecError("field characteristic of %d bits is too large: primality is "
                               "decided only below %d" % (n.bit_length(), _MR_BOUND))
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # no prime factor up to sqrt(n)
        return True
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _digits(n: int) -> str:
    """The decimal digits of n, also past the interpreter's limit on
    int-to-string conversion: made in chunks of 600 digits, fewer than the
    least limit it accepts."""
    m, chunks = abs(n), []
    while m:
        m, r = divmod(m, 10 ** 600)
        chunks.append("%0600d" % r)
    return "-" * (n < 0) + ("".join(reversed(chunks)).lstrip("0") or "0")


def render(n: int, den: int, p: int) -> str:
    """The coefficient n/den (den = 1 over F_p) as a report writes it, with
    no field element made: the residue in [0, p) over F_p; over Q lowest
    terms with the sign on the numerator, ``"n"`` when the denominator is
    1, and :func:`_digits` past the digits ``str()`` may make.
    :meth:`GroundField.render` passes its element's integers, and
    polynomials and expansions their integer forms."""
    if p:
        return str(n % p)
    g = gcd(n, den)
    n, den = n // g, den // g
    try:
        return str(n) if den == 1 else "%d/%d" % (n, den)
    except ValueError:  # more digits than str() may make
        return _digits(n) + ("/" + _digits(den) if den != 1 else "")


class Fp:
    """An element of the prime field with ``p`` elements.

    Arithmetic coerces plain integers, so ``Fp(3, 7) + 5`` works.  Equality
    does not: an element would equal every int of its residue class, which
    no hash can follow, so ``Fp(0, 7) == 0`` is false and ``bool`` tests for
    zero.
    """

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixed prime fields: %d vs %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.val + o.val, self.p)

    __radd__ = __add__

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.val * o.val, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "Fp":
        if self.val == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        return Fp(pow(self.val, -1, self.p), self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return Fp(pow(self.val, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.val == other.val
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "Fp(%d, %d)" % (self.val, self.p)

    def __str__(self):
        return str(self.val)


@dataclass(frozen=True)
class GroundField:
    """The coefficient field: the rationals or a prime field, fixed by its
    characteristic, 0 for the rationals and the prime p otherwise.

    Calling the field coerces ints, Fractions, strings and existing
    elements into field elements; over F_p a string may be a fraction
    ``"a/b"``, read as a * b^-1.  ``zero``, ``one`` and ``element_type``
    (``Fraction`` or ``Fp``) are computed once per field object.
    """

    characteristic: int

    def __post_init__(self):
        if self.characteristic and not _is_prime(self.characteristic):
            raise ValueError("characteristic %r is not prime" % (self.characteristic,))

    @property
    def kind(self) -> str:
        """``"rationals"`` or ``"prime"``, as the JSON form names the field."""
        return "prime" if self.characteristic else "rationals"

    def __call__(self, x):
        if not self.characteristic:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
            if isinstance(x, str):
                return Fraction(x)
            raise TypeError("cannot coerce %r into the rationals" % (x,))
        # prime field
        if isinstance(x, Fp):
            if x.p != self.characteristic:
                raise ValueError("element of F_%d is not in F_%d" % (x.p, self.characteristic))
            return x
        if isinstance(x, int):
            return Fp(x, self.characteristic)
        if isinstance(x, str):
            return self._parse_prime(x)
        raise TypeError("cannot coerce %r into F_%d" % (x, self.characteristic))

    def _parse_prime(self, s: str) -> Fp:
        """``"a"`` or ``"a/b"`` as a * b^-1 in F_p; b must not be 0 mod p."""
        p = self.characteristic
        num, slash, den = s.partition("/")
        b = int(den) if slash else 1
        if b % p == 0:
            raise InvalidSpecError("%r has a denominator divisible by %d" % (s, p))
        return Fp(int(num), p) / Fp(b, p)

    @cached_property
    def zero(self):
        return self(0)

    @cached_property
    def one(self):
        return self(1)

    @cached_property
    def element_type(self) -> type:
        return Fp if self.characteristic else Fraction

    def render(self, e) -> str:
        """Canonical decimal string: ``num/den`` over Q, ``0 <= c < p`` over
        F_p, as :func:`render` writes the element's integers."""
        x, p = self(e), self.characteristic
        return render(x.val, 1, p) if p else render(x.numerator, x.denominator, 0)

    def parse(self, s: str):
        """A field element from input data; a literal that is not an
        integer or fraction (``"abc"``, ``1.5``, ``true``), or has a zero
        denominator, raises :class:`InvalidSpecError`."""
        if isinstance(s, bool):
            raise InvalidSpecError("cannot read %r as a field element" % (s,))
        try:
            return self(s)
        except (ValueError, ZeroDivisionError, TypeError) as e:
            raise InvalidSpecError("cannot read %r as a field element: %s" % (s, e)) from None

    def to_json(self):
        if not self.characteristic:
            return {"kind": "rationals"}
        return {"kind": "prime", "p": self.characteristic}

    @classmethod
    def from_json(cls, obj) -> "GroundField":
        """A field from input data: ``{"kind": "rationals"}`` or
        ``{"kind": "prime", "p": <prime>}``; anything else raises
        :class:`InvalidSpecError`.  Primality is decided once, by the
        constructor, whose refusal of a composite is mapped here."""
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind == "rationals":
            return cls(0)
        if kind == "prime":
            p = obj.get("p")
            if isinstance(p, str) and p.isdigit():
                with suppress(ValueError):  # past the digit limit of int(): refused below
                    p = int(p)
            if type(p) is int and p:  # GroundField(0) is the rationals
                with suppress(ValueError):  # not a prime: refused below
                    return cls(p)
            raise InvalidSpecError("field characteristic %r is not a prime" % (p,))
        raise InvalidSpecError("unknown field %r: the kind must be \"rationals\" or \"prime\"" % (obj,))


QQ = GroundField(0)


def prime_field(p: int) -> GroundField:
    return GroundField(p)
