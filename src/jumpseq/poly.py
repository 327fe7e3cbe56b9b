"""Sparse exact bivariate polynomials over a ground field.

A :class:`BivarPoly` is a map from exponent pairs ``(a, b)`` to nonzero
field coefficients, together with a pair of variable labels.  Everything
is immutable in spirit: operations return fresh polynomials and never
mutate their inputs.

The constructor is the only way a polynomial is made.  It coerces a
coefficient through ``field(c)`` unless it already is an element of the
field (a ``Fraction`` over Q, an ``Fp`` of the same p over F_p), so ints,
strings and elements of another prime field are converted or rejected as
before, while the results of the ring operations are stored as they are.
Zero coefficients are dropped and :data:`TERM_LIMIT` is checked on every
polynomial it stores.

Every ring operation, every substitution and every division by a
polynomial monic in the second variable run their inner loops on plain
ints: residues mod p over F_p, numerators over one common denominator
over Q.  Each operand is converted once on entry and the result once on
exit, through the constructor, so stored coefficients stay
``Fraction``/``Fp``.  :meth:`BivarPoly.subs` keeps its powers and Horner
steps in that integer form, and each of those intermediates is checked
against :data:`TERM_LIMIT` after dropping zeros, at the same points and
with the same message as a stored polynomial.  Division by a divisor
monic in the second variable has one implementation, :func:`_idivisions_v`: it scatters
the dividend into v-degree rows once and divides them in place again and
again, each quotient kept as rows and divided next, so the remainders are
the digits of the dividend in powers of the divisor.  It checks each
quotient and then each remainder against :data:`TERM_LIMIT`; the rows it
updates in place while it divides are plain dicts and are not checked.
:func:`divmod_in_v` takes its first division; the T-adic expansion of
:mod:`jumpseq.engine` takes all of them, so its digits never become
polynomials.

Ring operations and :func:`divmod_in_v` refuse operands over different
fields or in different variables (``ValueError``); :meth:`BivarPoly.subs`
maps the variables of a polynomial onto those of its arguments.

The two public division routines:

* :func:`divmod_in_v` divides by a polynomial that is monic in the second
  variable, the division that standard-form expansions repeat (they call
  its integer core directly);
* :func:`exact_divide` performs a division that the caller claims is
  exact, and raises :class:`DivisibilityError` with the offending
  remainder otherwise.  No certificate divides: strict transforms and
  the ladder's stable unit only strip monomials and compare constant
  terms (see :mod:`jumpseq.blowup`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .errors import DivisibilityError, InvalidSpecError, ResourceLimitError
from .fields import Fp, GroundField

#: Hard ceiling on the number of stored terms in any single polynomial.
#: Substitution can blow degrees up; we fail loudly rather than thrash.
TERM_LIMIT = 10_000


def _size_error(n):
    return ResourceLimitError("polynomial with %d terms exceeds TERM_LIMIT=%d" % (n, TERM_LIMIT))


def _check_size(terms):
    if len(terms) > TERM_LIMIT:
        raise _size_error(len(terms))


class BivarPoly:
    __slots__ = ("field", "vars", "terms")

    def __init__(self, field: GroundField, terms=None, vars=("u", "v")):
        self.field = field
        self.vars = tuple(vars)
        clean = {}
        if terms:
            etype = field.element_type
            p = field.characteristic
            for (a, b), c in terms.items():
                if type(c) is not etype or (p and c.p != p):
                    c = field(c)
                if c:
                    clean[(int(a), int(b))] = c
        _check_size(clean)
        self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field, vars=("u", "v")):
        return cls(field, {}, vars)

    @classmethod
    def const(cls, field, c, vars=("u", "v")):
        return cls(field, {(0, 0): field(c)}, vars)

    @classmethod
    def monomial(cls, field, a, b, c=1, vars=("u", "v")):
        return cls(field, {(a, b): field(c)}, vars)

    @classmethod
    def gens(cls, field, vars=("u", "v")):
        """Return the two coordinate polynomials, e.g. (u, v)."""
        return (cls.monomial(field, 1, 0, 1, vars), cls.monomial(field, 0, 1, 1, vars))

    # ---- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self):
        return self.terms.get((0, 0), self.field.zero)

    def deg_v(self) -> int:
        """Degree in the second variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(b for _, b in self.terms)

    def deg_u(self) -> int:
        if not self.terms:
            return -1
        return max(a for a, _ in self.terms)

    def v_coefficient(self, b: int) -> "BivarPoly":
        """The coefficient of v^b, as a polynomial in the first variable."""
        return BivarPoly(
            self.field, {(a, 0): c for (a, bb), c in self.terms.items() if bb == b}, self.vars
        )

    # ---- ring operations ----------------------------------------------

    def _check_compat(self, other: "BivarPoly"):
        if self.field != other.field:
            raise ValueError("mixed coefficient fields")
        if self.vars != other.vars:
            raise ValueError("mixed variables: %s vs %s" % (self.vars, other.vars))

    def __add__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_compat(other)
        p = self.field.characteristic
        return _from_int(self.field, _iadd(_to_int(self), _to_int(other), p), self.vars)

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly(self.field, {e: -c for e, c in self.terms.items()}, self.vars)

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_compat(other)
        p = self.field.characteristic
        return _from_int(self.field, _imul(_to_int(self), _to_int(other), p), self.vars)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        p = self.field.characteristic
        return _from_int(self.field, _ipow(_to_int(self), e, p), self.vars)

    def scale(self, c) -> "BivarPoly":
        p = self.field.characteristic
        return _from_int(self.field, _iscale(_to_int(self), self.field(c), p), self.vars)

    def _as_poly(self, x):
        if isinstance(x, BivarPoly):
            return x
        if isinstance(x, (int, Fraction, Fp)):
            return BivarPoly.const(self.field, x, self.vars)
        return NotImplemented

    def __eq__(self, other):
        try:
            other = self._as_poly(other)
        except (TypeError, ValueError):  # a scalar the field cannot hold
            return False
        if other is NotImplemented:
            return NotImplemented
        return (self.field == other.field and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        # A constant equals its coefficient, so it hashes as that.  Over F_p
        # it also equals every int of its residue class, which no hash can
        # follow, so a constant there must not share a set or dict with ints.
        return hash(self.constant_term() if self.terms.keys() <= {(0, 0)}
                    else (self.field, frozenset(self.terms.items())))

    # ---- substitution --------------------------------------------------

    def subs(self, first: "BivarPoly", second: "BivarPoly") -> "BivarPoly":
        """Substitute polynomials for the two variables.

        Exact; the result lives in the variables of the arguments.  Uses
        Horner evaluation in the second variable with cached powers of the
        first to keep intermediate blow-up in check.  Every power, product
        and sum is formed in integer form (see :func:`_imul`) and checked
        against :data:`TERM_LIMIT`; only the result is made a polynomial.
        """
        if self.field != first.field:  # the variables are mapped, not shared
            raise ValueError("mixed coefficient fields")
        first._check_compat(second)
        field = self.field
        out_vars = first.vars
        if not self.terms:
            return BivarPoly.zero(field, out_vars)
        p = field.characteristic
        # group by exponent of the second variable
        by_b = {}
        for (a, b), c in self.terms.items():
            by_b.setdefault(b, {})[a] = c
        x, y = _to_int(first), _to_int(second)
        # Horner in `second`, with powers of `first` computed on demand
        pow_cache = {0: _ONE}

        def first_pow(a):
            if a not in pow_cache:
                half = first_pow(a // 2)
                q = _imul(half, half, p)
                if a % 2:
                    q = _imul(q, x, p)
                pow_cache[a] = q
            return pow_cache[a]

        result = None
        prev_b = None
        for b in sorted(by_b, reverse=True):
            coeff = _ZERO
            for a, c in by_b[b].items():
                coeff = _iadd(coeff, _iscale(first_pow(a), c, p), p)
            if prev_b is None:
                result = coeff
            else:
                result = _iadd(_imul(result, _ipow(y, prev_b - b, p), p), coeff, p)
            prev_b = b
        if prev_b:
            result = _imul(result, _ipow(y, prev_b, p), p)
        return _from_int(field, result, out_vars)

    # ---- serialization -------------------------------------------------

    def to_json(self):
        f = self.field
        terms = sorted(self.terms.items())
        return {
            "vars": list(self.vars),
            "terms": [{"e": [a, b], "c": f.render(c)} for (a, b), c in terms],
        }

    @classmethod
    def from_json(cls, field: GroundField, obj, vars=("u", "v")) -> "BivarPoly":
        """A polynomial in ``vars`` from input data: a bare field element,
        or an object with a list of terms and optionally ``"vars"``, which
        must then be the list of the names in ``vars``.  Malformed data
        raises :class:`InvalidSpecError`."""
        if isinstance(obj, str):
            # bare field element, e.g. "1" for a trivial unit
            return cls.const(field, field.parse(obj), vars)
        rows = obj.get("terms") if isinstance(obj, dict) else None
        if not isinstance(rows, list) or not all(isinstance(t, dict) for t in rows):
            raise InvalidSpecError("polynomial %r is not an object with a list of terms" % (obj,))
        names = obj.get("vars", list(vars))
        if names != list(vars):
            raise InvalidSpecError("polynomial variables %r: expected %r" % (names, list(vars)))
        terms = {}
        for t in rows:
            e = t["e"]
            if not (isinstance(e, (list, tuple)) and len(e) == 2
                    and all(type(x) is int and x >= 0 for x in e)):
                raise InvalidSpecError("exponent %r is not a pair of non-negative integers" % (e,))
            if tuple(e) in terms:
                raise InvalidSpecError("exponent %r appears in two terms" % (e,))
            terms[tuple(e)] = field.parse(t["c"])
        return cls(field, terms, vars)

    def __str__(self):
        if not self.terms:
            return "0"
        u, v = self.vars
        parts = []
        for (a, b), c in sorted(self.terms.items(), reverse=True):
            factors = []
            cs = self.field.render(c)
            if cs != "1" or (a == 0 and b == 0):
                factors.append(cs)
            if a:
                factors.append(u if a == 1 else "%s^%d" % (u, a))
            if b:
                factors.append(v if b == 1 else "%s^%d" % (v, b))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "BivarPoly(%s)" % self


# ---- integer inner loops ------------------------------------------------
#
# Ring operations, substitutions and divisions in v run on plain ints.  The
# integer form of a polynomial is a pair (terms, den): a dict from exponent
# pairs to ints and a positive int denominator.  Over F_p den is 1 and the
# ints are the residues in [0, p); over Q the coefficient of e is
# terms[e] / den, with no factor common to den and all the numerators.
# Each helper drops zero coefficients (after reducing mod p) and checks
# TERM_LIMIT on its result, as the constructor does for every polynomial.

_ONE = ({(0, 0): 1}, 1)
_ZERO = ({}, 1)
_second = itemgetter(1)


def _to_int(f: BivarPoly):
    if f.field.characteristic:
        return {e: c.val for e, c in f.terms.items()}, 1
    den = lcm(*[c.denominator for c in f.terms.values()])
    return {e: c.numerator * (den // c.denominator) for e, c in f.terms.items()}, den


def _from_int(field: GroundField, x, vars) -> BivarPoly:
    terms, den = x
    p = field.characteristic
    if p:
        return BivarPoly(field, {e: Fp(c, p) for e, c in terms.items()}, vars)
    return BivarPoly(field, {e: Fraction(c, den) for e, c in terms.items()}, vars)


def _reduce(terms, den, p):
    """Normalise a raw integer-form result and check its size."""
    if p:
        terms = {e: r for e, c in terms.items() if (r := c % p)}
    else:
        terms = {e: c for e, c in terms.items() if c}
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {e: c // g for e, c in terms.items()}
    _check_size(terms)
    return terms, den


def _imul(x, y, p):
    """Product of two integer forms over F_p (p > 0) or Q (p == 0)."""
    xt, xd = x
    yt, yd = y
    out = {}
    get = out.get
    y_items = list(yt.items())
    for (a1, b1), c1 in xt.items():
        for (a2, b2), c2 in y_items:
            e = (a1 + a2, b1 + b2)
            out[e] = get(e, 0) + c1 * c2
    return _reduce(out, xd * yd, p)


def _iadd(x, y, p):
    """Sum of two integer forms, over the least common denominator."""
    xt, xd = x
    yt, yd = y
    den = lcm(xd, yd)
    sx, sy = den // xd, den // yd
    out = {e: c * sx for e, c in xt.items()}
    get = out.get
    for e, c in yt.items():
        out[e] = get(e, 0) + c * sy
    return _reduce(out, den, p)


def _iscale(x, c, p):
    """The integer form ``x`` times the field element ``c``."""
    xt, xd = x
    if p:
        n, d = c.val, 1
    else:
        n, d = c.numerator, c.denominator
    return _reduce({e: v * n for e, v in xt.items()}, xd * d, p)


def _ipow(x, e: int, p):
    """``x ** e`` by repeated squaring: the result takes the current
    square for each set bit of ``e``, low bit first, and the base is
    squared only while a higher bit remains, so each product is checked
    against :data:`TERM_LIMIT` in that order."""
    out = _ONE
    base = x
    while e:
        if e & 1:
            out = _imul(out, base, p)
        if e > 1:
            base = _imul(base, base, p)
        e >>= 1
    return out


def _v_rows(x):
    """The integer form ``x`` prepared as a divisor for :func:`_idivisions_v`.

    Returns ``(m, tail, den)``: ``m = deg_v(x)``, the rows of the
    numerators of ``v^m - x`` as ``{b: [(a, c)]}``, and the denominator of
    ``x``.  Returns None when ``x`` is not monic in the second variable.
    """
    terms, den = x
    m = max(b for _, b in terms)
    lead, tail = [], {}
    for (a, b), c in terms.items():
        if b == m:
            lead.append((a, c))
        else:
            tail.setdefault(b, []).append((a, -c))
    return (m, tail, den) if lead == [(0, den)] else None


def _idivisions_v(x, g, p):
    """Repeated division of the integer form ``x`` by a divisor monic in
    the second variable, given by its rows ``g`` (see :func:`_v_rows`):
    ``x = q_0*g + r_0``, ``q_0 = q_1*g + r_1``, ... until a quotient is
    zero, so the remainders are the g-adic digits of ``x``.  Yields
    ``(q_k, den_k, r_k)`` per division: the quotient as v-degree rows
    ``{b: {a: c}}`` of numerators over ``den_k``, valid only until the next
    division, which divides those rows in place, and the remainder as a
    normalised integer form.  ``x`` is scattered into rows once.

    A division moves each row at or above ``m = deg_v(g)`` into the
    quotient, top row first, and subtracts it times ``g - v^m`` from the
    rows below.  The rows are not reduced while they are updated; over F_p
    a row is reduced mod p when it is taken.  Over Q the rows are
    numerators over a common denominator.  When ``g`` has a denominator
    D > 1, its leading numerator is D, so the rows are first scaled by D^k
    (k the number of quotient rows) and each taken row then divides
    exactly by D.  The quotient is checked against :data:`TERM_LIMIT`, and
    then the remainder is normalised and checked (:func:`_reduce`); a
    quotient is never normalised, since only its digits are kept.  When
    deg_v(x) < m, ``x`` is not scattered: the one division yields a zero
    quotient and ``x`` itself, checked again, as the remainder.
    """
    m, tail, gd = g
    xt, den = x
    if not xt or max(map(_second, xt)) < m:
        _check_size(xt)
        yield {}, den, x
        return
    rows = {}
    for (a, b), c in xt.items():
        rows.setdefault(b, {})[a] = c
    tail = list(tail.items())
    while True:
        q = {}
        top = max(rows)
        if top >= m:
            if gd != 1:
                scale = gd ** (top - m + 1)
                den *= scale
                rows = {b: {a: c * scale for a, c in row.items()} for b, row in rows.items()}
            size = 0
            for b in range(top, m - 1, -1):
                row = rows.pop(b, None)
                if not row:
                    continue
                if p:
                    row = {a: r for a, c in row.items() if (r := c % p)}
                else:
                    row = {a: c for a, c in row.items() if c}
                if not row:
                    continue
                s = b - m
                q[s] = row
                size += len(row)
                if gd != 1:
                    row = {a: c // gd for a, c in row.items()}
                for gb, gcol in tail:
                    target = rows.setdefault(gb + s, {})
                    get = target.get
                    for a, c in row.items():
                        for ga, gc in gcol:
                            e = a + ga
                            target[e] = get(e, 0) + c * gc
            if size > TERM_LIMIT:
                raise _size_error(size)
        yield q, den, _reduce({(a, b): c for b, row in rows.items() for a, c in row.items()},
                              den, p)
        if not q:
            return
        rows = q


# ---- univariate helpers (polynomials in the first variable only) --------


def _u_divmod(f: BivarPoly, g: BivarPoly):
    """Division in k[u] for polynomials with no second-variable part."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    field = f.field
    q = {}
    rem = dict(f.terms)
    dg = g.deg_u()
    lead_g = g.terms[(dg, 0)]
    while rem:
        dr = max(a for a, _ in rem)
        if dr < dg:
            break
        c = rem[(dr, 0)] / lead_g
        q[(dr - dg, 0)] = c
        for (a, _), gc in g.terms.items():
            e = (a + dr - dg, 0)
            s = rem.get(e)
            s = -c * gc if s is None else s - c * gc
            if s:
                rem[e] = s
            else:
                del rem[e]
    return (
        BivarPoly(field, q, f.vars),
        BivarPoly(field, rem, f.vars),
    )


# ---- public division routines ------------------------------------------


def divmod_in_v(f: BivarPoly, g: BivarPoly):
    """Divide ``f`` by ``g`` where ``g`` is monic in the second variable.

    Returns ``(quotient, remainder)`` with ``deg_v(remainder) < deg_v(g)``
    and ``f == quotient*g + remainder`` exactly.  The division itself is
    the first one of :func:`_idivisions_v`, on integer forms.
    """
    f._check_compat(g)
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    rows = _v_rows(_to_int(g))
    if rows is None:
        raise ValueError("divisor is not monic in %s" % g.vars[1])
    q, den, r = next(_idivisions_v(_to_int(f), rows, f.field.characteristic))
    q = {(a, b): c for b, row in q.items() for a, c in row.items()}
    return _from_int(f.field, (q, den), f.vars), _from_int(f.field, r, f.vars)


def exact_divide(f: BivarPoly, g: BivarPoly) -> BivarPoly:
    """Return ``f / g``, raising :class:`DivisibilityError` if inexact."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    field = f.field
    if f.is_zero():
        return BivarPoly.zero(field, f.vars)
    dg = g.deg_v()
    lead_g = g.v_coefficient(dg)
    q = BivarPoly.zero(field, f.vars)
    r = f
    while not r.is_zero():
        dr = r.deg_v()
        if dr < dg:
            raise DivisibilityError("inexact bivariate division", remainder=r)
        qc, rc = _u_divmod(r.v_coefficient(dr), lead_g)
        if not rc.is_zero():
            raise DivisibilityError("inexact bivariate division", remainder=r)
        shift = BivarPoly(field, {(a, dr - dg): c for (a, _), c in qc.terms.items()}, f.vars)
        q = q + shift
        r = r - shift * g
    return q


# ---- rational expressions ----------------------------------------------


class RatExpr:
    """A quotient of two bivariate polynomials, reduced only by monomials.

    Enough structure to feed value and residue queries, with no pretense
    of canonical form.  The blow-up chain does not use it (its charts keep
    exponent vectors over factor polynomials); the tests materialise chart
    parameters with it as an oracle.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: BivarPoly, den: BivarPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational expression with zero denominator")
        self.num, self.den = _strip_common_monomial(num, den)

    @classmethod
    def from_poly(cls, p: BivarPoly) -> "RatExpr":
        return cls(p, BivarPoly.const(p.field, 1, p.vars))

    def __add__(self, other: "RatExpr") -> "RatExpr":
        return RatExpr(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RatExpr") -> "RatExpr":
        return RatExpr(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatExpr") -> "RatExpr":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational expression")
        return RatExpr(self.num * other.den, self.den * other.num)

    def __pow__(self, e: int) -> "RatExpr":
        if e >= 0:
            return RatExpr(self.num ** e, self.den ** e)
        return RatExpr(self.den ** (-e), self.num ** (-e))

    def sub_scalar(self, c) -> "RatExpr":
        """self - c for a field constant c."""
        return RatExpr(self.num - self.den.scale(c), self.den)

    def __repr__(self):
        return "(%s) / (%s)" % (self.num, self.den)


def eval_rat(f: BivarPoly, rx: RatExpr, ry: RatExpr) -> RatExpr:
    """Evaluate f at rational-expression arguments for its two variables."""
    one = BivarPoly.const(rx.num.field, 1, rx.num.vars)
    out = RatExpr(BivarPoly.zero(rx.num.field, rx.num.vars), one)
    for (a, b), c in sorted(f.terms.items()):
        term = RatExpr(one.scale(c), one) * rx ** a * ry ** b
        out = out + term
    return out


def _strip_common_monomial(num: BivarPoly, den: BivarPoly):
    """Cancel the largest monomial u^a v^b dividing both sides."""
    if num.is_zero():
        return num, BivarPoly.const(den.field, 1, den.vars)
    a = min(min(e[0] for e in num.terms), min(e[0] for e in den.terms))
    b = min(min(e[1] for e in num.terms), min(e[1] for e in den.terms))
    if a == 0 and b == 0:
        return num, den
    shift = lambda p: BivarPoly(
        p.field, {(e0 - a, e1 - b): c for (e0, e1), c in p.terms.items()}, p.vars
    )
    return shift(num), shift(den)
