"""Sparse exact bivariate polynomials over a ground field.

A :class:`BivarPoly` is a polynomial in a pair of variable labels, stored
as one integer form ``form = (terms, den)``: a dict from exponent pairs
``(a, b)`` to nonzero ints over a positive int denominator.  Over F_p the
ints are the residues in [0, p) and den is 1; over Q den is the lcm of
the coefficients' denominators, so no factor is common to den and all the
numerators; zero is ``({}, 1)``.  Each polynomial has exactly one form,
which equality, hashing, degrees and the constant term read.  Operations
return fresh polynomials and never mutate their inputs or a form.

``BivarPoly(field, terms, vars)`` makes a polynomial from outside data:
it coerces every coefficient through ``field(c)`` (ints, strings and
elements of another prime field are converted or rejected), drops zeros
and brings the rest over one denominator (:func:`_numerators`), and
checks :data:`TERM_LIMIT`.  The ring operations, substitution and
the divisions run on integer forms, each helper normalising its result
and checking it against :data:`TERM_LIMIT` (:func:`_reduce`), and wrap
the result through :func:`_wrap`, which makes no field element.
:attr:`BivarPoly.terms`, the ``Fraction``/``Fp`` coefficients, is a
read-only view made at its first read, for outside callers.

This module alone reads an integer form; the tower, the expansion and the
blow-up chain hand forms to its form operations and take none apart:
:func:`_shift` (times u^a v^b), :func:`_map` (a unimodular monomial map),
:func:`_strip` (remove the largest monomial factor), :func:`_translate`
(a closing step, x(u, u*(v + c))), :func:`_at_origin` (lowest coefficient
and order on u = 0), :func:`_element` (a coefficient), :func:`_numerators`
(coefficients over one denominator), :func:`_unfold` (a T-adic
expansion) and :func:`_fold` (its inverse: a sum of coefficients times
u^a v^b and powers of given forms, by Horner).  :func:`_fold` is the one
power-product evaluation: :meth:`BivarPoly.subs`, the round trip of
:mod:`jumpseq.engine`, the tail of each tower element T_{i+1} and the
closing factors N = P - c*Q of :mod:`jumpseq.blowup` all run it.

An expansion has an integer form too, ``(pairs, den)``: one pair
``((a, b, k_2, ..., k_M), n)`` per term, n != 0, over one positive
denominator, residues over 1 over F_p and in lowest terms over Q, so a
list of terms has one form.  :func:`_unfold` makes it and :func:`_fold`
takes it as it is.  A report writes each coefficient of a form from its
numerator (:func:`jumpseq.fields.render`), as :meth:`BivarPoly.to_json`
and ``str`` do, and :func:`_terms` makes the field elements, for an
expansion's view and for the coefficient of an initial form.

Division by a divisor monic in the second variable has one
implementation, :func:`_idivisions_v`: it takes the dividend as v-degree
rows ``{b: {a: c}}`` of numerators over one denominator and divides them
in place again and again, each quotient kept as rows and divided next,
so the remainders are the digits of the dividend in powers of the
divisor.  Each remainder is rows too, reduced mod p with its zeros
dropped but never gathered into terms or brought to lowest terms.  It
checks each quotient and then each remainder against
:data:`TERM_LIMIT`; the rows it updates in place are not checked.
:func:`divmod_in_v` takes its first division and normalises both
results; :func:`_unfold`, the T-adic expansion, scatters its input into
rows once (:func:`_scatter`) and hands each digit's rows straight to the
next level, so an expansion stays in rows until its output pairs.
:func:`exact_divide` performs a division that the caller claims is exact
and raises :class:`DivisibilityError` with the remainder otherwise; no
certificate divides (see :mod:`jumpseq.blowup`).  Ring operations and
:func:`divmod_in_v` refuse operands over different fields or in
different variables (``ValueError``); :meth:`BivarPoly.subs` maps the
variables of a polynomial onto those of its arguments.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from types import MappingProxyType

from .errors import DivisibilityError, InvalidSpecError, ResourceLimitError
from .fields import Fp, GroundField, render

#: Hard ceiling on the number of stored terms in any single polynomial.
#: Substitution can blow degrees up; we fail loudly rather than thrash.
TERM_LIMIT = 10_000


def _size_error(n):
    return ResourceLimitError("polynomial with %d terms exceeds TERM_LIMIT=%d" % (n, TERM_LIMIT))


def _check_size(terms):
    if len(terms) > TERM_LIMIT:
        raise _size_error(len(terms))


class BivarPoly:
    __slots__ = ("field", "vars", "form", "_view")

    def __init__(self, field: GroundField, terms=None, vars=("u", "v")):
        pairs, den = _numerators(field, terms.items() if terms else ())
        clean = {(int(a), int(b)): n for (a, b), n in pairs}
        _check_size(clean)
        self.field = field
        self.vars = tuple(vars)
        self.form = clean, den
        self._view = None

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field, vars=("u", "v")):
        return cls(field, {}, vars)

    @classmethod
    def const(cls, field, c, vars=("u", "v")):
        return cls(field, {(0, 0): c}, vars)

    @classmethod
    def monomial(cls, field, a, b, c=1, vars=("u", "v")):
        return cls(field, {(a, b): c}, vars)

    @classmethod
    def gens(cls, field, vars=("u", "v")):
        """Return the two coordinate polynomials, e.g. (u, v)."""
        return (cls.monomial(field, 1, 0, 1, vars), cls.monomial(field, 0, 1, 1, vars))

    # ---- structure ----------------------------------------------------

    @property
    def terms(self):
        """The coefficients as a read-only ``{(a, b): Fraction | Fp}`` map,
        made from :attr:`form` at the first read and kept, for outside
        callers: the library computes on the form and renders from it."""
        if self._view is None:
            terms, den = self.form
            p = self.field.characteristic
            self._view = {e: _element(c, den, p) for e, c in terms.items()}
        return MappingProxyType(self._view)

    def is_zero(self) -> bool:
        return not self.form[0]

    def constant_term(self):
        terms, den = self.form
        return _element(terms.get((0, 0), 0), den, self.field.characteristic)

    def deg_v(self) -> int:
        """Degree in the second variable; -1 for the zero polynomial."""
        return max((b for _, b in self.form[0]), default=-1)

    def deg_u(self) -> int:
        return max((a for a, _ in self.form[0]), default=-1)

    def v_coefficient(self, b: int) -> "BivarPoly":
        """The coefficient of v^b, as a polynomial in the first variable."""
        terms, den = self.form
        row = {(a, 0): c for (a, bb), c in terms.items() if bb == b}
        return _wrap(self.field, _reduce(row, den, self.field.characteristic), self.vars)

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
        return _wrap(self.field, _iadd(self.form, other.form, p), self.vars)

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.field, _iscale(self.form, -1, 1, self.field.characteristic), self.vars)

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
        return _wrap(self.field, _imul(self.form, other.form, p), self.vars)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        p = self.field.characteristic
        return _wrap(self.field, _ipow(self.form, e, p), self.vars)

    def scale(self, c) -> "BivarPoly":
        p = self.field.characteristic
        return _wrap(self.field, _iscale(self.form, *_ratio(self.field(c), p), p), self.vars)

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
                and self.form == other.form)

    def __hash__(self):
        # A constant equals its coefficient, so it hashes as that.  Over F_p
        # it also equals every int of its residue class, which no hash can
        # follow, so a constant there must not share a set or dict with ints.
        terms, den = self.form
        if terms.keys() <= {(0, 0)}:
            return hash(self.constant_term())
        return hash((self.field, frozenset(terms.items()), den))

    # ---- substitution --------------------------------------------------

    def subs(self, first: "BivarPoly", second: "BivarPoly") -> "BivarPoly":
        """Substitute polynomials for the two variables.

        Exact; the result lives in the variables of the arguments.  It is
        :func:`_fold` of the terms c * u^a v^b as the digits of keys
        (0, 0, a, b) with bases (first, second): Horner in ``first`` along
        each v-degree row, then Horner in ``second`` over the rows, so
        each term and each v-degree costs at most one product.  Checked
        against :data:`TERM_LIMIT`: every Horner product and sum, and each
        power of ``first`` or ``second`` that a gap of more than one
        degree needs, formed once per call (:func:`_ipow`); nothing else
        is formed.
        """
        if self.field != first.field:  # the variables are mapped, not shared
            raise ValueError("mixed coefficient fields")
        first._check_compat(second)
        terms, den = self.form
        keyed = (((0, 0, a, b), n) for (a, b), n in terms.items())
        form = _fold(keyed, den, (first.form, second.form), self.field.characteristic)
        return _wrap(self.field, form, first.vars)

    # ---- serialization -------------------------------------------------

    def to_json(self):
        terms, den = self.form
        p = self.field.characteristic
        return {
            "vars": list(self.vars),
            "terms": [{"e": [a, b], "c": render(c, den, p)} for (a, b), c in sorted(terms.items())],
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
        terms, den = self.form
        if not terms:
            return "0"
        u, v = self.vars
        p = self.field.characteristic
        parts = []
        for (a, b), c in sorted(terms.items(), reverse=True):
            factors = []
            cs = render(c, den, p)
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
# Each helper works on integer forms (terms, den) as BivarPoly stores them,
# drops zeros (after reducing mod p), normalises den and checks TERM_LIMIT
# on its result, which :func:`_wrap` then takes as it is.

_ONE = ({(0, 0): 1}, 1)
_ZERO = ({}, 1)


def _wrap(field: GroundField, form, vars) -> BivarPoly:
    """The polynomial whose integer form is the normalised ``form``; the
    one constructor of computed results, which makes no field element and
    checks nothing."""
    f = object.__new__(BivarPoly)
    f.field = field
    f.vars = vars
    f.form = form
    f._view = None
    return f


def _ratio(c, p):
    """The field element ``c`` as ints ``(n, d)`` for :func:`_iscale`."""
    return (c.val, 1) if p else (c.numerator, c.denominator)


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


def _iscale(x, n, d, p):
    """The integer form ``x`` times n/d, for ints n and d > 0 (d = 1 over
    F_p; see :func:`_ratio`)."""
    xt, xd = x
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


def _element(c, den, p):
    """The form coefficient ``c`` over ``den`` as an ``Fp`` or a ``Fraction``."""
    return Fp(c, p) if p else Fraction(c, den)


def _numerators(field, items):
    """The pairs ``(key, c)`` of ``items`` with each c coerced by
    ``field(c)`` and the zeros dropped, as ``(key, n)`` pairs over one
    denominator den: over F_p n is the residue and den is 1, over Q den is
    the lcm of the coefficients' denominators.  Returns the list and den."""
    if field.characteristic:
        return [(k, x.val) for k, c in items if (x := field(c))], 1
    items = [(k, x) for k, c in items if (x := field(c))]
    den = lcm(*[c.denominator for _, c in items])
    return [(k, c.numerator * (den // c.denominator)) for k, c in items], den


def _shift(x, a, b):
    """The integer form ``x`` times u^a v^b; a negative exponent divides,
    so u^-a v^-b must divide ``x``.  ``x`` itself when a = b = 0."""
    if not (a or b):
        return x
    terms, den = x
    return {(i + a, j + b): c for (i, j), c in terms.items()}, den


def _map(x, rx, ry):
    """The integer form ``x`` under the unimodular monomial map that sends
    u^i v^j to u^(rx . (i, j)) v^(ry . (i, j))."""
    (xa, xb), (ya, yb) = rx, ry
    terms, den = x
    return {(xa * i + xb * j, ya * i + yb * j): c for (i, j), c in terms.items()}, den


def _strip(x):
    """The nonzero integer form ``x`` with its largest monomial factor
    u^a v^b removed: returns the quotient, a and b."""
    terms = x[0]
    a = min(i for i, _ in terms)
    b = min(j for _, j in terms)
    return _shift(x, -a, -b), a, b


def _at_origin(x, p):
    """The lowest coefficient of x(0, v) as a field element and its order
    k, for an integer form ``x`` that u does not divide: the coefficient of
    v^k, which is the constant term when k = 0."""
    terms, den = x
    k = min(j for i, j in terms if i == 0)
    return _element(terms[0, k], den, p), k


def _binomial_row(b, n, d, top, p):
    """The multipliers ``{k: m}`` of v^k in (v + n/d)^b over d^top, zeros
    kept.  Over Q, m = comb(b, k) * n^(b-k) * d^(top-b+k).  Over F_p
    (d = 1), (v + n)^b is the product of (v^(p^i) + n)^(b_i) over the
    base-p digits b_i of b, since n^p = n: m is the product of
    comb(b_i, k_i) * n^(b_i-k_i) mod p over the digits k_i of k (Lucas'
    theorem), so no big binomial or power is formed; for b < p this is the
    formula over Q."""
    if not p:
        return {k: comb(b, k) * n ** (b - k) * d ** (top - b + k) for k in range(b + 1)}
    row, place = {0: 1}, 1
    while b:
        b, digit = divmod(b, p)
        row = {k + i * place: m * comb(digit, i) * pow(n, digit - i, p) % p
               for k, m in row.items() for i in range(digit + 1)}
        place *= p
    return row


def _translate(x, c, p):
    """The nonzero integer form ``x`` composed with a closing step,
    x(u, u*(v + c)) for the field element c = n/d (d = 1 over F_p).

    u^a v^b becomes u^(a+b) (v + n/d)^b over the common denominator d^top,
    top = deg_v(x): the row of v^k multipliers (:func:`_binomial_row`) is
    made once per b and reduced by :func:`_reduce`.  Past
    :data:`TERM_LIMIT` the running sum is reduced, and raises only if it
    is still over.
    """
    terms, den = x
    n, d = _ratio(c, p)
    top = max(b for _, b in terms)
    rows = {}
    out = {}
    get = out.get
    for (a, b), v in terms.items():
        row = rows.get(b)
        if row is None:
            row = rows[b] = _reduce(_binomial_row(b, n, d, top, p), 1, p)[0].items()
        for k, m in row:
            e = (a + b, k)
            out[e] = get(e, 0) + v * m
        if len(out) > TERM_LIMIT:
            out = _reduce(out, 1, p)[0]
            get = out.get
    return _reduce(out, den * d ** top, p)


def _v_rows(x):
    """The integer form ``x`` prepared as a divisor for :func:`_idivisions_v`.

    Returns ``(m, tail, den)``: ``m = deg_v(x)``, the rows of the
    numerators of ``v^m - x`` as pairs ``(b, [(a, c)])``, and the
    denominator of ``x``.  Returns None when ``x`` is not monic in the
    second variable.
    """
    terms, den = x
    m = max(b for _, b in terms)
    lead, tail = [], {}
    for (a, b), c in terms.items():
        if b == m:
            lead.append((a, c))
        else:
            tail.setdefault(b, []).append((a, -c))
    return (m, list(tail.items()), den) if lead == [(0, den)] else None


def _scatter(terms):
    """The integer-form terms ``{(a, b): c}`` as v-degree rows ``{b: {a: c}}``."""
    rows = {}
    for (a, b), c in terms.items():
        rows.setdefault(b, {})[a] = c
    return rows


def _idivisions_v(rows, den, g, p):
    """Repeated division of x, given by its v-degree rows ``{b: {a: c}}``
    of numerators over ``den``, by a divisor monic in the second variable,
    given by its rows ``g`` (see :func:`_v_rows`): ``x = q_0*g + r_0``,
    ``q_0 = q_1*g + r_1``, ... until a quotient is zero, so the remainders
    are the g-adic digits of x.  Yields ``(q_k, den_k, r_k)`` per
    division, quotient and remainder both as rows of numerators over
    ``den_k``.  The rows passed in are divided in place, and so is each
    quotient by the next division, so a quotient is valid only until then;
    each remainder is fresh rows that the caller owns.

    A division moves each row at or above ``m = deg_v(g)`` into the
    quotient, top row first, and subtracts it times ``g - v^m`` from the
    rows below.  The rows are not reduced while they are updated; over F_p
    a row is reduced mod p when it is taken.  Over Q the rows are
    numerators over a common denominator.  When ``g`` has a denominator
    D > 1, its leading numerator is D, so the rows are first scaled by D^k
    (k the number of quotient rows) and each taken row then divides
    exactly by D.  The quotient is checked against :data:`TERM_LIMIT`;
    then the rows left below m, each reduced mod p with its zeros
    dropped, are the remainder, which is checked too.  Neither is
    gathered into terms or brought to lowest terms over ``den_k``: the
    quotient is divided next and the remainder is a digit, which the
    caller divides or reads as it is.  When deg_v(x) < m, the one division
    yields a zero quotient and the rows of x, reduced, as the remainder.
    """
    m, tail, gd = g
    while True:
        q = {}
        top = max(rows, default=-1)
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
        if p:
            r = {b: y for b, x in rows.items()
                 if (y := {a: z for a, c in x.items() if (z := c % p)})}
        else:
            r = {b: y for b, x in rows.items() if (y := {a: c for a, c in x.items() if c})}
        size = sum(map(len, r.values()))
        if size > TERM_LIMIT:
            raise _size_error(size)
        yield q, den, r
        if not q:
            return
        rows = q


def _fold(terms, den, bases, p):
    """The integer form of the sum of n/den * u^a v^b * prod_j bases[j]^e_j
    over the pairs ``((a, b, e_1, ..., e_m), n)`` of ``terms``, for ints n,
    exponents e_j >= 0 and the integer forms ``bases``.

    The pairs are first gathered by their suffix (e_1, ..., e_m) into one
    digit per suffix, the numerators of sum n * u^a * v^b over den: u and
    v are exponents only.  A digit is taken mod p over F_p, drops zeros
    and is checked against :data:`TERM_LIMIT` after each pair it takes.
    Then each base in turn folds the digits that share the rest of their
    suffix by sparse Horner, acc * base^gap + digit, so each present
    (level, digit) costs at most one product; each gap over 1 is raised
    to once per level (:func:`_ipow`), however many rows skip it.  Every
    power, product and sum is checked by :func:`_reduce`.  This is the
    inverse of :func:`_unfold` and the body of :meth:`BivarPoly.subs`,
    and it builds each tower tail of :mod:`jumpseq.engine` and each
    closing factor of :mod:`jumpseq.blowup` from the powers of their
    bases.
    """
    digits = {}
    for key, n in terms:
        out, k = digits.setdefault(key[2:], {}), key[:2]
        s = out.get(k, 0) + n
        if p:
            s %= p
        if s:
            out[k] = s
        else:
            del out[k]
        _check_size(out)
    digits = {key: _reduce(out, den, p) for key, out in digits.items()}
    for t in bases:
        powers = {1: t}
        rows = {}
        for key, x in digits.items():
            rows.setdefault(key[1:], {})[key[0]] = x
        digits = {}
        for key, row in rows.items():
            a, *rest = sorted(row.keys() | {0}, reverse=True)
            acc = row[a]
            for b in rest:
                if a - b not in powers:
                    powers[a - b] = _ipow(t, a - b, p)
                acc = _imul(acc, powers[a - b], p)
                if b in row:
                    acc = _iadd(acc, row[b], p)
                a = b
            digits[key] = acc
    return digits.get((), _ZERO)


def _unfold(x, divisors, p):
    """The T-adic expansion of the nonzero integer form ``x`` in powers of
    the divisors T_2 .. T_M, each given by its rows (:func:`_v_rows`), as
    an expansion form ``(pairs, den)``: x is the sum of
    n/den * u^a * v^b * prod_j T_j^k_j over the pairs
    ``((a, b, k_2, ..., k_M), n)``, with n != 0.  Over F_p, den is 1 and
    each n a residue in [0, p); over Q, the numerators are brought over
    the lcm of the digits' denominators and den is then cut to lowest
    terms, so one list of coefficients has one form.

    ``x`` is scattered into v-degree rows once (:func:`_scatter`), and the
    expansion stays in rows from there on.  Level j >= 2 takes all the
    T_j-adic digits of its rows in one pass (:func:`_idivisions_v`) and
    hands each nonzero digit's rows, over their own denominator, to level
    j - 1; rows whose top lies below deg_v(T_j) are their own only digit
    and skip level j with no division.  The last level's digits are read
    as they are: the entry n at a in row b is the pair
    ``((a, b) + suffix, n)``.  A level takes all its digits before it
    unfolds any, so :data:`TERM_LIMIT` is checked in the order of the
    levels.  No field element is made.
    """
    groups = {}  # the output pairs by the denominator of their digit

    def rec(rows, den, level, suffix):
        while level and max(rows) < divisors[level - 1][0]:
            level, suffix = level - 1, (0,) + suffix
        if not level:
            out = groups.setdefault(den, [])
            out += [((a, b) + suffix, c) for b, row in rows.items() for a, c in row.items()]
            return
        digits = [(d, r) for _, d, r in _idivisions_v(rows, den, divisors[level - 1], p)]
        for k, (d, digit) in enumerate(digits):
            if digit:
                rec(digit, d, level - 1, (k,) + suffix)

    rec(_scatter(x[0]), x[1], len(divisors), ())
    den = lcm(*groups)
    pairs = groups[den] if len(groups) == 1 else [  # digits over different denominators
        (e, c * (den // d)) for d, out in groups.items() for e, c in out]
    if den != 1 and (g := gcd(den, *[c for _, c in pairs])) != 1:
        den //= g
        pairs = [(e, c // g) for e, c in pairs]
    return pairs, den


def _terms(pairs, den, p):
    """The pairs ``(key, n)`` of an expansion form (:func:`_unfold`) as
    terms ``(c, key)``, c the field element n/den: an expansion's view,
    made at its first read, and the coefficient of an initial form."""
    return tuple([(_element(n, den, p), key) for key, n in pairs])


# ---- public division routines ------------------------------------------


def divmod_in_v(f: BivarPoly, g: BivarPoly):
    """Divide ``f`` by ``g`` where ``g`` is monic in the second variable.

    Returns ``(quotient, remainder)`` with ``deg_v(remainder) < deg_v(g)``
    and ``f == quotient*g + remainder`` exactly.  The division itself is
    the first one of :func:`_idivisions_v`, on the v-degree rows of the
    integer form of f; it hands back quotient and remainder as rows over
    one denominator, which are gathered and normalised here
    (:func:`_reduce`).
    """
    f._check_compat(g)
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    rows = _v_rows(g.form)
    if rows is None:
        raise ValueError("divisor is not monic in %s" % g.vars[1])
    p = f.field.characteristic
    q, den, r = next(_idivisions_v(_scatter(f.form[0]), f.form[1], rows, p))
    return tuple(_wrap(f.field, _reduce({(a, b): c for b, y in x.items() for a, c in y.items()},
                                        den, p), f.vars) for x in (q, r))


def exact_divide(f: BivarPoly, g: BivarPoly) -> BivarPoly:
    """Return ``f / g``, raising :class:`DivisibilityError` if inexact.

    Each step divides the leading term of the remainder by that of g, in
    the (deg_v, deg_u) order, and subtracts the quotient term times g.
    With one divisor the remainder reaches zero exactly when g divides f,
    so the first leading term that g's does not divide raises, carrying
    that remainder.
    """
    f._check_compat(g)
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    p = f.field.characteristic
    order = lambda t: (t[0][1], t[0][0])  # a term ((a, b), c) by (deg_v, deg_u)
    (ga, gb), gc = max(g.form[0].items(), key=order)
    neg_g = _iscale(g.form, -1, 1, p)
    q, r = _ZERO, f.form
    while r[0]:
        (a, b), c = max(r[0].items(), key=order)
        if a < ga or b < gb:
            raise DivisibilityError("inexact bivariate division",
                                    remainder=_wrap(f.field, r, f.vars))
        if p:
            t = {(a - ga, b - gb): c * pow(gc, -1, p) % p}, 1
        else:  # (c / den_r) / (gc / den_g)
            x = Fraction(c * g.form[1], r[1] * gc)
            t = {(a - ga, b - gb): x.numerator}, x.denominator
        q = _iadd(q, t, p)
        r = _iadd(r, _imul(t, neg_g, p), p)
    return _wrap(f.field, q, f.vars)


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
    fld, vars = rx.num.field, rx.num.vars
    p = fld.characteristic
    one = BivarPoly.const(fld, 1, vars)
    out = RatExpr(BivarPoly.zero(fld, vars), one)
    terms, den = f.form
    for (a, b), c in sorted(terms.items()):
        coeff = _wrap(fld, _reduce({(0, 0): c}, den, p), vars)
        out = out + RatExpr(coeff, one) * rx ** a * ry ** b
    return out


def _strip_common_monomial(num: BivarPoly, den: BivarPoly):
    """Cancel the largest monomial u^a v^b dividing both sides."""
    if num.is_zero():
        return num, BivarPoly.const(den.field, 1, den.vars)
    (x, xa, xb), (y, ya, yb) = _strip(num.form), _strip(den.form)
    a, b = min(xa, ya), min(xb, yb)
    return (_wrap(num.field, _shift(x, xa - a, xb - b), num.vars),
            _wrap(den.field, _shift(y, ya - a, yb - b), den.vars))
