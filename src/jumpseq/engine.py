"""Jumping-polynomial sequences, expansions, values and residues.

The central object is :class:`JumpingSequence`: from finite defining data
(coprime pairs, constants, units) it builds the tower

    T_0 = u,  T_1 = v,  T_{i+1} = T_i^{q_i} - lambda_i * delta_i * prod_j T_j^{n_{i,j}}

with values beta_i normalized so that the value of u is 1.  Expansions of
arbitrary polynomials in the T-monomials then give exact values and
residues, with an explicit insufficient-depth error whenever the defining
data does not pin the answer down.

Value bookkeeping runs on integers.  The denominator of beta_j divides
Q_j = q_1...q_j, so every beta_j with j <= N (N the spec depth) is an
integer over the common denominator Q_N.  A sequence holds these
numerators once (:attr:`JumpingSequence.weights`), an expansion holds one
numerator per term (:attr:`TExpansion.nums`), and values, residues and
the generating-sequence checks compare those ints; a ``Fraction`` is made
only for a value that is returned or reported.

An expansion is integers from the scatter to the report: its form is one
(exponent vector, numerator) pair per term over one denominator, as
:func:`jumpseq.poly._unfold` hands it over.  Values read the vectors,
the round trip folds the numerators as they are, and reports render each
coefficient from its numerator (:func:`jumpseq.fields.render`).  The only
field elements made from an expansion are the coefficient of its initial
form, for :func:`initial_form` and :func:`residue` (:func:`value` makes
none), and :attr:`TExpansion.terms`, a view made only for outside callers.

Semigroup questions, the gamma lists of
:func:`verify_generating_sequence` and :func:`verify_minimality`, read
one table of reachable numerators with a back-pointer each
(:func:`_semigroup`).

Polynomials are computed on integer forms (see :mod:`jumpseq.poly`).
:func:`build_jumping_sequence` forms each T_{i+1} from the forms of the
T_j, as T_i^{q_i} plus a tail that is one :func:`jumpseq.poly._fold`
(the power-product evaluation the round trip below also runs), and
wraps each form as a polynomial; the value relation behind each n_i is
solved on integer numerators (:func:`exponent_solve`).  A sequence turns T_2 .. T_M into
divisor rows at its first expansion (:attr:`JumpingSequence.T_rows`).
This module hands forms to the form operations of :mod:`jumpseq.poly`
and takes none apart itself.  :func:`expand` is
:func:`jumpseq.poly._unfold` of the form of f, scattered into v-degree
rows once: each level i >= 2 takes all the T_i-adic digits of its rows
in one pass, :func:`jumpseq.poly._idivisions_v`, which checks every
quotient and remainder against ``TERM_LIMIT`` and hands each remainder
back as rows, so each digit's rows go straight to the next level, and a
digit below deg_v(T_i) skips level i with no division.  T_1 = v, so
level 1 divides nothing: the v-adic digits of a level-2 digit are its
own v-degree rows, and each of its entries is an output term.  No field
element is made, and the expansion is made from the pairs as they are,
without re-checking its vectors.  The round trip
:meth:`TExpansion.resubstitute` is the inverse,
:func:`jumpseq.poly._fold` of the expansion's numerators with bases
T_2 .. T_M, the Horner evaluation :meth:`BivarPoly.subs` runs too: it
gathers the terms into one u, v digit per T-suffix (a_2, ..., a_M) and
folds the digits of each level j >= 2 back by Horner in T_j, checking
each digit, product and sum against ``TERM_LIMIT``, and its result is
wrapped as it is.
Expansion needs every T_i monic in the second variable; a unit that
breaks this (for instance an extension's delta = 1 + y) is reported as
:class:`InvalidSpecError` at the first expansion.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Dict, List, Optional, Tuple

from .errors import InsufficientDepthError, InvalidSpecError
from .euclid import euclid_data
from .fields import GroundField, render
from .poly import (BivarPoly, _fold, _iadd, _ipow, _numerators, _ratio, _terms, _unfold,
                   _v_rows, _wrap)


# ---------------------------------------------------------------------------
# defining data
# ---------------------------------------------------------------------------


def _json_int(x, what: str) -> int:
    """``x`` when it is a JSON integer; a bool, a float or a string raises
    :class:`InvalidSpecError`, so no input is truncated or read as 0/1."""
    if type(x) is not int:
        raise InvalidSpecError("%s %r is not an integer" % (what, x))
    return x


@dataclass(frozen=True)
class ValuationSpec:
    """Finite defining data of a rank-1 rational valuation on k[[u,v]].

    ``pairs`` are the coprime value increments (p_i, q_i), ``lambdas`` the
    nonzero constants, ``units`` polynomials with constant term 1.  In
    ``discrete`` mode all q_i must equal 1.
    """

    field: GroundField
    pairs: Tuple[Tuple[int, int], ...]
    lambdas: tuple
    units: Tuple[BivarPoly, ...]
    mode: str = "nondiscrete"

    def __post_init__(self):
        if self.mode not in ("nondiscrete", "discrete"):
            raise InvalidSpecError("unknown mode %r" % (self.mode,))
        d = self.depth
        if not (len(self.lambdas) == len(self.units) == d):
            raise InvalidSpecError("pairs, lambdas and units must have equal length")
        for i, (p, q) in enumerate(self.pairs, start=1):
            if p <= 0 or q <= 0:
                raise InvalidSpecError("pair %d is not positive: (%d, %d)" % (i, p, q))
            if gcd(p, q) != 1:
                raise InvalidSpecError("pair %d is not coprime: (%d, %d)" % (i, p, q))
            if self.mode == "discrete" and q != 1:
                raise InvalidSpecError("discrete mode requires q_i = 1, got q_%d = %d" % (i, q))
        for i, lam in enumerate(self.lambdas, start=1):
            if self.field(lam) == self.field.zero:
                raise InvalidSpecError("lambda_%d is zero" % i)
        for i, u in enumerate(self.units, start=1):
            if u.constant_term() != self.field.one:
                raise InvalidSpecError("unit delta_%d does not have constant term 1" % i)

    @property
    def depth(self) -> int:
        return len(self.pairs)

    def to_json(self):
        return {
            "field": self.field.to_json(),
            "pairs": [list(pq) for pq in self.pairs],
            "lambdas": [self.field.render(l) for l in self.lambdas],
            "units": [u.to_json() for u in self.units],
            "mode": self.mode,
        }

    @classmethod
    def from_json(cls, obj) -> "ValuationSpec":
        """A spec from input data.  A top level that is not an object, a
        pair that is not two JSON integers, ``lambdas`` or ``units`` that
        are not lists, and a lambda that is not a field literal raise
        :class:`InvalidSpecError`."""
        if not isinstance(obj, dict):
            raise InvalidSpecError("spec %r is not an object" % (obj,))
        fld = GroundField.from_json(obj["field"])
        rows = obj["pairs"]
        seq = (list, tuple)
        if not (isinstance(rows, seq)
                and all(isinstance(pq, seq) and len(pq) == 2 for pq in rows)):
            raise InvalidSpecError("pairs %r is not a list of [p, q] pairs" % (rows,))
        pairs = tuple((_json_int(p, "pair entry"), _json_int(q, "pair entry")) for p, q in rows)
        lambdas, units = obj["lambdas"], obj.get("units", ["1"] * len(pairs))
        for key, entries in (("lambdas", lambdas), ("units", units)):
            if not isinstance(entries, seq):
                raise InvalidSpecError("%s %r is not a list" % (key, entries))
        lambdas = tuple(fld.parse(l) for l in lambdas)
        units = tuple(BivarPoly.from_json(fld, u, vars=("u", "v")) for u in units)
        return cls(fld, pairs, lambdas, units, obj.get("mode", "nondiscrete"))


# ---------------------------------------------------------------------------
# the jumping sequence
# ---------------------------------------------------------------------------


def exponent_solve(i: int, beta: List[Fraction], q: List[int], Q: List[int]) -> Tuple[int, ...]:
    """Solve q_i*beta_i = sum_j n_{i,j}*beta_j with 0 <= n_{i,j} < q_j for j >= 1.

    Greedy from j = i-1 down: n_{i,j} is the unique residue mod q_j making
    the partial remainder land in (1/Q_{j-1})Z; what is left over must be
    the nonnegative integer n_{i,0}.  ``beta``/``q``/``Q`` are indexed so
    that beta[j], q[j], Q[j] carry the subscript-j data (q[0]/Q[0] unused
    except Q[0] = 1).

    The relation is solved on integer numerators over D, the lcm of Q_i
    and the denominators of beta_1 .. beta_i, which is Q_i itself for the
    values of a spec: a remainder r/D lies in (1/Q_{j-1})Z exactly when D
    divides r * Q_{j-1}.
    """
    D = lcm(Q[i], *(b.denominator for b in beta[1:i + 1]))
    w = [b.numerator * (D // b.denominator) for b in beta[:i + 1]]
    rem = q[i] * w[i]
    n = [0] * i
    for j in range(i - 1, 0, -1):
        found = None
        for cand in range(q[j]):
            if (rem - cand * w[j]) * Q[j - 1] % D == 0:
                found = cand
                break
        if found is None:
            raise InvalidSpecError(
                "no exponent n_{%d,%d} in [0, %d) satisfies the value relation" % (i, j, q[j])
            )
        n[j] = found
        rem -= found * w[j]
    if rem % D or rem < 0:
        raise InvalidSpecError(
            "value relation at level %d leaves n_{%d,0} = %s, not a nonnegative integer"
            % (i, i, Fraction(rem, D))
        )
    n[0] = rem // D
    return tuple(n)


@dataclass(frozen=True)
class JumpingSequence:
    spec: ValuationSpec
    T: Tuple[BivarPoly, ...]          # T_0 .. T_{depth+1}
    beta: Tuple[Fraction, ...]        # beta_0 .. beta_depth
    Q: Tuple[int, ...]                # Q_0 = 1, Q_i = q_1 ... q_i
    n: Tuple[Tuple[int, ...], ...]    # n[i] = (n_{i,0}, ..., n_{i,i-1}), i >= 1

    @property
    def depth(self) -> int:
        return self.spec.depth

    @property
    def field(self) -> GroundField:
        return self.spec.field

    def q(self, i: int) -> int:
        return self.spec.pairs[i - 1][1]

    def p(self, i: int) -> int:
        return self.spec.pairs[i - 1][0]

    def vdeg(self) -> List[int]:
        return [t.deg_v() for t in self.T]

    @cached_property
    def weights(self) -> Tuple[int, ...]:
        """Integer value weights w_0 .. w_{N+1} over the denominator Q_N.

        N is the depth.  For j <= N, w_j = Q_N * beta_j, an integer because
        the denominator of beta_j divides Q_j; the last weight is
        w_{N+1} = q_N * w_N (0 when N = 0).  Since T_{N+1} has value
        greater than q_N * beta_N, sum_j e_j * w_j / Q_N is the exact value
        of a T-monomial with e_{N+1} = 0 and a strict lower bound of one
        with e_{N+1} > 0.  Computed once per sequence.
        """
        N, QN = self.depth, self.Q[-1]
        w = []
        for j, b in enumerate(self.beta):
            x = b * QN
            if x.denominator != 1:
                raise ArithmeticError("Q_%d * beta_%d = %s is not an integer" % (N, j, x))
            w.append(x.numerator)
        w.append(self.q(N) * w[N] if N else 0)
        return tuple(w)

    @cached_property
    def T_rows(self) -> tuple:
        """T_2 .. T_M as integer-row divisors (:func:`jumpseq.poly._v_rows`)
        for :func:`expand`, made from their integer forms at the first
        expansion.
        :func:`expand` reads level 1 off the v-degree rows, so T_1 must be
        the second variable itself, which an explicit check confirms
        (ArithmeticError otherwise).  Raises :class:`InvalidSpecError` when
        some T_i is not monic in the second variable, which a unit
        involving that variable can cause.
        """
        if self.T[1] != BivarPoly.monomial(self.field, 0, 1, 1, self.T[1].vars):
            raise ArithmeticError("T_1 = %s is not the second variable, so expansions "
                                  "cannot read level 1 off the v-degree rows" % self.T[1])
        out = []
        for i, t in enumerate(self.T[2:], start=2):
            rows = _v_rows(t.form)
            if rows is None:
                v = self.T[0].vars[1]
                raise InvalidSpecError(
                    "T_%d is not monic in %s: a unit involving %s raised its degree, "
                    "and expansions need monic jumping polynomials" % (i, v, v))
            out.append(rows)
        return tuple(out)

    def to_json(self):
        return {
            "T": [t.to_json() for t in self.T],
            "beta": [render(b.numerator, b.denominator, 0) for b in self.beta],
            "Q": list(self.Q),
            "n": [list(row) for row in self.n[1:]],
            "vdeg": self.vdeg(),
        }


def build_jumping_sequence(spec: ValuationSpec, vars: Tuple[str, str] = ("u", "v")) -> JumpingSequence:
    """The jumping sequence of ``spec`` in the variables ``vars``.

    The tower is computed on integer forms (see :mod:`jumpseq.poly`).  At
    level i, with n_i = exponent_solve(i, ...), T_i^{q_i} is formed first.
    The tail -lambda_i * delta_i * u^{n_{i,0}} v^{n_{i,1}} *
    prod_{2 <= j < i} T_j^{n_{i,j}} is one :func:`jumpseq.poly._fold` of
    the single term -lambda_i * u^{n_{i,0}} v^{n_{i,1}} with the bases
    delta_i (exponent 1) and T_2 .. T_{i-1}, and T_{i+1} is one
    :func:`jumpseq.poly._iadd`.  Every power, product and sum is checked
    against ``TERM_LIMIT`` in the order the polynomial arithmetic
    T_i**q_i - lambda_i*delta_i*u**n_0*v**n_1*T_2**n_2*... checks it.
    Each T_i is its integer form, wrapped as a polynomial without a
    conversion (:func:`jumpseq.poly._wrap`).  The T_i need not be monic
    in the second variable here; the first expansion checks that
    (:attr:`JumpingSequence.T_rows`).
    """
    fld = spec.field
    d = spec.depth
    char = fld.characteristic

    q = [0] + [pq[1] for pq in spec.pairs]      # q[i] = q_i
    p = [0] + [pq[0] for pq in spec.pairs]
    Q = [1]
    for i in range(1, d + 1):
        Q.append(Q[-1] * q[i])

    beta: List[Fraction] = [Fraction(1)]
    for i in range(1, d + 1):
        if i == 1:
            beta.append(Fraction(p[1], q[1]))
        else:
            beta.append(q[i - 1] * beta[i - 1] + Fraction(p[i], q[i]) / Q[i - 1])

    forms = [({(1, 0): 1}, 1), ({(0, 1): 1}, 1)]
    n_rows: List[Tuple[int, ...]] = [()]  # leading pad so n_rows[i] carries subscript i
    for i in range(1, d + 1):
        row = exponent_solve(i, beta, q, Q)
        n_rows.append(row)
        power = _ipow(forms[i], q[i], char)
        n, den = _ratio(-fld(spec.lambdas[i - 1]), char)
        key = (row[0], row[1] if i > 1 else 0, 1) + row[2:]  # u, v, delta_i, T_2 .. T_{i-1}
        tail = _fold([(key, n)], den, [spec.units[i - 1].form, *forms[2:i]], char)
        forms.append(_iadd(power, tail, char))

    T = tuple(_wrap(fld, x, tuple(vars)) for x in forms)
    return JumpingSequence(spec, T, tuple(beta), tuple(Q), tuple(n_rows))


# ---------------------------------------------------------------------------
# independent subsequence bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependentData:
    indices: Tuple[int, ...]      # i_1 < i_2 < ... (positions with q != 1)
    pbar: Tuple[int, ...]         # pbar_1..pbar_L
    qbar: Tuple[int, ...]
    Qbar: Tuple[int, ...]         # Qbar_0 = 1, Qbar_l = qbar_1..qbar_l
    betabar: Tuple[Fraction, ...]  # betabar_0 = 1, betabar_l = beta_{i_l}
    k: Tuple[int, ...]            # k_0 = 0, k_i = k_{i-1} + epsilon(p_i, q_i)
    kbar: Tuple[int, ...]         # kbar_0 = 0, kbar_l = k_{i_l}

    @property
    def levels(self) -> int:
        return len(self.indices)

    def to_json(self):
        return {
            "indices": list(self.indices),
            "pbar": list(self.pbar),
            "qbar": list(self.qbar),
            "Qbar": list(self.Qbar),
            "betabar": [str(b) for b in self.betabar],
            "k": list(self.k),
            "kbar": list(self.kbar),
        }


def extract_independent(js: JumpingSequence) -> IndependentData:
    d = js.depth
    indices = tuple(i for i in range(1, d + 1) if js.q(i) != 1)
    pbar, qbar, Qbar, betabar = [], [], [1], [Fraction(1)]
    prev = 0
    for il in indices:
        qb = js.q(il)
        pb = sum(js.p(i) for i in range(prev + 1, il)) * qb + js.p(il)
        pbar.append(pb)
        qbar.append(qb)
        Qbar.append(Qbar[-1] * qb)
        betabar.append(js.beta[il])
        prev = il
    k = [0]
    for i in range(1, d + 1):
        k.append(k[-1] + euclid_data(js.p(i), js.q(i)).epsilon)
    # each chunk's length kbar_l - kbar_{l-1} is eps(pbar_l, qbar_l) by
    # construction: eps(S*q + p, q) = S + eps(p, q), as the first Euclid
    # quotient grows by exactly S
    kbar = [0] + [k[il] for il in indices]
    return IndependentData(indices, tuple(pbar), tuple(qbar), tuple(Qbar), tuple(betabar), tuple(k), tuple(kbar))


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class TExpansion:
    """Standard-form expansion: sum of coeff * u^{a_0} T_1^{a_1} ... T_M^{a_M}.

    Interior exponents satisfy a_i < q_i; a_0 and a_M are unbounded.  Terms
    with a_M = 0 ("pure") have exactly known values; terms with a_M > 0
    only admit a strict lower bound since beta_M is beyond spec depth.
    Both are kept as integers over Q_N in :attr:`nums`, computed once per
    expansion.

    An expansion is its integer form, as a polynomial is: ``pairs``, one
    (exponent vector, numerator) per term, over the positive int ``den``
    (see :func:`jumpseq.poly._unfold`).  Equality and hashing read the
    sequence and the form, which is one per list of terms, so they mean
    the same sequence and the same terms in the same order.  :attr:`terms`,
    the (coefficient, exponent vector) pairs with ``Fraction``/``Fp``
    coefficients, is a read-only view made at its first read, for outside
    callers; the library reads the form.

    ``TExpansion(js, terms)`` makes an expansion from outside data: an
    exponent vector whose length is not M + 1, or that has a negative
    entry, raises ``ValueError``, so neither :attr:`nums` nor
    :meth:`resubstitute` reads one as if padded or cut, or values or
    folds a negative power.  Then each coefficient is coerced by the
    field into a numerator over one denominator, once, and a zero one is
    dropped (:func:`jumpseq.poly._numerators`).  :func:`expand` builds its
    expansions from the form of :func:`jumpseq.poly._unfold`, whose
    vectors cannot fail these checks, through :func:`_expansion`, which
    skips them.
    """

    js: JumpingSequence
    pairs: Tuple[Tuple[Tuple[int, ...], int], ...]   # (exponent vector, numerator)
    den: int

    def __init__(self, js: JumpingSequence, terms):
        terms = tuple(terms)  # read twice: checked, then converted
        n = js.depth + 2
        for _, exps in terms:
            if len(exps) != n:
                raise ValueError("exponent vector %r has %d entries, not M + 1 = %d"
                                 % (exps, len(exps), n))
            if min(exps) < 0:
                raise ValueError("exponent vector %r has a negative entry" % (exps,))
        pairs, den = _numerators(js.field, ((exps, c) for c, exps in terms))
        self.__dict__.update(js=js, pairs=tuple(pairs), den=den)

    @property
    def M(self) -> int:
        return self.js.depth + 1

    @cached_property
    def terms(self) -> Tuple[Tuple[object, Tuple[int, ...]], ...]:
        """The (coefficient, exponent vector) pairs, coefficients as
        ``Fraction`` or ``Fp``: made from the form at the first read and
        kept."""
        return _terms(self.pairs, self.den, self.js.field.characteristic)

    def resubstitute(self) -> BivarPoly:
        """The polynomial sum of coeff * prod_j T_j^{a_j} over the terms,
        folded back the way :func:`expand` took its digits.

        The numerators of the form are handed as they are to
        :func:`jumpseq.poly._fold` with bases T_2 .. T_M, the Horner
        evaluation that :meth:`BivarPoly.subs` runs too; no coefficient is
        coerced.  T_0 = u and T_1 = v are exponents only, and each present
        (level, digit), a distinct (a_j, ..., a_M) with j >= 2, costs at
        most one product.  ``TERM_LIMIT`` is checked on each digit after
        each term it takes and on every product and sum of the fold; each
        check is on a polynomial that a chain of polynomial additions and
        products forming the sum would also form.
        """
        js = self.js
        form = _fold(self.pairs, self.den, [t.form for t in js.T[2:]], js.field.characteristic)
        return _wrap(js.field, form, js.T[0].vars)

    @cached_property
    def nums(self) -> Tuple[int, ...]:
        """Per term, Q_N times its exact value (pure term) or its strict
        lower bound (term involving T_M), read off the exponent vectors;
        see :attr:`JumpingSequence.weights`."""
        weights = self.js.weights
        return tuple(sum(map(mul, exps, weights)) for exps, _ in self.pairs)

    def to_json(self):
        p, den = self.js.field.characteristic, self.den
        return {"terms": [{"c": render(n, den, p), "e": list(exps)} for exps, n in self.pairs]}


def expand(f: BivarPoly, js: JumpingSequence) -> TExpansion:
    """The standard-form expansion of f in the T-monomials of ``js``.

    Runs on the integer form of f, by :func:`jumpseq.poly._unfold`, which
    scatters it into v-degree rows once.  Level i >= 2 takes the T_i-adic
    digits of its rows in one pass (:func:`jumpseq.poly._idivisions_v` by
    :attr:`JumpingSequence.T_rows`) and hands each nonzero digit's rows to
    level i - 1; rows below deg_v(T_i) skip level i undivided.  T_1 = v,
    so the v-adic digits of a level-2 digit (at depth 0, of f itself) are
    its own v-degree rows: each entry n * u^a * v^b is the output pair
    ((a, b, a_2, ..., a_M), n).  A level takes all its digits before it
    expands any, so ``TERM_LIMIT`` is checked in the order of the levels.
    The pairs, sorted by exponent vector, and their denominator are the
    expansion's form as they are: no field element is made, and the
    expansion is built without the vector checks of the public
    constructor (:func:`_expansion`).
    """
    if f.is_zero():
        raise ValueError("cannot expand the zero polynomial")
    f._check_compat(js.T[0])
    pairs, den = _unfold(f.form, js.T_rows, js.field.characteristic)
    pairs.sort()
    return _expansion(js, tuple(pairs), den)


def _expansion(js: JumpingSequence, pairs, den) -> TExpansion:
    """The expansion whose form is ``pairs`` over ``den``, as they are: the
    one constructor of computed expansions, which, like
    :func:`jumpseq.poly._wrap`, converts and checks nothing, since every
    vector of :func:`jumpseq.poly._unfold` has M + 1 non-negative entries
    and its form is in lowest terms."""
    exp = object.__new__(TExpansion)
    exp.__dict__.update(js=js, pairs=pairs, den=den)
    return exp


# ---------------------------------------------------------------------------
# values and residues
# ---------------------------------------------------------------------------


def _min_pure_term(exp: TExpansion):
    """The unique minimal-value pure term, certified against mixed terms.

    Returns (low, term): low is Q_N * sigma, the integer numerator of the
    minimal value over Q_N, and the term is its pair (exponent vector,
    numerator) of the expansion's form.  Values are read off
    :attr:`TExpansion.nums` and no ``Fraction`` or field element is made.
    Raises InsufficientDepthError when some term involving T_M cannot be
    bounded below by the candidate minimum.
    """
    M, nums = exp.M, exp.nums
    pure = [(n, t) for t, n in zip(exp.pairs, nums) if not t[0][M]]
    if not pure:
        raise InsufficientDepthError(
            "every expansion term involves T_%d, whose value is beyond spec depth" % M
        )
    if len({n for n, _ in pure}) != len(pure):
        raise ArithmeticError("pure expansion terms must have distinct values")
    low, term = min(pure)
    # pure terms are >= low by choice, so only a mixed term can be below it
    if min(nums) < low:
        raise InsufficientDepthError(
            "a term involving T_%d may fall below the candidate minimum %s"
            % (M, Fraction(low, exp.js.Q[-1])))
    return low, term


def _initial(exp: TExpansion):
    """(Q_N * sigma, coefficient, exponent vector) of the minimal pure term
    of ``exp`` (:func:`_min_pure_term`); its coefficient is the one field
    element made."""
    low, term = _min_pure_term(exp)
    return (low, *_terms((term,), exp.den, exp.js.field.characteristic)[0])


def value(f: BivarPoly, js: JumpingSequence) -> Fraction:
    """The valuation of f, normalized so value(u) = 1."""
    return Fraction(_min_pure_term(expand(f, js))[0], js.Q[-1])


def initial_form(f: BivarPoly, js: JumpingSequence):
    """The value of f and its initial form in the graded algebra of the
    valuation: (Q_N * sigma, coefficient, exponent vector over
    T_0 .. T_M) of the minimal pure term of its expansion, the value as
    its integer numerator over Q_N (:attr:`JumpingSequence.weights`), as
    the chain's factors hold it.  Raises InsufficientDepthError as
    :func:`value` does."""
    return _initial(expand(f, js))


def graded_residue(coeff, exps, js: JumpingSequence):
    """The residue of a quotient of value 0, read off its initial form.

    The initial form is coeff * prod_j in(T_j)^exps[j], exponents of any
    sign over T_0 .. T_M, as a product and quotient of initial forms
    (:func:`initial_form`) gives it.  In the graded algebra
    in(T_i)^{q_i} = lambda_i * delta_i(0) * prod_{j<i} in(T_j)^{n_{i,j}}
    for 1 <= i <= N, so reducing a_i with divmod(a_i, q_i) from i = N down
    to 1 brings the form to standard exponents 0 <= a_i < q_i.  Distinct
    standard monomials have distinct values, so a quotient of value 0
    reduces to a constant: its residue.  Any other result raises
    ArithmeticError.
    """
    a = list(exps)
    fld = js.field
    spec = js.spec
    for i in range(js.depth, 0, -1):
        k, a[i] = divmod(a[i], js.q(i))
        if k:
            rel = fld(spec.lambdas[i - 1]) * spec.units[i - 1].constant_term()
            coeff = coeff * rel ** k
            for j, n in enumerate(js.n[i]):
                a[j] += k * n
    if any(a):
        raise ArithmeticError("initial form with standard exponents %s is not a constant"
                              % (a,))
    return coeff


def residue(f: BivarPoly, g: BivarPoly, js: JumpingSequence):
    """The residue of f/g in the residue field, for value(f) = value(g)."""
    ef, eg = expand(f, js), expand(g, js)
    (sf, cf, mf), (sg, cg, mg) = _initial(ef), _initial(eg)
    if sf != sg:
        QN = js.Q[-1]
        raise ValueError("residue requires equal values, got %s and %s"
                         % (Fraction(sf, QN), Fraction(sg, QN)))
    # equal values force equal standard monomials (no nontrivial bounded
    # relation among the beta_j exists)
    if mf != mg:
        raise ArithmeticError("same-value minimal terms with different standard monomials")
    return cf / cg


# ---------------------------------------------------------------------------
# semigroup helpers, generating-sequence and minimality checks
# ---------------------------------------------------------------------------


def _semigroup(generators: List[Fraction], bound: Fraction) -> Tuple[int, array]:
    """The additive semigroup generated by ``generators`` up to ``bound``,
    as one table over the numerators of a common denominator.

    Returns (den, last): den is the lcm of the denominators of the
    generators in (0, bound], and ``last`` has one unsigned short per
    numerator x = 0 .. floor(bound * den).  last[x] is 0 when x/den is not in the
    semigroup; otherwise it is j + 1 for the position j in ``generators``
    of a generator g with x/den - g in the semigroup, the generator last
    added on one way to reach x.  Following ``last`` from x down to 0 thus
    spells out one representation of x/den; last[0] is 1 and is never
    followed.  One pass per generator, as in an unbounded knapsack.
    """
    gens = [(j, Fraction(g)) for j, g in enumerate(generators) if 0 < g <= bound]
    den = lcm(*(g.denominator for _, g in gens))
    last = array("H", [0]) * (max(int(bound * den), 0) + 1)
    last[0] = 1
    for j, g in gens:
        step = int(g * den)
        for x in range(step, len(last)):
            if last[x - step]:
                last[x] = j + 1
    return den, last


def semigroup_below(generators: List[Fraction], bound: Fraction) -> List[Fraction]:
    """All values of the additive semigroup generated by ``generators``
    (zero included) that are <= bound, sorted ascending: the reached
    numerators of :func:`_semigroup`'s table."""
    den, last = _semigroup(generators, Fraction(bound))
    return [Fraction(x, den) for x, j in enumerate(last) if j]


def semigroup_member(target: Fraction, generators: List[Fraction]) -> Optional[Dict[int, int]]:
    """A representation target = sum c_j * generators[j] with integers
    c_j > 0, as {j: c_j} keyed by position in ``generators``, or None.

    The representation follows the back-pointers of :func:`_semigroup`'s
    table from target down to 0.  No table is built when target is
    negative or target * den is not an integer, den the common denominator
    of the generators <= target: every sum of those generators is a
    multiple of 1/den, so target is then not in the semigroup.
    """
    target = Fraction(target)
    if target < 0 or lcm(*(Fraction(g).denominator for g in generators
                           if 0 < g <= target)) % target.denominator:
        return None
    den, last = _semigroup(generators, target)
    x = int(target * den)
    if not last[x]:
        return None
    rep = {}
    while x:
        j = last[x] - 1
        rep[j] = rep.get(j, 0) + 1
        x -= int(generators[j] * den)
    return rep


def verify_generating_sequence(js: JumpingSequence, gamma_max: Fraction, deg_bound: int,
                               samples: int = 0, seed: int = 0) -> List[dict]:
    """Check that T-monomial expansions witness value-ideal membership.

    Every monomial u^a v^b of total degree <= deg_bound, and optionally
    ``samples`` random polynomials, gets its expansion and its value
    sigma.  Its record lists in ``gammas`` the semigroup values
    0 < gamma <= min(gamma_max, sigma), ascending, carries the expansion
    once as ``witness``, and passes: every term of the expansion has value
    >= sigma >= gammas[-1].  A polynomial with no such gamma gets no
    record.  One whose value is not certified at the spec's depth gets
    ``"pass": None`` and the witness "value not certified at this depth".
    The semigroup is enumerated only up to the largest sigma compared,
    however large gamma_max is.

    Only the powers v^b are expanded, each once per call, when the first
    monomial in the (a, b) order of the records needs it; every u^a v^b
    record is derived from v^b's.  Multiplying a standard expansion by
    u^a = T_0^a keeps it standard (a_0 is unbounded), and the standard
    expansion is unique, so the expansion of u^a v^b is that of v^b with
    every a_0 raised by a.  Every term numerator over Q_N then rises by
    a * w_0 = a * Q_N: sigma and the smallest term value rise by a, and the
    pure/mixed split, the distinct-pure-values check and the check for a
    mixed term below the minimum come out the same.  So a v^b that is
    certified, uncertified or raises ArithmeticError does the same for
    every u^a v^b, and the first monomial that raises raises as it would
    if expanded itself.  Expansion divides by T_i monic in v over k[u], so
    its intermediate forms are u^a times those of v^b and hit
    ``TERM_LIMIT`` alike.  Samples are expanded one by one.

    A certified record's ``pass`` comes from its certified value, with
    no comparison: :func:`_min_pure_term` has already refused any
    expansion with a term below sigma, so the smallest term is sigma and
    every gamma listed is at most sigma.  A check independent of the value
    computation is still to be written.
    """
    import random

    fld = js.field
    p = fld.characteristic

    def certify(f):
        """(sigma, rendered terms) of f's expansion, or None when its
        value is not certified at the spec's depth."""
        try:
            exp = expand(f, js)
            sigma = Fraction(_min_pure_term(exp)[0], js.Q[-1])
        except InsufficientDepthError:
            return None
        return sigma, [(render(n, exp.den, p), exps) for exps, n in exp.pairs]

    # (label, certified data or None, a): the data is v^b's for u^a v^b
    expanded = []
    v_powers = {}
    for a in range(deg_bound + 1):
        for b in range(deg_bound + 1 - a):
            if a or b:
                if b not in v_powers:
                    v_powers[b] = certify(BivarPoly.monomial(fld, 0, b, 1, ("u", "v")))
                expanded.append(("u^%d v^%d" % (a, b), v_powers[b], a))
    rng = random.Random(seed)
    for s in range(samples):
        f = _random_poly(fld, rng, max_deg=6, max_terms=5)
        if not f.is_zero():
            expanded.append(("sample %d" % s, certify(f), 0))
    largest = max((data[0] + a for _, data, a in expanded if data is not None), default=0)
    bound = min(Fraction(gamma_max), largest)
    gammas = [g for g in semigroup_below(list(js.beta), bound) if g > 0]

    report = []
    for label, data, a in expanded:
        if data is None:
            report.append({"check": "membership", "inputs": label,
                           "witness": "value not certified at this depth", "pass": None})
            continue
        sigma, terms = data
        below = gammas[:bisect_right(gammas, sigma + a)]
        if below:
            witness = {"terms": [{"c": c, "e": [exps[0] + a, *exps[1:]]} for c, exps in terms]}
            report.append({"check": "membership", "inputs": label, "gammas": below,
                           "witness": witness, "pass": True})
    return report


def _random_poly(fld: GroundField, rng, max_deg: int = 6, max_terms: int = 5) -> BivarPoly:
    # Not shared with scripts/run_battery.py's random_poly: this one draws
    # no second exponent when a = max_deg, so its stream differs, and the
    # recorded ``verify --samples`` outputs depend on this stream.
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        a = rng.randint(0, max_deg)
        b = rng.randint(0, max_deg - a) if max_deg > a else 0
        if fld.kind == "rationals":
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            c = fld(rng.randint(0, fld.characteristic - 1))
        terms[(a, b)] = c
    return BivarPoly(fld, terms, ("u", "v"))


def verify_minimality(ind: IndependentData) -> List[dict]:
    """For each k = 0 .. L, whether betabar_k lies in the semigroup of the
    other betabar_j: one record {"index": k, "minimal": bool, "witness":
    representation or None} per k, and [] when the sequence has no
    independent index (L = 0).

    A witness {j: c_j} is keyed by betabar index: betabar_k = sum c_j *
    betabar_j.  Sound because later betabar values strictly exceed
    betabar_k, so only generators <= betabar_k can contribute.  Each k >= 1
    is decided with no table: betabar_k has denominator Qbar_k, and the
    smaller betabar_j have denominators dividing Qbar_{k-1}, so
    :func:`semigroup_member`'s denominator guard answers None.  Only
    betabar_0 = 1 builds one, over the numerators of 1.
    """
    if not ind.levels:
        return []
    records = []
    for k in range(ind.levels + 1):
        # betabar_k itself is left out as 0, which generates nothing, so the
        # witness keys are betabar indices
        others = [0 if j == k else b for j, b in enumerate(ind.betabar)]
        witness = semigroup_member(ind.betabar[k], others)
        records.append({"index": k, "minimal": witness is None, "witness": witness})
    return records
