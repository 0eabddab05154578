"""Exact arithmetic in field towers F_p <= F_{p^n} <= F_{p^n}(s1,...,sm).

Scalars of the finite part are coefficient tuples over F_p reduced modulo a
monic irreducible extension polynomial.  The transcendental part is handled
by sparse multivariate polynomials (exponent-vector maps) and by rational
functions stored as numerator/denominator pairs in canonical form.  All
values are immutable and all arithmetic is exact; equality of rational
functions is decided by cross-multiplication, never by representation.

Canonical form of a rational function:
  * no transcendentals: the denominator is the constant 1;
  * one variable: numerator and denominator are reduced by univariate gcd
    and the denominator is monic;
  * two or more variables: no gcd is attempted (multivariate gcd is out of
    scope); the denominator's graded-lex leading coefficient is scaled to 1.
"""

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CompositeCharacteristic,
    DivisionByZero,
    DuplicateVariable,
    FieldMismatch,
    NotARefinement,
    ReduciblePolynomial,
)

MAX_EXTENSION_DEGREE = 8


def is_prime(n: int) -> bool:
    return n >= 2 and next(_prime_factors(n)) == n


def _prime_factors(n):
    """The distinct prime factors of n >= 1, ascending, by trial division,
    yielded as they are found, so that the first one ends a primality
    test."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        yield n


# ---------------------------------------------------------------------------
# Dense univariate arithmetic over F_p, used for the extension polynomial.
# Coefficient lists are ascending, trailing zeros trimmed.


def _utrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _umod(a, b, p):
    """Remainder of a modulo b; b must be monic."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - db
            for j, bj in enumerate(b):
                a[shift + j] = (a[shift + j] - lead * bj) % p
        a.pop()
    return _utrim(a)


def _is_irreducible_over_prime(coeffs, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    n = len(coeffs) - 1
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if not _umod(coeffs, g, p):
                return False
    return True


# ---------------------------------------------------------------------------
# Field descriptors


@dataclass(frozen=True)
class FieldDescriptor:
    """A member of a tower F_p <= F_{p^n} <= F_{p^n}(s1,...,sm).

    ``ext`` is the full coefficient tuple (c0,...,c_{n-1},1) of the monic
    irreducible polynomial defining the finite extension, or None for the
    prime field.  ``vars`` lists the transcendental variable names in order.
    Construct through :func:`make_field`, which validates the data.
    """

    p: int
    ext: tuple | None
    vars: tuple

    # -- shape ------------------------------------------------------------

    @property
    def deg(self) -> int:
        return len(self.ext) - 1 if self.ext else 1

    @property
    def nvars(self) -> int:
        return len(self.vars)

    @property
    def is_finite(self) -> bool:
        return not self.vars

    @property
    def order(self) -> int:
        """Number of elements of the finite part."""
        return self.p ** self.deg

    @property
    def finite_part(self):
        """F_p[w]/(ext) with the transcendentals dropped."""
        return FieldDescriptor(self.p, self.ext, ())

    # -- scalar arithmetic on coefficient tuples ---------------------------

    def szero(self):
        return (0,) * self.deg

    def sone(self):
        return (1,) + (0,) * (self.deg - 1)

    def sfrom_int(self, c):
        return (c % self.p,) + (0,) * (self.deg - 1)

    def s_is_zero(self, a):
        return not any(a)

    def sadd(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def ssub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def sneg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def smul(self, a, b):
        p = self.p
        if self.deg == 1:
            return ((a[0] * b[0]) % p,)
        raw = [0] * (2 * self.deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    raw[i + j] = (raw[i + j] + ai * bj) % p
        red = _reduction_rows(self)
        out = [0] * self.deg
        for k, ck in enumerate(raw):
            if ck:
                row = red[k]
                for t in range(self.deg):
                    out[t] = (out[t] + ck * row[t]) % p
        return tuple(out)

    def spow(self, a, k):
        result = self.sone()
        base = a
        while k:
            if k & 1:
                result = self.smul(result, base)
            base = self.smul(base, base)
            k >>= 1
        return result

    def sinv(self, a):
        if self.s_is_zero(a):
            raise DivisionByZero("inverse of zero")
        if self.deg == 1:
            return (pow(a[0], -1, self.p),)
        return self.spow(a, self.order - 2)

    def sto_code(self, a) -> int:
        code = 0
        for c in reversed(a):
            code = code * self.p + c
        return code

    def sfrom_code(self, code: int):
        digits = []
        for _ in range(self.deg):
            digits.append(code % self.p)
            code //= self.p
        return tuple(digits)


@lru_cache(maxsize=None)
def _reduction_rows(desc):
    """Coordinates of x^k modulo the extension polynomial, k < 2*deg-1:
    the unit vector of x^k for k < deg - 1, and x^(deg-1+j) = W^j x^(deg-1),
    column deg-1 of companion_powers[j], for j < deg."""
    e = desc.deg
    rows = np.concatenate([np.eye(e - 1, e, dtype=np.int64),
                           companion_powers(desc)[:, :, e - 1]])
    return tuple(map(tuple, rows.tolist()))


def make_field(p, ext=None, vars=()):
    """Validated descriptor for F_p, F_{p^n}, or a rational function field.

    ``ext`` is an ascending coefficient sequence of a monic irreducible
    polynomial over F_p (degree 2..8); ``vars`` is an ordered sequence of
    distinct transcendental variable names.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise CompositeCharacteristic(f"{p!r} is not prime")
    if ext is not None:
        ext = tuple(c % p for c in ext)
        if len(ext) < 3:
            raise ReduciblePolynomial("extension polynomial must have degree >= 2")
        if ext[-1] != 1:
            raise ReduciblePolynomial("extension polynomial must be monic")
        if len(ext) - 1 > MAX_EXTENSION_DEGREE:
            raise ReduciblePolynomial(
                f"extension degree capped at {MAX_EXTENSION_DEGREE}"
            )
        if not _is_irreducible_over_prime(list(ext), p):
            raise ReduciblePolynomial(f"{ext} is reducible over F_{p}")
    names = tuple(str(v) for v in vars)
    if len(set(names)) != len(names):
        raise DuplicateVariable(f"duplicate variable names in {names}")
    return FieldDescriptor(p, ext, names)


@lru_cache(maxsize=None)
def canonical_extension(p, n):
    """F_{p^n} with the lexicographically smallest monic irreducible, by
    its coefficients from the constant term up.  For n >= 2 a polynomial
    with constant term 0 is divisible by x, so the search starts at 1."""
    if n == 1:
        return make_field(p)
    for tail in itertools.product(range(1, p), *[range(p)] * (n - 1)):
        coeffs = tail + (1,)
        if _is_irreducible_over_prime(list(coeffs), p):
            return make_field(p, coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# Zech logarithms of the finite part

_TABLE_CHUNK = 1 << 16  # powers of g computed per numpy step


def primitive_element(desc):
    """Code of the first element, in code order, that generates the
    multiplicative group of the finite part.  The class of x need not: it
    has order 4 of 8 in F_3[x]/(x^2+1), the canonical F_9."""
    m = desc.order - 1
    one = desc.sone()
    factors = list(_prime_factors(m))
    for code in range(1, desc.order):
        x = desc.sfrom_code(code)
        if all(desc.spow(x, m // f) != one for f in factors):
            return code
    raise AssertionError("no primitive element")  # unreachable


@lru_cache(maxsize=None)
def companion_powers(desc):
    """Stack W^0..W^{e-1} where W is multiplication by the extension generator."""
    e, p = desc.deg, desc.p
    w = np.zeros((e, e), dtype=np.int64)
    if e == 1:
        w[0, 0] = 1
    else:
        for j in range(e - 1):
            w[j + 1, j] = 1
        for t in range(e):
            w[t, e - 1] = (-desc.ext[t]) % p
    powers = np.zeros((e, e, e), dtype=np.int64)
    cur = np.eye(e, dtype=np.int64)
    for j in range(e):
        powers[j] = cur
        cur = (w @ cur) % p
    powers.flags.writeable = False
    return powers


def scalar_matrix(desc, scalar):
    """(e, e) F_p matrix of multiplication by a finite-part scalar, acting on
    coordinate columns; its transpose acts on coordinate rows.  Given an
    (..., e) array of scalars, the (..., e, e) array of their matrices."""
    e = desc.deg
    a = np.asarray(scalar, dtype=np.int64)
    return (a @ companion_powers(desc).reshape(e, e * e)).reshape(
        *a.shape[:-1], e, e) % desc.p


@lru_cache(maxsize=None)
def zech_tables(desc):
    """Read-only int32 arrays (exp, log, zech) of length q = |finite part|
    for a primitive element g (see primitive_element), over element codes
    (see sto_code).  Zero has the log q-1, so for every code c and every
    k < q-1:

      exp[log[c]] = c,   exp[k] = code of g^k,   exp[q-1] = 0,
      zech[k] = log(1 + g^k),   zech[q-1] = log 1 = 0.

    The powers of g are built in chunks of _TABLE_CHUNK coordinate rows,
    each the previous one times g^chunk, so no step holds more than one
    chunk of coordinates; F_{7^8} has q-1 = 5,764,800 powers."""
    p, e, q = desc.p, desc.deg, desc.order
    m = q - 1
    g = desc.sfrom_code(primitive_element(desc))
    weights = p ** np.arange(e, dtype=np.int64)
    size = min(m, _TABLE_CHUNK)
    rows = np.zeros((size, e), dtype=np.int64)
    rows[0, 0] = 1
    done = 1
    while done < size:  # doubling: rows[done:2*done] = rows[:done] * g^done
        step = desc.smul(tuple(rows[done - 1].tolist()), g)
        take = min(done, size - done)
        rows[done:done + take] = rows[:take] @ scalar_matrix(desc, step).T % p
        done += take
    shift = scalar_matrix(desc, desc.smul(tuple(rows[size - 1].tolist()), g)).T
    exp = np.zeros(q, dtype=np.int32)
    for start in range(0, m, size):
        stop = min(start + size, m)
        exp[start:stop] = (rows[:stop - start] @ weights)
        rows = rows @ shift % p
    log = np.empty(q, dtype=np.int32)
    log[exp[:m]] = np.arange(m, dtype=np.int32)
    log[0] = m
    zech = np.zeros(q, dtype=np.int32)
    for start in range(0, m, size):
        codes = exp[start:min(start + size, m)]
        low = codes % p  # the F_p coordinate, the one 1 is added to
        zech[start:start + codes.size] = log[codes - low + (low + 1) % p]
    for table in (exp, log, zech):
        table.flags.writeable = False
    return exp, log, zech


@lru_cache(maxsize=None)
def frobenius(desc, order):
    """Read-only int32 array over element codes: the code of x^order at the
    code of x, for ``order`` the order of a subfield of the finite part, so
    that x -> x^order generates the automorphisms of the finite part over
    that subfield.  log(x^order) = order * log x mod q-1, and 0 -> 0."""
    exp, log, _ = zech_tables(desc)
    table = exp[log.astype(np.int64) * order % (desc.order - 1)]
    table[0] = 0
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials over the finite part of the tower


def glex_key(exps):
    return (sum(exps), exps)


class Polynomial:
    """Sparse polynomial in the tower's transcendentals.

    ``terms`` maps exponent tuples (uniform length = number of variables) to
    nonzero coefficient tuples of the finite part.
    """

    __slots__ = ("desc", "terms")

    def __init__(self, desc, terms):
        m = desc.nvars
        clean = {}
        for exps, coeff in terms.items():
            if len(exps) != m:
                raise ValueError(f"exponent vector {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if any(coeff):
                clean[tuple(exps)] = tuple(coeff)
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, desc):
        return cls(desc, {})

    @classmethod
    def const(cls, desc, scalar):
        return cls(desc, {(0,) * desc.nvars: scalar})

    @classmethod
    def from_int(cls, desc, c):
        return cls.const(desc, desc.sfrom_int(c))

    @classmethod
    def variable(cls, desc, name):
        i = desc.vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(desc.nvars))
        return cls(desc, {exps: desc.sone()})

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_scalar(self):
        zero_exps = (0,) * self.desc.nvars
        return self.terms.get(zero_exps, self.desc.szero())

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def leading_term(self):
        """Graded-lex leading (exps, coeff); zero polynomial has none."""
        exps = max(self.terms, key=glex_key)
        return exps, self.terms[exps]

    def is_homogeneous(self):
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    # -- arithmetic ----------------------------------------------------------

    def _binop(self, other, f):
        desc = self.desc
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            cur = out.get(exps)
            new = f(cur, coeff) if cur is not None else f(None, coeff)
            if any(new):
                out[exps] = new
            elif cur is not None:
                del out[exps]
        return Polynomial(desc, out)

    def __add__(self, other):
        self._check(other)
        desc = self.desc
        return self._binop(
            other, lambda a, b: desc.sadd(a, b) if a is not None else b
        )

    def __sub__(self, other):
        self._check(other)
        desc = self.desc
        return self._binop(
            other,
            lambda a, b: desc.ssub(a, b) if a is not None else desc.sneg(b),
        )

    def __neg__(self):
        desc = self.desc
        return Polynomial(desc, {e: desc.sneg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        desc = self.desc
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = desc.smul(c1, c2)
                cur = out.get(e)
                if cur is not None:
                    c = desc.sadd(cur, c)
                if any(c):
                    out[e] = c
                elif cur is not None:
                    del out[e]
        return Polynomial(desc, out)

    def scale(self, scalar):
        desc = self.desc
        if not any(scalar):
            return Polynomial.zero(desc)
        return Polynomial(
            desc, {e: desc.smul(c, scalar) for e, c in self.terms.items()}
        )

    def __pow__(self, k):
        result = Polynomial.const(self.desc, self.desc.sone())
        for _ in range(k):
            result = result * self
        return result

    def _check(self, other):
        if not isinstance(other, Polynomial) or other.desc != self.desc:
            raise FieldMismatch("polynomial descriptor mismatch")

    # -- evaluation ----------------------------------------------------------

    def evaluate_scalars(self, target, coords, coeff_map):
        """Value at ``coords`` (scalars of ``target``), coefficients carried
        over by ``coeff_map``."""
        acc = target.szero()
        for exps, coeff in self.terms.items():
            term = coeff_map(coeff)
            for x, e in zip(coords, exps):
                if e:
                    term = target.smul(term, target.spow(x, e))
            acc = target.sadd(acc, term)
        return acc

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.desc == other.desc and self.terms == other.terms

    def __hash__(self):
        return hash((self.desc, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"Polynomial({poly_str(self)})"


def poly_exact_div(f, g):
    """Exact quotient f/g in the polynomial ring; g must divide f."""
    desc = f.desc
    if g.is_zero():
        raise DivisionByZero("polynomial division by zero")
    out = {}
    rem = f
    g_exps, g_coeff = g.leading_term()
    g_inv = desc.sinv(g_coeff)
    while not rem.is_zero():
        r_exps, r_coeff = rem.leading_term()
        q_exps = tuple(a - b for a, b in zip(r_exps, g_exps))
        if any(e < 0 for e in q_exps):
            raise ArithmeticError("inexact polynomial division")
        q_coeff = desc.smul(r_coeff, g_inv)
        out[q_exps] = q_coeff
        rem = rem - g * Polynomial(desc, {q_exps: q_coeff})
    return Polynomial(desc, out)


# univariate gcd helpers (m == 1), operating on dense scalar lists


def _udense(poly):
    if poly.is_zero():
        return []
    deg = max(e[0] for e in poly.terms)
    out = [poly.desc.szero()] * (deg + 1)
    for (e,), c in poly.terms.items():
        out[e] = c
    return out


def _usparse(desc, dense):
    return Polynomial(desc, {(i,): c for i, c in enumerate(dense) if any(c)})


def univariate_gcd(f, g):
    """Monic gcd in one variable (Euclid with monic remainders)."""
    desc = f.desc
    if desc.nvars != 1:
        raise ValueError("univariate_gcd requires exactly one variable")
    a, b = _udense(f), _udense(g)
    while b:
        inv = desc.sinv(b[-1])
        b = [desc.smul(c, inv) for c in b]
        # dense remainder a mod monic b
        a = list(a)
        while a and len(a) >= len(b):
            lead = a[-1]
            if any(lead):
                shift = len(a) - len(b)
                for j, bj in enumerate(b):
                    a[shift + j] = desc.ssub(a[shift + j], desc.smul(lead, bj))
            a.pop()
        while a and not any(a[-1]):
            a.pop()
        a, b = b, a
    if a:
        inv = desc.sinv(a[-1])
        a = [desc.smul(c, inv) for c in a]
    return _usparse(desc, a)


# ---------------------------------------------------------------------------
# Field elements


class FieldElement:
    """Element of a FieldDescriptor tower, stored as num/den in canonical form."""

    __slots__ = ("desc", "num", "den")

    def __init__(self, desc, num, den=None):
        if den is None:
            den = Polynomial.const(desc, desc.sone())
        if num.desc != desc or den.desc != desc:
            raise FieldMismatch("component descriptor mismatch")
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        num, den = _canonicalize(desc, num, den)
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, desc):
        return cls(desc, Polynomial.zero(desc))

    @classmethod
    def one(cls, desc):
        return cls(desc, Polynomial.const(desc, desc.sone()))

    @classmethod
    def from_int(cls, desc, c):
        return cls(desc, Polynomial.from_int(desc, c))

    @classmethod
    def from_scalar(cls, desc, scalar):
        return cls(desc, Polynomial.const(desc, tuple(scalar)))

    @classmethod
    def variable(cls, desc, name):
        return cls(desc, Polynomial.variable(desc, name))

    # -- queries ------------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_polynomial(self):
        """True when the canonical denominator is the constant 1."""
        return self.den.is_constant() and self.den.constant_scalar() == self.desc.sone()

    def as_scalar(self):
        """Coefficient tuple, for constant elements of a finite tower member."""
        if self.desc.nvars == 0:
            return self.num.constant_scalar()  # canonical form has den = 1
        if not (self.is_polynomial() and self.num.is_constant()):
            raise ValueError("element is not a finite-part scalar")
        return self.num.constant_scalar()

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return FieldElement.from_int(self.desc, other)
        if isinstance(other, FieldElement):
            if other.desc != self.desc:
                raise FieldMismatch("elements of different fields")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        desc = self.desc
        if desc.nvars == 0:
            return interned(desc, desc.sadd(self.as_scalar(), other.as_scalar()))
        return FieldElement(
            desc,
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        desc = self.desc
        if desc.nvars == 0:
            return interned(desc, desc.ssub(self.as_scalar(), other.as_scalar()))
        return FieldElement(
            desc,
            self.num * other.den - other.num * self.den,
            self.den * other.den,
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        if self.desc.nvars == 0:
            return interned(self.desc, self.desc.sneg(self.as_scalar()))
        return FieldElement(self.desc, -self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        desc = self.desc
        if desc.nvars == 0:
            return interned(desc, desc.smul(self.as_scalar(), other.as_scalar()))
        return FieldElement(desc, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.desc.nvars == 0:
            return interned(self.desc, self.desc.sinv(self.as_scalar()))
        return FieldElement(self.desc, self.den, self.num)

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = FieldElement.one(self.desc)
        for _ in range(k):
            out = out * self
        return out

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = FieldElement.from_int(self.desc, other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.desc != self.desc:
            return False
        if self.den == other.den:
            return self.num == other.num
        # cross-multiplication; canonical forms with >= 2 variables are only
        # content-reduced, so representation equality would be wrong there
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        if self.desc.nvars >= 2:
            raise TypeError(
                "elements with >= 2 transcendentals have no canonical "
                "representation and cannot be hashed"
            )
        return hash(
            (
                self.desc,
                tuple(sorted(self.num.terms.items())),
                tuple(sorted(self.den.terms.items())),
            )
        )

    def __repr__(self):
        return f"FieldElement({to_literal(self)})"


def _canonicalize(desc, num, den):
    if num.is_zero():
        return Polynomial.zero(desc), Polynomial.const(desc, desc.sone())
    if den.terms == {(0,) * desc.nvars: desc.sone()}:
        return num, den  # already canonical, as from int and scalar constructors
    m = desc.nvars
    if m == 0:
        q = desc.smul(num.constant_scalar(), desc.sinv(den.constant_scalar()))
        return Polynomial.const(desc, q), Polynomial.const(desc, desc.sone())
    if m == 1:
        g = univariate_gcd(num, den)
        if g.total_degree() > 0:
            num = poly_exact_div(num, g)
            den = poly_exact_div(den, g)
        _, lead = den.leading_term()
        inv = desc.sinv(lead)
        return num.scale(inv), den.scale(inv)
    _, lead = den.leading_term()
    inv = desc.sinv(lead)
    return num.scale(inv), den.scale(inv)


@lru_cache(maxsize=None)
def interned(desc, scalar) -> FieldElement:
    """Shared immutable element for a finite-part scalar; safe because
    elements are immutable, and much cheaper in matrix-building loops."""
    return FieldElement.from_scalar(desc, scalar)


def arith(op, x, y=None):
    """Dispatch table for the four field operations."""
    if op == "add":
        return x + y
    if op == "mul":
        return x * y
    if op == "neg":
        return -x
    if op == "inv":
        return x.inv()
    raise ValueError(f"unknown operation {op!r}")


# ---------------------------------------------------------------------------
# Tower refinement and embedding


@lru_cache(maxsize=None)
def _scalar_embedding(src, dst):
    """Map on coefficient tuples realizing src's finite part inside dst's."""
    if src.p != dst.p:
        raise NotARefinement(f"characteristic {src.p} vs {dst.p}")
    if src.deg == 1:
        pad = (0,) * (dst.deg - 1)
        return lambda a: (a[0],) + pad
    if src.ext == dst.ext:
        return lambda a: a
    if dst.deg % src.deg != 0:
        raise NotARefinement(
            f"degree {src.deg} does not divide degree {dst.deg}"
        )

    def evaluate(coeffs, x):
        """sum_k coeffs[k] x^k in dst, for coefficients in F_p."""
        acc = dst.szero()
        power = dst.sone()
        for c in coeffs:
            if c:
                acc = dst.sadd(acc, tuple((c * t) % dst.p for t in power))
            power = dst.smul(power, x)
        return acc

    # the smallest root of src's extension polynomial in dst, in code order
    roots = (x for x in map(dst.sfrom_code, range(dst.order))
             if dst.s_is_zero(evaluate(src.ext, x)))
    root = next(roots, None)
    if root is None:
        raise NotARefinement("extension polynomial has no root in target")
    return lambda a: evaluate(a, root)


def _var_positions(src, dst):
    """Indices of src.vars inside dst.vars as an order-preserving subsequence."""
    positions = []
    j = 0
    for name in src.vars:
        while j < len(dst.vars) and dst.vars[j] != name:
            j += 1
        if j == len(dst.vars):
            raise NotARefinement(f"variable {name!r} missing from target")
        positions.append(j)
        j += 1
    return positions


def refines(target, src) -> bool:
    """True when ``target`` extends ``src`` along the tower."""
    try:
        _scalar_embedding(src, target)
        _var_positions(src, target)
    except NotARefinement:
        return False
    return True


def embed_polynomial(poly, target):
    src = poly.desc
    emb = _scalar_embedding(src, target)
    positions = _var_positions(src, target)
    m = target.nvars
    out = {}
    for exps, coeff in poly.terms.items():
        new = [0] * m
        for pos, e in zip(positions, exps):
            new[pos] = e
        out[tuple(new)] = emb(coeff)
    return Polynomial(target, out)


def embed(x, target):
    """Image of ``x`` under the canonical inclusion into ``target``.

    ``target`` must refine ``x``'s descriptor: same characteristic, finite
    part contained in the target's finite part, variables an
    order-preserving subsequence of the target's variables.
    """
    if x.desc == target:
        return x
    if x.desc.is_finite and target.is_finite:
        _var_positions(x.desc, target)  # refinement check only
        return interned(target, _scalar_embedding(x.desc, target)(x.as_scalar()))
    return FieldElement(
        target, embed_polynomial(x.num, target), embed_polynomial(x.den, target)
    )


# ---------------------------------------------------------------------------
# Serialization: field-element literals used by module files and the CLI


def _scalar_json(desc, scalar):
    if desc.deg == 1:
        return scalar[0]
    return list(scalar)


def _scalar_text(desc, scalar):
    """A finite-part scalar as text: an integer over a prime field, a
    compact coefficient array otherwise."""
    return json.dumps(_scalar_json(desc, scalar), separators=(",", ":"))


def _term_list(poly):
    desc = poly.desc
    items = sorted(poly.terms.items(), key=lambda kv: glex_key(kv[0]), reverse=True)
    return [
        {"coeff": _scalar_json(desc, c), "exps": list(e)}
        for e, c in items
    ]


def to_literal(x) -> str:
    """Canonical text literal: a decimal integer for prime-field scalars,
    a coefficient array for extension scalars, a num/den term-list object
    for rational functions."""
    desc = x.desc
    if desc.nvars == 0:
        return _scalar_text(desc, x.num.constant_scalar())
    payload = {"num": _term_list(x.num), "den": _term_list(x.den)}
    return json.dumps(payload, separators=(",", ":"))


def _scalar_from_json(desc, data):
    if isinstance(data, int):
        return desc.sfrom_int(data)
    if isinstance(data, list) and all(isinstance(c, int) for c in data):
        if len(data) > desc.deg:
            raise ValueError(f"coefficient array longer than degree {desc.deg}")
        return tuple(c % desc.p for c in data) + (0,) * (desc.deg - len(data))
    raise ValueError(f"bad scalar literal {data!r}")


def _poly_from_terms(desc, data):
    if not isinstance(data, list):
        raise ValueError("term list expected")
    out = Polynomial.zero(desc)
    for term in data:
        if not isinstance(term, dict) or set(term) != {"coeff", "exps"}:
            raise ValueError(f"bad term {term!r}")
        exps = term["exps"]
        if len(exps) != desc.nvars:
            raise ValueError(f"exponent vector length != {desc.nvars}")
        coeff = _scalar_from_json(desc, term["coeff"])
        out = out + Polynomial(desc, {tuple(exps): coeff})
    return out


def parse_literal(text: str, desc) -> FieldElement:
    """Inverse of :func:`to_literal`, tolerant of plain integers anywhere."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad field literal {text!r}: {exc}") from exc
    if isinstance(data, int):
        return FieldElement.from_int(desc, data)
    if isinstance(data, list):
        return FieldElement.from_scalar(desc, _scalar_from_json(desc, data))
    if isinstance(data, dict) and set(data) == {"num", "den"}:
        num = _poly_from_terms(desc, data["num"])
        den = _poly_from_terms(desc, data["den"])
        return FieldElement(desc, num, den)
    raise ValueError(f"bad field literal {text!r}")


def poly_str(poly) -> str:
    """Human-readable polynomial, terms in descending graded-lex order."""
    if poly.is_zero():
        return "0"
    desc = poly.desc
    parts = []
    for exps, coeff in sorted(
        poly.terms.items(), key=lambda kv: glex_key(kv[0]), reverse=True
    ):
        factors = []
        if coeff != desc.sone() or not any(exps):
            factors.append(_scalar_text(desc, coeff))
        for name, e in zip(desc.vars, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)
