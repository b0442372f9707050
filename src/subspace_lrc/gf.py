"""Exact arithmetic in GF(p) and in its extensions GF(q^s).

Elements are plain Python ints in range(q), read as base-p digit vectors:
the integer sum(d_i * p**i) stands for the polynomial sum(d_i * x**i) in
GF(p)[x] reduced modulo a fixed irreducible monic polynomial. The modulus
is always the irreducible monic polynomial of the requested degree with
the smallest integer encoding (digits read from the constant term up), so
a context is fully reproducible from its parameters alone. No Conway
polynomial tables and no randomness are involved.

FieldContext is a prime field GF(p). ExtensionContext is the one engine
that builds a field from polynomials: elements of GF(q^s) are base-q digit
vectors over the base field, reduced modulo the smallest irreducible monic
degree-s polynomial over GF(q). GF(p^m) for m > 1 is the degree-m extension
of GF(p): field_new(p, m) is extension_new(field_new(p), m), so each field
has one context. Every field multiplies through its exp/log tables and adds
digit by digit.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    NotPrime,
    OrderTooLarge,
    OutOfRange,
)
from .limits import DEFAULT_TABLE_LIMIT


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _refuse_order(p: int, m: int, written: str) -> None:
    """Refuse p^m over the table limit before factoring p or raising it to a large power."""
    cap = DEFAULT_TABLE_LIMIT
    if p > 1 and m >= 1 and (p > cap or m >= cap.bit_length() or p**m > cap):
        raise OrderTooLarge(f"field order {written} exceeds table limit {cap}")


def _digits(x: int, base: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(x % base)
        x //= base
    return tuple(out)


def _from_digits(ds: Iterable[int], base: int) -> int:
    value = 0
    for d in reversed(tuple(ds)):
        value = value * base + d
    return value


# --- polynomial helpers over an arbitrary coefficient field ----------------
# Polynomials are tuples of coefficient encodings, constant term first,
# with no normalization requirement (trailing zeros allowed).


def _poly_trim(p: tuple[int, ...]) -> tuple[int, ...]:
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return p[:n]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], cf) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = cf.add(out[i + j], cf.mul(ai, bj))
    return _poly_trim(tuple(out))


def _poly_mod(a: tuple[int, ...], mod: tuple[int, ...], cf) -> tuple[int, ...]:
    # mod is monic; reduce a in place by long division.
    a = list(a)
    dm = len(mod) - 1
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top]
        if c == 0:
            continue
        a[top] = 0
        for k in range(dm):
            if mod[k]:
                a[top - dm + k] = cf.sub(a[top - dm + k], cf.mul(c, mod[k]))
    return _poly_trim(tuple(a))


def _monic_polys(degree: int, cf) -> Iterable[tuple[int, ...]]:
    """All monic polynomials of exactly this degree, smallest encoding first."""
    q = cf.q
    for code in range(q**degree):
        yield _digits(code, q, degree) + (1,)


def _is_irreducible(poly: tuple[int, ...], cf) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    degree = len(poly) - 1
    for d in range(1, degree // 2 + 1):
        for div in _monic_polys(d, cf):
            if not _poly_mod(poly, div, cf):
                return False
    return True


def _smallest_irreducible(degree: int, cf) -> tuple[int, ...]:
    for cand in _monic_polys(degree, cf):
        if _is_irreducible(cand, cf):
            return cand
    raise AssertionError("no irreducible polynomial found; unreachable")


def _distinct_prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _power_tables(q: int, mul) -> tuple[list[int], list[int]]:
    """exp/log tables of GF(q) for the smallest generator of its multiplicative group."""
    order = q - 1
    factors = _distinct_prime_factors(order)

    def power(a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = mul(result, a)
            a = mul(a, a)
            e >>= 1
        return result

    gen = next(c for c in range(1, q) if all(power(c, order // f) != 1 for f in factors))
    exp = [1] * order
    for i in range(1, order):
        exp[i] = mul(exp[i - 1], gen)
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    return exp, log


def _digitwise(p: int, op):
    """Apply op(a_i, b_i) mod p to every base-p digit of a and b."""

    def apply(a: int, b: int = 0) -> int:
        out, mult = 0, 1
        while a or b:
            out += op(a % p, b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    return apply


class _FieldOps:
    """Mixin implementing the element operations; a field sets _add, _neg, _exp and _log."""

    p: int
    q: int

    def _check(self, *elems: int) -> None:
        for a in elems:
            if not 0 <= a < self.q:
                raise OutOfRange(f"element {a} outside field of order {self.q}")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return self._add(a, b)

    def neg(self, a: int) -> int:
        self._check(a)
        return self._neg(a)

    def sub(self, a: int, b: int) -> int:
        self._check(a, b)
        return self._add(a, self._neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            self._check(a)
            raise DivisionByZero("division by zero")
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a**e for e >= 0 (0**0 = 1)."""
        self._check(a)
        if e < 0:
            raise OutOfRange("exponent must be nonnegative")
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]


class FieldContext(_FieldOps):
    """The prime field GF(p), elements 0..p-1 added and multiplied mod p.

    modulus is x itself, (0, 1), constant term first. Contexts come from
    field_new (or parse_field, field_from_order), which checks that p is a
    prime within the table limit; there is one per field, so fields compare
    by identity. Calling the class directly makes a separate field; mixing
    it with a cached one raises AmbientMismatch.
    """

    m = 1
    modulus = (0, 1)

    def __init__(self, p: int):
        self.p = self.q = p
        self._add = (lambda a, b: a ^ b) if p == 2 else (lambda a, b: (a + b) % p)
        self._neg = (lambda a: a) if p == 2 else (lambda a: (-a) % p)
        self._exp, self._log = _power_tables(p, lambda a, b: a * b % p)

    def descriptor(self) -> str:
        return f"gf({self.p})"

    def __repr__(self) -> str:
        return f"FieldContext({self.descriptor()})"

    def __reduce__(self):
        # a context unpickles as the cached context of the same field
        return field_new, (self.p,)


class ExtensionContext(_FieldOps):
    """GF(q^s) built as degree-s polynomials over an existing field of order q.

    The modulus is the smallest irreducible monic degree-s polynomial over
    the base field. An element's base-q digits are base-p digit vectors
    themselves, so addition and negation act on its base-p digits.

    The basis 1, y, ..., y^(s-1) makes expand/recombine GF(q)-linear: expand
    returns the base-q digit vector of an element, recombine inverts it.

    m is the degree over the prime field. Over a prime base the context is
    GF(p^m) itself, which field_new returns and which describes itself as
    gf(p^m); over GF(p^k) it describes itself with its base.

    Contexts come from extension_new, one per base and degree; like
    FieldContext, a directly built one is a separate field.
    """

    def __init__(self, base, degree: int):
        if degree < 1:
            raise OutOfRange(f"extension degree must be >= 1, got {degree}")
        _refuse_order(base.q, degree, f"{base.q}^{degree}")
        self.base = base
        self.degree = degree
        self.m = base.m * degree
        self.p = p = base.p
        self.q = base.q**degree
        self.modulus = _smallest_irreducible(degree, base)
        if p == 2:
            # binary digits are bits: no carries
            self._add, self._neg = (lambda a, b: a ^ b), (lambda a: a)
        else:
            self._add, self._neg = _digitwise(p, lambda x, y: x + y), _digitwise(p, lambda x, _: -x)
        self._exp, self._log = _power_tables(self.q, self._poly_product)

    def _poly_product(self, a: int, b: int) -> int:
        """a * b as polynomials over the base field, reduced by the modulus."""
        base, s = self.base, self.degree
        prod = _poly_mul(_digits(a, base.q, s), _digits(b, base.q, s), base)
        return _from_digits(_poly_mod(prod, self.modulus, base), base.q)

    @property
    def basis(self) -> tuple[int, ...]:
        """Encodings of 1, y, ..., y^(degree-1)."""
        return tuple(self.base.q**i for i in range(self.degree))

    def expand(self, x: int) -> tuple[int, ...]:
        """Coordinates of x over the base field in the power basis."""
        self._check(x)
        return _digits(x, self.base.q, self.degree)

    def recombine(self, coords: tuple[int, ...]) -> int:
        """Inverse of expand."""
        coords = tuple(coords)
        if len(coords) != self.degree:
            raise DimensionMismatch(
                f"expected {self.degree} coordinates, got {len(coords)}"
            )
        for c in coords:
            if not 0 <= c < self.base.q:
                raise OutOfRange(f"coordinate {c} outside base field of order {self.base.q}")
        return _from_digits(coords, self.base.q)

    def frobenius(self, x: int, i: int = 1) -> int:
        """x raised to the q^i power (q the base field order); frobenius(x, degree) = x."""
        if i < 0:
            raise OutOfRange("frobenius power must be nonnegative")
        return self.pow(x, self.base.q**i)

    def descriptor(self) -> str:
        if self.base.m == 1:
            return f"gf({self.p}^{self.m})"
        return f"gf({self.base.q}^{self.degree} over {self.base.descriptor()})"

    def __repr__(self) -> str:
        return f"ExtensionContext({self.descriptor()})"

    def __reduce__(self):
        return extension_new, (self.base, self.degree)


@functools.lru_cache(maxsize=None)
def _field_cached(p: int, m: int) -> FieldContext | ExtensionContext:
    # the order is refused before p is factored, and p is checked before m
    _refuse_order(p, m, f"{p}^{m}")
    if not is_prime(p):
        raise NotPrime(f"characteristic {p} is not prime")
    if m < 1:
        raise OutOfRange(f"extension degree must be >= 1, got {m}")
    return FieldContext(p) if m == 1 else extension_new(_field_cached(p, 1), m)


def field_new(p: int, m: int = 1) -> FieldContext | ExtensionContext:
    """GF(p^m): GF(p) for m = 1, else its degree-m extension; cached, contexts are immutable."""
    return _field_cached(p, m)


@functools.lru_cache(maxsize=None)
def extension_new(base: FieldContext | ExtensionContext, degree: int, /) -> ExtensionContext:
    """GF(q^degree) over base; cached."""
    return ExtensionContext(base, degree)


_DESCRIPTOR_RE = re.compile(r"^gf\((\d+)(?:\^(\d+))?\)$")


def parse_field(descriptor: str) -> FieldContext | ExtensionContext:
    """Parse a field descriptor: gf(q), gf(p^m) or a bare prime power q.

    Case and whitespace are ignored, so gf(4), GF( 2 ^ 2 ) and 4 all give
    the same cached context.
    """
    cleaned = "".join(descriptor.split()).lower()
    match = _DESCRIPTOR_RE.match(f"gf({cleaned})" if cleaned.isdecimal() else cleaned)
    if not match:
        raise OutOfRange(f"cannot parse field {descriptor!r}; expected gf(q) or gf(p^m)")
    # sized by digit count first: int() refuses more than 4,300 digits, and
    # past the table limit only "too large" matters
    digits = [g.lstrip("0") or "0" for g in match.groups("1")]
    p, m = (int(g) if len(g) <= len(str(DEFAULT_TABLE_LIMIT)) else DEFAULT_TABLE_LIMIT + 1 for g in digits)
    if match.group(2) is None:
        _refuse_order(p, 1, digits[0])
        return field_from_order(p)
    _refuse_order(p, m, "^".join(digits))
    return field_new(p, m)


def field_from_order(q: int) -> FieldContext | ExtensionContext:
    """GF(q) for a prime power q, decomposed into (p, m)."""
    if q < 2:
        raise OutOfRange(f"field order must be >= 2, got {q}")
    _refuse_order(q, 1, str(q))
    factors = _distinct_prime_factors(q)
    if len(factors) > 1:
        raise NotPrime(f"{q} is not a prime power")
    p, m = factors[0], 1
    while p**m < q:
        m += 1
    return field_new(p, m)
