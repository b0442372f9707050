import copy
import pickle
import random

import pytest

from subspace_lrc.errors import (
    DimensionMismatch,
    DivisionByZero,
    NotPrime,
    OrderTooLarge,
    OutOfRange,
)
from subspace_lrc import gf
from subspace_lrc.gf import (
    extension_new,
    field_from_order,
    field_new,
    is_prime,
    parse_field,
)

PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def poly_eval(field, coeffs, x):
    # Horner, constant term first
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def is_irreducible_oracle(base, coeffs):
    """Brute force: no monic divisor of degree 1..deg/2 (deg <= 4 here)."""
    deg = len(coeffs) - 1
    assert coeffs[-1] == 1 and deg <= 4
    if deg <= 3:
        # cubic or lower: irreducible over a field iff it has no root
        return all(poly_eval(base, coeffs, x) != 0 for x in range(base.q))
    if any(poly_eval(base, coeffs, x) == 0 for x in range(base.q)):
        return False
    # degree 4 without roots: exclude products of two monic quadratics
    q = base.q
    for b1 in range(q):
        for c1 in range(q):
            for b2 in range(q):
                for c2 in range(q):
                    prod = _mul_quadratics(base, (c1, b1, 1), (c2, b2, 1))
                    if prod == tuple(coeffs):
                        return False
    return True


def _mul_quadratics(base, f, g):
    out = [0] * 5
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = base.add(out[i + j], base.mul(a, b))
    return tuple(out)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


@pytest.mark.parametrize(
    "p,m,modulus",
    [
        (2, 2, (1, 1, 1)),        # x^2 + x + 1, encoding 7
        (2, 3, (1, 1, 0, 1)),     # x^3 + x + 1, encoding 11
        (3, 2, (1, 0, 1)),        # x^2 + 1, encoding 10
        (2, 4, (1, 1, 0, 0, 1)),  # x^4 + x + 1, encoding 19
    ],
)
def test_smallest_modulus_frozen(p, m, modulus):
    f = field_new(p, m)
    assert f.modulus == modulus
    base = field_new(p)
    assert is_irreducible_oracle(base, modulus)
    # nothing monic and irreducible encodes smaller
    for enc in range(p**m, sum(c * p**i for i, c in enumerate(modulus))):
        digits = []
        x = enc
        for _ in range(m + 1):
            digits.append(x % p)
            x //= p
        if digits[m] != 1:
            continue
        assert not is_irreducible_oracle(base, tuple(digits))


def check_axioms(f, elems):
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
    for a in elems:
        for b in elems:
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_axioms_exhaustive(q):
    f = field_from_order(q)
    assert f.q == q
    check_axioms(f, range(q))


@pytest.mark.parametrize("p,m", [(3, 4), (2, 7), (2, 10), (5, 3)])
def test_axioms_sampled_large(p, m):
    f = field_new(p, m)
    rng = random.Random(1000 * p + m)
    elems = sorted({rng.randrange(f.q) for _ in range(12)} | {0, 1})
    check_axioms(f, elems)


def test_characteristic():
    for q in PRIME_POWERS_16:
        f = field_from_order(q)
        for a in range(q):
            acc = 0
            for _ in range(f.p):
                acc = f.add(acc, a)
            assert acc == 0


def test_pow_and_group_order():
    for q in [2, 3, 4, 5, 8, 9, 16, 27]:
        f = field_from_order(q)
        for a in range(1, q):
            assert f.pow(a, q - 1) == 1
            assert f.pow(a, 0) == 1
        assert f.pow(0, 0) == 1
        assert f.pow(0, 5) == 0


def test_div_matches_mul_inv():
    f = field_new(2, 4)
    for a in range(16):
        for b in range(1, 16):
            assert f.div(a, b) == f.mul(a, f.inv(b))
    with pytest.raises(DivisionByZero):
        f.div(3, 0)
    with pytest.raises(DivisionByZero):
        f.inv(0)


def test_large_field_uses_logs():
    # above the dense-table threshold multiplication still agrees with
    # repeated addition on a sample
    f = field_new(2, 11)
    assert f.q == 2048
    rng = random.Random(7)
    for _ in range(50):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.mul(a, b) == f.mul(b, a)
        if b:
            assert f.div(f.mul(a, b), b) == a


def test_element_range_checked():
    f = field_new(3)
    with pytest.raises(OutOfRange):
        f.add(1, 3)
    with pytest.raises(OutOfRange):
        f.mul(-1, 2)
    with pytest.raises(OutOfRange):
        f.pow(1, -2)


def test_not_prime_and_too_large():
    with pytest.raises(NotPrime):
        field_new(6)
    with pytest.raises(NotPrime):
        field_from_order(12)
    with pytest.raises(OrderTooLarge):
        field_new(2, 17)
    with pytest.raises(OutOfRange):
        field_new(2, 0)
    with pytest.raises(OutOfRange):
        field_from_order(1)


def test_order_over_table_limit_is_refused_before_factoring(monkeypatch):
    """An order over the table limit is named as written, with no trial
    division and no power above the limit: the prime 10^18 + 3 would take
    minutes to factor, and 2^20000 has too many digits to print."""

    def factored(n):
        raise AssertionError(f"{n} was factored")

    monkeypatch.setattr(gf, "is_prime", factored)
    monkeypatch.setattr(gf, "_distinct_prime_factors", factored)
    big = 10**18 + 3
    cases = [
        ("gf(2^17)", "2^17"),
        ("gf(2^20000)", "2^20000"),
        ("gf(65537)", "65537"),
        (f"gf({big}^1)", f"{big}^1"),
        (f"gf({big})", str(big)),
        (str(big), str(big)),
    ]
    for descriptor, written in cases:
        with pytest.raises(OrderTooLarge) as exc:
            parse_field(descriptor)
        assert str(exc.value) == f"field order {written} exceeds table limit 65536"
    with pytest.raises(OrderTooLarge, match="field order 4\\^9 exceeds"):
        extension_new(field_new(2, 2), 9)


def test_parse_field_sizes_long_digit_strings_before_converting():
    """Numbers longer than the table limit's digits are never passed to int(),
    which refuses more than 4,300 digits; the other errors stay as they were."""
    nines = "9" * 5000
    for descriptor, written in [(nines, nines), (f"gf(2^{nines})", f"2^{nines}"), (f"gf(00{nines}^1)", f"{nines}^1")]:
        with pytest.raises(OrderTooLarge) as exc:
            parse_field(descriptor)
        assert str(exc.value) == f"field order {written} exceeds table limit 65536"
    with pytest.raises(OutOfRange, match="extension degree must be >= 1, got 0"):
        parse_field(f"gf({nines}^0)")
    with pytest.raises(NotPrime, match="characteristic 1 is not prime"):
        parse_field(f"gf(1^{nines})")
    assert parse_field("gf(0002^03)") is field_new(2, 3)


def test_parse_field_and_descriptor():
    assert parse_field("gf(2)") is field_new(2)
    assert parse_field("GF(3^2)") is field_new(3, 2)
    assert parse_field(" gf( 2 ^ 4 ) ") is field_new(2, 4)
    assert parse_field("gf(4)") is field_new(2, 2)
    assert parse_field("9") is field_new(3, 2)
    with pytest.raises(OutOfRange):
        parse_field("gf()")
    with pytest.raises(OutOfRange):
        parse_field("f4")
    for f in [field_new(2), field_new(3, 2)]:
        assert parse_field(f.descriptor()) is f


def test_field_from_order_decomposes():
    f = field_from_order(64)
    assert (f.p, f.m) == (2, 6)
    g = field_from_order(49)
    assert (g.p, g.m) == (7, 2)
    assert field_from_order(13).m == 1


def test_extension_expand_recombine():
    base = field_new(2, 2)
    ext = extension_new(base, 2)  # GF(16) presented over GF(4)
    assert ext.q == 16
    assert ext.basis == (1, 4)
    for x in range(16):
        coords = ext.expand(x)
        assert len(coords) == 2
        assert ext.recombine(coords) == x
        # expansion is GF(4)-linear
        for y in range(16):
            cx, cy = ext.expand(x), ext.expand(y)
            s = ext.add(x, y)
            assert ext.expand(s) == tuple(base.add(a, b) for a, b in zip(cx, cy))
    with pytest.raises(DimensionMismatch):
        ext.recombine((1,))
    with pytest.raises(OutOfRange):
        ext.recombine((1, 9))


def test_extension_scalar_compatibility():
    # multiplying by a base-field element acts coordinatewise
    base = field_new(3)
    ext = extension_new(base, 2)
    for c in range(3):
        for x in range(9):
            cx = ext.mul(ext.recombine((c, 0)), x)
            assert ext.expand(cx) == tuple(base.mul(c, d) for d in ext.expand(x))


def test_frobenius():
    base = field_new(2, 2)
    ext = extension_new(base, 2)
    for x in range(16):
        fx = ext.frobenius(x)
        assert fx == ext.pow(x, 4)
        assert ext.frobenius(x, 2) == x  # full cycle
        for y in range(16):
            assert ext.frobenius(ext.add(x, y)) == ext.add(fx, ext.frobenius(y))
            assert ext.frobenius(ext.mul(x, y)) == ext.mul(fx, ext.frobenius(y))
    # fixed field is exactly the base copy
    fixed = [x for x in range(16) if ext.frobenius(x) == x]
    assert fixed == [ext.recombine((c, 0)) for c in range(4)]


def test_contexts_unpickle_as_the_cached_context():
    contexts = [field_from_order(q) for q in PRIME_POWERS_16] + [
        extension_new(field_new(2), 3),
        extension_new(field_new(3), 2),
        extension_new(field_new(2, 2), 2),
    ]
    for F in contexts:
        assert pickle.loads(pickle.dumps(F)) is F
        assert copy.copy(F) is F
        assert copy.deepcopy(F) is F


def test_each_field_has_one_context():
    # contexts define no value equality: every way to name a field returns one object
    two = [field_new(2), field_new(2, 1), parse_field("gf(2)"), parse_field("2"), field_from_order(2)]
    four = [field_new(2, 2), parse_field("gf(4)"), parse_field("GF( 2 ^ 2 )"), parse_field("4"), field_from_order(4)]
    for names in (two, four):
        assert all(F is names[0] for F in names)
    assert extension_new(field_new(2), 3) is extension_new(field_new(2), 3)


@pytest.mark.parametrize("p,m", [(p, m) for p in range(2, 65) if is_prime(p) for m in range(1, 7) if p**m <= 64])
def test_every_order_has_one_context(p, m):
    F = field_from_order(p**m)
    assert F is field_new(p, m) and (F.p, F.m) == (p, m)
    if m > 1:
        assert F is extension_new(field_new(p), m)
        assert F.descriptor() == f"gf({p}^{m})"
    assert pickle.loads(pickle.dumps(F)) is F


def test_extension_new_is_positional_only():
    # keyword calls would give its cache a second key for the same field
    with pytest.raises(TypeError):
        extension_new(base=field_new(2), degree=3)


def test_extension_arguments_checked():
    with pytest.raises(OutOfRange) as exc:
        extension_new(field_new(2), 0)
    assert str(exc.value) == "extension degree must be >= 1, got 0"
    with pytest.raises(OutOfRange) as exc:
        extension_new(field_new(2), 2).frobenius(1, -1)
    assert str(exc.value) == "frobenius power must be nonnegative"


def test_contexts_cached_and_hashable():
    assert field_new(5) is field_new(5)
    assert field_new(2, 3) == field_new(2, 3)
    assert hash(field_new(3, 2)) == hash(field_new(3, 2))
    d = {field_new(2): "a", field_new(3): "b"}
    assert d[field_new(2)] == "a"
