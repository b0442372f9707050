"""Pinned arithmetic of every field the package builds.

Covers GF(q) for every prime power q <= 1024, built by field_from_order, and
the extensions GF(q^s) over GF(q) that the Gabidulin lifts and the
Desarguesian spreads of the verify goldens, the benchmark and the CI ladder
create. Each field pins SHA-256 digests of its modulus, its inverse list
and its products: the full multiplication table up to order 64, a seeded
sample of products above it. The digests live in tests/golden/fields.json.
After a deliberate change to the field arithmetic, rewrite them with

    PYTHONPATH=src python tests/test_field_pins.py

and say in the change log which fields changed and why.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from subspace_lrc.gf import extension_new, field_from_order, field_new

PINS = Path(__file__).resolve().parent / "golden" / "fields.json"

FULL_TABLE_MAX = 64
SAMPLE = 4096


def _is_prime_power(q: int) -> bool:
    p = next(f for f in range(2, q + 1) if q % f == 0)
    while q % p == 0:
        q //= p
    return q == 1


ORDERS = [q for q in range(2, 1025) if _is_prime_power(q)]
# (p, k, s): GF(p^(k*s)) presented over GF(p^k); over GF(p) it is field_new(p, s)
EXTENSIONS = [(2, 1, s) for s in range(2, 9)] + [(3, 1, s) for s in range(2, 6)] + [(2, 2, 2), (2, 2, 3)]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def pins(F) -> dict:
    q = F.q
    if q <= FULL_TABLE_MAX:
        products = [[F.mul(a, b) for b in range(q)] for a in range(q)]
    else:
        rng = random.Random(q)
        products = [F.mul(rng.randrange(q), rng.randrange(q)) for _ in range(SAMPLE)]
    return {
        "modulus": _digest(list(F.modulus)),
        "inv": _digest([F.inv(a) for a in range(1, q)]),
        "mul": _digest(products),
    }


def all_fields():
    """Each field once: an extension of GF(p) is also one of the ORDERS."""
    fields = [field_from_order(q) for q in ORDERS]
    fields += [extension_new(field_new(p, k), s) for p, k, s in EXTENSIONS]
    return dict.fromkeys(fields)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_pins_cover_every_field(pinned):
    assert sorted(pinned) == sorted(F.descriptor() for F in all_fields())


@pytest.mark.parametrize("q", ORDERS)
def test_field_from_order_pinned(q, pinned):
    F = field_from_order(q)
    assert pins(F) == pinned[F.descriptor()]


@pytest.mark.parametrize("p,k,s", EXTENSIONS)
def test_extension_pinned(p, k, s, pinned):
    F = extension_new(field_new(p, k), s)
    assert pins(F) == pinned[F.descriptor()]


if __name__ == "__main__":
    table = {F.descriptor(): pins(F) for F in all_fields()}
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
