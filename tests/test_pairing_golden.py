"""Golden pairs for the b = 2 pair family, target by target.

`grassmann_pairing` builds, for every 2-dim subspace of GF(q)^M, a family
of disjoint helper pairs. tests/golden/pairing.json pins, for the ten
small Grassmannians below, every target's `(target_index, covered,
total_others, pairs)` with the pairs flattened in order. After a
deliberate change to the pairing, rewrite the file with

    PYTHONPATH=src python tests/test_pairing_golden.py

and say in the change log why the pairs changed.
"""

import json
from pathlib import Path

import pytest

from subspace_lrc.gf import parse_field
from subspace_lrc.locality import grassmann_pairing

GOLDEN = Path(__file__).resolve().parent / "golden" / "pairing.json"

# (q, M) ordered by Grassmannian size: 7, 13, 21, 31, 35, 57, 73, 91, 130 and
# 155 subspaces; gf(7), gf(8) and gf(9) pin the packed slot layouts with guard
# bits, char-2 extension fields and odd extension fields, and M = 5 is the
# smallest ambient with more than one class of subspaces disjoint from a
# target, so it pins the order of those classes
INSTANCES = [(2, 3), (3, 3), (4, 3), (5, 3), (2, 4), (7, 3), (8, 3), (9, 3), (3, 4), (2, 5)]


def pairing_rows(q, M):
    field = parse_field(f"gf({q})")
    return [
        [p.target_index, p.covered, p.total_others, [i for pair in p.pairs for i in pair]]
        for p in grassmann_pairing(field, M)
    ]


@pytest.mark.parametrize("q,M", INSTANCES)
def test_pairing_matches_golden(q, M):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert pairing_rows(q, M) == golden[f"q{q}-M{M}"]


def regenerate() -> None:
    lines = [
        f'"q{q}-M{M}": [\n' + ",\n".join(json.dumps(row) for row in pairing_rows(q, M)) + "\n]"
        for q, M in INSTANCES
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
