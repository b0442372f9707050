"""Golden pairs for the b = 2 pair family, target by target.

`grassmann_pairing` builds, for every 2-dim subspace of GF(q)^M, a family
of disjoint helper pairs. tests/golden/pairing.json pins, for the ten
small Grassmannians below, every target's `(target_index, covered,
total_others, pairs)` with the pairs flattened in order, and the same rows
for a few targets of gf(3) M = 5. After a deliberate change to the pairing,
rewrite the file with

    PYTHONPATH=src python tests/test_pairing_golden.py

and say in the change log why the pairs changed.
"""

import json
from pathlib import Path

import pytest

from subspace_lrc.designs import enumerate_grassmannian, point_incidence
from subspace_lrc.gf import parse_field
from subspace_lrc.linalg import _layout, _points
from reference import disjoint_classes, projective_points
from subspace_lrc.locality import _disjoint_classes, _pairing, grassmann_pairing

GOLDEN = Path(__file__).resolve().parent / "golden" / "pairing.json"

# (q, M) ordered by Grassmannian size: 7, 13, 21, 31, 35, 57, 73, 91, 130 and
# 155 subspaces; gf(7), gf(8) and gf(9) pin the packed slot layouts with guard
# bits, char-2 extension fields and odd extension fields, and M = 5 is the
# smallest ambient with more than one class of subspaces disjoint from a
# target, so it pins the order of those classes
INSTANCES = [(2, 3), (3, 3), (4, 3), (5, 3), (2, 4), (7, 3), (8, 3), (9, 3), (3, 4), (2, 5)]

# gf(3) M = 5 (1,210 subspaces) is the smallest odd-q ambient with more than
# one disjoint class per target, where the partial pairing makes the order
# of the classes matter; its whole family is too slow for these tests, so
# a few targets are built one at a time
ODD_TARGETS = (3, 5, (0, 1, 122, 605, 1000, 1209))


def _row(p):
    return [p.target_index, p.covered, p.total_others, [i for pair in p.pairs for i in pair]]


def pairing_rows(q, M):
    return [_row(p) for p in grassmann_pairing(parse_field(f"gf({q})"), M)]


def target_rows(q, M, targets):
    """pairing_rows restricted to targets, without building the other families."""
    field = parse_field(f"gf({q})")
    grass = enumerate_grassmannian(field, M, 2)
    through, pack = point_incidence(grass), _layout(field).pack
    return [
        _row(_pairing(field, grass, t, [through[pack(p)] for p in sorted(projective_points(grass[t]))]))
        for t in targets
    ]


def golden_rows():
    q, M, targets = ODD_TARGETS
    rows = {f"q{q}-M{M}": pairing_rows(q, M) for q, M in INSTANCES}
    rows[f"q{q}-M{M}-targets"] = target_rows(q, M, targets)
    return rows


@pytest.mark.parametrize("q,M", INSTANCES)
def test_pairing_matches_golden(q, M):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert pairing_rows(q, M) == golden[f"q{q}-M{M}"]


def test_odd_pairing_targets_match_golden():
    q, M, targets = ODD_TARGETS
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert target_rows(q, M, targets) == golden[f"q{q}-M{M}-targets"]


def test_target_rows_agree_with_the_whole_family():
    rows = pairing_rows(3, 4)
    assert target_rows(3, 4, (0, 7, 129)) == [rows[0], rows[7], rows[129]]


@pytest.mark.parametrize("M,step", [(3, 1), (4, 1), (5, 1), (6, 50)])
def test_gf2_disjoint_classes_match_the_general_reduction(M, step):
    """The in-line two-row reduction over GF(2) gives every subspace disjoint
    from a target the (ubar, key) of the general _residual + _rref_rows path."""
    field = parse_field("gf(2)")
    grass = enumerate_grassmannian(field, M, 2)
    through = point_incidence(grass)
    for t in range(0, len(grass), step):
        met = {i for p in _points(grass[t]) for i in through[p]}
        fast = _disjoint_classes(field, grass, grass[t], met)
        assert fast == disjoint_classes(field, grass, grass[t], met)
        assert sorted(i for members in fast.values() for i in members.values()) == [
            i for i in range(len(grass)) if i not in met
        ]


def regenerate() -> None:
    lines = [
        f'"{key}": [\n' + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for key, rows in golden_rows().items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
