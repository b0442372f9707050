"""The dual distance from block facts, walking only what they leave open.

`dual_distance_by_supports` reads 1 off a block of dim < b and 2 off a
projective point in two blocks, and walks supports only from size 3 (from
size 2 when the points are over the enumeration limit). Each rule must agree
with the reference walk of `tests/test_subset_walk.py` and, where the dual is
small, with the exhaustive dual scan.
"""

import pytest

from subspace_lrc import arraycode
from subspace_lrc.arraycode import (
    construction_all_subspaces,
    construction_from_blocks,
    construction_spread,
    construction_std,
    dual_distance_by_supports,
)
from subspace_lrc.cli import _read_blocks
from subspace_lrc.gf import field_new
from subspace_lrc.limits import ENV_VAR
from subspace_lrc.linalg import Subspace
from subspace_lrc.verification import _Measure
from test_subset_walk import CODES, padded_code, reference_dual_distance
from test_verify_golden import GOLDEN

F2, F3, F4 = field_new(2), field_new(3), field_new(2, 2)


def blocks(name, field=F2):
    return construction_from_blocks(field, _read_blocks(field, str(GOLDEN / name)))


# the instances of the verify goldens, each once (limits and formats aside);
# a spread of n blocks with b n = M has a trivial dual, which verify skips
GOLDEN_CODES = [
    construction_all_subspaces(F2, 3, 2),
    construction_all_subspaces(F3, 3, 2),
    construction_all_subspaces(F4, 3, 2),
    construction_all_subspaces(F2, 3, 1),
    construction_all_subspaces(F2, 4, 3),
    construction_spread(F2, 4, 2),
    construction_spread(F2, 4, 2, "desarguesian"),
    construction_spread(F2, 6, 2),
    construction_spread(F2, 6, 3),
    construction_std(F2, 1, 3, 6, "par"),
    construction_std(F2, 1, 2, 5, "par"),
    construction_std(F3, 1, 2, 4, "par"),
    construction_std(F2, 1, 2, 4, "full"),
    construction_std(F2, 2, 2, 4, "full"),
    blocks("blocks.txt"),
    blocks("blocks-unrecoverable.txt"),
]


def measured(code):
    """verify's dual distance and, where the dual fits, its exhaustive scan."""
    m = _Measure(code)
    return m.dual_distance, m.dual_scan


def count_walks(monkeypatch):
    """The support sizes the dual-distance search walks."""
    sizes = []
    walk = arraycode._subset_quotients

    def counted(gen, columns, size, leaves=None):
        sizes.append(size)
        return walk(gen, columns, size, leaves)

    monkeypatch.setattr(arraycode, "_subset_quotients", counted)
    return sizes


@pytest.fixture(autouse=True)
def default_limit(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.mark.parametrize("code", CODES + GOLDEN_CODES, ids=lambda c: c.provenance)
def test_rules_match_reference_and_exhaustive_scan(code):
    reference = reference_dual_distance(code)
    assert dual_distance_by_supports(code) == reference
    d_dual, exhaustive = measured(code)
    assert d_dual == reference
    assert exhaustive in (None, reference)


def test_over_the_point_limit_walks_size_2(monkeypatch):
    for code in CODES[:6] + GOLDEN_CODES:
        monkeypatch.setenv(ENV_VAR, "1")
        sizes = count_walks(monkeypatch)
        got = dual_distance_by_supports(code)
        monkeypatch.delenv(ENV_VAR)
        assert got == measured(code)[0] == reference_dual_distance(code)
        if all(s.dim == code.b for s in code.subspaces) and 2 * code.b <= code.M:
            assert sizes[0] == 2


def test_block_below_b_gives_1(monkeypatch):
    code = padded_code(2, 4, 2, 9, 1)
    assert any(s.dim < code.b for s in code.subspaces)
    sizes = count_walks(monkeypatch)
    assert measured(code)[0] == 1 == reference_dual_distance(code)
    assert sizes == []


def test_meeting_blocks_give_2(monkeypatch):
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    planes = [Subspace.from_span(F3, 3, pair) for pair in ((e1, e2), (e1, e3), (e2, e3))]
    for code in (construction_from_blocks(F3, planes), construction_all_subspaces(F2, 4, 2)):
        sizes = count_walks(monkeypatch)
        assert measured(code)[0] == 2 == reference_dual_distance(code)
        assert sizes == []


def test_three_blocks_over_m_give_3(monkeypatch):
    code = construction_spread(F2, 4, 2)
    sizes = count_walks(monkeypatch)
    assert 3 * code.b > code.M
    assert dual_distance_by_supports(code) == 3 == reference_dual_distance(code)
    assert sizes == []


@pytest.mark.parametrize("M,b", [(6, 2), (12, 3)])
def test_size_2_node_witness_ends_the_walk_at_3(M, b, monkeypatch):
    # U_j in U_a + U_c puts three blocks in 2b dimensions; the walk finds such a triple
    code = construction_spread(F2, M, b)
    m = _Measure(code)
    assert 3 * b <= M and any(w.size == 2 for w in m.profile.node_witnesses)
    sizes = count_walks(monkeypatch)
    assert m.dual_distance == 3
    assert sizes == [3]
    if M == 6:
        assert reference_dual_distance(code) == 3


def test_walk_starts_at_size_3(monkeypatch):
    code = construction_std(F2, 1, 2, 7, "par")
    m = _Measure(code)
    assert m.profile.node_locality == 3 and 3 * code.b <= code.M
    sizes = count_walks(monkeypatch)
    assert m.dual_distance == reference_dual_distance(code)
    assert sizes[0] == 3

