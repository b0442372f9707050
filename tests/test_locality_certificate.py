"""The locality values of `verify` from the point table and pair sums.

`verification._certificate` reads helper sets of one column off the blocks'
point table and settles every other node by a pair sum; `_Measure.locality`
takes it when every block has dim b and falls back to the lex-first walk of
`locality_profile` otherwise. Here both routes give the walk's values on
every acceptance code, every code of the verify goldens and every code of
tests/test_subset_walk.py, and symbol availability at r_s = 1 read from the
table equals the pool walk's packing.
"""

from pathlib import Path

import pytest

from subspace_lrc import limits
from subspace_lrc.arraycode import (
    code_from_subspaces,
    construction_all_subspaces,
    construction_from_blocks,
    construction_spread,
    construction_std,
)
from subspace_lrc.cli import _read_blocks
from subspace_lrc.designs import point_incidence
from subspace_lrc.errors import NoRecovery, TooLarge
from subspace_lrc.gf import field_new
from subspace_lrc.limits import DEFAULT_PACKING_CAP
from subspace_lrc.locality import _nonzero_targets, _worst_availability, locality_profile
from subspace_lrc.verification import _availability_check, _certificate, _Measure
from test_subset_walk import CODES

F2, F3, F4 = field_new(2), field_new(3), field_new(2, 2)
GOLDEN = Path(__file__).resolve().parent / "golden" / "verify"


def golden_codes():
    """The codes of tests/test_verify_golden.py's cases."""
    yield from (construction_all_subspaces(f, M, b) for f, M, b in [(F2, 3, 2), (F3, 3, 2), (F4, 3, 2)])
    yield from (construction_all_subspaces(F2, M, b) for M, b in [(3, 1), (4, 3), (5, 2)])
    yield construction_spread(F2, 4, 2, "desarguesian")
    yield from (construction_spread(F2, M, b) for M, b in [(4, 2), (6, 2), (2, 2), (6, 3)])
    yield from (construction_std(f, 1, b, M, "par") for f, b, M in [(F2, 3, 6), (F2, 2, 5), (F3, 2, 4)])
    yield from (construction_std(F2, t, 2, 4, "full") for t in (1, 2))
    for name in ("blocks", "blocks-one", "blocks-unrecoverable"):
        yield construction_from_blocks(F2, _read_blocks(F2, str(GOLDEN / f"{name}.txt")))


def duplicated(code, copies):
    """code with its first `copies` blocks listed twice: those nodes have a single-column helper."""
    subs = code.subspaces + code.subspaces[:copies]
    return code_from_subspaces(code.field, subs, code.b, code.M, f"{code.provenance} doubled {copies}")


SPREAD = construction_spread(F2, 4, 2)
EXTRA = [duplicated(SPREAD, 1), duplicated(SPREAD, SPREAD.n), duplicated(construction_std(F2, 1, 2, 5, "par"), 3)]
# one code per provenance: the golden codes repeat some acceptance codes
ALL = list({code.provenance: code for code in CODES + list(golden_codes()) + EXTRA}.values())

# the codes where the certificate does not apply or finds no pair for some node
WALKED = {
    "std-par q=2 t=1 b=2 M=5 class=0",  # r_n = 3
    "std-par q=2 t=1 b=2 M=5 class=0 doubled 3",
    "padded q=2 M=4 b=2 seed=1",  # narrow blocks: no point table
    "padded q=2 M=5 b=3 seed=2",
    "padded q=3 M=3 b=2 seed=3",
    "padded q=4 M=3 b=2 seed=4",
    "padded q=9 M=3 b=2 seed=5",
}
# a node with no recovery set: one column, or a block outside the others' sum
UNRECOVERABLE = {
    "spread q=2 M=2 b=2 method=gabidulin-echelon",
    "blocks q=2 M=2 b=2 count=1",
    "blocks q=2 M=3 b=1 count=4",
}


def ids(code):
    return code.provenance


def walk_values(code):
    """(r_n, r_s, smallest nonzero symbol witness, some node witness below 2) by the walk."""
    p = locality_profile(code)
    smallest = min(w.size for row in p.symbol_witnesses for w in row if w.size)
    return p.node_locality, p.symbol_locality, smallest, any(w.size < 2 for w in p.node_witnesses)


def certificate(code):
    if any(s.dim < code.b for s in code.subspaces):
        return None
    return _certificate(code, point_incidence(code.subspaces))


def test_the_codes_cover_both_routes_and_every_pinned_code():
    names = {code.provenance for code in ALL}
    assert WALKED | UNRECOVERABLE <= names
    assert len(names - WALKED - UNRECOVERABLE) == 24


@pytest.mark.parametrize("code", ALL, ids=ids)
def test_certified_values_and_route_equal_the_walk(code):
    if code.provenance in UNRECOVERABLE:
        assert certificate(code) is None
        with pytest.raises(NoRecovery):
            locality_profile(code)
        assert _Measure(code).locality_skip
        return
    loc = _Measure(code).locality
    assert (loc.node, loc.symbol, loc.min_symbol, loc.lone_node) == walk_values(code)
    assert loc.route == ("walk" if code.provenance in WALKED else "certificate")
    assert certificate(code) == (None if loc.route == "walk" else loc)


def test_single_column_helpers_come_from_the_table():
    one, every = (_Measure(code).locality for code in EXTRA[:2])
    assert (one.node, one.symbol, one.min_symbol, one.lone_node, one.route) == (2, 2, 1, True, "certificate")
    assert (every.node, every.symbol, every.min_symbol, every.lone_node, every.route) == (1, 1, 1, True, "certificate")


def test_std_par_at_node_locality_3_takes_the_walk():
    code = construction_std(F2, 1, 3, 9, "par")
    assert certificate(code) is None
    loc = _Measure(code).locality
    assert loc.route == "walk" and loc.node == 3
    assert (loc.node, loc.symbol, loc.min_symbol, loc.lone_node) == walk_values(code)


def test_narrow_blocks_take_the_walk():
    """from-blocks refuses mixed dimensions, so a code with narrower blocks is built directly."""
    code = CODES[[c.provenance for c in CODES].index("padded q=3 M=3 b=2 seed=3")]
    assert len({s.dim for s in code.subspaces}) > 1
    m = _Measure(code)
    assert m.table is None and m.locality.route == "walk"


def test_an_over_limit_table_takes_the_walk(monkeypatch):
    """The table is built under the limit dual_distance_by_supports lists
    the points under: 15 points of a 5-block spread, over a limit of 14."""
    code = construction_spread(F2, 4, 2)
    monkeypatch.setattr(limits, "DEFAULT_ENUMERATION_LIMIT", 14)
    m = _Measure(code)
    assert m.table is None
    assert m.locality.route == "walk"
    assert (m.locality.node, m.locality.symbol) == (2, 2)
    monkeypatch.setattr(limits, "DEFAULT_ENUMERATION_LIMIT", 15)
    assert _Measure(code).locality.route == "certificate"


SINGLE = [code for code in ALL if code.provenance not in UNRECOVERABLE and _Measure(code).locality.symbol == 1]


@pytest.mark.parametrize("code", SINGLE, ids=ids)
def test_symbol_availability_at_r_1_equals_the_pool_walk(code):
    m = _Measure(code)
    assert m.table is not None
    [walk] = _worst_availability(
        code, [_nonzero_targets(code, "symbol", 1)], exact_cap=DEFAULT_PACKING_CAP, limit=None
    )
    assert walk.exact
    assert _availability_check(m, "symbol", 1, None, "").measured == f"{walk.value} (exact)"
    # under a limit below the n - 1 singleton candidates both refuse alike
    limit = code.n - 2
    with pytest.raises(TooLarge) as exc:
        _worst_availability(code, [_nonzero_targets(code, "symbol", 1)], exact_cap=DEFAULT_PACKING_CAP, limit=limit)
    check = _availability_check(_Measure(code, limit=limit), "symbol", 1, None, "", skip_note="; note")
    assert (check.status, check.note) == ("skipped", f"{exc.value}; note")


def test_symbol_availability_codes_include_every_family_at_r_1():
    names = {code.provenance.split()[0] for code in SINGLE}
    assert {"all-subspaces", "std-full", "spread"} <= names
