"""Worst availability with settled targets against every pool packed.

`locality._worst_availability` settles a target without packing its pool
when its greedy count reaches the counting bound, or when the pairs minimal
for the whole group form a factor-critical graph that its pool's columns
fit; it passes over a target whose greedy count is not below the smallest
value so far. `reference.reference_worst_availability` packs every pool.
Both give the same (value, exact, sets) on every code of
tests/test_locality_certificate.py (the acceptance codes, the verify-golden
codes and the codes of tests/test_subset_walk.py), on the codes of the
benchmark's locality workload and on random block sets, at packing caps on
both sides of each code's candidate count; an enumeration limit below it
raises the same TooLarge.
"""

import pytest

from subspace_lrc import cli, locality
from subspace_lrc.arraycode import construction_all_subspaces, construction_spread, construction_std
from subspace_lrc.errors import NoRecovery, TooLarge
from subspace_lrc.gf import field_new
from subspace_lrc.limits import DEFAULT_PACKING_CAP
from subspace_lrc.locality import _nonzero_targets, _worst_availability, locality_profile
import reference
from reference import reference_worst_availability
from test_locality_certificate import ALL

F2, F3, F4 = field_new(2), field_new(3), field_new(2, 2)

# the codes of the benchmark's locality workload
WORKLOAD = [
    construction_all_subspaces(F3, 3, 2),
    construction_std(F2, 1, 2, 5, "par"),
    construction_std(F2, 2, 2, 4, "full"),
    construction_all_subspaces(F4, 3, 2),
    construction_spread(F4, 4, 2),
    construction_spread(F2, 6, 2),
    construction_all_subspaces(F2, 4, 2),
]
CAPS = (0, 5, DEFAULT_PACKING_CAP, 20000)


def groups_of(code):
    """The node and symbol groups that locality_profile packs, or None
    when some node has no recovery set."""
    try:
        profile = locality_profile(code)
    except NoRecovery:
        return None
    return [
        _nonzero_targets(code, "node", profile.node_locality),
        _nonzero_targets(code, "symbol", profile.symbol_locality),
    ]


# (code, groups), one per provenance, leaving out the codes with a node that
# no other column recovers
CASES = [
    (code, groups)
    for code in {code.provenance: code for code in ALL + WORKLOAD}.values()
    if (groups := groups_of(code)) is not None
]


def ids(case):
    return case[0].provenance


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("case", CASES, ids=ids)
def test_settled_availability_equals_every_pool_packed(case, cap):
    code, groups = case
    if code.n > 40 and cap < DEFAULT_PACKING_CAP:
        # over the cap each pool is packed greedily with local swaps, about
        # 0.3 s per node pool of all-subspaces q=2 M=5 b=2: three targets a group
        groups = [[g[0], g[len(g) // 2], g[-1]] for g in groups]
    kw = dict(exact_cap=cap, limit=None)
    assert _worst_availability(code, groups, **kw) == reference_worst_availability(code, groups, **kw)


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_limit_below_the_candidate_count_raises_the_same(case):
    code, groups = case
    kw = dict(exact_cap=DEFAULT_PACKING_CAP, limit=9)
    try:
        want = reference_worst_availability(code, groups, **kw)
    except TooLarge as exc:
        with pytest.raises(TooLarge) as got:
            _worst_availability(code, groups, **kw)
        assert str(got.value) == str(exc)
    else:
        assert _worst_availability(code, groups, **kw) == want


# --- which targets are settled ---------------------------------------------------

SETTLED = [
    construction_all_subspaces(F3, 3, 2),
    construction_all_subspaces(F4, 3, 2),
    construction_all_subspaces(F2, 4, 2),
    construction_std(F2, 2, 2, 4, "full"),
    construction_spread(F4, 4, 2),
]


def count_packings(monkeypatch):
    calls = []
    packing_value = locality._packing_value

    def counted(pool, exact_cap):
        calls.append(len(pool))
        return packing_value(pool, exact_cap)

    monkeypatch.setattr(locality, "_packing_value", counted)
    monkeypatch.setattr(reference, "_packing_value", counted)
    return calls


@pytest.mark.parametrize("code", SETTLED, ids=lambda c: c.provenance)
def test_settled_codes_pack_no_pool(code, monkeypatch):
    calls = count_packings(monkeypatch)
    want = reference_worst_availability(code, groups_of(code), exact_cap=DEFAULT_PACKING_CAP, limit=None)
    assert len(calls) == sum(map(len, groups_of(code)))  # the reference packs every pool
    calls.clear()
    profile = locality_profile(code, with_availability=True)
    assert (profile.node_t, profile.symbol_t) == (want[0], want[1])
    assert calls == []


def test_factor_critical_pairs_settle_all_subspaces_q2_m4(monkeypatch):
    """The 280 spanning pairs on the 35 planes of GF(2)^4 are factor-critical;
    without that step the greedy leaves 28 of the 105 targets to a pool."""
    code = construction_all_subspaces(F2, 4, 2)
    groups = groups_of(code)
    graphs, unsettled = [], []
    factor_critical, settle = locality._factor_critical, locality._settle

    def spied_factor_critical(vertices, edges):
        graphs.append((len(vertices), len(edges)))
        return factor_critical(vertices, edges)

    def spied_settle(n, record, flags, own, within):
        lower, settled = settle(n, record, flags, own, within)
        unsettled.append(sum(not f & settled for f in flags))
        return lower, settled

    monkeypatch.setattr(locality, "_factor_critical", spied_factor_critical)
    monkeypatch.setattr(locality, "_settle", spied_settle)
    _worst_availability(code, groups, exact_cap=DEFAULT_PACKING_CAP, limit=None)
    assert graphs == [(35, 280)]
    assert unsettled == [0, 0]

    graphs.clear(), unsettled.clear()
    monkeypatch.setattr(locality, "_factor_critical", lambda vertices, edges: False)
    calls = count_packings(monkeypatch)
    got = _worst_availability(code, groups, exact_cap=DEFAULT_PACKING_CAP, limit=None)
    assert sum(unsettled) == 28 and sum(map(len, groups)) == 105
    assert 0 < len(calls) <= 28
    assert got == reference_worst_availability(code, groups, exact_cap=DEFAULT_PACKING_CAP, limit=None)


def test_over_the_cap_a_bound_stays_a_bound(tmp_path, capsys):
    """Spread q=2 M=4 b=2: each node pool is the 6 pairs of the other 4
    columns, and the greedy's 2 meets the counting bound, but cap 0 leaves it
    a bound."""
    bundle = tmp_path / "spread.bundle"
    assert cli.main(["construct", "spread", "-M", "4", "-b", "2", "-o", str(bundle)]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", str(bundle), "--availability", "--packing-cap", "0", "--format", "text"]) == 0
    assert "node availability: 2 (bound)\n" in capsys.readouterr().out
