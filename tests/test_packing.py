"""Availability values by maximum matching, checked against branch-and-bound.

At locality r <= 2 a pool of minimal helper sets is singletons plus the edges
of a graph, and its largest packing is the singleton count plus a maximum
matching. These tests compare that value, and the branch-and-bound search
that stops at it, with the search that does not stop, on every pool of the
acceptance codes and of the benchmark's locality codes.
"""

import json

import pytest

from subspace_lrc import cli, locality
from subspace_lrc.arraycode import construction_all_subspaces, construction_spread
from subspace_lrc.gf import field_new
from subspace_lrc.limits import DEFAULT_PACKING_CAP
from subspace_lrc.locality import (
    _matching_value,
    _minimal_recovery_sets,
    _nonzero_targets,
    _packing_value,
    locality_profile,
    max_disjoint_packing,
)
import reference
from test_arraycode import acceptance_codes

# the unstopped search finishes well under a second on pools up to this size;
# the only larger pools, the 1,953 pairs of each all-subspaces q=2 M=5 b=2
# node, take 0.05-0.24 s each, about 20 s for all 155
UNSTOPPED_MAX_POOL = 500

# acceptance codes plus the benchmark's locality codes that are not among them
CODES = acceptance_codes() + [
    construction_all_subspaces(field_new(2, 2), 3, 2),
    construction_spread(field_new(2, 2), 4, 2),
]


def unstopped_packing(monkeypatch, pool):
    """max_disjoint_packing without the matching optimum to stop at."""
    with monkeypatch.context() as m:
        m.setattr(locality, "_matching_value", lambda sets: None)
        return max_disjoint_packing(pool)


def counting_bound(pool):
    """Singletons plus half the columns the pairs clear of them cover: no
    packing of sets of size <= 2 is larger."""
    loose = [s for s in pool if len(s) < 2]
    taken = set().union(*loose)
    free = set().union(*(s for s in pool if len(s) == 2 and taken.isdisjoint(s)))
    return len(loose) + len(free) // 2


def availability_pools(code):
    p = locality_profile(code)
    targets = _nonzero_targets(code, "node", p.node_locality) + _nonzero_targets(code, "symbol", p.symbol_locality)
    return _minimal_recovery_sets(code, targets)


def test_codes_cover_the_locality_workload():
    names = {c.provenance for c in CODES}
    for name in [
        "all-subspaces q=3 M=3 b=2",
        "std-par q=2 t=1 b=2 M=5 class=0",
        "std-full q=2 t=2 b=2 M=4",
        "all-subspaces q=4 M=3 b=2",
        "spread q=4 M=4 b=2 method=gabidulin-echelon",
        "spread q=2 M=6 b=2 method=gabidulin-echelon",
        "all-subspaces q=2 M=4 b=2",
    ]:
        assert name in names


@pytest.mark.parametrize("code", CODES, ids=lambda c: c.provenance)
def test_packing_value_matches_branch_and_bound_on_every_pool(code, monkeypatch):
    certified = 0
    for pool in availability_pools(code):
        value = _packing_value(pool, DEFAULT_PACKING_CAP)
        if len(pool) <= UNSTOPPED_MAX_POOL or certified == 0:
            full = unstopped_packing(monkeypatch, pool)
            assert max_disjoint_packing(pool) == full
            assert value == full[0]
        if len(pool) > UNSTOPPED_MAX_POOL:
            # a matching that covers all but at most one column is maximum
            assert value == counting_bound(pool)
            certified += 1


def test_packing_value_over_cap_and_at_r3_is_the_search_count(monkeypatch):
    pairs = [frozenset({i, i + 1}) for i in range(1, 30)]
    triples = [frozenset({1, 2, 3}), frozenset({3, 4, 5}), frozenset({5, 6, 1}), frozenset({7})]
    assert _packing_value(pairs, 29) == 15

    def no_matching(sets):
        raise AssertionError("over the cap and at r >= 3 the search alone counts")

    monkeypatch.setattr(locality, "_matching_value", no_matching)
    assert _packing_value(pairs, 3) == max_disjoint_packing(pairs, exact_cap=3)[0]
    assert _packing_value(triples, DEFAULT_PACKING_CAP) == 2


@pytest.mark.parametrize("cap", (0, 5))
@pytest.mark.parametrize("code", CODES, ids=lambda c: c.provenance)
def test_improve_packing_keeps_the_reference_swaps(code, cap, monkeypatch):
    """Over the cap a pool is packed greedily and improved by one-out-two-in
    swaps: the same swaps, in the same order, as the reference's list scan.
    The reference takes about 0.3 s per node pool of all-subspaces q=2 M=5
    b=2, so that code's pools are sampled."""
    pools = [p for p in availability_pools(code) if len(set(map(frozenset, p))) > cap]
    if code.n > 40:
        pools = pools[:: len(pools) // 8]
    got = [max_disjoint_packing(p, exact_cap=cap) for p in pools]
    monkeypatch.setattr(locality, "_improve_packing", reference.reference_improve_packing)
    assert [max_disjoint_packing(p, exact_cap=cap) for p in pools] == got


def test_improve_packing_grows_some_greedy_packing():
    # the swaps are exercised: on all-subspaces q=2 M=4 b=2 they grow some greedy packing
    code = construction_all_subspaces(field_new(2), 4, 2)
    grown = 0
    for pool in availability_pools(code):
        cand = sorted({frozenset(s) for s in pool}, key=lambda f: (len(f), sorted(f)))
        greedy = []
        for c in cand:
            if all(c.isdisjoint(g) for g in greedy):
                greedy.append(c)
        grown += len(locality._improve_packing(cand, greedy)) > len(greedy)
    assert grown > 0


def test_matching_value_takes_every_singleton():
    # {1} and {4} beat the pairs through them; {2, 3} still fits; the empty
    # set is disjoint from everything, itself included once
    pool = [frozenset({1}), frozenset({4}), frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}), frozenset()]
    assert _matching_value(pool) == 4 == max_disjoint_packing(pool)[0]


def test_matching_value_needs_a_blossom():
    # greedy in this order matches 3-5 and 0-4 and leaves 1 and 2 free; the
    # only augmenting path, 1-4-0-5-3-2, leaves the odd cycle 1-4-0-5-3 at 3,
    # which the search from 1 first reaches at odd distance, and from 2 it
    # leaves the triangle 5-4-0 at 4, odd from 2: both searches must shrink
    # an odd cycle to find it
    edges = [(3, 5), (4, 5), (2, 3), (0, 4), (0, 5), (1, 4), (1, 3)]
    assert _matching_value(edges) == 3


def analyze_availability(tmp_path, capsys, *construct):
    bundle = tmp_path / "code.bundle"
    assert cli.main(["construct", *construct, "-o", str(bundle)]) == 0
    capsys.readouterr()
    args = ["analyze", str(bundle), "--availability", "--skip-weights", "--skip-distance", "--format", "json"]
    assert cli.main(args) == 0
    loc = json.loads(capsys.readouterr().out)["locality"]
    return [(loc[k]["value"], loc[k]["quality"]) for k in ("node_availability", "symbol_availability")]


def test_analyze_all_subspaces_q2_m5_b2_availability_is_exact(tmp_path, capsys):
    # the node value meets the counting bound floor(154 / 2)
    got = analyze_availability(tmp_path, capsys, "all-subspaces", "-M", "5", "-b", "2")
    assert got == [(77, "exact"), (14, "exact")]


def test_analyze_spread_gf3_m6_b2_availability_is_exact(tmp_path, capsys):
    # the worst node pool packs only 4 of its 52 pairs, far below the counting
    # bound, which the search without the matching stop must prove exhaustively
    got = analyze_availability(tmp_path, capsys, "spread", "--field", "gf(3)", "-M", "6", "-b", "2")
    assert got == [(4, "exact"), (44, "exact")]
