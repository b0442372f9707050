"""End-to-end checks for the verification suites.

Each suite is run on a small instance where every quantity can be
recomputed exhaustively, and selected check lines are pinned down.
"""

import random
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

from subspace_lrc import (
    BadParams,
    Check,
    PairingResult,
    Subspace,
    VerificationSuite,
    code_from_subspaces,
    construction_all_subspaces,
    construction_from_blocks,
    enumerate_grassmannian,
    field_new,
    grassmann_pairing,
    run_verification,
    subspace_sum,
    verify_all_subspaces,
    verify_blocks,
    verify_spread_code,
    verify_std_full,
    verify_std_par,
)
from subspace_lrc import locality
from subspace_lrc.limits import DEFAULT_PACKING_CAP
from subspace_lrc.verification import _pairs_hold
from reference import contains_subspace, intersection_dim

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)
F5 = field_new(5)
F7 = field_new(7)
F8 = field_new(2, 3)


def by_id(suite, check_id):
    matches = [c for c in suite.checks if c.check_id == check_id]
    assert matches, f"{check_id} missing from {[c.check_id for c in suite.checks]}"
    assert len(matches) == 1
    return matches[0]


# --- suite plumbing ----------------------------------------------------------


def test_suite_ok_and_formatting():
    checks = (
        Check("alpha", "first thing", "1", "1", "pass"),
        Check("beta", "second thing", "2", "3", "fail", "off by one"),
        Check("gamma", "third thing", "4", "-", "skipped", "too big"),
    )
    suite = VerificationSuite("demo", {"q": 2, "M": 3}, checks)
    assert not suite.ok
    lines = suite.lines()
    assert lines[0] == "verification of demo (q=2, M=3)"
    assert lines[1] == "  alpha: PASS (expected 1, measured 1)"
    assert lines[2] == "  beta: FAIL (expected 2, measured 3) -- off by one"
    assert lines[-1] == "  => 3 checks, 1 failed, 1 skipped"

    doc = suite.to_json_dict()
    assert doc["ok"] is False
    assert doc["parameters"] == {"q": 2, "M": 3}
    assert doc["checks"][2]["status"] == "skipped"

    all_pass = VerificationSuite("demo", {}, (checks[0],))
    assert all_pass.ok


# --- full width-b family -----------------------------------------------------


def test_all_subspaces_small_suite():
    suite = verify_all_subspaces(F2, 3, 2)
    assert suite.ok, "\n".join(suite.lines())
    assert by_id(suite, "column-count").measured == "7"
    assert by_id(suite, "distance").measured == "6"
    assert by_id(suite, "constant-weight").status == "pass"
    assert by_id(suite, "symbol-locality").measured == "1"
    assert by_id(suite, "node-locality").measured == "2"
    assert by_id(suite, "dual-distance").measured == "2"
    # q^(b*n - M) = 2^11 <= 4096, so the exhaustive dual scan confirms it
    assert "exhaustive dual scan agrees: 2" in by_id(suite, "dual-distance").note
    assert by_id(suite, "node-availability").measured == "3 (exact)"
    assert by_id(suite, "pairing-family").status == "pass"


def test_all_subspaces_even_q_pairing_is_perfect():
    suite = verify_all_subspaces(F2, 4, 2)
    assert suite.ok, "\n".join(suite.lines())
    assert by_id(suite, "column-count").measured == "35"
    assert by_id(suite, "distance").measured == "28"
    assert by_id(suite, "symbol-availability").measured == "6 (exact)"
    assert by_id(suite, "node-availability").measured == "17 (exact)"
    pairing = by_id(suite, "pairing-family")
    assert pairing.status == "pass"
    assert "min family 17" in pairing.measured


def test_all_subspaces_odd_q_pairing_lower_bound():
    suite = verify_all_subspaces(F3, 3, 2)
    assert suite.ok, "\n".join(suite.lines())
    assert by_id(suite, "column-count").measured == "13"
    assert by_id(suite, "distance").measured == "12"
    assert by_id(suite, "node-availability").measured == "6 (exact)"
    pairing = by_id(suite, "pairing-family")
    assert pairing.status == "pass"
    assert pairing.expected.startswith(">=")


def test_all_subspaces_availability_toggle():
    suite = verify_all_subspaces(F2, 3, 2, availability=False)
    for check_id in ("symbol-availability", "node-availability"):
        check = by_id(suite, check_id)
        assert check.status == "skipped"
        assert check.note == "availability disabled"
    assert suite.ok


def test_all_subspaces_width_one_reports_bound():
    # width-1 columns: one per projective point, availability has no
    # integral closed form, so the suite records a lower bound instead
    suite = verify_all_subspaces(F2, 3, 1)
    assert suite.ok, "\n".join(suite.lines())
    assert by_id(suite, "column-count").measured == "7"
    assert by_id(suite, "symbol-locality").measured == "2"


# --- spread codes ------------------------------------------------------------


def test_spread_suite_half_dimension():
    suite = verify_spread_code(F2, 4, 2)
    assert suite.ok, "\n".join(suite.lines())
    assert by_id(suite, "design-valid").status == "pass"
    assert by_id(suite, "column-count").measured == "5"
    assert by_id(suite, "distance").measured == "4"
    assert by_id(suite, "mds").status == "pass"
    perfect = by_id(suite, "dual-perfect")
    assert perfect.status == "pass"
    assert by_id(suite, "dual-distance").measured == "3"


def test_spread_suite_deeper_ambient():
    suite = verify_spread_code(F2, 6, 2)
    assert suite.ok, "\n".join(suite.lines())
    assert by_id(suite, "column-count").measured == "21"
    assert by_id(suite, "distance").measured == "16"
    mds = by_id(suite, "mds")
    assert mds.status == "skipped"
    assert mds.note == "claimed only at M = 2b"
    assert by_id(suite, "node-locality").status == "pass"


def test_spread_suite_desarguesian_method():
    suite = verify_spread_code(F2, 4, 2, method="desarguesian")
    assert suite.ok, "\n".join(suite.lines())


def test_spread_suite_single_column_skips_dual_checks():
    suite = verify_spread_code(F2, 2, 2)
    assert suite.ok, "\n".join(suite.lines())
    for check_id in ("symbol-locality", "node-locality", "dual-distance", "dual-distance-min-symbol"):
        check = by_id(suite, check_id)
        assert check.status == "skipped"
        assert check.note == "fewer than three columns"


# --- parallel class of a transversal design ----------------------------------


def test_std_par_suite_binary():
    suite = verify_std_par(F2, 1, 3, 6)
    assert suite.ok, "\n".join(suite.lines())
    assert by_id(suite, "column-count").measured == "8"
    assert by_id(suite, "distance").measured == "7"
    wd = by_id(suite, "weight-distribution")
    assert wd.status == "pass"
    assert "q^b-1 = 7" in wd.note and "(= 2^b-1)" in wd.note
    node = by_id(suite, "node-locality")
    assert node.measured == "2"
    assert "documented q=2 value is 3" in node.note
    assert by_id(suite, "dual-ball-ratio").measured == "57/64"


def test_std_par_suite_ternary():
    suite = verify_std_par(F3, 1, 2, 4)
    assert suite.ok, "\n".join(suite.lines())
    assert by_id(suite, "column-count").measured == "9"
    assert by_id(suite, "distance").measured == "8"
    node = by_id(suite, "node-locality")
    assert node.measured == "2"
    assert node.note == ""
    wd = by_id(suite, "weight-distribution")
    # over gf(3) the two candidate counts differ; the note names the winner
    assert "q^b-1 = 8" in wd.note or "2^b-1 = 3" in wd.note


# --- several classes stacked --------------------------------------------------


def test_std_full_suite():
    suite = verify_std_full(F2, 2, 2, 4)
    assert suite.ok, "\n".join(suite.lines())
    assert by_id(suite, "column-count").measured == "16"
    assert by_id(suite, "distance").measured == "12"
    assert by_id(suite, "symbol-locality").measured == "1"
    assert by_id(suite, "symbol-availability").measured == "3 (exact)"
    assert by_id(suite, "dual-distance").measured == "2"


# --- arbitrary block lists -----------------------------------------------------


def test_verify_blocks_reports_properties():
    blocks = enumerate_grassmannian(F2, 3, 2)
    code = construction_from_blocks(F2, blocks)
    suite = verify_blocks(code)
    assert suite.ok, "\n".join(suite.lines())
    assert suite.construction == "from-blocks"
    assert suite.parameters == {"q": 2, "M": 3, "b": 2, "n": 7}
    steiner = by_id(suite, "steiner")
    assert "2" in steiner.measured  # each plane is the unique block containing it
    assert by_id(suite, "distance").measured == "6"
    assert by_id(suite, "locality-order").status == "pass"
    assert by_id(suite, "ball-ratio").status == "pass"


def test_verify_blocks_dual_distance_is_bounded_by_min_symbol_recovery():
    """Two blocks can meet in a vector that is a basis row of neither, so a
    dual codeword can be shorter than the smallest symbol recovery set plus
    its node: from-blocks asserts only that bound."""
    spans = ["1001 0100", "1011 0110", "1000 0010", "1100 0001"]
    blocks = [
        Subspace.from_span(F2, 4, [tuple(int(x) for x in row) for row in rows.split()]) for rows in spans
    ]
    suite = verify_blocks(construction_from_blocks(F2, blocks))
    assert suite.ok, "\n".join(suite.lines())
    check = by_id(suite, "dual-distance-min-symbol")
    assert (check.status, check.expected, check.measured) == ("pass", "in [1, 3]", "2")
    assert by_id(suite, "dual-distance").note == "exhaustive dual scan agrees: 2"


def test_verify_blocks_short_column():
    # column width 2 with one 1-dim block: its column is padded, not full rank
    blocks = enumerate_grassmannian(F2, 3, 2) + enumerate_grassmannian(F2, 3, 1)[:1]
    code = code_from_subspaces(F2, blocks, 2, 3, "hand-picked")
    suite = verify_blocks(code)
    rank = by_id(suite, "column-rank")
    assert rank.measured == "7/8 full width"
    assert by_id(suite, "locality-order").status == "pass"


# --- one measurement pass ------------------------------------------------------


def test_each_measurement_runs_once_per_suite(monkeypatch):
    """No suite scans or searches the same code twice, and mds reuses d."""
    from subspace_lrc import arraycode, verification

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            code = args[0]
            key = (name, code.generator.rows, repr(args[1:]), repr(sorted(kwargs.items())))
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in (
        "weight_distribution",
        "locality_profile",
        "dual_distance_by_supports",
        "dual",
        "_worst_availability",
    ):
        monkeypatch.setattr(verification, name, counted(name, getattr(verification, name)))

    def no_rescan(*args, **kwargs):
        raise AssertionError("is_mds must reuse the distance of the weight scan")

    monkeypatch.setattr(arraycode, "min_distance", no_rescan)
    blocks = enumerate_grassmannian(F2, 3, 2)
    runs = [
        lambda: verify_all_subspaces(F2, 3, 2),
        lambda: verify_spread_code(F2, 4, 2),
        lambda: verify_std_par(F2, 1, 3, 6),
        lambda: verify_std_full(F2, 2, 2, 4),
        lambda: verify_blocks(construction_from_blocks(F2, blocks)),
    ]
    for run in runs:
        calls.clear()
        assert run().ok
        assert calls, "the suite measured nothing"
        assert max(calls.values()) == 1, [k[0] for k, v in calls.items() if v > 1]


def test_all_subspaces_pairs_every_column_in_one_call(monkeypatch):
    """The b = 2 pair family is built once per code, not once per column."""
    from subspace_lrc import verification

    pairing = verification.grassmann_pairing
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return pairing(*args, **kwargs)

    monkeypatch.setattr(verification, "grassmann_pairing", counted)
    for field, M in ((F2, 3), (F2, 4), (F3, 3)):
        calls.clear()
        suite = verify_all_subspaces(field, M, 2)
        assert by_id(suite, "pairing-family").status == "pass"
        assert calls == [(field, M)]


# the b = 2 instances whose pair family reaches (n - 1) // 2 disjoint pairs
CERTIFIED = [(F2, 3), (F2, 4), (F3, 3), (F4, 3), (F5, 3), (F7, 3), (F8, 3)]
CERTIFIED_IDS = [f"q{f.q}-M{M}" for f, M in CERTIFIED]


def counted_availability(monkeypatch):
    """Record the targets of every _worst_availability call of a suite."""
    from subspace_lrc import verification

    walk, groups = verification._worst_availability, []

    def counted(code, gs, **kwargs):
        groups.extend(gs)
        return walk(code, gs, **kwargs)

    monkeypatch.setattr(verification, "_worst_availability", counted)
    return groups


@pytest.mark.parametrize("field,M", CERTIFIED, ids=CERTIFIED_IDS)
def test_all_subspaces_node_availability_certificate_matches_walk(monkeypatch, field, M):
    """The pair family settles node availability with the walk's value, and
    the walk then runs for the symbol group only."""
    groups = counted_availability(monkeypatch)
    suite = verify_all_subspaces(field, M, 2)
    assert suite.ok, "\n".join(suite.lines())
    assert len(groups) == 1 and all(row is not None for _, row, _ in groups[0])

    code = construction_all_subspaces(field, M, 2)
    r_n = int(by_id(suite, "node-locality").measured)
    [walk] = locality._worst_availability(
        code, [locality._nonzero_targets(code, "node", r_n)], exact_cap=DEFAULT_PACKING_CAP, limit=None
    )
    assert walk.exact and walk.value == (code.n - 1) // 2
    assert by_id(suite, "node-availability").measured == f"{walk.value} (exact)"


def line_pair_missing(grass, t):
    """Two subspaces other than grass[t] meeting in a line, with a sum that misses grass[t]."""
    for a, c in combinations(range(len(grass)), 2):
        if t not in (a, c) and intersection_dim(grass[a], grass[c]) == 1:
            if not contains_subspace(subspace_sum(grass[a], grass[c]), grass[t]):
                return a, c
    raise AssertionError("no such pair")


def drop_first_pair(field, M, pairings):
    first = pairings[0]
    return [replace(first, pairs=first.pairs[1:], covered=first.covered - 2), *pairings[1:]]


def swap_first_pair(field, M, pairings):
    bad = line_pair_missing(enumerate_grassmannian(field, M, 2), 0)
    return [replace(pairings[0], pairs=(bad, *pairings[0].pairs[1:])), *pairings[1:]]


@pytest.mark.parametrize(
    "field,M,corrupt,value,family",
    [
        (F2, 4, drop_first_pair, 17, "min family 16, covering=False, valid=True"),
        (F3, 3, drop_first_pair, 6, "min family 5, valid=True"),
        (F2, 4, swap_first_pair, 17, "min family 17, covering=True, valid=False"),
    ],
    ids=["drop-q2-M4", "drop-q3-M3", "line-pair-q2-M4"],
)
def test_all_subspaces_short_or_invalid_family_runs_the_walk(monkeypatch, field, M, corrupt, value, family):
    """A family below the counting bound or with a pair that misses its
    target proves nothing exact: the walk runs and finds the same value."""
    from subspace_lrc import verification

    pairing = verification.grassmann_pairing
    monkeypatch.setattr(
        verification, "grassmann_pairing", lambda f, m, **kw: corrupt(f, m, pairing(f, m, **kw))
    )
    groups = counted_availability(monkeypatch)
    suite = verify_all_subspaces(field, M, 2)
    assert len(groups) == 2 and all(row is None for _, row, _ in groups[1])
    assert by_id(suite, "pairing-family").measured == family
    assert by_id(suite, "node-availability").measured == f"{value} (exact)"
    assert by_id(suite, "node-availability").status == "pass"


def sums_hold(grass, pairing):
    return all(
        contains_subspace(subspace_sum(grass[a], grass[c]), grass[pairing.target_index])
        for a, c in pairing.pairs
    )


@pytest.mark.parametrize("field,M", CERTIFIED, ids=CERTIFIED_IDS)
def test_pairs_hold_matches_subspace_sums(field, M):
    """_pairs_hold on the packed generator agrees with contains_subspace of
    subspace_sum, on the pair family and on random pairs one target at a
    time; half of those repeat one column, so some miss their target at M = 3."""
    code = construction_all_subspaces(field, M, 2)
    pairings = grassmann_pairing(field, M)
    assert _pairs_hold(code, pairings)
    assert all(sums_hold(code.subspaces, p) for p in pairings)
    rng, n, seen = random.Random(M * field.q), code.n, Counter()
    for _ in range(150):
        t, a, c = (rng.randrange(n) for _ in range(3))
        pairing = PairingResult(t, ((a, a if rng.random() < 0.5 else c),), 2, n - 1)
        seen[sums_hold(code.subspaces, pairing)] += 1
        assert _pairs_hold(code, [pairing]) == sums_hold(code.subspaces, pairing)
    assert seen[True] and seen[False]


def test_pairs_hold_rejects_a_line_pair():
    code = construction_all_subspaces(F2, 4, 2)
    swapped = swap_first_pair(F2, 4, grassmann_pairing(F2, 4))
    assert not sums_hold(code.subspaces, swapped[0])
    assert all(sums_hold(code.subspaces, p) for p in swapped[1:])
    assert not _pairs_hold(code, swapped)
    assert _pairs_hold(code, swapped[1:])


def test_pairs_hold_ors_the_targets_of_a_shared_pair():
    """A pair listed for two targets, valid for only one, fails in either
    order and either orientation: the targets' flags are OR-ed, not overwritten."""
    code = construction_all_subspaces(F2, 4, 2)
    good = grassmann_pairing(F2, 4)[0]
    a, c = good.pairs[0]
    holds = PairingResult(0, ((a, c),), 2, 34)
    misses = next(
        PairingResult(t, ((c, a),), 2, 34)
        for t in range(1, code.n)
        if not sums_hold(code.subspaces, PairingResult(t, ((a, c),), 2, 34))
    )
    assert _pairs_hold(code, [holds]) and not _pairs_hold(code, [misses])
    assert not _pairs_hold(code, [holds, misses])
    assert not _pairs_hold(code, [misses, holds])


def test_pairs_hold_reduces_each_unordered_pair_once(monkeypatch):
    """q=2 M=4: 595 listed pairs, 325 of them distinct unordered pairs, and
    34 distinct smaller helpers; one elimination for each helper and each pair."""
    from subspace_lrc import linalg

    code = construction_all_subspaces(F2, 4, 2)
    pairings = grassmann_pairing(F2, 4)
    listed = [tuple(sorted(pair)) for p in pairings for pair in p.pairs]
    assert (len(listed), len(set(listed)), len({a for a, _ in listed})) == (595, 325, 34)
    eliminate, calls = linalg._Generator.eliminate, []

    def counted(self, rows, j):
        calls.append(j)
        return eliminate(self, rows, j)

    monkeypatch.setattr(linalg._Generator, "eliminate", counted)
    assert _pairs_hold(code, pairings)
    assert len(calls) == 34 + 325


# --- dispatcher ----------------------------------------------------------------


def test_run_verification_dispatch():
    assert run_verification("all-subspaces", F2, M=3, b=2).construction == "all-subspaces"
    assert run_verification("spread", F2, M=4, b=2).construction == "spread"
    assert run_verification("std-par", F2, M=6, b=3).construction == "std-par"
    assert run_verification("std-full", F2, M=4, b=2, t=2).construction == "std-full"
    blocks = enumerate_grassmannian(F2, 3, 2)
    assert run_verification("from-blocks", F2, blocks=blocks).construction == "from-blocks"
    with pytest.raises(BadParams):
        run_verification("mystery", F2, M=3, b=2)
