"""End-to-end checks for the verification suites.

Each suite is run on a small instance where every quantity can be
recomputed exhaustively, and selected check lines are pinned down.
"""

from collections import Counter

import pytest

from subspace_lrc import (
    BadParams,
    Check,
    VerificationSuite,
    code_from_subspaces,
    construction_from_blocks,
    enumerate_grassmannian,
    field_new,
    run_verification,
    verify_all_subspaces,
    verify_blocks,
    verify_spread_code,
    verify_std_full,
    verify_std_par,
)

F2 = field_new(2)
F3 = field_new(3)


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
        "_minimal_recovery_sets",
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
