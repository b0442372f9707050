"""Command line behaviour: exit codes, formats, determinism.

Most tests drive cli.main() in-process; byte-identity checks spawn real
subprocesses so argv handling and stdio encoding are covered too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subspace_lrc
from subspace_lrc import (
    Check,
    Subspace,
    VerificationSuite,
    code_from_subspaces,
    construction_spread,
    encode,
    field_new,
    read_bundle,
    format_bundle,
)
from subspace_lrc import cli, locality, verification
from subspace_lrc.linalg import format_matrix

F2 = field_new(2)

SPREAD_ARGS = ["spread", "--field", "gf(2)", "-M", "4", "-b", "2"]
SPREAD_SUMMARY = "[2x5, 4] over gf(2) (spread q=2 M=4 b=2 method=gabidulin-echelon)"


def spread_bundle(tmp_path):
    path = tmp_path / "spread.bundle"
    assert cli.main(["construct", *SPREAD_ARGS, "-o", str(path)]) == 0
    return str(path)


def codeword_file(tmp_path, message=(1, 0, 1, 1), clobber=None, name="array.txt"):
    """Write the encoded message as matrix text, optionally corrupting cells."""
    code = construction_spread(F2, 4, 2, "gabidulin-echelon")
    cw = encode(code, message)
    rows = [list(r) for r in cw.rows]
    if clobber:
        for (i, j, value) in clobber:
            rows[i][j] = value
    text = f"{cw.field.q} {cw.nrows} {cw.cols}\n" + "\n".join(
        " ".join(str(x) for x in row) for row in rows
    ) + "\n"
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- construct -----------------------------------------------------------------


def test_construct_prints_summary(capsys):
    assert cli.main(["construct", *SPREAD_ARGS]) == 0
    out = capsys.readouterr().out
    assert out == SPREAD_SUMMARY + "\n"


def test_construct_writes_bundle(tmp_path, capsys):
    path = tmp_path / "code.bundle"
    assert cli.main(["construct", *SPREAD_ARGS, "-o", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == f"{SPREAD_SUMMARY}\nwrote {path}\n"
    code = read_bundle(str(path))
    direct = construction_spread(F2, 4, 2, "gabidulin-echelon")
    assert code.generator.rows == direct.generator.rows
    assert code.provenance == direct.provenance


def test_construct_stdout_bundle(capsys):
    assert cli.main(["construct", *SPREAD_ARGS, "-o", "-"]) == 0
    captured = capsys.readouterr()
    direct = construction_spread(F2, 4, 2, "gabidulin-echelon")
    assert captured.out == format_bundle(direct)
    assert captured.err == SPREAD_SUMMARY + "\n"


def test_construct_extension_field(capsys):
    assert cli.main(["construct", "all-subspaces", "--field", "gf(4)", "-M", "3", "-b", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "[2x21, 3] over gf(2^2) (all-subspaces q=4 M=3 b=2)\n"


def test_construct_missing_params_exits_2(capsys):
    assert cli.main(["construct", "all-subspaces"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "-M" in err and "-b" in err


def test_construct_indivisible_spread_exits_2(capsys):
    assert cli.main(["construct", "spread", "-M", "5", "-b", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_construct_bad_field_exits_2(capsys):
    assert cli.main(["construct", "spread", "--field", "gf(six)", "-M", "4", "-b", "2"]) == 2
    assert "cannot parse field" in capsys.readouterr().err


def test_limit_caps_enumeration(capsys):
    argv = ["construct", "all-subspaces", "-M", "4", "-b", "2"]
    assert cli.main([*argv, "--limit", "10"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert cli.main(argv) == 0


# --- analyze -------------------------------------------------------------------


def test_analyze_json(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    capsys.readouterr()
    assert cli.main(["analyze", bundle]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["locality"] is None
    rep = doc["report"]
    assert rep["parameters"]["q"] == 2
    assert rep["parameters"]["n"] == 5
    assert rep["distance"] == 4
    assert rep["mds"] is True
    assert rep["perfect"] is False  # the dual is perfect, the code is not
    assert rep["weight_distribution"] == {"0": 1, "4": 15}


def test_analyze_json_with_availability(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    capsys.readouterr()
    assert cli.main(["analyze", bundle, "--availability"]) == 0
    loc = json.loads(capsys.readouterr().out)["locality"]
    assert loc["node_locality"] == 2
    assert loc["symbol_locality"] == 2
    avail = loc["node_availability"]
    assert avail["quality"] == "exact"
    assert avail["value"] == len(avail["sets"]) == 2
    used = [c for s in avail["sets"] for c in s]
    assert len(used) == len(set(used))
    assert all(1 <= c <= 5 for c in used)  # user-facing columns are 1-based
    # witnesses are 1-based too
    for w in loc["node_witnesses"]:
        assert all(1 <= c <= 5 for c in w["columns"])


def test_analyze_locality_without_availability(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    capsys.readouterr()
    assert cli.main(["analyze", bundle, "--locality"]) == 0
    loc = json.loads(capsys.readouterr().out)["locality"]
    assert loc["node_locality"] == 2
    assert loc["node_availability"]["status"] == "skipped"


def test_analyze_availability_over_limit_is_skipped(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    capsys.readouterr()
    assert cli.main(["analyze", bundle, "--availability", "--limit", "9"]) == 0
    loc = json.loads(capsys.readouterr().out)["locality"]
    assert loc == {
        "status": "skipped",
        "reason": "enumerating 10 candidate helper sets needs 10 objects, limit is 9",
    }


def test_analyze_csv(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    capsys.readouterr()
    assert cli.main(["analyze", bundle, "--format", "csv", "--availability"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    assert "distance,4" in lines
    assert "mds,True" in lines
    assert "weight.0,1" in lines
    assert "weight.4,15" in lines
    assert "node_locality,2" in lines
    assert "node_availability,2" in lines
    assert "node_availability.quality,exact" in lines


def test_analyze_text(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    capsys.readouterr()
    assert cli.main(["analyze", bundle, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "[2x5, 4] over gf(2)"
    assert "distance: 4" in out
    assert "mds: True" in out
    assert "weights: 0:1, 4:15" in out


def test_analyze_skip_distance(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    capsys.readouterr()
    assert cli.main(["analyze", bundle, "--skip-distance", "--skip-weights"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["distance"] is None


def test_analyze_prints_ratios_longer_than_the_int_digit_cap(tmp_path, capsys):
    """15,000 copies of the line of GF(2)^1: the covering ratio is
    2 * 15001 / 2^15000 = 15001 / 2^14999, whose denominator has 4,516
    digits, over the 4,300 that Python prints by default."""
    line = subspace_lrc.Subspace.from_span(F2, 1, [(1,)])
    bundle = tmp_path / "lines.bundle"
    subspace_lrc.write_bundle(subspace_lrc.code_from_subspaces(F2, [line] * 15000, 1, 1, "lines"), str(bundle))
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    outs = {}
    for fmt in ("json", "text", "csv"):
        capsys.readouterr()
        assert cli.main(["analyze", str(bundle), "--format", fmt, "--skip-weights", "--skip-distance"]) == 0
        outs[fmt] = capsys.readouterr().out
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap, "the cap is restored"
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        den = str(2**14999)
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)
    assert len(den) == 4516
    assert f'"ratio_den": {den},' in outs["json"] and '"ratio_num": 15001,' in outs["json"]
    assert f"perfect: False (ball 15001, ratio 15001/{den})\n" in outs["text"]
    assert f"ratio_num,15001\nratio_den,{den}\n" in outs["csv"]


def test_analyze_output_file(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert cli.main(["analyze", bundle, "-o", str(report)]) == 0
    assert capsys.readouterr().out == f"wrote {report}\n"
    assert json.loads(report.read_text())["report"]["distance"] == 4


def test_analyze_missing_bundle_exits_2(tmp_path, capsys):
    assert cli.main(["analyze", str(tmp_path / "nope.bundle")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_corrupt_bundle_exits_3(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    lines = Path(bundle).read_text().splitlines()
    idx = lines.index("generator") + 2
    lines[idx] = lines[idx].replace("1", "0", 1)
    bad = tmp_path / "bad.bundle"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["analyze", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def analyze_edited_bundle(tmp_path, capsys, old, new):
    """Exit code and stderr of analyze on the spread bundle with line `old`
    replaced by `new`, or on the bundle text `new` alone when old is None."""
    text = Path(spread_bundle(tmp_path)).read_text()
    assert old is None or old + "\n" in text
    bad = tmp_path / "bad.bundle"
    bad.write_text(new + "\n" if old is None else text.replace(old + "\n", new + "\n", 1))
    capsys.readouterr()
    return cli.main(["analyze", str(bad)]), capsys.readouterr().err


# M=2 but a single thick column (1, 0): the generator spans only a line
RANK_1_BUNDLE = """bundle array-code
field gf(2)
b 1
n 1
M 2
provenance hand-written
generator
2 2 1
1
0
subspaces 1
2 1 2
1 0"""


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("bundle array-code", "bundle code", "not a code bundle: first line 'bundle code'"),
        ("generator", "generators", "bundle missing the generator section"),
        ("subspaces 5", "subspaces x", "malformed code bundle: subspaces line 'subspaces x'"),
        ("n 5", "n 6", "bundle shapes disagree: generator 4x10, declared M=4, b=2, n=6"),
        (None, RANK_1_BUNDLE, "generator rank 1 differs from declared dimension 2"),
        # a header count is checked against the text before anything is sized by it
        ("2 4 10", "2 4 " + "9" * 20, f"malformed code bundle: generator: row 1: expected {'9' * 20} entries, got 10"),
        ("2 4 10", "2 4 10000000000", "malformed code bundle: generator: row 1: expected 10000000000 entries, got 10"),
        (
            "2 2 4",
            "2 2 " + "9" * 20,
            f"malformed code bundle: subspace 1 of 5: row 1: expected {'9' * 20} entries, got 4",
        ),
        # an entry is -?[0-9]+, though int() reads these
        (
            "0 1 0 1 0 1 0 1 0 0",
            "0 1 0 1_0 0 1 0 1 0 0",
            "malformed code bundle: generator: row 2: entry '1_0' is not an integer",
        ),
        (
            "0 1 0 1 0 1 0 1 0 0",
            "0 1 0 +1 0 1 0 1 0 0",
            "malformed code bundle: generator: row 2: entry '+1' is not an integer",
        ),
    ],
)
def test_bundle_structure_errors_exit_3(tmp_path, capsys, old, new, message):
    rc, err = analyze_edited_bundle(tmp_path, capsys, old, new)
    assert (rc, err) == (3, f"error: {message}\n")


def test_bundle_bare_header_names_the_field(tmp_path, capsys):
    rc, err = analyze_edited_bundle(tmp_path, capsys, "M 4", "M")
    assert (rc, err) == (3, "error: bundle header 'M' is not an integer: ''\n")


def test_bundle_empty_field_header_is_named(tmp_path, capsys):
    rc, err = analyze_edited_bundle(tmp_path, capsys, "field gf(2)", "field")
    assert rc == 3
    assert err == "error: bundle header 'field': cannot parse field ''; expected gf(q) or gf(p^m)\n"


def test_bundle_non_integer_entry_is_named(tmp_path, capsys):
    rc, err = analyze_edited_bundle(tmp_path, capsys, "0 1 0 1 0 1 0 1 0 0", "0 1 0 x 0 1 0 1 0 0")
    assert (rc, err) == (3, "error: malformed code bundle: generator: row 2: entry 'x' is not an integer\n")


def test_bundle_out_of_field_entry_names_the_row(tmp_path, capsys):
    rc, err = analyze_edited_bundle(tmp_path, capsys, "0 1 0 1 0 1 0 1 0 0", "0 1 0 7 0 1 0 1 0 0")
    assert (rc, err) == (3, "error: malformed code bundle: generator: row 2: entry 7 outside field of order 2\n")


def test_bundle_subspace_count_over_matrices_is_named(tmp_path, capsys):
    rc, err = analyze_edited_bundle(tmp_path, capsys, "subspaces 5", "subspaces 7")
    assert (rc, err) == (3, "error: bundle declares 7 subspaces, holds 5\n")


def test_bundle_field_over_table_limit_is_named(tmp_path, capsys):
    rc, err = analyze_edited_bundle(tmp_path, capsys, "field gf(2)", "field gf(2^20000)")
    assert (rc, err) == (3, "error: bundle header 'field': field order 2^20000 exceeds table limit 65536\n")


def test_bundle_field_of_5000_digits_is_named(tmp_path, capsys):
    # past 4,300 digits int() itself refuses the string, so the size is read
    # off the digit count first
    nines = "9" * 5000
    rc, err = analyze_edited_bundle(tmp_path, capsys, "field gf(2)", f"field gf({nines})")
    assert (rc, err) == (3, f"error: bundle header 'field': field order {nines} exceeds table limit 65536\n")


@pytest.mark.parametrize(
    "extra,line",
    [("junk line here\n", "junk line here"), ("2 2 4\n1 0 0 0\n0 1 0 0\n", "2 2 4")],
    ids=["text", "matrix"],
)
def test_bundle_lines_after_the_subspaces_exit_3(tmp_path, capsys, extra, line):
    text = Path(spread_bundle(tmp_path)).read_text()
    rc, err = analyze_edited_bundle(tmp_path, capsys, None, text + extra.rstrip("\n"))
    assert (rc, err) == (3, f"error: bundle declares 5 subspaces, then holds line {line!r}\n")


def test_bundle_column_in_another_basis_reads_the_same(tmp_path, capsys):
    """Thick column 1 written as (v1, v1 + v2) instead of the declared rows
    (v1, v2): the code reduces it and reports the same bytes."""
    bundle = spread_bundle(tmp_path)
    text = Path(bundle).read_text()
    other = tmp_path / "other.bundle"
    other.write_text(text.replace("\n1 0 1 0 1 0 1 0 0 0\n", "\n1 1 1 0 1 0 1 0 0 0\n", 1))
    assert read_bundle(str(other)).subspaces == read_bundle(bundle).subspaces
    outputs = []
    for path in (bundle, str(other)):
        capsys.readouterr()
        assert cli.main(["analyze", path, "--locality", "--availability"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_bundle_subspace_over_another_ambient_does_not_span(tmp_path, capsys):
    old = "subspaces 5\n2 2 4\n1 0 0 0\n0 1 0 0"
    rc, err = analyze_edited_bundle(tmp_path, capsys, old, "subspaces 5\n2 2 5\n1 0 0 0 0\n0 1 0 0 0")
    assert (rc, err) == (3, "error: thick column 1 does not span its declared subspace\n")


def test_bundle_zero_subspace_over_another_ambient_does_not_span(tmp_path, capsys):
    # thick column 4 is zero, and so is its declared subspace, but of GF(2)^4
    blocks = [
        Subspace.from_span(F2, 3, [(1, 0, 0), (0, 1, 0)]),
        Subspace.from_span(F2, 3, [(0, 0, 1)]),
        Subspace.from_span(F2, 3, [(0, 1, 1)]),
        Subspace.zero(F2, 3),
    ]
    text = format_bundle(code_from_subspaces(F2, blocks, 2, 3, "padded"))
    assert text.endswith("\n2 0 3\n")
    bad = tmp_path / "bad.bundle"
    bad.write_text(text[: -len("2 0 3\n")] + "2 0 4\n")
    assert cli.main(["analyze", str(bad)]) == 3
    assert capsys.readouterr().err == "error: thick column 4 does not span its declared subspace\n"


def test_bundle_rank_is_checked_before_the_spans(tmp_path, capsys):
    # the declared line (0, 1) is not the generator's (1, 0), but the rank fails first
    mismatched = RANK_1_BUNDLE.replace("2 1 2\n1 0", "2 1 2\n0 1")
    assert mismatched != RANK_1_BUNDLE
    rc, err = analyze_edited_bundle(tmp_path, capsys, None, mismatched)
    assert (rc, err) == (3, "error: generator rank 1 differs from declared dimension 2\n")


def analyze_truncated_bundle(tmp_path, capsys, keep):
    """Exit code and stderr of analyze on the spread bundle's first keep lines."""
    lines = Path(spread_bundle(tmp_path)).read_text().splitlines()
    bad = tmp_path / "cut.bundle"
    bad.write_text("\n".join(lines[:keep]) + "\n")
    capsys.readouterr()
    return cli.main(["analyze", str(bad)]), capsys.readouterr().err


def test_bundle_truncated_subspace_is_named(tmp_path, capsys):
    # the first subspace header survives, its two rows do not
    rc, err = analyze_truncated_bundle(tmp_path, capsys, 14)
    assert (rc, err) == (3, "error: malformed code bundle: subspace 1 of 5: expected 2 rows, got 0\n")


def test_bundle_truncated_generator_is_named(tmp_path, capsys):
    # the generator header and two of its four rows
    rc, err = analyze_truncated_bundle(tmp_path, capsys, 10)
    assert (rc, err) == (3, "error: malformed code bundle: generator: expected 4 rows, got 2\n")


def test_bundle_cut_after_generator_names_missing_section(tmp_path, capsys):
    rc, err = analyze_truncated_bundle(tmp_path, capsys, 12)
    assert (rc, err) == (3, "error: bundle missing the subspaces section\n")


def test_bundle_zero_b_header_is_named(tmp_path, capsys):
    # shapes that agree with b 0: a 0 x 0 generator and one 0 x 0 subspace
    text = "bundle array-code\nfield gf(2)\nb 0\nn 1\nM 0\nprovenance x\ngenerator\n2 0 0\nsubspaces 1\n2 0 0\n"
    bad = tmp_path / "b0.bundle"
    bad.write_text(text)
    capsys.readouterr()
    rc, err = cli.main(["analyze", str(bad)]), capsys.readouterr().err
    assert (rc, err) == (3, "error: bundle header 'b' must be at least 1, got 0\n")


@pytest.mark.parametrize("flags", [[], ["--locality"], ["--availability"]])
def test_bundle_zero_M_header_is_named(tmp_path, capsys, flags):
    # a b 1 code of dimension 0: a 0 x 1 generator and one 0 x 0 subspace
    text = "bundle array-code\nfield gf(2)\nb 1\nn 1\nM 0\nprovenance x\ngenerator\n2 0 1\nsubspaces 1\n2 0 0\n"
    bad = tmp_path / "m0.bundle"
    bad.write_text(text)
    capsys.readouterr()
    rc, err = cli.main(["analyze", str(bad), *flags]), capsys.readouterr().err
    assert (rc, err) == (3, "error: bundle header 'M' must be at least 1, got 0\n")


# --- verify --------------------------------------------------------------------


def test_verify_text_ok(capsys):
    assert cli.main(["verify", *SPREAD_ARGS]) == 0
    out = capsys.readouterr().out
    first = out.splitlines()[0]
    assert first.startswith("verification of spread (")
    assert "q=2" in first and "M=4" in first
    assert "0 failed" in out.splitlines()[-1]


def test_verify_json_ok(capsys):
    assert cli.main(["verify", *SPREAD_ARGS, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert any(c["id"] == "dual-perfect" for c in doc["checks"])


def test_verify_failing_suite_exits_1(monkeypatch, capsys):
    bad = VerificationSuite(
        "demo", {"q": 2}, (Check("distance", "d", "4", "3", "fail"),)
    )
    monkeypatch.setattr(cli, "run_verification", lambda *a, **k: bad)
    assert cli.main(["verify", *SPREAD_ARGS]) == 1
    out = capsys.readouterr().out
    assert "distance: FAIL" in out


def test_dual_distance_cross_check_failure_exits_1(monkeypatch, capsys):
    true = verification.dual_distance_by_supports
    monkeypatch.setattr(verification, "dual_distance_by_supports", lambda code: true(code) + 1)
    assert cli.main(["verify", "spread", "-M", "4", "-b", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  dual-distance-cross-check: FAIL (expected 4, measured 3)" in lines
    assert "  dual-distance: FAIL (expected 3, measured 4) -- exhaustive dual scan disagrees: 3" in lines


def test_verify_no_availability_skips(capsys):
    rc = cli.main(
        ["verify", "all-subspaces", "-M", "3", "-b", "2", "--no-availability"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "node-availability: SKIPPED" in out

    rc = cli.main(
        ["verify", "std-full", "-t", "2", "-M", "4", "-b", "2", "--no-availability"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "symbol-availability: SKIPPED (expected -, measured -) -- availability disabled" in out
    assert "node-availability: SKIPPED (expected -, measured -) -- availability disabled" in out


def test_verify_availability_over_limit_is_skipped(capsys):
    # the pools are over --limit: the availability check reports the guard's
    # text and the rest of the suite still runs. gf(3) M=4 has no node
    # certificate, and its raised cap leaves the limit as the bound it meets
    argv = ["all-subspaces", "--field", "gf(3)", "-M", "4", "-b", "2", "--limit", "200", "--packing-cap", "10000"]
    assert cli.main(["verify", *argv]) == 0
    out = capsys.readouterr().out
    assert (
        "node-availability: SKIPPED (expected -, measured -) -- enumerating 8385 candidate"
        " helper sets needs 8385 objects, limit is 200; pair family still proves >= 48"
    ) in out
    assert "symbol-availability: PASS" in out
    assert "dual-distance: PASS" in out

    assert cli.main(["verify", "std-full", "-t", "2", "-M", "4", "-b", "2", "--limit", "10"]) == 0
    out = capsys.readouterr().out
    assert (
        "symbol-availability: SKIPPED (expected -, measured -) -- enumerating 15 candidate"
        " helper sets needs 15 objects, limit is 10"
    ) in out


@pytest.mark.parametrize(
    "argv,line",
    [
        (["all-subspaces", "-M", "3", "-b", "2"], "symbol-availability: PASS (expected 2, measured 2 (exact))"),
        (["std-full", "-t", "2", "-M", "4", "-b", "2"], "symbol-availability: PASS (expected 3, measured 3 (exact))"),
    ],
    ids=["all-subspaces", "std-full"],
)
def test_verify_single_column_pools_are_exact_at_packing_cap_0(argv, line, capsys):
    # at symbol locality 1 every helper set is one column: the pool is
    # pairwise disjoint and packs exactly whatever the cap
    assert cli.main(["verify", *argv, "--packing-cap", "0"]) == 0
    out = capsys.readouterr().out
    assert line in out and "(bound)" not in out


def test_verify_over_packing_cap_skips_symbol_and_node_alike(capsys):
    assert cli.main(["verify", "all-subspaces", "-M", "3", "-b", "1", "--packing-cap", "1"]) == 0
    out = capsys.readouterr().out
    for kind in ("symbol", "node"):
        assert f"{kind}-availability: SKIPPED (expected -, measured -) -- candidate enumeration 21 over cap" in out
    assert "(bound)" not in out


@pytest.mark.parametrize("flags", [["--limit", "40"], ["--packing-cap", "0"]], ids=["limit-40", "packing-cap-0"])
def test_verify_certified_node_availability_ignores_cap_and_limit(flags, capsys):
    # the b = 2 pair family proves (n - 1) // 2 = 17 without enumerating the
    # 595 candidate helper sets, so neither bound on that walk applies
    assert cli.main(["verify", "all-subspaces", "-M", "4", "-b", "2", *flags]) == 0
    out = capsys.readouterr().out
    assert "  node-availability: PASS (expected 17, measured 17 (exact))\n" in out


def test_analyze_single_column_pool_is_exact_at_packing_cap_0(tmp_path, capsys):
    bundle = tmp_path / "all.bundle"
    assert cli.main(["construct", "all-subspaces", "-M", "3", "-b", "2", "-o", str(bundle)]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", str(bundle), "--availability", "--packing-cap", "0"]) == 0
    loc = json.loads(capsys.readouterr().out)["locality"]
    assert (loc["symbol_availability"]["value"], loc["symbol_availability"]["quality"]) == (2, "exact")
    # the node pools hold overlapping pairs, so cap 0 leaves a greedy bound
    assert loc["node_availability"]["quality"] == "bound"


def test_field_over_table_limit_exits_2_naming_the_order(capsys):
    assert cli.main(["verify", "spread", "--field", "gf(2^20000)", "-M", "2", "-b", "1"]) == 2
    assert capsys.readouterr().err == "error: field order 2^20000 exceeds table limit 65536\n"


def test_field_of_5000_digits_exits_2_naming_the_order(capsys):
    nines = "9" * 5000
    assert cli.main(["verify", "spread", "--field", f"gf({nines})", "-M", "2", "-b", "1"]) == 2
    assert capsys.readouterr().err == f"error: field order {nines} exceeds table limit 65536\n"


@pytest.mark.parametrize("construction", ["spread", "std-par"])
def test_verify_mds_over_limit_is_skipped(construction, capsys):
    assert cli.main(["verify", construction, "-M", "6", "-b", "3", "--limit", "20"]) == 0
    out = capsys.readouterr().out
    assert "mds: SKIPPED (expected True, measured -) -- q^M=64 over limit" in out


@pytest.mark.parametrize("command", ["construct", "verify"])
@pytest.mark.parametrize("construction", ["std-par", "std-full"])
def test_std_bad_params_named_by_flags(command, construction, capsys):
    # M = b + m, but the message names the flags -t, -b and -M, not m
    assert cli.main([command, construction, "-t", "3", "-b", "2", "-M", "5"]) == 2
    assert capsys.readouterr().err == "error: need 1 <= t <= b <= M - b, got t=3, b=2, M=5\n"


def test_verify_missing_params_exits_2(capsys):
    assert cli.main(["verify", "spread", "-M", "4"]) == 2
    assert "-b" in capsys.readouterr().err


# --- repair --------------------------------------------------------------------


def test_repair_text(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    array = codeword_file(tmp_path, clobber=[(0, 2, 1), (1, 2, 1)])  # garbage in erased column
    capsys.readouterr()
    assert cli.main(["repair", bundle, "--array", array, "--column", "3"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "restored column 3: (0, 0)\n"
        "recovery set: columns [1, 2]\n"
        "contacted nodes: 2\n"
    )


def test_repair_json(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    array = codeword_file(tmp_path)
    capsys.readouterr()
    assert cli.main(["repair", bundle, "--array", array, "--column", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["column"] == 5
    assert doc["restored"] == [1, 1]
    assert doc["message"] == [1, 0, 1, 1]
    assert doc["contacted_nodes"] == len(doc["recovery_set"]) == 2
    assert all(1 <= c <= 5 and c != 5 for c in doc["recovery_set"])


def test_repair_inconsistent_survivors_exit_3(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    array = codeword_file(tmp_path, clobber=[(0, 3, 0)])  # break a surviving column
    capsys.readouterr()
    assert cli.main(["repair", bundle, "--array", array, "--column", "3"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_repair_column_out_of_range_exits_2(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    array = codeword_file(tmp_path)
    capsys.readouterr()
    assert cli.main(["repair", bundle, "--array", array, "--column", "6"]) == 2
    assert cli.main(["repair", bundle, "--array", array, "--column", "0"]) == 2


def test_repair_wrong_shape_exits_2(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    bad = tmp_path / "short.txt"
    bad.write_text("2 2 3\n1 0 0\n0 1 0\n")
    capsys.readouterr()
    assert cli.main(["repair", bundle, "--array", str(bad), "--column", "1"]) == 2


def test_repair_out_of_field_entry_names_the_row(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    array = codeword_file(tmp_path, clobber=[(1, 3, 7)])
    capsys.readouterr()
    assert cli.main(["repair", bundle, "--array", array, "--column", "1"]) == 2
    assert capsys.readouterr().err == "error: row 2: entry 7 outside field of order 2\n"


def test_repair_several_arrays_share_one_plan(tmp_path, capsys, monkeypatch):
    """Stripes with the same column erased: each is repaired as on its own,
    and the code searches for the node's recovery set once."""
    bundle = spread_bundle(tmp_path)
    messages = [(1, 0, 1, 1), (0, 1, 1, 0), (1, 1, 1, 1)]
    paths = [
        codeword_file(tmp_path, m, clobber=[(0, 2, 1)], name=f"stripe{k}.txt")
        for k, m in enumerate(messages)
    ]
    singles = {}
    for fmt in ("text", "json"):
        for p in paths:
            capsys.readouterr()
            assert cli.main(["repair", bundle, "--array", p, "--column", "3", "--format", fmt]) == 0
            singles[fmt, p] = capsys.readouterr().out
    calls = []
    search = locality._witnesses

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(locality, "_witnesses", counted)
    argv = ["repair", bundle, "--column", "3"]
    for p in paths:
        argv += ["--array", p]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "\n".join(f"array {p}\n" + singles["text", p] for p in paths)
    assert len(calls) == 1
    assert cli.main(argv + ["--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert [d.pop("array") for d in docs] == paths
    assert docs == [json.loads(singles["json", p]) for p in paths]
    assert [d["message"] for d in docs] == [list(m) for m in messages]


GOLDEN_REPAIR = Path(__file__).parent / "golden" / "repair"


@pytest.mark.parametrize(
    "construct,message,name",
    [
        (["spread", "-M", "12", "-b", "3"], (0,) * 12, "spread-q2-M12-b3-column-401.json"),
        (["spread", "--field", "gf(3)", "-M", "8", "-b", "2"], (1, 2, 0, 1, 1, 0, 2, 1), "spread-q3-M8-b2-column-401.json"),
    ],
    ids=["q2-M12-b3", "q3-M8-b2"],
)
def test_repair_column_401_matches_its_golden(tmp_path, capsys, construct, message, name):
    """The two repairs the CI ladder times, byte for byte against the JSON
    recorded before the plans were spliced from one packed generator."""
    bundle = str(tmp_path / "code.bundle")
    assert cli.main(["construct", *construct, "-o", bundle]) == 0
    array = tmp_path / "word.txt"
    array.write_text(format_matrix(encode(read_bundle(bundle), message)))
    capsys.readouterr()
    assert cli.main(["repair", bundle, "--array", str(array), "--column", "401", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN_REPAIR / name).read_text()


def test_repair_several_arrays_error_names_the_array(tmp_path, capsys):
    bundle = spread_bundle(tmp_path)
    good = codeword_file(tmp_path, name="good.txt")
    broken = codeword_file(tmp_path, clobber=[(0, 3, 0)], name="broken.txt")
    short = tmp_path / "short.txt"
    short.write_text("2 2 5\n1 0 0 1 1\n")
    capsys.readouterr()
    argv = ["repair", bundle, "--column", "3", "--array", good]
    assert cli.main(argv + ["--array", broken]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {broken}: surviving columns do not agree with any codeword\n"
    assert cli.main(argv + ["--array", str(short)]) == 2
    assert capsys.readouterr().err == f"error: {short}: expected 2 rows, got 1\n"
    # a single array keeps the message without its path
    assert cli.main(["repair", bundle, "--column", "3", "--array", broken]) == 3
    assert capsys.readouterr().err == "error: surviving columns do not agree with any codeword\n"


# --- parser level --------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["analyze", "{bundle}", "--jobs", "0"], "--jobs"),
        (["analyze", "{bundle}", "--jobs", "-3"], "--jobs"),
        (["analyze", "{bundle}", "--packing-cap", "-1"], "--packing-cap"),
        (["verify", "all-subspaces", "-M", "3", "-b", "2", "--packing-cap", "-1"], "--packing-cap"),
        (["construct", "spread", "-M", "4", "-b", "2", "--limit", "0"], "--limit"),
        (["construct", "all-subspaces", "-M", "3", "-b", "2", "--limit", "-1"], "--limit"),
        (["analyze", "{bundle}", "--limit", "0"], "--limit"),
        (["verify", "spread", "-M", "4", "-b", "2", "--limit", "0"], "--limit"),
    ],
)
def test_out_of_range_counts_exit_2_naming_the_flag(tmp_path, capsys, argv, flag):
    bundle = spread_bundle(tmp_path)
    capsys.readouterr()
    assert cli.main([a.format(bundle=bundle) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: must be at least " in captured.err


def test_usage_error_exits_2(capsys):
    assert cli.main([]) == 2
    assert cli.main(["construct", "not-a-construction", "-M", "4", "-b", "2"]) == 2


def test_help_exits_0_and_states_tiebreak(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "lexicographically" in out
    assert cli.main(["construct", "--help"]) == 0
    out = capsys.readouterr().out
    assert "lexicographically" in out


# --- byte-identical determinism across processes --------------------------------


# directory holding the imported package (src/ or site-packages), absolute so
# the child finds the same copy whatever its working directory
PACKAGE_ROOT = str(Path(subspace_lrc.__file__).resolve().parents[1])


def run_cli(args, cwd, **env_vars):
    """Run the CLI in a child process; a None value removes that variable."""
    env = {k: v for k, v in {**os.environ, **env_vars}.items() if v is not None}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "subspace_lrc.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=120,
    )


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    """main builds its parser once per process; each call in a row prints
    what a fresh process prints for the same argv."""
    bundle = spread_bundle(tmp_path)
    arrays = [
        codeword_file(tmp_path, m, name=f"stripe{k}.txt")
        for k, m in enumerate([(1, 0, 1, 1), (0, 1, 1, 0)])
    ]
    calls = [
        ({}, ["repair", bundle, "--column", "2", "--array", arrays[0], "--array", arrays[1]]),
        ({}, ["repair", bundle, "--column", "2", "--array", arrays[1]]),
        ({}, ["analyze", bundle, "--format", "json"]),
        ({}, ["analyze", bundle, "--format", "text"]),
        ({}, ["analyze", bundle, "--format", "yaml"]),
        ({}, ["analyze", bundle]),
        ({"COLUMNS": "60"}, ["--help"]),
        ({"COLUMNS": "140"}, ["--help"]),
        ({"COLUMNS": "60"}, ["repair", "--help"]),
        ({"COLUMNS": "140"}, ["repair", "--help"]),
    ]
    for env, argv in calls:
        for key, value in {"COLUMNS": None, **env}.items():
            if value is None:
                monkeypatch.delenv(key, raising=False)
            else:
                monkeypatch.setenv(key, value)
        capsys.readouterr()
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        fresh = run_cli(argv, tmp_path, **{"COLUMNS": None, **env})
        assert (rc, out, err) == (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()), argv
    assert cli._parser() is cli._parser()


def test_construct_bytes_identical(tmp_path):
    first = run_cli(["construct", *SPREAD_ARGS, "-o", "-"], tmp_path)
    second = run_cli(["construct", *SPREAD_ARGS, "-o", "-"], tmp_path)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0


def test_analyze_bytes_identical(tmp_path):
    bundle = spread_bundle(tmp_path)
    args = ["analyze", bundle, "--availability", "--format", "json"]
    first = run_cli(args, tmp_path)
    second = run_cli(args, tmp_path)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout)


def test_verify_bytes_identical(tmp_path):
    args = ["verify", "std-par", "--field", "gf(2)", "-M", "6", "-b", "3"]
    first = run_cli(args, tmp_path)
    second = run_cli(args, tmp_path)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_environment_does_not_change_outputs(tmp_path):
    # the enumeration limit comes from --limit alone; the retired
    # SUBSPACE_LRC_LIMIT override must not skip a single check
    bundle = spread_bundle(tmp_path)
    for args in (["verify", *SPREAD_ARGS], ["analyze", bundle, "--availability"]):
        clean = run_cli(args, tmp_path, SUBSPACE_LRC_LIMIT=None)
        overridden = run_cli(args, tmp_path, SUBSPACE_LRC_LIMIT="8")
        assert clean.returncode == overridden.returncode == 0
        assert clean.stdout == overridden.stdout


# --- from-blocks round trip ------------------------------------------------------


def test_from_blocks_file(tmp_path, capsys):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text(
        "2 2 4\n1 0 0 0\n0 1 0 0\n"
        "\n"
        "2 2 4\n0 0 1 0\n0 0 0 1\n"
        "\n"
        "2 2 4\n1 0 1 0\n0 1 0 1\n"
    )
    rc = cli.main(
        ["construct", "from-blocks", "--field", "gf(2)", "--blocks", str(blocks)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("[2x3, 4] over gf(2)")

    rc = cli.main(
        ["verify", "from-blocks", "--field", "gf(2)", "--blocks", str(blocks)]
    )
    assert rc == 0

    assert cli.main(["construct", "from-blocks", "--field", "gf(2)"]) == 2
    err = capsys.readouterr().err
    assert "requires --blocks" in err


@pytest.mark.parametrize(
    "second,message",
    [
        ("2 3 4\n0 0 1 0\n0 0 0 1\n", "block 2 of 3: expected 3 rows, got 2"),
        ("2 2 4\n0 0 1 0\n0 0 x 1\n", "block 2 of 3: row 2: entry 'x' is not an integer"),
        ("2 2 " + "9" * 20 + "\n0 0 1 0\n0 0 0 1\n", f"block 2 of 3: row 1: expected {'9' * 20} entries, got 4"),
        # an entry is -?[0-9]+, though int() reads these
        ("2 2 4\n0 0 1 0\n0 0 1_0 1\n", "block 2 of 3: row 2: entry '1_0' is not an integer"),
        ("2 2 4\n0 0 1 0\n0 0 +1 1\n", "block 2 of 3: row 2: entry '+1' is not an integer"),
        ("2 2 4\n0 0 1 0\n0 0 \u0661 1\n", "block 2 of 3: row 2: entry '\u0661' is not an integer"),
        ("2 2 4\n0 7 1 0\n0 0 0 1\n", "block 2 of 3: row 1: entry 7 outside field of order 2"),
    ],
)
@pytest.mark.parametrize("command", ["construct", "verify"])
def test_from_blocks_file_error_names_block_and_row(tmp_path, capsys, command, second, message):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("2 2 4\n1 0 0 0\n0 1 0 0\n\n" + second + "\n2 2 4\n1 0 1 0\n0 1 0 1\n")
    capsys.readouterr()
    assert cli.main([command, "from-blocks", "--field", "gf(2)", "--blocks", str(blocks)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["construct", "verify"])
def test_from_blocks_of_the_zero_space_is_refused(tmp_path, capsys, command):
    # the zero subspace of GF(2)^0: a code of dimension 0
    blocks = tmp_path / "zero.txt"
    blocks.write_text("2 0 0\n")
    capsys.readouterr()
    assert cli.main([command, "from-blocks", "--blocks", str(blocks)]) == 2
    assert capsys.readouterr() == ("", "error: need M >= 1, got M=0\n")


def test_verify_from_blocks_of_whitespace_names_the_file(tmp_path, capsys):
    blocks = tmp_path / "blank.txt"
    blocks.write_text("  \n\n\t\n")
    capsys.readouterr()
    assert cli.main(["verify", "from-blocks", "--blocks", str(blocks)]) == 2
    assert capsys.readouterr().err == f"error: no matrix blocks found in {blocks}\n"


def test_construct_all_subspaces_wider_than_the_space_is_refused(capsys):
    capsys.readouterr()
    assert cli.main(["construct", "all-subspaces", "-M", "2", "-b", "3"]) == 2
    assert capsys.readouterr().err == "error: need 1 <= b <= M, got b=3, M=2\n"
