import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import subspace_lrc
from subspace_lrc.arraycode import (
    ArrayCode,
    _scan_range,
    _thick_column_spans,
    analyze_code,
    code_from_subspaces,
    construction_all_subspaces,
    construction_from_blocks,
    construction_spread,
    construction_std,
    dual,
    dual_distance_by_supports,
    encode,
    format_bundle,
    is_mds,
    min_distance,
    parse_bundle,
    perfectness,
    weight,
    weight_distribution,
)
from subspace_lrc.designs import enumerate_grassmannian, gaussian
from subspace_lrc.errors import (
    AmbientMismatch,
    BadParams,
    DimensionMismatch,
    DimensionTooLarge,
    DuplicateBlock,
    Inconsistent,
    MixedDimensions,
    NotDivisible,
    OutOfRange,
    TooLarge,
)
from subspace_lrc.gf import FieldContext, extension_new, field_new, parse_field
from subspace_lrc.linalg import Mat, Subspace, _Slots, row_space
from reference import is_codeword, rank

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)


def brute_weight_histogram(code):
    """Oracle: encode every message directly and count nonzero columns."""
    hist = {}
    for msg in itertools.product(range(code.field.q), repeat=code.M):
        w = weight(encode(code, msg))
        hist[w] = hist.get(w, 0) + 1
    return hist


def reference_scan_range(field, rows, b, n, lo, hi):
    """Reference path: the per-symbol Gray scan, one field op per symbol per step.

    Returns (histogram, least weight of a nonzero message or None); the
    packed arraycode._scan_range must return the same histogram on every range.
    """
    q = field.q
    M = len(rows)
    s, d = lo, []
    for _ in range(M + 1):
        d.append(s % q)
        s //= q
    digits = [(d[i] - d[i + 1]) % q for i in range(M)]
    flat = [0] * (b * n)
    for g, row in zip(digits, rows):
        if g:
            for idx, x in enumerate(row):
                if x:
                    flat[idx] = field.add(flat[idx], field.mul(g, x))
    hist = {}
    best = None

    def account(s):
        nonlocal best
        w = sum(1 for j in range(0, b * n, b) if any(flat[j : j + b]))
        hist[w] = hist.get(w, 0) + 1
        if s != 0 and (best is None or w < best):
            best = w

    account(lo)
    for s in range(lo + 1, hi):
        k, x = 0, s
        while x % q == 0:
            x //= q
            k += 1
        old = digits[k]
        new = (old + 1) % q
        digits[k] = new
        delta = field.sub(new, old)
        for idx, v in enumerate(rows[k]):
            if v:
                flat[idx] = field.add(flat[idx], field.mul(delta, v))
        account(s)
    return hist, best


def test_all_subspaces_shape():
    code = construction_all_subspaces(F2, 3, 2)
    assert (code.b, code.n, code.M) == (2, 7, 3)
    assert code.subspaces == enumerate_grassmannian(F2, 3, 2)
    assert rank(code.generator) == 3
    # thick column j spans exactly the j-th subspace
    assert _thick_column_spans(code.generator, code.b) == code.subspaces


def test_all_subspaces_b1_is_projective():
    code = construction_all_subspaces(F2, 3, 1)
    assert (code.b, code.n, code.M) == (1, 7, 3)
    assert weight_distribution(code) == {0: 1, 4: 7}


def test_weight_distribution_matches_bruteforce():
    cases = [
        construction_all_subspaces(F2, 3, 2),
        construction_all_subspaces(F3, 3, 2),
        construction_spread(F2, 4, 2),
        construction_std(F2, 1, 2, 4, "par"),
        construction_all_subspaces(F4, 2, 1),
        construction_all_subspaces(field_new(5), 3, 2),
        construction_std(field_new(5), 1, 1, 2, "par"),
        construction_std(field_new(2, 3), 1, 1, 2, "par"),
        construction_std(field_new(3, 2), 1, 1, 2, "par"),
        # odd-characteristic tower: GF(9) presented over GF(3)
        construction_std(extension_new(F3, 2), 1, 1, 2, "par"),
        # padded: the second block has dimension 1 < b = 2
        code_from_subspaces(
            F3,
            [
                Subspace.from_span(F3, 3, [(1, 0, 0), (0, 1, 2)]),
                Subspace.from_span(F3, 3, [(0, 0, 1)]),
                Subspace.from_span(F3, 3, [(1, 2, 1), (0, 1, 1)]),
            ],
            2,
            3,
            "padded",
        ),
    ]
    for code in cases:
        assert weight_distribution(code) == brute_weight_histogram(code)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: code_from_subspaces(F2, [], 2, 4, "x"), BadParams, "need at least one associated subspace"),
        (lambda: encode(construction_spread(F2, 4, 2), (1, 0, 1)), DimensionMismatch, "message length 3, expected 4"),
        (
            lambda: is_codeword(construction_spread(F2, 4, 2), Mat(F2, ((0,) * 4,) * 2, 4)),
            DimensionMismatch,
            "array is 2x4, code is 2x5",
        ),
        (
            lambda: dual(construction_spread(F2, 2, 2)),
            BadParams,
            "dual code is trivial (generator has full column count)",
        ),
    ],
    ids=["no-subspaces", "encode", "is_codeword", "dual"],
)
def test_code_argument_messages(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_weight_distribution_extension_context_field():
    # same scan code must work when the field is a tower extension
    ext = extension_new(F2, 2)
    code = construction_all_subspaces(ext, 2, 1)
    assert weight_distribution(code) == brute_weight_histogram(code)


def test_weight_distribution_parallel():
    for code in [construction_all_subspaces(F3, 3, 2), construction_std(F3, 1, 2, 4, "par")]:
        assert weight_distribution(code, jobs=2) == weight_distribution(code)
    # pool workers scan the packed generator for every field, extensions included
    for code in [
        construction_std(extension_new(F3, 2), 1, 1, 2, "par"),
        construction_spread(field_new(2, 2), 6, 3),
    ]:
        assert weight_distribution(code, jobs=3) == weight_distribution(code)


SPAWNED_SCAN = """
import multiprocessing

from subspace_lrc.arraycode import construction_spread, weight_distribution
from subspace_lrc.gf import parse_field

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    for field, M, b in [("gf(2)", 8, 2), ("gf(3)", 4, 2), ("gf(4)", 4, 2)]:
        code = construction_spread(parse_field(field), M, b)
        assert weight_distribution(code, jobs=2) == weight_distribution(code, jobs=1), field
    print("same")
"""


def test_weight_distribution_parallel_spawned_workers(tmp_path):
    # spawned workers import the package afresh, so each field they unpickle
    # is their own cached context
    script = tmp_path / "scan.py"
    script.write_text(SPAWNED_SCAN, encoding="utf-8")
    src = str(Path(subspace_lrc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "same\n", "")


def test_scan_scales_each_row_once_per_distinct_step(monkeypatch):
    # gf(2^16) has 16 distinct Gray steps (g + 1) - g = 2^k - 1, and M = 1
    code = construction_spread(parse_field("gf(2^16)"), 1, 1)
    calls = []
    scale = _Slots.scale

    def counted(self, v, c):
        calls.append(c)
        return scale(self, v, c)

    monkeypatch.setattr(_Slots, "scale", counted)
    _scan_range(code._packed_generator, 0, code.field.q)
    assert len(calls) == 16


def test_min_distance():
    assert min_distance(construction_all_subspaces(F2, 4, 2)) == 28
    assert min_distance(construction_std(F3, 1, 2, 4, "par")) == 8


def test_scan_rejects_out_of_range_entry():
    # a hand-built generator bypasses Mat.from_rows; the scan checks entries
    gen = Mat(F3, ((1, 0), (0, 3)), 2)
    spaces = (Subspace.from_span(F3, 2, [(1, 0)]), Subspace.from_span(F3, 2, [(0, 1)]))
    code = ArrayCode(F3, 1, 2, 2, gen, spaces, "hand-built")
    with pytest.raises(OutOfRange, match="entry 3 outside field of order 3"):
        weight_distribution(code)


def acceptance_codes():
    """Every code the acceptance gate builds with q^M <= 2^12."""
    import test_acceptance as acc

    kinds = {"all-subspaces": "c1", "width-1": "c1", "spread": "spread",
             "std-par": "cpar", "std-full": "std-full"}
    keys = {(kinds[name], q, M, b) for name, q, M, b in acc.all_verified_codes()}
    keys |= {("cpar", q, M, b) for q, b, M in acc.CPAR_LOCALITY}
    keys |= {("c1", q, M, b) for q, M, b in acc.C1_LOCALITY}
    keys |= {("spread", q, M, b) for q, M, b in acc.SPREAD_LOCALITY}
    return [acc.code_of(*key) for key in sorted(keys) if key[1] ** key[2] <= 2**12]


def test_packed_scan_matches_reference_on_acceptance_codes():
    codes = acceptance_codes()
    assert len(codes) >= 12
    for code in codes:
        rows, b, n = code.generator.rows, code.b, code.n
        total = code.field.q**code.M
        assert _scan_range(code._packed_generator, 0, total) == (
            reference_scan_range(code.field, rows, b, n, 0, total)[:1]
        )
        # random-access starts
        cuts = [0, total // 3, total // 3 + 1, (2 * total) // 3, total]
        for lo, hi in zip(cuts, cuts[1:]):
            if lo < hi:
                assert _scan_range(code._packed_generator, lo, hi) == (
                    reference_scan_range(code.field, rows, b, n, lo, hi)[:1]
                )


def test_weight_scan_makes_no_field_call_per_gray_step(monkeypatch):
    """Field calls in a scan pay for scaling rows only, never per codeword.

    spread q=2 M=8 b=2 has 256 codewords and 85 thick columns; a per-symbol
    scan makes thousands of add calls, the packed scan at most one mul per
    nonzero generator entry and one sub per step-table entry.
    """
    code = construction_spread(F2, 8, 2)
    calls = {"add": 0, "mul": 0, "sub": 0}
    for name in calls:
        fn = getattr(F2, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(F2, name, counted)
    assert weight_distribution(code) == {0: 1, 64: 255}
    nonzero = sum(1 for row in code.generator.rows for x in row if x)
    assert calls["add"] == 0
    assert calls["mul"] <= (F2.q - 1) * nonzero
    assert calls["sub"] <= F2.q


def test_known_distances():
    assert min_distance(construction_all_subspaces(F2, 4, 3)) == 14
    assert min_distance(construction_all_subspaces(F3, 3, 2)) == 12
    assert min_distance(construction_spread(F2, 6, 3)) == 8


def test_spread_code_constant_weight():
    code = construction_spread(F2, 6, 2)
    assert (code.b, code.n, code.M) == (2, 21, 6)
    assert weight_distribution(code) == {0: 1, 16: 63}


EXAMPLE_ROWS = [
    "100 100 100 100 100 100 100 100",
    "010 010 010 010 010 010 010 010",
    "001 001 001 001 001 001 001 001",
    "000 100 001 010 101 011 111 110",
    "000 010 101 011 111 110 100 001",
    "000 001 010 101 011 111 110 100",
]


def example_generator():
    rows = [tuple(int(ch) for ch in r.replace(" ", "")) for r in EXAMPLE_ROWS]
    return Mat.from_rows(F2, rows)


def test_parallel_class_code_matches_printed_generator():
    # the printed [3x8, 6, 7] generator and the constructed one are the
    # same code up to column order: identical thick-column subspace sets
    # and identical weight enumerators
    code = construction_std(F2, 1, 3, 6, "par")
    assert (code.b, code.n, code.M) == (3, 8, 6)
    printed = example_generator()
    assert rank(printed) == 6

    printed_spaces = set()
    for j in range(8):
        cols = [printed.column(3 * j + i) for i in range(3)]
        printed_spaces.add(Subspace.from_span(F2, 6, cols))
    assert printed_spaces == set(code.subspaces)

    printed_code = code_from_subspaces(
        F2, sorted(printed_spaces, key=lambda s: s.basis), 3, 6, "printed"
    )
    assert weight_distribution(printed_code) == weight_distribution(code)
    assert min_distance(code) == 7
    assert is_mds(code)


@pytest.mark.parametrize(
    "field,b,M,expect_full",
    [
        (F2, 3, 6, 7),   # q^b - 1 == 2^b - 1 == 7
        (F2, 2, 4, 3),
        (F3, 2, 4, None),  # either 3 or 8; measured, not assumed
    ],
)
def test_parallel_class_distributions(field, b, M, expect_full):
    q = field.q
    code = construction_std(field, 1, b, M, "par")
    wd = weight_distribution(code)
    d = q ** (M - b) - q ** (M - 2 * b)
    full = q ** (M - b)
    assert set(wd) == {0, d, full}
    assert wd[0] == 1
    k = wd[full]
    if expect_full is not None:
        assert k == expect_full
    assert k in (2**b - 1, q**b - 1)
    assert wd[d] == q**M - 1 - k


def test_std_full_strength_two():
    code = construction_std(F2, 2, 2, 4, "full")
    assert (code.b, code.n, code.M) == (2, 16, 4)
    assert min_distance(code) == 12


def test_std_class_choice_and_range():
    c0 = construction_std(F2, 2, 2, 4, "par", 0)
    c1 = construction_std(F2, 2, 2, 4, "par", 1)
    assert c0.subspaces != c1.subspaces
    assert c0.n == c1.n == 4
    with pytest.raises(OutOfRange):
        construction_std(F2, 2, 2, 4, "par", 99)
    with pytest.raises(BadParams):
        construction_std(F2, 3, 2, 4, "par")  # t > b
    with pytest.raises(BadParams):
        construction_std(F2, 1, 3, 5, "par")  # b > M - b
    with pytest.raises(BadParams):
        construction_std(F2, 1, 2, 4, "sideways")


def test_encode_and_membership():
    code = construction_spread(F2, 4, 2)
    for msg in itertools.product(range(2), repeat=4):
        cw = encode(code, msg)
        assert cw.nrows == 2 and cw.cols == 5
        assert is_codeword(code, cw)
    junk = Mat.from_rows(F2, [(1, 0, 0, 0, 0), (0, 0, 0, 0, 0)])
    assert not is_codeword(code, junk)  # weight 1 < distance 4


def test_encode_linearity():
    code = construction_all_subspaces(F3, 3, 2)
    a = encode(code, (1, 2, 0))
    b = encode(code, (0, 1, 1))
    s = encode(code, (1, 0, 1))  # componentwise sum of the messages
    for i in range(code.b):
        for j in range(code.n):
            assert F3.add(a.rows[i][j], b.rows[i][j]) == s.rows[i][j]


def test_flat_weight_bracketing():
    # a column with w nonzero symbols contributes to column weight iff w > 0
    code = construction_all_subspaces(F2, 4, 2)
    for msg in [(1, 0, 0, 0), (1, 1, 0, 1), (0, 1, 1, 0)]:
        cw = encode(code, msg)
        col_w = weight(cw)
        flat_nonzero = sum(
            1 for j in range(code.n) for i in range(code.b) if cw.rows[i][j]
        )
        assert col_w <= flat_nonzero <= col_w * code.b


def test_dual_orthogonality_and_involution():
    for code in [
        construction_spread(F2, 4, 2),
        construction_all_subspaces(F3, 3, 2),
    ]:
        dd = dual(code)
        assert dd.b == code.b and dd.n == code.n
        assert dd.M == code.b * code.n - code.M
        # all generator rows orthogonal under the flat inner product
        F = code.field
        for u in code.generator.rows:
            for v in dd.generator.rows:
                acc = 0
                for x, y in zip(u, v):
                    acc = F.add(acc, F.mul(x, y))
                assert acc == 0
        assert row_space(dual(dd).generator) == row_space(code.generator)


def test_dual_distance_supports_vs_exhaustive():
    for code in [
        construction_spread(F2, 4, 2),
        construction_all_subspaces(F2, 3, 2),
        construction_std(F2, 1, 2, 4, "par"),
        construction_all_subspaces(F3, 3, 1),
    ]:
        dd = dual(code)
        wd = weight_distribution(dd)
        exhaustive = min(w for w in wd if w > 0)
        assert dual_distance_by_supports(code) == exhaustive


def reference_dual_distance(code):
    """Reference path: rank of the flat columns of every support, by size."""
    b, n, M = code.b, code.n, code.M
    for w in range(1, n + 1):
        if w * b > M:
            return w
        for support in itertools.combinations(range(n), w):
            cols = [code.generator.column(j * b + i) for j in support for i in range(b)]
            if rank(Mat(code.field, tuple(cols), M)) < w * b:
                return w
    raise TooLarge(f"no dual codeword of weight <= {n} found")


def test_dual_distance_supports_match_reference():
    codes = acceptance_codes()
    assert len(codes) >= 12
    for code in codes:
        assert dual_distance_by_supports(code) == reference_dual_distance(code)
    # a padded column carries a zero flat column: a dual codeword of weight 1
    mixed = [
        Subspace.from_span(F2, 3, [(1, 0, 0), (0, 1, 0)]),
        Subspace.from_span(F2, 3, [(0, 0, 1)]),
        Subspace.from_span(F2, 3, [(0, 1, 1)]),
    ]
    padded = code_from_subspaces(F2, mixed, 2, 3, "padded")
    assert dual_distance_by_supports(padded) == reference_dual_distance(padded) == 1
    # bn = M: the flat columns are independent and the dual is trivial
    halves = [
        Subspace.from_span(F2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
        Subspace.from_span(F2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)]),
    ]
    trivial = code_from_subspaces(F2, halves, 2, 4, "trivial dual")
    for search in (dual_distance_by_supports, reference_dual_distance):
        with pytest.raises(TooLarge, match=r"^no dual codeword of weight <= 2 found$"):
            search(trivial)


def test_spread_dual_is_perfect():
    for field, M, b in [(F2, 4, 2), (F2, 6, 2), (F3, 4, 2)]:
        dd = dual(construction_spread(field, M, b))
        res = perfectness(dd)
        assert res.is_perfect
        assert res.ratio == Fraction(1)
        assert res.phi1 == field.q**M


def test_parallel_dual_ball_ratio():
    code = construction_std(F2, 1, 3, 6, "par")
    res = perfectness(dual(code))
    assert res.ratio == Fraction(57, 64)
    assert not res.is_perfect


def test_is_mds():
    assert is_mds(construction_spread(F2, 4, 2))
    assert not is_mds(construction_spread(F2, 6, 2))  # d = 16 < 21 - 3 + 1
    with pytest.raises(NotDivisible):
        is_mds(construction_all_subspaces(F2, 3, 2))


@pytest.mark.parametrize(
    "subspace,message",
    [
        (
            lambda: Subspace.from_span(FieldContext(2), 3, [(1, 0, 0)]),
            "subspace and code over two different context objects for gf(2);"
            " field_new and parse_field return one context per field",
        ),
        (lambda: Subspace.from_span(F3, 3, [(1, 0, 0)]), "subspace of gf(3)^3 in a code over gf(2)^3"),
        (lambda: Subspace.from_span(F2, 4, [(1, 0, 0, 0)]), "subspace of gf(2)^4 in a code over gf(2)^3"),
    ],
    ids=["context", "order", "ambient"],
)
def test_code_from_subspaces_field_mismatch_messages(subspace, message):
    with pytest.raises(AmbientMismatch) as exc:
        code_from_subspaces(F2, [subspace()], 1, 3, "x")
    assert str(exc.value) == message


def test_code_from_subspaces_validation():
    spaces = list(enumerate_grassmannian(F2, 3, 2))
    with pytest.raises(DimensionTooLarge):
        code_from_subspaces(F2, spaces, 1, 3, "x")
    with pytest.raises(AmbientMismatch):
        code_from_subspaces(F2, [Subspace.from_span(F2, 4, [(1, 0, 0, 0)])], 2, 3, "x")
    # rank-deficient family: all subspaces inside a hyperplane
    inside = [s for s in spaces if all(v[2] == 0 for v in s.basis)]
    with pytest.raises(BadParams, match=r"^associated subspaces span a 2-dim space, code needs the full 3$"):
        code_from_subspaces(F2, inside, 2, 3, "x")
    # several columns, odd q, short columns and a zero column
    lines = [Subspace.from_span(F3, 4, [v]) for v in [(1, 2, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)]]
    with pytest.raises(BadParams, match=r"^associated subspaces span a 2-dim space, code needs the full 4$"):
        code_from_subspaces(F3, lines, 2, 4, "x")
    with pytest.raises(BadParams, match=r"^associated subspaces span a 0-dim space, code needs the full 3$"):
        code_from_subspaces(F2, [Subspace.zero(F2, 3)], 2, 3, "x")
    with pytest.raises(BadParams, match=r"^need M >= 1, got M=0$"):
        code_from_subspaces(F2, [Subspace.zero(F2, 0)], 1, 0, "x")


def test_code_from_subspaces_pads_short_columns():
    mixed = [
        Subspace.from_span(F2, 3, [(1, 0, 0), (0, 1, 0)]),
        Subspace.from_span(F2, 3, [(0, 0, 1)]),
        Subspace.from_span(F2, 3, [(0, 1, 1)]),
    ]
    code = code_from_subspaces(F2, mixed, 2, 3, "padded")
    assert code.n == 3
    # the padded thick column still spans the declared 1-dim subspace
    assert _thick_column_spans(code.generator, code.b)[1] == mixed[1]


def test_construction_from_blocks_errors():
    spaces = list(enumerate_grassmannian(F2, 3, 2))
    with pytest.raises(BadParams):
        construction_from_blocks(F2, [])
    with pytest.raises(DuplicateBlock):
        construction_from_blocks(F2, [spaces[0], spaces[0]])
    with pytest.raises(MixedDimensions):
        construction_from_blocks(
            F2, [spaces[0], Subspace.from_span(F2, 3, [(1, 1, 1)])]
        )
    code = construction_from_blocks(F2, spaces[:4])
    assert code.n == 4 and code.b == 2


def test_construction_limit():
    with pytest.raises(TooLarge):
        construction_all_subspaces(F2, 12, 6, limit=1000)


def test_analyze_code_report():
    code = construction_spread(F2, 4, 2)
    rep = analyze_code(code)
    assert rep.distance == 4
    assert rep.mds is True
    assert rep.full_column_rank
    assert rep.weight_distribution == {0: 1, 4: 15}
    assert rep.parameters["n"] == 5
    js = rep.to_json_dict()
    assert js["weight_distribution"] == {"0": 1, "4": 15}
    assert js["ratio_num"] == 1 and js["ratio_den"] == 4


def test_analyze_code_oversize_degrades_to_note():
    code = construction_all_subspaces(F2, 4, 2)
    rep = analyze_code(code, limit=4)
    assert rep.distance is None
    assert any("skipped" in note for note in rep.notes)


def roundtrip_codes():
    """Every construction, a code with a column of dim < b, and a dual code,
    whose generator columns hold a kernel basis, not the declared rows."""
    mixed = [
        Subspace.from_span(F2, 3, [(1, 0, 0), (0, 1, 0)]),
        Subspace.from_span(F2, 3, [(0, 0, 1)]),
        Subspace.from_span(F2, 3, [(0, 1, 1)]),
    ]
    return [
        construction_spread(F2, 4, 2),
        construction_spread(F4, 4, 2, "desarguesian"),
        construction_std(F3, 1, 2, 4, "par"),
        construction_std(F2, 2, 2, 4, "full"),
        construction_all_subspaces(F4, 2, 1),
        construction_from_blocks(F2, list(enumerate_grassmannian(F2, 3, 2))[:4]),
        code_from_subspaces(F2, mixed, 2, 3, "padded"),
        dual(construction_spread(F2, 4, 2)),
    ]


def test_bundle_roundtrip():
    for code in roundtrip_codes():
        text = format_bundle(code)
        back = parse_bundle(text)
        assert back.generator.rows == code.generator.rows
        assert back.subspaces == code.subspaces
        assert back.provenance == code.provenance
        assert back.field == code.field


def test_parse_bundle_reduces_only_columns_in_another_layout(monkeypatch):
    """A thick column written as format_bundle writes it is not reduced
    again: one from_span per declared subspace, plus one per other column."""
    import subspace_lrc.arraycode as arraycode
    from subspace_lrc import linalg

    codes = roundtrip_codes()

    def no_spans(*args):
        raise AssertionError("parse_bundle compares the columns with the declared rows")

    monkeypatch.setattr(arraycode, "_thick_column_spans", no_spans)
    calls = []
    from_span = linalg.Subspace.from_span

    def counted(*args):
        calls.append(args)
        return from_span(*args)

    monkeypatch.setattr(linalg.Subspace, "from_span", staticmethod(counted))
    for code in codes:
        text = format_bundle(code)
        written = sum(
            code.generator.transpose().rows[j * code.b : (j + 1) * code.b]
            == s.basis + ((0,) * code.M,) * (code.b - s.dim)
            for j, s in enumerate(code.subspaces)
        )
        # a construction writes every column in the declared layout; the dual's
        # kernel basis leaves at least one column in another
        assert (written == code.n) != code.provenance.startswith("dual(")
        calls.clear()
        assert parse_bundle(text).subspaces == code.subspaces
        assert len(calls) == 2 * code.n - written


def test_bundle_corruption_detected():
    code = construction_spread(F2, 4, 2)
    text = format_bundle(code)
    # flip one generator bit: the declared subspaces no longer match
    lines = text.splitlines()
    gen_start = lines.index("generator") + 2  # skip the matrix header line
    row = lines[gen_start]
    flipped = ("1" + row[1:]) if row[0] == "0" else ("0" + row[1:])
    lines[gen_start] = flipped
    with pytest.raises(Inconsistent):
        parse_bundle("\n".join(lines) + "\n")


def test_bundle_header_is_keyed():
    code = construction_spread(F2, 4, 2)
    lines = format_bundle(code).splitlines()
    header, rest = lines[1:6], lines[6:]
    back = parse_bundle("\n".join([lines[0], *reversed(header), *rest]) + "\n")
    assert back.generator.rows == code.generator.rows
    assert back.provenance == code.provenance
    for edited, message in [
        ([h for h in header if not h.startswith("n ")], "^bundle header 'n' is missing$"),
        ([*header, "b 2"], "^unexpected bundle header line 'b 2'$"),
        ([*header, "width 2"], "^unexpected bundle header line 'width 2'$"),
        (["field gf(6)", *header[1:]], "^bundle header 'field': "),
        ([*header[:3], "M four", header[4]], "^bundle header 'M' is not an integer: 'four'$"),
    ]:
        with pytest.raises(Inconsistent, match=message):
            parse_bundle("\n".join([lines[0], *edited, *rest]) + "\n")


def test_bundle_truncation_detected():
    code = construction_spread(F2, 4, 2)
    text = format_bundle(code)
    with pytest.raises((Inconsistent, BadParams)):
        parse_bundle(text[: len(text) // 2])


def test_provenance_strings():
    assert construction_all_subspaces(F2, 3, 2).provenance == "all-subspaces q=2 M=3 b=2"
    assert "spread" in construction_spread(F2, 4, 2).provenance
    assert "std-par" in construction_std(F2, 1, 2, 4, "par").provenance
    assert "std-full" in construction_std(F2, 2, 2, 4, "full").provenance
