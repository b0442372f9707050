"""A witness of the recovery-set search computes its coefficients on first read.

`verify` and `analyze` print witness sizes and columns, never coefficients,
so neither solves for a functional (`locality._functionals`); `repair` reads
them once per (code, column) plan. Coefficients read from a profile equal the
ones computed eagerly, and a `RecoverySet` built with explicit coefficients
keeps them.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from subspace_lrc import cli, locality
from subspace_lrc.arraycode import construction_spread, construction_std, format_bundle
from subspace_lrc.gf import field_new
from subspace_lrc.linalg import Mat, vec_mat
from subspace_lrc.locality import RecoverySet, locality_profile, repair
from reference import validate_recovery
from test_arraycode import acceptance_codes
from test_build_once import VERIFY

F2, F3 = field_new(2), field_new(3)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        return cli.main(argv)


def count_functionals(monkeypatch):
    calls = []
    original = locality._functionals

    def counted(code, columns, column, rows):
        calls.append((id(code), column, tuple(rows)))
        return original(code, columns, column, rows)

    monkeypatch.setattr(locality, "_functionals", counted)
    return calls


@pytest.mark.parametrize("case", sorted(VERIFY) + ["from-blocks"])
def test_verify_solves_no_functional(case, monkeypatch, tmp_path):
    argv = VERIFY.get(case)
    if argv is None:
        blocks = tmp_path / "blocks.txt"
        blocks.write_text("2 2 4\n1 0 0 0\n0 1 0 0\n\n2 2 4\n0 0 1 0\n0 0 0 1\n\n2 2 4\n1 0 1 0\n0 1 0 1\n")
        argv = ("from-blocks", "--blocks", str(blocks))
    calls = count_functionals(monkeypatch)
    assert run(["verify", *argv]) == 0
    assert calls == []


@pytest.mark.parametrize(
    "code",
    [construction_spread(F2, 4, 2), construction_std(F3, 1, 2, 4, "par"), construction_std(F2, 2, 2, 4, "full")],
    ids=lambda c: c.provenance,
)
def test_analyze_locality_solves_no_functional(code, monkeypatch, tmp_path):
    bundle = tmp_path / "code.bundle"
    bundle.write_text(format_bundle(code), encoding="ascii")
    calls = count_functionals(monkeypatch)
    assert run(["analyze", str(bundle), "--locality", "--availability"]) == 0
    assert calls == []


def test_repair_solves_once_per_plan(monkeypatch):
    codes = [construction_spread(F2, 4, 2), construction_spread(F3, 4, 2)]
    calls = count_functionals(monkeypatch)
    rng = random.Random(7)
    for _ in range(3):
        for code in codes:
            for column in range(code.n):
                message = [rng.randrange(code.field.q) for _ in range(code.M)]
                flat = vec_mat(message, code.generator)
                rows = [tuple(flat[j * code.b + i] for j in range(code.n)) for i in range(code.b)]
                got = repair(code, Mat(code.field, tuple(rows), code.n), column)
                assert got.message == tuple(message)
    assert sorted(calls) == sorted({(id(code), j, (0, 1)) for code in codes for j in range(code.n)})


@pytest.mark.parametrize("code", acceptance_codes(), ids=lambda c: c.provenance)
def test_profile_coefficients_equal_eager_ones(code):
    profile = locality_profile(code)
    for w in profile.node_witnesses + tuple(w for row in profile.symbol_witnesses for w in row):
        rows = range(code.b) if w.row is None else (w.row,)
        coefficients = locality._functionals(code, w.columns, w.column, rows)
        eager = RecoverySet(w.kind, w.column, w.row, w.columns, coefficients)
        assert w.coefficients == eager.coefficients
        assert w == eager and hash(w) == hash(eager)
        assert validate_recovery(code, w)


def test_explicit_coefficients_are_kept():
    rset = RecoverySet("symbol", 0, 0, (1,), ((1, 0),))
    assert rset.coefficients == ((1, 0),)
    with pytest.raises(AttributeError):
        rset.other  # noqa: B018
