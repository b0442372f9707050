"""Each object of a `verify` or `analyze` run is built once.

`verify` checks a design and measures the code made from that same design
object; every code packs its generator once, for the weight scan and the
subset walk alike; `parse_bundle` reads the rank off the thick-column spans it
builds anyway; and `verify_std` compares packed points without unpacking them.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from subspace_lrc import arraycode, cli, designs, linalg, verification
from subspace_lrc.arraycode import construction_spread, construction_std, format_bundle, parse_bundle
from subspace_lrc.designs import build_std, verify_std
from subspace_lrc.gf import field_new

F2, F3, F4 = field_new(2), field_new(3), field_new(2, 2)

VERIFY = {
    "spread": ("spread", "-M", "4", "-b", "2"),
    "spread-desarguesian": ("spread", "-M", "6", "-b", "2", "--method", "desarguesian"),
    "std-par": ("std-par", "-M", "6", "-b", "3"),
    "std-par-gf3": ("std-par", "--field", "gf(3)", "-M", "4", "-b", "2"),
    "std-full": ("std-full", "-t", "2", "-M", "4", "-b", "2"),
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def count_calls(monkeypatch, name, modules):
    """Count the calls of the function `name` through every module that binds it."""
    calls = []
    original = getattr(designs, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in modules:
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, counted)
    return calls


def count_generators(monkeypatch):
    """Record the content of every packed generator built: field, rows, b, n."""
    built = []
    init = linalg._Generator.__init__

    def counted(self, field, rows, b, n):
        built.append((field.descriptor(), tuple(map(tuple, rows)), b, n))
        init(self, field, rows, b, n)

    monkeypatch.setattr(linalg._Generator, "__init__", counted)
    return built


@pytest.mark.parametrize("case", sorted(VERIFY))
def test_verify_builds_its_design_once(case, monkeypatch):
    modules = (arraycode, verification, designs)
    spreads = count_calls(monkeypatch, "build_spread", modules)
    stds = count_calls(monkeypatch, "build_std", modules)
    assert run(["verify", *VERIFY[case]])[0] == 0
    assert len(spreads) + len(stds) == 1


@pytest.mark.parametrize("case", sorted(VERIFY) + ["from-blocks"])
def test_verify_packs_each_generator_once(case, monkeypatch, tmp_path):
    argv = VERIFY.get(case)
    if argv is None:
        blocks = tmp_path / "blocks.txt"
        blocks.write_text("2 2 4\n1 0 0 0\n0 1 0 0\n\n2 2 4\n0 0 1 0\n0 0 0 1\n\n2 2 4\n1 0 1 0\n0 1 0 1\n")
        argv = ("from-blocks", "--blocks", str(blocks))
    built = count_generators(monkeypatch)
    assert run(["verify", *argv])[0] == 0
    assert built, "the suite packed no generator"
    # the code and, where the cross-check scans it, its dual: one packing each
    assert len(built) == len(set(built))


@pytest.mark.parametrize(
    "code",
    [construction_spread(F2, 4, 2), construction_std(F3, 1, 2, 4, "par"), construction_spread(F4, 4, 2)],
    ids=lambda c: c.provenance,
)
def test_analyze_locality_packs_the_generator_once(code, monkeypatch, tmp_path):
    bundle = tmp_path / "code.bundle"
    bundle.write_text(format_bundle(code), encoding="ascii")
    built = count_generators(monkeypatch)
    assert run(["analyze", str(bundle), "--locality", "--availability"])[0] == 0
    assert len(built) == 1


def test_parse_bundle_makes_no_rank_call(monkeypatch):
    def no_rank(*args):
        raise AssertionError("parse_bundle reads the rank off the thick-column spans")

    monkeypatch.setattr(linalg, "rank", no_rank, raising=False)
    monkeypatch.setattr(arraycode, "rank", no_rank, raising=False)
    for code in (construction_spread(F2, 6, 2), construction_std(F3, 1, 2, 4, "full")):
        parsed = parse_bundle(format_bundle(code))
        assert parsed.generator == code.generator
        assert parsed.subspaces == code.subspaces


@pytest.mark.parametrize("field,t,b,m", [(F2, 1, 2, 2), (F2, 2, 2, 3), (F3, 1, 2, 2), (F4, 1, 2, 2)])
def test_verify_std_unpacks_no_point(field, t, b, m, monkeypatch):
    design = build_std(field, t, b, m)

    def no_basis(self):
        raise AssertionError("verify_std compares packed rows")

    monkeypatch.setattr(linalg.Subspace, "basis", property(no_basis))
    outcomes = verify_std(design)
    assert all(c.passed is not False for c in outcomes)
    assert [c.name for c in outcomes if c.passed] == [
        "points",
        "group-partition",
        "blocks",
        "block-group-incidence",
        "t-coverage",
        "resolvability",
    ]


INCIDENCE = {
    "spread": ("spread", "-M", "6", "-b", "2"),
    "std-full": ("std-full", "-t", "2", "-M", "4", "-b", "2"),
    "all-subspaces": ("all-subspaces", "-M", "4", "-b", "2"),
}


@pytest.mark.parametrize("case", sorted(INCIDENCE))
def test_verify_builds_one_point_incidence_per_block_set(case):
    """The design check, the locality certificate, the dual-distance rule and
    the b = 2 pair family of one run read one shared point-to-blocks table:
    built by the first of them, read again by the two that follow."""
    designs._point_incidence.cache_clear()
    assert run(["verify", *INCIDENCE[case]])[0] == 0
    info = designs._point_incidence.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_point_incidence_is_kept_for_equal_blocks_only():
    grass = designs.enumerate_grassmannian(F2, 4, 2)
    table = designs.point_incidence(grass)
    again = designs.enumerate_grassmannian(F2, 4, 2)
    assert again is not grass and again[0] is not grass[0]
    assert designs.point_incidence(again) is table
    assert designs.point_incidence(list(grass)) is table
    spread = designs.build_spread(F2, 4, 2).blocks
    assert designs.point_incidence(spread) is not table
    rebuilt = designs.point_incidence(grass)
    assert rebuilt is not table and rebuilt == table


@pytest.mark.parametrize(
    "argv,blocks",
    [
        (INCIDENCE["all-subspaces"], lambda: designs.enumerate_grassmannian(F2, 4, 2)),
        (INCIDENCE["spread"], lambda: designs.build_spread(F2, 6, 2).blocks),
        (INCIDENCE["std-full"], lambda: build_std(F2, 2, 2, 2).blocks),
    ],
    ids=["all-subspaces", "spread", "std-full"],
)
def test_verify_leaves_the_shared_incidence_unchanged(argv, blocks):
    table = designs.point_incidence(blocks())
    before = {p: list(h) for p, h in table.items()}
    assert run(["verify", *argv])[0] == 0
    assert designs.point_incidence(blocks()) is table
    assert table == before
