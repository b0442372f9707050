"""Differential property tests of the text readers against the readers they
replaced (tests/reference.py): bundle and matrix text is mutated at random,
and `parse_bundle` and `parse_matrix` must return what the reference returns
or raise the same exception type with the same message.

The mutations are the ones a file meets: tokens that are multi-digit, not
integers or outside the field, counts far beyond the text, a tab, a
no-break space or a double space between tokens, dropped and duplicated
lines, and header lines reordered or broken. No mutation writes a token
that int() reads but the entry grammar -?[0-9]+ refuses (a sign, a digit
separator, a non-ASCII digit): there the readers differ on purpose, which
tests/test_linalg.py and tests/test_cli.py pin.

Test-only dependency: skipped where hypothesis is missing.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

# hypothesis's report of a falsifying example raises a DeprecationWarning from
# mypy_extensions; under filterwarnings = error that would hide the example
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

from hypothesis import given, settings, strategies as st  # noqa: E402

from reference import reference_parse_bundle, reference_parse_matrix  # noqa: E402
from subspace_lrc.arraycode import (  # noqa: E402
    code_from_subspaces,
    construction_all_subspaces,
    construction_spread,
    dual,
    format_bundle,
    parse_bundle,
)
from subspace_lrc.gf import field_from_order  # noqa: E402
from subspace_lrc.linalg import Subspace, format_matrix, parse_matrix  # noqa: E402


def _padded():
    F2 = field_from_order(2)
    blocks = [[(1, 0, 0), (0, 1, 0)], [(0, 0, 1)], [(0, 1, 1)]]
    return code_from_subspaces(F2, [Subspace.from_span(F2, 3, rows) for rows in blocks], 2, 3, "padded")


# every field size class of the readers (single digits, q >= 10 with
# multi-digit entries), a column of dimension below b and a dual, whose
# columns are not in the written layout
BUNDLES = [
    format_bundle(code)
    for code in (
        construction_spread(field_from_order(2), 4, 2),
        construction_spread(field_from_order(4), 4, 2),
        construction_all_subspaces(field_from_order(3), 2, 1),
        construction_all_subspaces(field_from_order(11), 2, 1),
        _padded(),
        dual(construction_spread(field_from_order(2), 4, 2)),
    )
]

# the last two, in a matrix header, are counts far beyond the text, one too
# large for any index
TOKENS = ["0", "1", "00", "01", "10", "12", "99", "x", "-1", "-0", "2", "3", "4", "11", "16", "1.0", "",
          "10000000000", "9" * 20]
HEADER_BREAKS = ["b", "b x", "n -1", "M 0", "field gf(6)", "field", "width 2", "provenance", "b 2", "generator 2",
                 "M " + "9" * 20, "n 10000000000"]
BODY_KINDS = ["token", "token", "separator", "drop", "duplicate"]
HEADER_KINDS = ["reorder", "header"]


@st.composite
def mutated_lines(draw, lines, body, kinds):
    """lines with up to four mutations of the given kinds. Tokens and
    separators change in the lines from index body on, the order and content
    of a bundle's header in lines 1 to 5, and any line may be dropped or
    duplicated."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("token", "separator") and len(lines) > body:
            at = draw(st.integers(body, len(lines) - 1))
            parts = lines[at].split(" ")
            if kind == "token":
                parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(TOKENS))
                lines[at] = " ".join(parts)
            elif len(parts) > 1:
                gap = draw(st.integers(0, len(parts) - 2))
                sep = draw(st.sampled_from(["\t", "  ", " \t", "\u00a0", ""]))
                lines[at] = " ".join(parts[: gap + 1]) + sep + " ".join(parts[gap + 1 :])
        elif kind == "drop" and lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif kind == "duplicate" and lines:
            at = draw(st.integers(0, len(lines) - 1))
            lines.insert(at, lines[at])
        elif kind == "reorder":
            lines[1:6] = draw(st.permutations(lines[1:6]))
        elif kind == "header" and len(lines) > 1:
            lines[draw(st.integers(1, min(6, len(lines)) - 1))] = draw(st.sampled_from(HEADER_BREAKS))
    return lines


def outcome(read, text):
    """What a reader makes of text: the code or matrix as plain data, or the
    type and message of what it raised."""
    try:
        out = read(text)
    except Exception as exc:  # noqa: BLE001 -- any exception is compared
        return type(exc), str(exc)
    if hasattr(out, "subspaces"):
        return (out.field, out.b, out.n, out.M, out.generator, out.subspaces, out.provenance)
    return out


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_parse_bundle_agrees_with_reference(data):
    text = data.draw(st.sampled_from(BUNDLES))
    # the matrices start after the header lines and "generator"
    lines = data.draw(mutated_lines(text.splitlines(), 7, BODY_KINDS + HEADER_KINDS))
    mutated = "\n".join(lines) + "\n"
    assert outcome(parse_bundle, mutated) == outcome(reference_parse_bundle, mutated)


def _bundle(head, generator, subspaces):
    return "\n".join(["bundle array-code", "field gf(2)", *head, "provenance edge", "generator", *generator,
                      f"subspaces {len(subspaces)}", *(ln for sub in subspaces for ln in sub)]) + "\n"


def _indented(text):
    """text with every line after "generator" indented and each "1 0" written "1<tab>0"."""
    lines = text.splitlines()
    at = lines.index("generator")
    return "\n".join(lines[: at + 1] + ["  " + ln for ln in lines[at + 1 :]]).replace("1 0", "1\t0") + "\n"


# layouts the mutations above rarely reach: a subspace of more than b rows
# next to one of fewer, which pad to as many columns as the generator has;
# a subspace whose rows are longer than M and agree with the generator on
# the first M entries; indented lines, tabs and an indented bad header
EDGE_BUNDLES = {
    "rows-over-b": _bundle(
        ["b 2", "n 2", "M 3"],
        ["2 3 4", "1 0 0 0", "0 1 0 1", "0 0 1 1"],
        [["2 3 3", "1 0 0", "0 1 0", "0 0 1"], ["2 1 3", "0 1 1"]],
    ),
    "rows-over-M": _bundle(["b 1", "n 2", "M 2"], ["2 2 2", "1 0", "0 1"], [["2 1 3", "1 0 0"], ["2 1 2", "0 1"]]),
    "indented": _indented(BUNDLES[0]),
    "indented-dual": _indented(BUNDLES[-1]),
    "indented-bad-header": _indented(BUNDLES[0]).replace("  2 4 10", "  2 four 10"),
}


@pytest.mark.parametrize("name", sorted(EDGE_BUNDLES))
def test_parse_bundle_edge_layouts_agree_with_reference(name):
    text = EDGE_BUNDLES[name]
    assert outcome(parse_bundle, text) == outcome(reference_parse_bundle, text)


MATRICES = [
    format_matrix(parse_matrix(text))
    for text in (
        "2 3 4\n1 0 1 1\n0 1 1 0\n0 0 0 1",
        "3 2 3\n0 1 2\n2 2 0",
        "11 2 3\n10 0 3\n1 9 7",
        "16 1 4\n15 0 12 1",
        "2 0 3",
    )
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_parse_matrix_agrees_with_reference(data):
    text = data.draw(st.sampled_from(MATRICES))
    lines = data.draw(mutated_lines(text.splitlines(), 1, BODY_KINDS))
    mutated = "\n".join(lines) + "\n"
    field = data.draw(st.sampled_from([None, field_from_order(2), field_from_order(11)]))
    assert outcome(lambda t: parse_matrix(t, field), mutated) == outcome(
        lambda t: reference_parse_matrix(t, field), mutated
    )
