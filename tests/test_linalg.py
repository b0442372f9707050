import itertools
import random

import pytest

from subspace_lrc.errors import AmbientMismatch, DimensionMismatch, OutOfRange, TooLarge
from subspace_lrc.gf import FieldContext, extension_new, field_new, parse_field
from subspace_lrc.linalg import (
    Mat,
    Subspace,
    _Combiner,
    _layout,
    _residual,
    format_matrix,
    null_space,
    parse_matrix,
    row_space,
    solve,
    subspace_sum,
    vec_dot,
    vec_mat,
)
from reference import (
    contains_subspace,
    contains_vector,
    enumerate_vectors,
    intersection_dim,
    projective_points,
    rank,
    reference_rref_rows,
    reference_solve,
    rref,
)

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)


def test_mat_construction_and_shape():
    m = Mat.from_rows(F2, [(1, 0, 1), (0, 1, 1)])
    assert (m.nrows, m.cols) == (2, 3)
    assert m.rows[1] == (0, 1, 1)
    assert m.column(2) == (1, 1)
    assert m.transpose().rows == ((1, 0), (0, 1), (1, 1))
    with pytest.raises(DimensionMismatch):
        Mat.from_rows(F2, [(1, 0), (1,)])
    with pytest.raises(OutOfRange):
        Mat.from_rows(F2, [(2, 0)])
    with pytest.raises(DimensionMismatch):
        Mat.from_rows(F2, [], cols=None)
    assert Mat.from_rows(F2, [], cols=4).nrows == 0


def test_rref_frozen_example():
    # worked example over gf(2):
    # [1 1 0 1]        [1 0 1 0]
    # [0 1 1 1]   ->   [0 1 1 0]
    # [1 0 1 1]        [0 0 0 1]
    m = Mat.from_rows(F2, [(1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)])
    r, rk, pivots = rref(m)
    assert rk == 3
    assert pivots == (0, 1, 3)
    assert r.rows == ((1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1))


def test_rref_frozen_example_gf3():
    # [1 2]      [1 2]         [2 1]      [1 2]
    # [2 1]  ->  [0 0]   and   [1 1]  ->  [0 1]... worked by hand:
    m = Mat.from_rows(F3, [(1, 2), (2, 1)])
    r, rk, _ = rref(m)
    assert rk == 1 and r.rows[0] == (1, 2)
    m2 = Mat.from_rows(F3, [(2, 1), (1, 1)])
    r2, rk2, _ = rref(m2)
    assert rk2 == 2 and r2.rows == ((1, 0), (0, 1))


def rref_properties(field, m):
    r, rk, pivots = rref(m)
    assert rk == len(pivots)
    # pivot columns are standard basis vectors, pivots strictly increase
    assert list(pivots) == sorted(pivots)
    for k, pc in enumerate(pivots):
        assert r.column(pc) == tuple(1 if i == k else 0 for i in range(m.nrows))
        # nothing left of the pivot in its row
        assert all(x == 0 for x in r.rows[k][:pc])
    # rows below the rank are zero
    for i in range(rk, m.nrows):
        assert all(x == 0 for x in r.rows[i])
    return r, rk, pivots


def test_rref_random_row_ops_preserve_form():
    rng = random.Random(42)
    for _ in range(200):
        field = rng.choice([F2, F3, F4])
        rows = [
            tuple(rng.randrange(field.q) for _ in range(4)) for _ in range(3)
        ]
        m = Mat.from_rows(field, rows)
        r, rk, _ = rref_properties(field, m)
        # row space is invariant under rref
        assert row_space(m) == row_space(r)


def test_subspace_canonical_under_basis_change():
    # 200 random invertible recombinations of the basis must not change
    # the canonical form
    rng = random.Random(7)
    for field in [F2, F3, F4]:
        base = Subspace.from_span(field, 5, [(1, 0, 1, 0, 1), (0, 1, 1, 1, 0)])
        assert base.dim == 2
        for _ in range(200):
            a, b, c, d = (rng.randrange(field.q) for _ in range(4))
            if field.sub(field.mul(a, d), field.mul(b, c)) == 0:
                continue  # not invertible
            u, v = base.basis
            nu = tuple(field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(u, v))
            nv = tuple(field.add(field.mul(c, x), field.mul(d, y)) for x, y in zip(u, v))
            assert Subspace.from_span(field, 5, [nu, nv]) == base


def test_subspace_dedup_by_equality():
    spans = [
        [(1, 0), (0, 1)],
        [(1, 1), (1, 0)],
        [(0, 1), (1, 1)],
    ]
    forms = {Subspace.from_span(F2, 2, s) for s in spans}
    assert len(forms) == 1


def test_zero_subspace():
    z = Subspace.zero(F2, 3)
    assert z.dim == 0
    assert contains_vector(z, (0, 0, 0))
    assert not contains_vector(z, (1, 0, 0))
    assert subspace_sum(z, z) == z


def test_subspace_constructor_takes_packed_rows():
    s = Subspace.from_rref(F3, 3, [(1, 0, 2)], (0,))
    assert s == Subspace.from_span(F3, 3, [(2, 0, 1)])
    assert s.basis == ((1, 0, 2),)
    with pytest.raises(TypeError, match="from_span or from_rref"):
        Subspace(F3, 3, ((1, 0, 2),), (0,))


def test_contains_and_membership_exhaustive():
    s = Subspace.from_span(F3, 3, [(1, 0, 2), (0, 1, 1)])
    members = set(enumerate_vectors(s))
    assert len(members) == 9
    for v in itertools.product(range(3), repeat=3):
        assert contains_vector(s, v) == (v in members)


def test_reduce_vector():
    s = Subspace.from_span(F2, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    for v in itertools.product(range(2), repeat=4):
        red = residual(s, v)
        # reduction is v minus something in s, and is zero iff v in s
        assert contains_vector(s, tuple(F2.sub(a, b) for a, b in zip(v, red)))
        assert (red == (0, 0, 0, 0)) == contains_vector(s, v)


def test_dimension_formula_exhaustive():
    # dim(A + B) + dim(A meet B) = dim A + dim B over all pairs of
    # subspaces of gf(2)^4 of dimension <= 2
    from subspace_lrc.designs import enumerate_grassmannian

    spaces = [Subspace.zero(F2, 4)]
    spaces += list(enumerate_grassmannian(F2, 4, 1))
    spaces += list(enumerate_grassmannian(F2, 4, 2))
    for a in spaces:
        for b in spaces:
            s = subspace_sum(a, b)
            assert s.dim + intersection_dim(a, b) == a.dim + b.dim
            assert contains_subspace(s, a) and contains_subspace(s, b)


def test_contains_subspace_vs_vectors():
    a = Subspace.from_span(F3, 3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace.from_span(F3, 3, [(1, 2, 0)])
    c = Subspace.from_span(F3, 3, [(1, 0, 1)])
    assert contains_subspace(a, b)
    assert not contains_subspace(a, c)
    with pytest.raises(AmbientMismatch):
        contains_subspace(a, Subspace.from_span(F3, 4, [(1, 0, 0, 0)]))
    with pytest.raises(AmbientMismatch):
        subspace_sum(a, Subspace.from_span(F2, 3, [(1, 0, 0)]))


def test_fields_compare_by_identity():
    # a context built outside the factories is a separate field
    a = Subspace.from_span(F2, 3, [(1, 0, 0)])
    with pytest.raises(AmbientMismatch):
        subspace_sum(a, Subspace.from_span(FieldContext(2), 3, [(0, 1, 0)]))
    assert subspace_sum(a, Subspace.from_span(field_new(2, 1), 3, [(0, 1, 0)])).dim == 2


def test_extension_of_the_prime_field_is_the_parsed_field():
    # GF(4) built as the degree-2 extension of GF(2) is the context parse_field returns
    a = Subspace.from_span(extension_new(field_new(2), 2), 3, [(1, 0, 0)])
    b = Subspace.from_span(parse_field("gf(4)"), 3, [(0, 3, 0)])
    assert subspace_sum(a, b).dim == 2


@pytest.mark.parametrize(
    "other,message",
    [
        (
            lambda: Subspace.from_span(FieldContext(2), 3, [(0, 1, 0)]),
            "subspaces over two different context objects for gf(2);"
            " field_new and parse_field return one context per field",
        ),
        (lambda: Subspace.from_span(F3, 3, [(0, 1, 0)]), "subspaces live in different ambient spaces"),
        (lambda: Subspace.from_span(F2, 4, [(0, 1, 0, 0)]), "subspaces live in different ambient spaces"),
    ],
    ids=["context", "order", "ambient"],
)
def test_field_mismatch_messages(other, message):
    a = Subspace.from_span(F2, 3, [(1, 0, 0)])
    for call in (subspace_sum, contains_subspace):
        with pytest.raises(AmbientMismatch) as exc:
            call(a, other())
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Mat.from_rows(F2, [(1, 0)], cols=3), "declared 3 columns, rows have 2"),
        (lambda: vec_mat((1,), Mat.from_rows(F2, [(1, 0), (0, 1)])), "vector length does not match row count"),
        (lambda: Subspace.from_span(F2, 3, [(1, 0)]), "vector length 2 in ambient 3"),
        (lambda: contains_vector(Subspace.from_span(F2, 4, [(1, 0, 0, 0)]), (1, 0)), "vector length 2 in ambient 4"),
    ],
    ids=["from_rows", "vec_mat", "from_span", "contains_vector"],
)
def test_length_mismatch_messages(call, message):
    with pytest.raises(DimensionMismatch) as exc:
        call()
    assert str(exc.value) == message


def test_null_space_orthogonality():
    rng = random.Random(3)
    for field in [F2, F3, F4]:
        for _ in range(50):
            rows = [
                tuple(rng.randrange(field.q) for _ in range(5)) for _ in range(3)
            ]
            m = Mat.from_rows(field, rows)
            ns = null_space(m)
            assert ns.dim == 5 - rank(m)
            for v in ns.basis:
                assert all(x == 0 for x in reference_mat_vec(m, v))


def test_row_and_column_space():
    m = Mat.from_rows(F2, [(1, 0, 1), (1, 0, 1), (0, 1, 0)])
    assert row_space(m).dim == 2
    assert row_space(m.transpose()).dim == 2


def test_solve_exhaustive_small():
    # solve(m, rhs) finds x with m @ x = rhs exactly when rhs is in the
    # column space
    m = Mat.from_rows(F2, [(1, 1, 0), (1, 1, 0), (0, 0, 1)])
    cs = row_space(m.transpose())
    for rhs in itertools.product(range(2), repeat=3):
        x = solve(m, rhs)
        if contains_vector(cs, rhs):
            assert x is not None and reference_mat_vec(m, x) == rhs
        else:
            assert x is None
    with pytest.raises(DimensionMismatch):
        solve(m, (1, 0))


def test_solve_gf4():
    m = Mat.from_rows(F4, [(1, 2), (3, 2)])  # det = 2 - 2*3 = 2 - 1 = 3
    for rhs in itertools.product(range(4), repeat=2):
        x = solve(m, rhs)
        assert x is not None  # full rank
        assert reference_mat_vec(m, x) == rhs


def test_vec_dot():
    assert vec_dot(F3, (1, 2, 1), (2, 2, 2)) == (2 + 4 + 2) % 3
    with pytest.raises(DimensionMismatch):
        vec_dot(F2, (1, 0), (1, 0, 1))


def test_enumerate_vectors():
    s = Subspace.from_span(F2, 4, [(1, 0, 0, 1), (0, 1, 1, 0)])
    vecs = enumerate_vectors(s)
    assert len(vecs) == len(set(vecs)) == 4
    unit_rows = [tuple(int(i == j) for j in range(40)) for i in range(30)]
    with pytest.raises(TooLarge):
        enumerate_vectors(Subspace.from_span(F2, 40, unit_rows), limit=100)


@pytest.mark.parametrize("field", [F2, F3, F4, field_new(3, 2)], ids=["gf2", "gf3", "gf4", "gf9"])
def test_projective_points_are_the_sorted_normalised_vectors(field):
    # projective_points lists the points in ascending order without sorting
    from subspace_lrc.designs import enumerate_grassmannian

    for k in range(4):
        for s in enumerate_grassmannian(field, 3, k):
            normalised = set()
            for v in enumerate_vectors(s):
                if any(v):
                    lead = field.inv(next(x for x in v if x))
                    normalised.add(tuple(field.mul(lead, x) for x in v))
            assert projective_points(s) == sorted(normalised)


def test_matrix_text_roundtrip():
    for m in [
        Mat.from_rows(F2, [(1, 0, 1), (0, 1, 1)]),
        Mat.from_rows(F3, [(0, 2), (1, 1), (2, 0)]),
        Mat.from_rows(F4, [(3, 2, 1, 0)]),
        Mat.from_rows(F2, [], cols=3),
    ]:
        text = format_matrix(m)
        back = parse_matrix(text)
        assert back.rows == m.rows and back.cols == m.cols and back.field == m.field


def test_parse_matrix_errors():
    with pytest.raises(DimensionMismatch):
        parse_matrix("")
    with pytest.raises(DimensionMismatch):
        parse_matrix("2 2\n1 0\n0 1")
    with pytest.raises(DimensionMismatch):
        parse_matrix("2 2 2\n1 0")
    with pytest.raises(DimensionMismatch):
        parse_matrix("2 1 2\n1 0 1")
    with pytest.raises(AmbientMismatch):
        parse_matrix("3 1 2\n1 0", field_new(2))


@pytest.mark.parametrize(
    "text,message",
    [
        ("3 2 3\n0 1 2\n1 -1 0", "row 2: entry -1 outside field of order 3"),
        ("3 2 3\n0 1 2\n1 3 0", "row 2: entry 3 outside field of order 3"),
        # two bad entries in a row and a later bad row: the first entry of the first row
        ("3 3 3\n0 1 2\n2 5 -1\n-2 0 0", "row 2: entry 5 outside field of order 3"),
        ("3 3 3\n0 1 2\n-4 0 7\n0 3 0", "row 2: entry -4 outside field of order 3"),
        # every row is parsed before any range is checked
        ("3 2 3\n0 9 2\n1 x 0", "row 2: entry 'x' is not an integer"),
        # an entry is -?[0-9]+: int() would read each of these as a number
        ("11 1 3\n1_0 +1 \u0663", "row 1: entry '1_0' is not an integer"),
        ("3 2 3\n0 1 2\n1 +1 0", "row 2: entry '+1' is not an integer"),
        ("3 2 3\n0 1 2\n1 \u0663 0", "row 2: entry '\u0663' is not an integer"),
        ("3 2 3\n0 1 2\n1 --1 0", "row 2: entry '--1' is not an integer"),
    ],
)
def test_parse_matrix_names_the_first_bad_entry(text, message):
    with pytest.raises(OutOfRange) as exc:
        parse_matrix(text)
    assert str(exc.value) == message


BIG = "9" * 20  # a count no index fits


@pytest.mark.parametrize(
    "text,message",
    [
        # a header count is checked against the text before anything is sized by it
        ("2 1 10000000000\n1 0", "row 1: expected 10000000000 entries, got 2"),
        (f"2 1 {BIG}\n1 0", f"row 1: expected {BIG} entries, got 2"),
        (f"2 {BIG} 2\n1 0", f"expected {BIG} rows, got 1"),
    ],
)
def test_parse_matrix_names_a_header_count_beyond_the_text(text, message):
    with pytest.raises(DimensionMismatch) as exc:
        parse_matrix(text)
    assert str(exc.value) == message


def test_parse_matrix_reads_a_header_count_it_need_not_check():
    assert parse_matrix(f"2 0 {BIG}").cols == int(BIG)
    # any whitespace str.split() sees separates entries, as before the entry grammar
    assert parse_matrix("3 2 3\n0\u00a01 2\n2\t1  0").rows == ((0, 1, 2), (2, 1, 0))


def residual(s, v):
    """The packed kernel's residual of v against s, unpacked."""
    L = _layout(s.field)
    return L.unpack(_residual(s.field, s.ambient, s.rows, s.pivots, L.pack(v)), s.ambient)


# --- reference path ----------------------------------------------------------------
# The tuple kernel, one field call per entry, kept as the oracle for the
# packed kernel in linalg (the way test_arraycode keeps reference_scan_range);
# its Gauss-Jordan and solve are reference.reference_rref_rows and
# reference_solve, which test_locality and is_codeword share.


def reference_mat_vec(m, v):
    """m @ v for a column vector v."""
    return tuple(vec_dot(m.field, r, v) for r in m.rows)


def reference_reduce_vector(field, basis, pivots, v):
    """Residual of v against a reduced-row-echelon basis."""
    v = list(v)
    for row, p in zip(basis, pivots):
        c = v[p]
        if c:
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    return tuple(v)


def reference_span(field, vectors, cols):
    """(canonical basis, pivots) of the span of vectors."""
    rows, pivots = reference_rref_rows(field, vectors, cols)
    return tuple(rows[: len(pivots)]), tuple(pivots)


def reference_null_space(field, rows, cols):
    """(canonical basis, pivots) of the right kernel of the matrix with these rows."""
    reduced, pivots = reference_rref_rows(field, rows, cols)
    vectors = []
    for f in (c for c in range(cols) if c not in pivots):
        x = [0] * cols
        x[f] = 1
        for i, p in enumerate(pivots):
            x[p] = field.neg(reduced[i][f])
        vectors.append(x)
    return reference_span(field, vectors, cols)


def check_matrix_against_reference(field, rows, cols, rng):
    """rref, rank, row/null space, solve and containment of one matrix."""
    m = Mat.from_rows(field, rows, cols)
    ref_rows, ref_pivots = reference_rref_rows(field, rows, cols)
    r, rk, pivots = rref(m)
    assert (r.rows, rk, pivots) == (tuple(ref_rows), len(ref_pivots), tuple(ref_pivots))
    assert rank(m) == len(ref_pivots)
    span = row_space(m)
    assert (span.basis, span.pivots) == reference_span(field, rows, cols)
    kernel = null_space(m)
    if cols <= 80:
        assert (kernel.basis, kernel.pivots) == reference_null_space(field, rows, cols)
    else:
        # the tuple re-reduction of a kernel this wide takes seconds; a basis in
        # canonical form of the right dimension inside the kernel is the same
        # answer, since the canonical basis of a subspace is unique
        assert kernel.dim == cols - rk
        assert all(not any(reference_mat_vec(m, v)) for v in kernel.basis)
        for i, (v, p) in enumerate(zip(kernel.basis, kernel.pivots)):
            assert not any(v[:p]) and v[p] == 1
            assert all(u[p] == (i == k) for k, u in enumerate(kernel.basis))
        assert list(kernel.pivots) == sorted(set(kernel.pivots))
    # one consistent right-hand side (m @ x) and random ones, often inconsistent
    x = tuple(rng.randrange(field.q) for _ in range(cols))
    for rhs in [reference_mat_vec(m, x)] + [
        tuple(rng.randrange(field.q) for _ in rows) for _ in range(3)
    ]:
        assert solve(m, rhs) == reference_solve(field, rows, cols, rhs)
    for v in [tuple(rng.randrange(field.q) for _ in range(cols)) for _ in range(4)] + list(rows):
        assert residual(span, v) == reference_reduce_vector(field, span.basis, span.pivots, v)
        assert contains_vector(span, v) == (not any(reference_reduce_vector(field, span.basis, span.pivots, v)))


def random_rows(field, nrows, cols, rng):
    """Random rows with some zero, repeated and combined rows mixed in."""
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(5)
        if kind == 0 or not rows:
            rows.append(tuple(rng.randrange(field.q) for _ in range(cols)))
        elif kind == 1:
            rows.append((0,) * cols)
        elif kind == 2:
            rows.append(rng.choice(rows))
        else:
            a, b = rng.choice(rows), rng.choice(rows)
            c = rng.randrange(field.q)
            rows.append(tuple(field.add(x, field.mul(c, y)) for x, y in zip(a, b)))
    rng.shuffle(rows)
    return rows


REFERENCE_FIELDS = [
    field_new(2), field_new(3), field_new(2, 2), field_new(5), field_new(7),
    field_new(2, 3), field_new(3, 2), extension_new(field_new(2, 2), 2),
]


@pytest.mark.parametrize("field", REFERENCE_FIELDS + [field_new(11), field_new(2, 5)], ids=repr)
def test_pack_reads_digits_as_the_entry_loop_places_them(field):
    """Up to sym = 5 bits an entry, pack reads the vector as one digit
    string; with a width it reads one binary string, entry i*b + j at bit
    i * width + j * sym, so b = 1 and width sym is the same layout. An
    iterator goes through the entry loop. All refuse the same entries."""
    L = _layout(field)
    assert (L.digits is not None) == (L.sym <= 5)
    assert (L.bits is not None) == (field.q <= 256)
    rng = random.Random(field.q)
    for n in (0, 1, 5, 40, 300):
        v = tuple(rng.randrange(field.q) for _ in range(n))
        assert L.pack(v) == L.pack(v, 1, L.sym) == L.pack(list(v)) == L.pack(iter(v))
        assert L.unpack(L.pack(v), n) == v
        for b, gap in ((2, 1), (3, 1), (5, 4)):
            if n % b == 0:
                width = b * L.sym + gap
                placed = sum(L.pack((x,)) << (i // b * width + i % b * L.sym) for i, x in enumerate(v))
                assert L.pack(v, b, width) == L.pack(iter(v), b, width) == placed
    for bad in (field.q, -1, 255, 256, 10**6):
        v = (1, 0, bad, field.q + 1)
        for args in ((), (1, L.sym), (2, 2 * L.sym + 1)):
            with pytest.raises(OutOfRange, match=f"^entry {bad} outside field of order {field.q}$"):
                L.pack(v, *args)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_kernel_matches_reference_on_random_matrices(field):
    rng = random.Random(field.q * 1009 + len(repr(field)))
    for _ in range(40):
        nrows, cols = rng.randrange(0, 7), rng.randrange(1, 9)
        check_matrix_against_reference(field, random_rows(field, nrows, cols, rng), cols, rng)


def packed_combiner(field, n, vectors):
    """_Combiner over tuple vectors, which it takes packed."""
    pack = _layout(field).pack
    return _Combiner(field, n, [pack(v) for v in vectors])


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_combiner_matches_reference_solve(field):
    """_Combiner writes y as a combination of fixed vectors; the reference
    solves the transposed system from scratch for each y. Dependent vectors
    included, both give the solution with free variables 0."""
    rng = random.Random(field.q * 7 + len(repr(field)))
    for _ in range(30):
        count, n = rng.randrange(1, 6), rng.randrange(1, 9)
        vectors = random_rows(field, count, n, rng)
        m = Mat(field, tuple(vectors), n)
        combiner = packed_combiner(field, n, vectors)
        x = tuple(rng.randrange(field.q) for _ in range(count))
        ys = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(3)]
        for y in [vec_mat(x, m)] + ys:
            got = combiner.solve(y)
            assert got == reference_solve(field, m.transpose().rows, count, y)
            assert got is None or vec_mat(got, m) == y
    with pytest.raises(OutOfRange, match=f"^entry {field.q} outside field of order {field.q}$"):
        packed_combiner(field, 2, [(1, 0)]).solve((0, field.q))


@pytest.mark.parametrize("y", [(0, 1), (), (1, 0, 0)], ids=["long", "empty", "longer"])
def test_combiner_refuses_a_y_of_another_length(y):
    """A y longer than n would spill into the coefficient tail and be
    answered; any length other than n is refused."""
    combiner = packed_combiner(F2, 1, [(1,), (0,)])
    with pytest.raises(DimensionMismatch, match=f"^vector length {len(y)}, expected 1$"):
        combiner.solve(y)
    assert combiner.solve((1,)) == (1, 0)


@pytest.mark.parametrize(
    "field,vectors,y,x",
    [
        (F2, [(1,), (1,)], (1,), (1, 0)),
        (F3, [(1, 0), (0, 1), (1, 1)], (1, 1), (1, 1, 0)),
        (F3, [(0, 0), (2, 1), (1, 2), (1, 0)], (0, 1), (0, 1, 0, 1)),
        (F4, [(1, 2), (2, 3), (3, 1)], (2, 3), (2, 0, 0)),
    ],
    ids=["gf2-repeated", "gf3-sum", "gf3-zero-and-multiple", "gf4-collinear"],
)
def test_combiner_sets_dependent_vectors_to_zero(field, vectors, y, x):
    """A vector in the span of the ones before it gets coefficient 0, as a
    free variable of the reduced [vectors as columns | y] does in solve."""
    assert packed_combiner(field, len(y), vectors).solve(y) == x
    assert solve(Mat(field, tuple(vectors), len(y)).transpose(), y) == x


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_subspace_sum_and_containment_match_reference(field):
    rng = random.Random(field.q * 31 + 5)
    cols = 6
    spaces = [Subspace.zero(field, cols)]
    for _ in range(12):
        rows = random_rows(field, rng.randrange(1, 4), cols, rng)
        spaces.append(Subspace.from_span(field, cols, rows))
    for a in spaces:
        for b in spaces:
            total = subspace_sum(a, b)
            assert (total.basis, total.pivots) == reference_span(field, a.basis + b.basis, cols)
            inside = all(not any(reference_reduce_vector(field, a.basis, a.pivots, v)) for v in b.basis)
            assert contains_subspace(a, b) == inside


def test_kernel_matches_reference_on_acceptance_codes():
    from test_arraycode import acceptance_codes

    rng = random.Random(11)
    codes = acceptance_codes()
    assert len(codes) >= 12
    for code in codes:
        F, M, b, n = code.field, code.M, code.b, code.n
        gen = code.generator
        check_matrix_against_reference(F, gen.rows, gen.cols, rng)
        # the transposed generator: decoding systems, and the dual's kernel
        check_matrix_against_reference(F, gen.transpose().rows, M, rng)
        for j, s in enumerate(code.subspaces):
            thick = Mat(F, tuple(code.column_vector(i, j) for i in range(b)), M)
            assert (row_space(thick).basis, s.pivots) == reference_span(F, thick.rows, M)
            # a running sum over the columns, as the recovery walk builds it
            partner = code.subspaces[(7 * j + 1) % n]
            total = subspace_sum(s, partner)
            assert (total.basis, total.pivots) == reference_span(F, s.basis + partner.basis, M)
            for t in (code.subspaces[(j + 1) % n], code.subspaces[(3 * j + 2) % n]):
                inside = all(not any(reference_reduce_vector(F, total.basis, total.pivots, v)) for v in t.basis)
                assert contains_subspace(total, t) == inside
                for v in t.basis:
                    assert residual(total, v) == reference_reduce_vector(F, total.basis, total.pivots, v)


def test_out_of_range_entries_rejected_at_every_entry_point():
    message = r"^entry 7 outside field of order 2$"
    s = Subspace.from_span(F2, 3, [(1, 0, 1)])
    m = Mat.from_rows(F2, [(1, 0, 1), (0, 1, 1)])
    calls = [
        lambda: Mat.from_rows(F2, [(1, 7, 0)]),
        lambda: Subspace.from_span(F2, 3, [(1, 0, 0), (0, 7, 1)]),
        lambda: contains_vector(s, (7, 0, 0)),
        lambda: solve(m, (1, 7)),
        lambda: solve(Mat(F2, ((1, 7, 0),), 3), (1,)),
    ]
    for call in calls:
        with pytest.raises(OutOfRange, match=message):
            call()
    with pytest.raises(OutOfRange, match=r"^entry -1 outside field of order 3$"):
        Subspace.from_span(F3, 2, [(1, -1)])
    for rows, bad in [([(0, 2), (3, -1)], 3), ([(0, 2), (-1, 3)], -1), ([(2, 1, 0), (0, 2, 5)], 5)]:
        with pytest.raises(OutOfRange, match=rf"^entry {bad} outside field of order 3$"):
            Mat.from_rows(F3, rows)


def test_subspace_sums_and_containment_make_no_field_call(monkeypatch):
    """The packed kernel adds and scales whole rows, never single entries."""
    from subspace_lrc.arraycode import construction_spread

    code = construction_spread(F2, 8, 2)
    blocks = code.subspaces
    calls = {"add": 0, "sub": 0, "mul": 0}
    for name in calls:
        fn = getattr(F2, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(F2, name, counted)
    hits = 0
    for a in blocks[:20]:
        for c in blocks:
            total = subspace_sum(a, c)
            hits += sum(contains_subspace(total, t) for t in blocks)
            assert contains_subspace(total, a) and contains_subspace(total, c)
    assert hits > 20 * len(blocks)  # the test reaches hits as well as misses
    assert calls == {"add": 0, "sub": 0, "mul": 0}
