"""Acceptance gate: every documented guarantee, one pass/fail line per criterion.

Each test prints "ACCEPTANCE NN <name>: PASS|FAIL" (also echoed in the
terminal summary via conftest), collects all sub-failures before asserting,
and enforces the stated runtime budgets. Node locality of the parallel-class
family std-par is asserted against a closed form in (q, b, M): 2 at M = 2b,
because any two class blocks differ by a full-rank b x b matrix and so span
the whole space (asserted pair by pair); 3 at q = 2, M > 2b; 2 at q > 2.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import conftest
from test_arraycode import EXAMPLE_ROWS

from subspace_lrc import (
    Mat,
    RecoverySet,
    Subspace,
    build_spread,
    build_std,
    construction_all_subspaces,
    construction_spread,
    construction_std,
    dual,
    dual_distance_by_supports,
    encode,
    enumerate_grassmannian,
    evaluate_recovery,
    field_from_order,
    gaussian,
    grassmann_pairing,
    is_mds,
    locality_profile,
    min_distance,
    perfectness,
    solve,
    subspace_sum,
    verify_spread,
    verify_std,
    weight_distribution,
)
from subspace_lrc.limits import DEFAULT_PACKING_CAP
from subspace_lrc.linalg import vec_mat
from subspace_lrc.locality import _worst_availability
from reference import contains_subspace

# instance sets exercised below; criterion 8 covers the union of them
C1_DISTANCE = ((2, 3, 2), (2, 4, 2), (2, 4, 3), (3, 3, 2), (2, 5, 2))
SPREAD_WEIGHT = ((2, 4, 2), (2, 6, 2), (2, 6, 3), (3, 4, 2))
CPAR_SET = ((2, 3, 6), (2, 2, 4), (3, 2, 4))  # (q, b, M)
CPAR_LOCALITY = CPAR_SET + ((2, 2, 5),)  # adds an M > 2b instance
C1_LOCALITY = ((2, 4, 2), (2, 4, 3), (3, 3, 2))
SPREAD_LOCALITY = ((2, 4, 2), (2, 6, 2), (2, 6, 3))
PRIME_POWERS_64 = (
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
    37, 41, 43, 47, 49, 53, 59, 61, 64,
)


def record(num, slug, failures, t0, details=(), budget=None):
    elapsed = time.monotonic() - t0
    failures = list(failures)
    if budget is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds the {budget}s budget")
    status = "PASS" if not failures else "FAIL"
    lines = [f"ACCEPTANCE {num:02d} {slug}: {status} ({elapsed:.1f}s)"]
    lines += [f"    {d}" for d in details]
    lines += [f"    failed: {f}" for f in failures]
    conftest.record_acceptance(num, lines)
    print("\n".join(lines))
    assert not failures, f"criterion {num:02d} {slug}: " + "; ".join(failures)


@lru_cache(maxsize=None)
def F(q):
    return field_from_order(q)


@lru_cache(maxsize=None)
def code_of(kind, q, M, b):
    if kind == "c1":
        return construction_all_subspaces(F(q), M, b)
    if kind == "spread":
        return construction_spread(F(q), M, b, "gabidulin-echelon")
    if kind == "cpar":
        return construction_std(F(q), 1, b, M, "par")
    if kind == "std-full":
        return construction_std(F(q), 2, b, M, "full")
    raise ValueError(kind)


@lru_cache(maxsize=None)
def profile_of(kind, q, M, b):
    return locality_profile(code_of(kind, q, M, b))


@lru_cache(maxsize=None)
def arrays_of(kind, q, M, b):
    code = code_of(kind, q, M, b)
    return tuple(
        encode(code, msg) for msg in product(range(code.field.q), repeat=code.M)
    )


def availability(code, column, row, r):
    """Disjoint recovery family of one node (row None) or symbol at helper-set size r."""
    return _worst_availability(code, [[(column, row, r)]], exact_cap=DEFAULT_PACKING_CAP, limit=None)[0]


@lru_cache(maxsize=None)
def symbol_availability_map(kind, q, M, b):
    """Per-symbol disjoint recovery families at the measured symbol locality."""
    code = code_of(kind, q, M, b)
    r = profile_of(kind, q, M, b).symbol_locality
    out = []
    for j in range(code.n):
        for i in range(code.b):
            if not any(code.column_vector(i, j)):
                continue
            out.append((i, j, availability(code, j, i, r)))
    return tuple(out)


@lru_cache(maxsize=None)
def node_availability_map(q, M, b):
    code = code_of("c1", q, M, b)
    return tuple((j, availability(code, j, None, 2)) for j in range(code.n))


@lru_cache(maxsize=None)
def pairings_of(q, M):
    field = F(q)
    subs = enumerate_grassmannian(field, M, 2)
    return subs, tuple(grassmann_pairing(field, M))


# --- 1: exhaustive distance of the full width-b family --------------------------


def test_criterion_01_family_distance():
    t0 = time.monotonic()
    failures, details = [], []
    for q, M, b in C1_DISTANCE:
        code = code_of("c1", q, M, b)
        closed = gaussian(M, b, q) - gaussian(M - 1, b, q)
        factored = q ** (M - b) * gaussian(M - 1, b - 1, q)
        if closed != factored:
            failures.append(f"q={q} M={M} b={b}: closed forms disagree {closed} != {factored}")
        measured = min_distance(code)
        if measured != closed:
            failures.append(f"q={q} M={M} b={b}: distance {measured}, formula {closed}")
        else:
            details.append(f"q={q} M={M} b={b}: distance {measured}")
    record(1, "family-distance", failures, t0, details, budget=60)


# --- 2: constant column weight ---------------------------------------------------


def test_criterion_02_constant_weight():
    t0 = time.monotonic()
    failures = []
    for q, M, b in C1_DISTANCE:
        code = code_of("c1", q, M, b)
        d = gaussian(M, b, q) - gaussian(M - 1, b, q)
        wd = weight_distribution(code)
        if set(wd) != {0, d} or wd[0] != 1:
            failures.append(f"all-subspaces q={q} M={M} b={b}: support {sorted(wd)}")
    for q, M, b in SPREAD_WEIGHT:
        code = code_of("spread", q, M, b)
        d = q ** (M - b)
        wd = weight_distribution(code)
        if set(wd) != {0, d} or wd[0] != 1:
            failures.append(f"spread q={q} M={M} b={b}: support {sorted(wd)}")
    record(2, "constant-weight", failures, t0)


# --- 3: reproduction of the known 8-column generator -----------------------------


def test_criterion_03_known_generator_reproduction():
    t0 = time.monotonic()
    failures = []
    code = code_of("cpar", 2, 6, 3)
    if (code.b, code.n, code.M) != (3, 8, 6):
        failures.append(f"shape [{code.b}x{code.n}, {code.M}], wanted [3x8, 6]")
    d = min_distance(code)
    if d != 7:
        failures.append(f"distance {d}, wanted 7")
    if not is_mds(code):
        failures.append("not MDS")

    rows = [tuple(int(ch) for ch in s.replace(" ", "")) for s in EXAMPLE_ROWS]
    field = F(2)
    printed_spaces = set()
    for j in range(8):
        vecs = [tuple(rows[r][3 * j + i] for r in range(6)) for i in range(3)]
        printed_spaces.add(Subspace.from_span(field, 6, vecs))
    if printed_spaces != set(code.subspaces):
        failures.append("associated subspace sets differ from the known generator")

    hist = Counter()
    for msg in product(range(2), repeat=6):
        flat = [0] * 24
        for r, mr in enumerate(msg):
            if mr:
                flat = [field.add(f, x) for f, x in zip(flat, rows[r])]
        hist[sum(1 for j in range(8) if any(flat[3 * j + i] for i in range(3)))] += 1
    if dict(hist) != weight_distribution(code):
        failures.append(
            f"weight distributions differ: known generator {dict(hist)}, "
            f"built {weight_distribution(code)}"
        )
    record(3, "known-generator-reproduction", failures, t0, budget=10)


# --- 4: parallel-class weight distribution ---------------------------------------


def test_criterion_04_parallel_class_distribution():
    t0 = time.monotonic()
    failures, details = [], []
    for q, b, M in CPAR_SET:
        code = code_of("cpar", q, M, b)
        full = q ** (M - b)
        mid = full - q ** (M - 2 * b)
        wd = weight_distribution(code)
        if set(wd) != {0, mid, full} or wd[0] != 1:
            failures.append(f"q={q} b={b} M={M}: support {sorted(wd)} not {{0, {mid}, {full}}}")
            continue
        k = wd[full]
        two_b, q_b = 2**b - 1, q**b - 1
        if k == q_b:
            which = f"q^b-1 = {q_b}" + (" (= 2^b-1)" if two_b == q_b else "")
        elif k == two_b:
            which = f"2^b-1 = {two_b}, not q^b-1 = {q_b}"
        else:
            failures.append(
                f"q={q} b={b} M={M}: full-weight count {k} is neither "
                f"2^b-1 = {two_b} nor q^b-1 = {q_b}"
            )
            continue
        details.append(f"q={q} b={b} M={M}: full-weight count {k} matches {which}")
    record(4, "parallel-class-distribution", failures, t0, details)


# --- 5: stacked-classes code -------------------------------------------------------


def test_criterion_05_stacked_classes():
    t0 = time.monotonic()
    failures = []
    code = code_of("std-full", 2, 4, 2)
    d = min_distance(code)
    if d != 12:
        failures.append(f"distance {d}, wanted 12")
    profile = locality_profile(code, with_availability=True)
    r_s = profile.symbol_locality
    if r_s != 1:
        failures.append(f"symbol locality {r_s}, wanted 1")
    t_s = profile.symbol_t
    if not (t_s.value == 3 and t_s.exact):
        failures.append(f"symbol availability {t_s.value} (exact={t_s.exact}), wanted exact 3")
    record(5, "stacked-classes", failures, t0, budget=60)


# --- 6: locality ---------------------------------------------------------------------


def std_par_node_locality(q, b, M):
    """Node locality of one parallel class of the strength-1 design.

    At M = 2b the blocks are rowspace([I_b | A]) with every difference A - A'
    full rank, so any two blocks span F_q^M and two helpers rebuild a node.
    At M > 2b no two blocks span F_q^M; exhaustive search then measures 3
    for q = 2 (M = 5, 6 at b = 2) and 2 for q > 2 (q = 3, M = 5, b = 2).
    """
    if M == 2 * b or q > 2:
        return 2
    return 3


def test_criterion_06_locality():
    t0 = time.monotonic()
    failures, details = [], []
    for q, M, b in C1_LOCALITY:
        p = profile_of("c1", q, M, b)
        if (p.symbol_locality, p.node_locality) != (1, 2):
            failures.append(
                f"all-subspaces q={q} M={M} b={b}: localities "
                f"({p.symbol_locality}, {p.node_locality}), wanted (1, 2)"
            )
    p = profile_of("c1", 2, 3, 1)
    if (p.symbol_locality, p.node_locality) != (2, 2):
        failures.append(
            f"width-1 family q=2 M=3: localities "
            f"({p.symbol_locality}, {p.node_locality}), wanted (2, 2)"
        )
    for q, M, b in SPREAD_LOCALITY:
        p = profile_of("spread", q, M, b)
        hi = min(b + 1, M // b)
        if p.symbol_locality != 2:
            failures.append(f"spread q={q} M={M} b={b}: symbol locality {p.symbol_locality}, wanted 2")
        if not 2 <= p.node_locality <= hi:
            failures.append(
                f"spread q={q} M={M} b={b}: node locality {p.node_locality} outside [2, {hi}]"
            )
        else:
            details.append(f"spread q={q} M={M} b={b}: node locality {p.node_locality} within [2, {hi}]")
    for q, b, M in CPAR_LOCALITY:
        want = std_par_node_locality(q, b, M)
        if M == 2 * b:
            blocks = code_of("cpar", q, M, b).subspaces
            short = [
                (a + 1, c + 1)
                for a, c in combinations(range(len(blocks)), 2)
                if subspace_sum(blocks[a], blocks[c]).dim != M
            ]
            if short:
                failures.append(
                    f"std-par q={q} b={b} M={M}: block pairs {short[:3]} do not span F_q^M"
                )
        p = profile_of("cpar", q, M, b)
        if p.node_locality != want:
            failures.append(
                f"std-par q={q} b={b} M={M}: node locality expected {want}, measured {p.node_locality}"
            )
        else:
            reason = "every block pair spans F_q^M" if M == 2 * b else "M > 2b"
            details.append(f"std-par q={q} b={b} M={M}: node locality {want} ({reason})")
    record(6, "locality", failures, t0, details)


# --- 7: availability -------------------------------------------------------------------


def test_criterion_07_availability():
    t0 = time.monotonic()
    failures, details = [], []
    for (q, M, b), want in (((2, 4, 2), 6), ((2, 5, 2), 14)):
        r_s = profile_of("c1", q, M, b).symbol_locality
        if r_s != 1:
            failures.append(f"q={q} M={M} b={b}: symbol locality {r_s}, wanted 1")
        closed = gaussian(M - 1, b - 1, q) - 1
        amap = symbol_availability_map("c1", q, M, b)
        worst = min(res.value for _, _, res in amap)
        if not all(res.exact for _, _, res in amap):
            failures.append(f"q={q} M={M} b={b}: symbol availability not exact everywhere")
        if worst != want or closed != want:
            failures.append(
                f"q={q} M={M} b={b}: symbol availability {worst}, closed form {closed}, wanted {want}"
            )
        else:
            details.append(f"q={q} M={M} b={b}: symbol availability {worst} (exact)")

    for M, want in ((3, 3), (4, 17)):
        half = (gaussian(M, 2, 2) - 1) // 2
        code = code_of("c1", 2, M, 2)
        nmap = node_availability_map(2, M, 2)
        worst = min(res.value for _, res in nmap)
        if not all(res.exact for _, res in nmap):
            failures.append(f"M={M}: node availability packing not exact everywhere")
        if worst != want or half != want:
            failures.append(f"M={M}: packing {worst}, pairing bound {half}, wanted {want}")

        subs, pairings = pairings_of(2, M)
        if tuple(subs) != code.subspaces:
            failures.append(f"M={M}: pairing index order differs from the code's columns")
        total = gaussian(M, 2, 2) - 1
        for t_idx, pr in enumerate(pairings):
            used = [x for pair in pr.pairs for x in pair]
            ok = (
                pr.target_index == t_idx
                and len(pr.pairs) == want
                and pr.covered == pr.total_others == total
                and len(used) == len(set(used))
                and t_idx not in used
                and all(
                    contains_subspace(subspace_sum(subs[a], subs[c]), subs[t_idx])
                    for a, c in pr.pairs
                )
            )
            if not ok:
                failures.append(f"M={M}: pairing for column {t_idx + 1} invalid or short")
                break
        else:
            details.append(f"M={M}: packing and pairing both give {want} disjoint sets per node")
    record(7, "availability", failures, t0, details, budget=300)


# --- 8: duality and perfectness -----------------------------------------------------------


def all_verified_codes():
    out = [("all-subspaces", q, M, b) for q, M, b in C1_DISTANCE]
    out.append(("width-1", 2, 3, 1))
    out += [("spread", q, M, b) for q, M, b in SPREAD_WEIGHT]
    out += [("std-par", q, M, b) for q, b, M in CPAR_SET]
    out.append(("std-full", 2, 4, 2))
    return out


def test_criterion_08_duality_and_perfectness():
    t0 = time.monotonic()
    failures, details = [], []
    kinds = {"all-subspaces": "c1", "width-1": "c1", "spread": "spread",
             "std-par": "cpar", "std-full": "std-full"}
    for name, q, M, b in all_verified_codes():
        code = code_of(kinds[name], q, M, b)
        r_s = profile_of(kinds[name], q, M, b).symbol_locality
        d_dual = dual_distance_by_supports(code)
        if d_dual != r_s + 1:
            failures.append(f"{name} q={q} M={M} b={b}: dual distance {d_dual}, locality+1 {r_s + 1}")

    for q, M, b in ((2, 4, 2), (2, 6, 2), (3, 4, 2)):
        code = code_of("spread", q, M, b)
        dd = dual(code)
        pr = perfectness(dd)
        phi1 = 1 + code.n * (q**code.b - 1)
        tiles = q**dd.M * phi1 == q ** (code.b * code.n)
        if not (pr.is_perfect and pr.ratio == 1 and tiles):
            failures.append(
                f"spread dual q={q} M={M} b={b}: ratio {pr.ratio}, ball {phi1}, tiling={tiles}"
            )
        else:
            details.append(f"spread dual q={q} M={M} b={b}: perfect, ball {phi1}")

    code = code_of("cpar", 2, 6, 3)
    ratio = perfectness(dual(code)).ratio
    want = Fraction(1) + Fraction(1, 2**6) - Fraction(1, 2**3)
    if ratio != want:
        failures.append(f"std-par dual ball ratio {ratio}, wanted {want}")
    else:
        details.append(f"std-par dual ball ratio {ratio} exactly")
    record(8, "duality-and-perfectness", failures, t0, details)


# --- 9: design validity ---------------------------------------------------------------------


def test_criterion_09_design_validity():
    t0 = time.monotonic()
    failures, details = [], []
    for q, M, b in SPREAD_WEIGHT:
        outcomes = verify_spread(build_spread(F(q), M, b, "gabidulin-echelon"))
        failed = [f"{c.name} ({c.detail})" for c in outcomes if c.passed is False]
        if failed:
            failures.append(f"spread q={q} M={M} b={b}: {'; '.join(failed)}")
    for q, t, b, m in ((2, 1, 3, 3), (2, 1, 2, 2), (3, 1, 2, 2), (2, 2, 2, 2)):
        outcomes = verify_std(build_std(F(q), t, b, m))
        failed = [f"{c.name} ({c.detail})" for c in outcomes if c.passed is False]
        if failed:
            failures.append(f"std q={q} t={t} b={b} m={m}: {'; '.join(failed)}")
        if (q, t, b, m) == (2, 2, 2, 2):
            skipped = [c.name for c in outcomes if c.passed is None]
            if skipped:
                failures.append(f"std q=2 t=2 b=2 m=2: properties not scanned exhaustively: {skipped}")
            else:
                details.append(
                    f"std q=2 t=2 b=2 m=2: all {len(outcomes)} defining properties "
                    f"scanned exhaustively"
                )
    record(9, "design-validity", failures, t0, details)


# --- 10: invariant suites ---------------------------------------------------------------------


def field_axioms_hold(field):
    q = field.q
    els = range(q)
    add, mul = field.add, field.mul
    if not all(add(a, 0) == a and mul(a, 1) == a for a in els):
        return False
    if not all(add(a, field.neg(a)) == 0 for a in els):
        return False
    if not all(mul(a, field.inv(a)) == 1 for a in els if a):
        return False
    for a in els:
        for b in els:
            if add(a, b) != add(b, a) or mul(a, b) != mul(b, a):
                return False
            for c in els:
                if add(add(a, b), c) != add(a, add(b, c)):
                    return False
                if mul(mul(a, b), c) != mul(a, mul(b, c)):
                    return False
                if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
                    return False
    return True


def canonicity_failures(q, M, b, trials=200):
    field = F(q)
    rng = random.Random(f"canonicity {q} {M} {b}")
    bad = 0
    for _ in range(trials):
        vecs = [tuple(rng.randrange(q) for _ in range(M)) for _ in range(b)]
        s1 = Subspace.from_span(field, M, vecs)
        if s1.dim == 0:
            continue
        d = s1.dim
        while True:
            t_rows = [tuple(rng.randrange(q) for _ in range(d)) for _ in range(d)]
            if Subspace.from_span(field, d, t_rows).dim == d:
                break
        new_vecs = [vec_mat(row, s1.matrix()) for row in t_rows]
        if Subspace.from_span(field, M, new_vecs) != s1:
            bad += 1
    return bad


def reconstruction_mismatch(code, arrays, rset):
    for arr in arrays:
        got = evaluate_recovery(code, rset, arr)
        if rset.kind == "node":
            want = tuple(arr.rows[i][rset.column] for i in range(code.b))
        else:
            want = (arr.rows[rset.row][rset.column],)
        if got != want:
            return True
    return False


def functional_from_columns(code, columns, flat_col):
    """Solve for coefficients rebuilding one generator column from helper columns."""
    gen = code.generator
    rhs = tuple(gen.rows[r][flat_col] for r in range(code.M))
    rows = [
        [gen.rows[r][m * code.b + i] for m in columns for i in range(code.b)]
        for r in range(code.M)
    ]
    return solve(Mat.from_rows(code.field, rows), rhs)


def symbol_set_to_recovery(code, i, j, columns):
    cols = tuple(sorted(columns))
    x = functional_from_columns(code, cols, j * code.b + i)
    return RecoverySet("symbol", j, i, cols, (x,))


def node_set_to_recovery(code, j, columns):
    cols = tuple(sorted(columns))
    funcs = tuple(
        functional_from_columns(code, cols, j * code.b + i) for i in range(code.b)
    )
    return RecoverySet("node", j, None, cols, funcs)


def test_criterion_10_invariant_suites():
    t0 = time.monotonic()
    failures, details = [], []

    bad_fields = [q for q in PRIME_POWERS_64 if not field_axioms_hold(F(q))]
    if bad_fields:
        failures.append(f"field axioms broken at q in {bad_fields}")
    else:
        details.append(f"field axioms exhaustive for all {len(PRIME_POWERS_64)} prime powers q <= 64")

    canon_instances = sorted(set(C1_DISTANCE) | set(SPREAD_WEIGHT) | {(2, 3, 1)})
    for q, M, b in canon_instances:
        bad = canonicity_failures(q, M, b)
        if bad:
            failures.append(f"canonicity q={q} M={M} b={b}: {bad}/200 basis changes broke rref")
    details.append(f"subspace canonicity: 200 random basis changes per instance, {len(canon_instances)} instances")

    # every locality witness from criterion 6, on every codeword
    witness_codes = (
        [("c1", q, M, b) for q, M, b in C1_LOCALITY]
        + [("c1", 2, 3, 1)]
        + [("spread", q, M, b) for q, M, b in SPREAD_LOCALITY]
        + [("cpar", q, M, b) for q, b, M in CPAR_SET]
    )
    checked = 0
    for kind, q, M, b in witness_codes:
        code = code_of(kind, q, M, b)
        arrays = arrays_of(kind, q, M, b)
        p = profile_of(kind, q, M, b)
        for w in list(p.node_witnesses) + [w for row in p.symbol_witnesses for w in row]:
            checked += 1
            if reconstruction_mismatch(code, arrays, w):
                failures.append(
                    f"{kind} q={q} M={M} b={b}: witness for column {w.column + 1} "
                    f"fails on some codeword"
                )
                break

    # every availability set from criterion 7, on every codeword
    for q, M, b in ((2, 4, 2), (2, 5, 2)):
        code = code_of("c1", q, M, b)
        arrays = arrays_of("c1", q, M, b)
        broken = 0
        for i, j, res in symbol_availability_map("c1", q, M, b):
            for s in res.sets:
                checked += 1
                rset = symbol_set_to_recovery(code, i, j, s)
                if reconstruction_mismatch(code, arrays, rset):
                    broken += 1
        if broken:
            failures.append(f"symbol availability sets q={q} M={M} b={b}: {broken} broken")
    for M in (3, 4):
        code = code_of("c1", 2, M, 2)
        arrays = arrays_of("c1", 2, M, 2)
        broken = 0
        for j, res in node_availability_map(2, M, 2):
            for s in res.sets:
                checked += 1
                rset = node_set_to_recovery(code, j, s)
                if reconstruction_mismatch(code, arrays, rset):
                    broken += 1
        subs, pairings = pairings_of(2, M)
        for t_idx, pr in enumerate(pairings):
            for pair in pr.pairs:
                checked += 1
                rset = node_set_to_recovery(code, t_idx, pair)
                if reconstruction_mismatch(code, arrays, rset):
                    broken += 1
        if broken:
            failures.append(f"node recovery sets M={M}: {broken} broken")
    details.append(f"recovery reconstruction: {checked} witnesses, each over all q^M codewords")
    record(10, "invariant-suites", failures, t0, details)
