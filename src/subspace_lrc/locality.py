"""Recovery sets, locality, availability and single-column repair.

A set of helper columns recovers a whole node when the node's associated
subspace lies inside the sum of the helpers' subspaces, and recovers one
symbol when that symbol's generator column lies inside the sum. Locality is
the worst-case minimum helper count over targets; availability counts how
many pairwise disjoint helper sets (each within the locality bound) a
single target admits.

All searches are exact and deterministic: subsets are tried in size order,
then lexicographically, and the first valid set wins. Availability uses
exact maximum set packing over the minimal valid helper sets when the
candidate pool is small enough, and degrades to a flagged greedy lower
bound above the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .arraycode import ArrayCode, encode
from .designs import enumerate_grassmannian
from .errors import BadParams, Inconsistent, NoRecovery, OutOfRange
from .limits import guard
from .linalg import (
    Mat,
    Subspace,
    contains_vector,
    solve,
    subspace_sum,
    vec_add,
    vec_scale,
)


@dataclass(frozen=True)
class RecoverySet:
    """Helper columns plus the functionals that rebuild the target from them.

    coefficients[i][k] multiplies the k-th helper symbol (flat order: helper
    column index m first, then symbol row) when rebuilding target symbol i;
    node targets carry one functional per symbol row, symbol targets one.
    """

    kind: str
    column: int
    row: int | None
    columns: tuple[int, ...]
    coefficients: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.columns)


def _helper_matrix(code: ArrayCode, columns) -> Mat:
    # columns of the result = flat generator columns of the helper nodes
    cols = []
    for m in columns:
        for i in range(code.b):
            cols.append(code.column_vector(i, m))
    return Mat(code.field, tuple(cols), code.M).transpose()


def _functional_for(code: ArrayCode, columns, target_vec) -> tuple[int, ...]:
    sol = solve(_helper_matrix(code, columns), target_vec)
    assert sol is not None, "recovery set accepted but no functional exists"
    return sol


def evaluate_recovery(code: ArrayCode, rset: RecoverySet, array: Mat) -> tuple[int, ...]:
    """Rebuild the target symbols from the helper entries of a codeword array."""
    field = code.field
    vals = [array.rows[i][m] for m in rset.columns for i in range(code.b)]
    out = []
    for coeff in rset.coefficients:
        acc = 0
        for c, v in zip(coeff, vals):
            if c and v:
                acc = field.add(acc, field.mul(c, v))
        out.append(acc)
    return tuple(out)


def validate_recovery(code: ArrayCode, rset: RecoverySet) -> bool:
    """Check the functionals algebraically: they must hold for every codeword."""
    if rset.column in rset.columns:
        return False
    helper_cols = [
        code.column_vector(i, m) for m in rset.columns for i in range(code.b)
    ]
    if rset.kind == "node":
        targets = [code.column_vector(i, rset.column) for i in range(code.b)]
    else:
        targets = [code.column_vector(rset.row, rset.column)]
    if len(rset.coefficients) != len(targets):
        return False
    for coeff, target in zip(rset.coefficients, targets):
        acc = (0,) * code.M
        for c, col in zip(coeff, helper_cols):
            if c:
                acc = vec_add(code.field, acc, vec_scale(code.field, c, col))
        if acc != target:
            return False
    return True


# --- recovery-set engine ----------------------------------------------------------
# A target is (column, row, ...): row None asks for the whole node, otherwise
# for one symbol. Its helper sets never contain its own column.


def _target_basis(code: ArrayCode, column: int, row: int | None) -> tuple:
    """Vectors a helper sum must contain; empty for a zero node or symbol."""
    if row is None:
        return code.subspaces[column].basis
    vec = code.column_vector(row, column)
    return (vec,) if any(vec) else ()


def _subset_sums(code: ArrayCode, targets, size: int):
    """Every size-element helper subset in lex order, with its subspace sum.

    Only columns some target may use are walked. Partial sums of the current
    subset's prefixes stay on a stack and are shared with the next subset: a
    singleton's sum is its block, each deeper element costs one subspace_sum,
    and a prefix that already spans GF(q)^M is carried without reduction.
    """
    columns = [m for m in range(code.n) if any(t[0] != m for t in targets)]
    stack: list[Subspace] = []
    prev = (-1,) * size
    for subset in combinations(columns, size):
        k = 0
        while prev[k] == subset[k]:
            k += 1
        del stack[k:]
        for m in subset[k:]:
            if not stack:
                stack.append(code.subspaces[m])
            elif stack[-1].dim == code.M:
                stack.append(stack[-1])
            else:
                stack.append(subspace_sum(stack[-1], code.subspaces[m]))
        prev = subset
        yield subset, stack[-1]


def _holds(code: ArrayCode, span: Subspace, basis) -> bool:
    return span.dim == code.M or all(contains_vector(span, v) for v in basis)


def _witnesses(code: ArrayCode, targets, cap: int) -> list[RecoverySet]:
    """First helper set in (size, lex) order whose sum holds each target.

    One walk per size serves every pending target, and zero targets need no
    helpers. NoRecovery names the first target with no set of size <= cap.
    """
    bases = [_target_basis(code, column, row) for column, row in targets]
    found: list = [None if basis else () for basis in bases]
    pending = [k for k, f in enumerate(found) if f is None]
    for size in range(1, cap + 1):
        if not pending:
            break
        for subset, span in _subset_sums(code, targets, size):
            hit = False
            for k in pending:
                if targets[k][0] not in subset and _holds(code, span, bases[k]):
                    found[k] = subset
                    hit = True
            if hit:
                pending = [k for k in pending if found[k] is None]
                if not pending:
                    break
    out = []
    for (column, row), subset in zip(targets, found):
        what = f"node {column + 1}" if row is None else f"symbol ({row + 1},{column + 1})"
        if subset is None:
            raise NoRecovery(f"{what} has no recovery set of size <= {cap}")
        functionals = (
            _functional_for(code, subset, code.column_vector(i, column)) if subset else ()
            for i in (range(code.b) if row is None else (row,))
        )
        kind = "node" if row is None else "symbol"
        out.append(RecoverySet(kind, column, row, subset, tuple(functionals)))
    return out


def _minimal_recovery_sets(code: ArrayCode, targets, *, limit=None) -> list[list[tuple]]:
    """Each target's minimal valid helper sets, in (size, lex) order.

    targets are (column, row, r) triples; a helper set is valid when its size
    is at most r and its sum holds the target. Sums only grow, so a set is
    skipped for a target as soon as one of its subsets one element smaller
    was valid for it (found or skipped itself).
    """
    for r in dict.fromkeys(r for _, _, r in targets):
        total = sum(comb(code.n - 1, s) for s in range(1, r + 1))
        guard(total, f"enumerating {total} candidate helper sets", limit)
    bases = [_target_basis(code, column, row) for column, row, _ in targets]
    pools: list[list[tuple]] = [[] for _ in targets]
    valid: list[set] = [set() for _ in targets]  # valid sets one size smaller
    for size in range(1, max((r for _, _, r in targets), default=0) + 1):
        active = [k for k, t in enumerate(targets) if t[2] >= size]
        grown: list[set] = [set() for _ in targets]
        for subset, span in _subset_sums(code, [targets[k] for k in active], size):
            faces = [subset[:i] + subset[i + 1 :] for i in range(size)]
            for k in active:
                column, _, r = targets[k]
                if column in subset:
                    continue
                held = bool(valid[k]) and any(f in valid[k] for f in faces)
                if not held and _holds(code, span, bases[k]):
                    pools[k].append(subset)
                    held = True
                if held and size < r:
                    grown[k].add(subset)
        valid = grown
    return pools


def min_symbol_recovery(
    code: ArrayCode, row: int, column: int, *, max_size: int | None = None
) -> RecoverySet:
    """Smallest helper set whose subspace sum contains the symbol's column.

    Ties break lexicographically on the helper index tuple. A zero generator
    column needs no helpers and yields the empty set.
    """
    cap = code.n - 1 if max_size is None else min(max_size, code.n - 1)
    return _witnesses(code, [(column, row)], cap)[0]


def min_node_recovery(
    code: ArrayCode, column: int, *, max_size: int | None = None
) -> RecoverySet:
    """Smallest helper set whose subspace sum contains the node's subspace."""
    if not 0 <= column < code.n:
        raise OutOfRange(f"column {column} outside 0..{code.n - 1}")
    cap = code.n - 1 if max_size is None else min(max_size, code.n - 1)
    return _witnesses(code, [(column, None)], cap)[0]


@dataclass(frozen=True)
class LocalityProfile:
    """Code-level locality/availability with the witnesses behind each number.

    t values are None when availability was not requested; availability
    results keep their exact-vs-bound flag.
    """

    node_locality: int
    symbol_locality: int
    node_witnesses: tuple[RecoverySet, ...]
    symbol_witnesses: tuple[tuple[RecoverySet, ...], ...]  # [row][column]
    node_t: "AvailabilityResult | None" = None
    symbol_t: "AvailabilityResult | None" = None


def node_locality(code: ArrayCode) -> int:
    wits = _witnesses(code, [(j, None) for j in range(code.n)], code.n - 1)
    return max(w.size for w in wits)


def symbol_locality(code: ArrayCode) -> int:
    """Worst-case over symbols with nonzero generator columns."""
    targets = [(j, i) for j in range(code.n) for i in range(code.b)]
    return max(w.size for w in _witnesses(code, targets, code.n - 1))


def locality_profile(
    code: ArrayCode,
    *,
    with_availability: bool = False,
    exact_cap: int = 5000,
    limit: int | None = None,
) -> LocalityProfile:
    n, b = code.n, code.b
    targets = [(j, None) for j in range(n)] + [(j, i) for i in range(b) for j in range(n)]
    wits = _witnesses(code, targets, n - 1)
    node_wits = tuple(wits[:n])
    sym_wits = tuple(tuple(wits[n * (i + 1) : n * (i + 2)]) for i in range(b))
    r_n = max(w.size for w in node_wits)
    # zero symbols have empty witnesses, so the max runs over nonzero ones
    r_s = max(w.size for w in wits[n:])
    assert r_s <= r_n, "a node recovery set recovers each of its symbols"
    node_t = symbol_t = None
    if with_availability:
        node_t, symbol_t = _worst_availability(
            code, [("node", r_n), ("symbol", r_s)], exact_cap=exact_cap, limit=limit
        )
    return LocalityProfile(
        node_locality=r_n,
        symbol_locality=r_s,
        node_witnesses=node_wits,
        symbol_witnesses=sym_wits,
        node_t=node_t,
        symbol_t=symbol_t,
    )


# --- availability ---------------------------------------------------------------


def max_disjoint_packing(sets, *, exact_cap: int = 5000, warm_start=None):
    """Largest pairwise-disjoint subcollection.

    Exact branch-and-bound (element branching with fail-first pivots) when
    the pool is within exact_cap, otherwise greedy plus one-out-two-in local
    improvement, flagged exact=False. warm_start may carry a known disjoint
    family from the pool to seed the search. Returns (count, chosen, exact).
    """
    cand = sorted({frozenset(s) for s in sets}, key=lambda f: (len(f), sorted(f)))
    if not cand:
        return 0, (), True
    pool = set(cand)
    used: set = set()
    greedy = []
    for c in cand:
        if used.isdisjoint(c):
            greedy.append(c)
            used |= c
    if warm_start is not None:
        warm = [frozenset(s) for s in warm_start]
        flat = [e for s in warm for e in s]
        assert len(flat) == len(set(flat)), "warm start must be pairwise disjoint"
        assert all(s in pool for s in warm), "warm start must come from the pool"
        if len(warm) > len(greedy):
            greedy = warm
    if len(cand) > exact_cap:
        greedy = _improve_packing(cand, greedy)
        return len(greedy), tuple(greedy), False

    best = list(greedy)
    best_n = len(greedy)

    def dfs(active, chosen):
        nonlocal best, best_n
        if len(chosen) > best_n:
            best_n = len(chosen)
            best = list(chosen)
        if not active:
            return
        free = set().union(*active)
        msz = min(len(a) for a in active)
        if len(chosen) + min(len(active), len(free) // msz) <= best_n:
            return
        # fail-first: branch on the element with the fewest supporting sets
        counts: dict = {}
        for a in active:
            for e in a:
                counts[e] = counts.get(e, 0) + 1
        pivot = min(counts, key=lambda e: (counts[e], e))
        with_pivot = [a for a in active if pivot in a]
        for c in with_pivot:
            dfs([a for a in active if a.isdisjoint(c)], chosen + [c])
        dfs([a for a in active if pivot not in a], chosen)

    dfs(cand, [])
    return best_n, tuple(best), True


def _improve_packing(cand, chosen):
    """Swap one chosen set for two disjoint unused ones while possible."""
    chosen = list(chosen)
    improved = True
    while improved:
        improved = False
        for drop in list(chosen):
            rest = set()
            for s in chosen:
                if s is not drop:
                    rest |= s
            free = [c for c in cand if c not in chosen and rest.isdisjoint(c)]
            pair = None
            for a_i in range(len(free)):
                for b_i in range(a_i + 1, len(free)):
                    if free[a_i].isdisjoint(free[b_i]):
                        pair = (free[a_i], free[b_i])
                        break
                if pair:
                    break
            if pair:
                chosen.remove(drop)
                chosen.extend(pair)
                improved = True
                break
    return chosen


@dataclass(frozen=True)
class AvailabilityResult:
    value: int
    exact: bool
    sets: tuple[frozenset, ...]


def _worst_packing(pools, exact_cap: int, warm=None) -> AvailabilityResult:
    """Packing of the first pool with the smallest value; warm, when given,
    holds one known disjoint family per pool to seed its search."""
    worst: AvailabilityResult | None = None
    for k, cand in enumerate(pools):
        value, sets, exact = max_disjoint_packing(
            cand, exact_cap=exact_cap, warm_start=None if warm is None else warm[k]
        )
        if worst is None or value < worst.value:
            worst = AvailabilityResult(value, exact, sets)
    return worst


def _worst_availability(code: ArrayCode, groups, *, exact_cap, limit) -> list:
    """Worst availability over the nonzero nodes or symbols of each (kind, r)
    group, with every pool from one walk."""
    targets = []
    for kind, r in groups:
        rows = (None,) if kind == "node" else range(code.b)
        group = [(j, i, r) for j in range(code.n) for i in rows if _target_basis(code, j, i)]
        if not group:
            raise BadParams(f"code has no nonzero {kind}")
        targets.append(group)
    pools = _minimal_recovery_sets(code, [t for g in targets for t in g], limit=limit)
    out = []
    for g in targets:
        out.append(_worst_packing(pools[: len(g)], exact_cap))
        pools = pools[len(g) :]
    return out


def symbol_availability(
    code: ArrayCode,
    row: int,
    column: int,
    *,
    r: int | None = None,
    exact_cap: int = 5000,
    limit: int | None = None,
) -> AvailabilityResult:
    """Maximum number of pairwise disjoint size-<=r helper sets for a symbol."""
    if not any(code.column_vector(row, column)):
        raise BadParams("availability of an identically zero symbol is unbounded")
    if r is None:
        r = symbol_locality(code)
    return _worst_packing(
        _minimal_recovery_sets(code, [(column, row, r)], limit=limit), exact_cap
    )


def node_availability(
    code: ArrayCode,
    column: int,
    *,
    r: int | None = None,
    exact_cap: int = 5000,
    limit: int | None = None,
) -> AvailabilityResult:
    """Maximum number of pairwise disjoint size-<=r helper sets for a node."""
    if code.subspaces[column].dim == 0:
        raise BadParams("availability of a zero-dimensional node is unbounded")
    if r is None:
        r = node_locality(code)
    return _worst_packing(
        _minimal_recovery_sets(code, [(column, None, r)], limit=limit), exact_cap
    )


def code_symbol_availability(
    code: ArrayCode, *, r: int | None = None, exact_cap: int = 5000, limit: int | None = None
) -> AvailabilityResult:
    """Worst symbol availability over all nonzero symbols."""
    if r is None:
        r = symbol_locality(code)
    return _worst_availability(code, [("symbol", r)], exact_cap=exact_cap, limit=limit)[0]


def code_node_availability(
    code: ArrayCode, *, r: int | None = None, exact_cap: int = 5000, limit: int | None = None
) -> AvailabilityResult:
    """Worst node availability over all nonzero nodes."""
    if r is None:
        r = node_locality(code)
    return _worst_availability(code, [("node", r)], exact_cap=exact_cap, limit=limit)[0]


# --- disjoint pair system on the full width-2 subspace family -------------------


@dataclass(frozen=True)
class PairingResult:
    """Disjoint helper pairs for one target inside the full width-2 family.

    pairs holds index pairs into the size-ordered width-2 subspace list; a
    pair (a, c) means subspaces a and c together recover the target. Over
    characteristic-2 fields every non-target subspace is used exactly once.
    """

    target_index: int
    pairs: tuple[tuple[int, int], ...]
    covered: int
    total_others: int


def _projection_along(target: Subspace, vec):
    # split vec = t + u with t in the target and u supported off its pivots
    field = target.field
    t = [0] * target.ambient
    for row, p in zip(target.basis, target.pivots):
        c = vec[p]
        if c:
            t = vec_add(field, t, vec_scale(field, c, row))
    return tuple(field.sub(a, b) for a, b in zip(vec, t))


def grassmann_pairing(field, M: int, target: Subspace, *, limit=None) -> PairingResult:
    """Pair up 2-dim subspaces so each pair's sum contains the 2-dim target.

    Subspaces meeting the target in a line are grouped by that line and
    paired across different lines; subspaces disjoint from the target are
    paired within translation classes. For even q the pairing is perfect
    (every non-target subspace lands in exactly one pair); for odd q the
    disjoint classes pair only partially and the result is a lower bound.
    """
    if target.dim != 2 or target.ambient != M or target.field != field:
        raise BadParams("pairing needs a 2-dim target subspace of the same space")
    grass = enumerate_grassmannian(field, M, 2, limit=limit)
    index_of = {s: i for i, s in enumerate(grass)}
    t_idx = index_of[target]
    q = field.q

    if M == 2:
        return PairingResult(t_idx, (), 0, 0)

    # projective points of the target, in canonical order
    points = []
    seen = set()
    for vec in _target_vectors(field, target):
        if not any(vec):
            continue
        rep = _normalize(field, vec)
        if rep not in seen:
            seen.add(rep)
            points.append(rep)
    points.sort()
    point_pos = {p: k for k, p in enumerate(points)}

    meet_classes: list[list[int]] = [[] for _ in points]
    disjoint_classes: dict[Subspace, dict[tuple, int]] = {}
    v1, v2 = target.basis

    for idx, w in enumerate(grass):
        if idx == t_idx:
            continue
        inter = _line_of_intersection(field, target, w)
        if inter is not None:
            meet_classes[point_pos[inter]].append(idx)
        else:
            # decompose w relative to the canonical complement of the target
            u_rows = [_projection_along(target, row) for row in w.basis]
            ubar = Subspace.from_span(field, M, u_rows)
            assert ubar.dim == 2
            # basis of w that projects onto ubar's canonical basis
            coords = _change_of_basis(field, u_rows, ubar.basis)
            key_parts = []
            for j in range(2):
                wrow = [0] * M
                for c, row in zip(coords[j], w.basis):
                    if c:
                        wrow = vec_add(field, wrow, vec_scale(field, c, row))
                x = tuple(field.sub(a, b) for a, b in zip(wrow, ubar.basis[j]))
                key_parts.append(_target_coords(field, target, x))
            disjoint_classes.setdefault(ubar, {})[
                (key_parts[0], key_parts[1])
            ] = idx

    pairs: list[tuple[int, int]] = []

    # across-line pairs: split each line's class into q equal parts, one per
    # other line, and zip opposite parts together
    per = len(meet_classes[0]) // q if meet_classes[0] else 0
    parts: dict[tuple[int, int], list[int]] = {}
    for i, cls in enumerate(meet_classes):
        assert len(cls) == per * q
        labels = [j for j in range(len(points)) if j != i]
        for which, j in enumerate(labels):
            parts[(i, j)] = cls[which * per : (which + 1) * per]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            pairs.extend(zip(parts[(i, j)], parts[(j, i)]))

    # within-class pairs for subspaces disjoint from the target
    one = 1
    for ubar in sorted(disjoint_classes, key=lambda s: s.basis):
        members = disjoint_classes[ubar]
        if q % 2 == 0:
            done = set()
            for key in sorted(members):
                if key in done:
                    continue
                (x1, x2) = key
                partner = (
                    (field.add(x1[0], one), x1[1]),
                    (x2[0], field.add(x2[1], one)),
                )
                done.add(key)
                done.add(partner)
                pairs.append((members[key], members[partner]))
        else:
            done = set()
            for key in sorted(members):
                if key in done:
                    continue
                (x1, x2) = key
                det = field.sub(
                    field.mul(x1[0], x2[1]), field.mul(x1[1], x2[0])
                )
                if det == 0:
                    continue
                partner = (
                    (field.neg(x1[0]), field.neg(x1[1])),
                    (field.neg(x2[0]), field.neg(x2[1])),
                )
                done.add(key)
                done.add(partner)
                pairs.append((members[key], members[partner]))

    used = [i for p in pairs for i in p]
    assert len(used) == len(set(used)) and t_idx not in used
    return PairingResult(t_idx, tuple(pairs), len(used), len(grass) - 1)


def _target_vectors(field, target: Subspace):
    q = field.q
    for a in range(q):
        for b in range(q):
            row = [0] * target.ambient
            if a:
                row = vec_add(field, row, vec_scale(field, a, target.basis[0]))
            if b:
                row = vec_add(field, row, vec_scale(field, b, target.basis[1]))
            yield tuple(row)


def _normalize(field, vec):
    lead = next(x for x in vec if x)
    inv = field.inv(lead)
    return tuple(field.mul(inv, x) for x in vec)


def _line_of_intersection(field, target: Subspace, w: Subspace):
    """Normalized generator of a 1-dim intersection, or None if disjoint."""
    from .linalg import intersection_dim

    d = intersection_dim(target, w)
    if d == 0:
        return None
    assert d == 1, "width-2 families only: a 2-dim intersection means equality"
    for vec in _target_vectors(field, target):
        if any(vec) and contains_vector(w, vec):
            return _normalize(field, vec)
    raise AssertionError("intersection dimension 1 but no common vector found")


def _target_coords(field, target: Subspace, vec):
    # coordinates of a target member in the canonical target basis
    coords = tuple(vec[p] for p in target.pivots)
    # sanity: rebuild and compare
    back = [0] * target.ambient
    for c, row in zip(coords, target.basis):
        if c:
            back = vec_add(field, back, vec_scale(field, c, row))
    assert tuple(back) == tuple(vec)
    return coords


def _change_of_basis(field, rows, new_rows):
    """Coefficient rows expressing new_rows in terms of rows (both rank 2)."""
    m = Mat(field, tuple(tuple(r) for r in rows), len(rows[0])).transpose()
    out = []
    for nr in new_rows:
        sol = solve(m, tuple(nr))
        assert sol is not None
        out.append(sol)
    return out


# --- repair ----------------------------------------------------------------------


@dataclass(frozen=True)
class RepairResult:
    column: tuple[int, ...]
    used: RecoverySet
    message: tuple[int, ...]


def repair(code: ArrayCode, array: Mat, column: int) -> RepairResult:
    """Rebuild one column of a codeword array from the surviving columns.

    The surviving columns must be consistent with some codeword; otherwise
    Inconsistent is raised. The rebuilt column comes from the smallest node
    recovery set, and is cross-checked against the decoded message.
    """
    if array.nrows != code.b or array.cols != code.n:
        raise BadParams(
            f"array is {array.nrows}x{array.cols}, code is {code.b}x{code.n}"
        )
    if not 0 <= column < code.n:
        raise OutOfRange(f"column {column} outside 0..{code.n - 1}")
    rows = []
    rhs = []
    for m in range(code.n):
        if m == column:
            continue
        for i in range(code.b):
            rows.append(code.column_vector(i, m))
            rhs.append(array.rows[i][m])
    message = solve(Mat(code.field, tuple(rows), code.M), tuple(rhs))
    if message is None:
        raise Inconsistent("surviving columns do not agree with any codeword")
    rset = min_node_recovery(code, column)
    restored = evaluate_recovery(code, rset, array)
    expected = tuple(encode(code, message).rows[i][column] for i in range(code.b))
    assert restored == expected, "recovery functionals disagree with decoding"
    return RepairResult(restored, rset, tuple(message))
