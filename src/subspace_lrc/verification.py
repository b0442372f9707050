"""Named property checks for each construction, with measured vs expected.

Every check carries the measured value even when it passes, and oversize
searches surface as skipped entries rather than silent omissions. Where a
documented claim is internally inconsistent, the expectation used here is
the value forced by the surrounding facts and the note says why; the
measurement always decides the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .arraycode import (
    ArrayCode,
    analyze_code,
    construction_all_subspaces,
    construction_from_blocks,
    construction_spread,
    construction_std,
    dual,
    dual_distance_by_supports,
    dual_perfectness,
    is_mds,
    min_distance,
    perfectness,
    weight_distribution,
)
from .designs import (
    build_spread,
    build_std,
    enumerate_grassmannian,
    gaussian,
    gaussian_or_zero,
    steiner_parameters,
    verify_spread,
    verify_std,
)
from .errors import BadParams, TooLarge
from .limits import enumeration_limit
from .linalg import contains_subspace, subspace_sum
from .locality import (
    _minimal_recovery_sets,
    _worst_packing,
    grassmann_pairing,
    locality_profile,
    max_disjoint_packing,
)


@dataclass(frozen=True)
class Check:
    check_id: str
    description: str
    expected: str
    measured: str
    status: str  # "pass" | "fail" | "skipped"
    note: str = ""

    def line(self) -> str:
        out = f"{self.check_id}: {self.status.upper()} (expected {self.expected}, measured {self.measured})"
        if self.note:
            out += f" -- {self.note}"
        return out


@dataclass(frozen=True)
class VerificationSuite:
    construction: str
    parameters: dict
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def lines(self) -> list[str]:
        head = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        out = [f"verification of {self.construction} ({head})"]
        out.extend("  " + c.line() for c in self.checks)
        fails = sum(1 for c in self.checks if c.status == "fail")
        skips = sum(1 for c in self.checks if c.status == "skipped")
        out.append(
            f"  => {len(self.checks)} checks, {fails} failed, {skips} skipped"
        )
        return out

    def to_json_dict(self) -> dict:
        return {
            "construction": self.construction,
            "parameters": self.parameters,
            "checks": [
                {
                    "id": c.check_id,
                    "description": c.description,
                    "expected": c.expected,
                    "measured": c.measured,
                    "status": c.status,
                    "note": c.note,
                }
                for c in self.checks
            ],
            "ok": self.ok,
        }


def _eq(check_id, description, expected, measured, note="") -> Check:
    status = "pass" if expected == measured else "fail"
    return Check(check_id, description, str(expected), str(measured), status, note)


def _cond(check_id, description, ok, expected, measured, note="") -> Check:
    return Check(
        check_id, description, str(expected), str(measured), "pass" if ok else "fail", note
    )


def _skip(check_id, description, expected, reason) -> Check:
    return Check(check_id, description, str(expected), "-", "skipped", reason)


def _info(check_id, measured, note="") -> Check:
    return Check(check_id, "measured value reported", "reported", str(measured), "pass", note)


def _design_check(report, what) -> Check:
    fails = [c for c in report.checks if c.passed is False]
    skips = [c for c in report.checks if c.passed is None]
    measured = f"{len(report.checks) - len(fails) - len(skips)}/{len(report.checks)} properties hold"
    note = "; ".join(c.detail for c in fails) if fails else ""
    if skips and not fails:
        note = "skipped: " + "; ".join(c.name for c in skips)
    status = "fail" if fails else "pass"
    return Check("design-valid", f"every defining property of the {what} holds", "all properties", measured, status, note)


def _distribution(code, limit):
    return weight_distribution(code, limit=limit)


def _dual_distance_checks(code, profile, *, cross_check_limit) -> list[Check]:
    """Measured dual distance vs r_s+1, plus the min-symbol-size relation."""
    checks = []
    r_s = profile.symbol_locality
    d_dual = dual_distance_by_supports(code)
    min_sym = min(
        profile.symbol_witnesses[i][j].size
        for j in range(code.n)
        for i in range(code.b)
        if any(code.column_vector(i, j))
    )
    note = ""
    if code.field.q ** (code.b * code.n - code.M) <= cross_check_limit:
        dd = dual(code)
        wd = _distribution(dd, cross_check_limit)
        exhaustive = min(w for w in wd if w > 0)
        note = f"exhaustive dual scan agrees: {exhaustive}"
        if exhaustive != d_dual:
            checks.append(
                _cond(
                    "dual-distance-cross-check",
                    "support search agrees with exhaustive dual scan",
                    False,
                    d_dual,
                    exhaustive,
                )
            )
    checks.insert(
        0,
        _eq(
            "dual-distance",
            "dual code distance equals worst symbol locality plus one",
            r_s + 1,
            d_dual,
            note,
        ),
    )
    checks.append(
        _eq(
            "dual-distance-min-symbol",
            "dual code distance equals smallest symbol recovery size plus one",
            min_sym + 1,
            d_dual,
        )
    )
    return checks


# --- full width-b family -----------------------------------------------------


def verify_all_subspaces(
    field,
    M: int,
    b: int,
    *,
    limit: int | None = None,
    exact_cap: int = 5000,
    availability: bool = True,
    cross_check_limit: int = 4096,
) -> VerificationSuite:
    q = field.q
    if not 1 <= b < M:
        raise BadParams(f"need 1 <= b < M, got b={b}, M={M}")
    code = construction_all_subspaces(field, M, b, limit=limit)
    checks: list[Check] = []

    n_expected = gaussian(M, b, q)
    checks.append(
        _eq("column-count", "one column per width-b subspace", n_expected, code.n)
    )
    checks.append(
        _cond(
            "column-rank",
            "every associated subspace has full width",
            all(s.dim == b for s in code.subspaces),
            "all width b",
            f"{sum(1 for s in code.subspaces if s.dim == b)}/{code.n} full",
        )
    )

    d_expected = gaussian(M, b, q) - gaussian(M - 1, b, q)
    alt = q ** (M - b) * gaussian(M - 1, b - 1, q)
    assert d_expected == alt, "the two closed forms must agree"
    scan_limit = enumeration_limit(limit)
    if q**M <= scan_limit:
        wd = _distribution(code, limit)
        d = min(w for w in wd if w > 0)
        checks.append(
            _eq("distance", "exhaustive distance matches the closed form", d_expected, d)
        )
        checks.append(
            _cond(
                "constant-weight",
                "every nonzero codeword has the same weight",
                wd == {0: 1, d: q**M - 1},
                f"{{0: 1, {d}: {q**M - 1}}}",
                str(wd),
            )
        )
    else:
        checks.append(_skip("distance", "exhaustive distance", d_expected, f"q^M={q**M} over limit"))
        checks.append(_skip("constant-weight", "single nonzero weight", "two support points", f"q^M={q**M} over limit"))

    profile = locality_profile(code)
    checks.append(
        _eq(
            "symbol-locality",
            "worst-case smallest symbol recovery set",
            1 if b > 1 else 2,
            profile.symbol_locality,
        )
    )
    checks.append(
        _eq("node-locality", "worst-case smallest node recovery set", 2, profile.node_locality)
    )

    if availability:
        checks.extend(
            _availability_checks_all_subspaces(
                code, profile, exact_cap=exact_cap, limit=limit
            )
        )
    else:
        checks.append(_skip("symbol-availability", "disjoint symbol recovery sets", "-", "availability disabled"))
        checks.append(_skip("node-availability", "disjoint node recovery sets", "-", "availability disabled"))

    checks.extend(
        _dual_distance_checks(code, profile, cross_check_limit=cross_check_limit)
    )
    return VerificationSuite(
        "all-subspaces", {"q": q, "M": M, "b": b}, tuple(checks)
    )


def _availability_checks_all_subspaces(code, profile, *, exact_cap, limit):
    field, M, b, n, q = code.field, code.M, code.b, code.n, code.field.q
    checks: list[Check] = []
    r_s = profile.symbol_locality
    r_n = profile.node_locality

    # symbol availability: worst over symbols, helper sets of size <= r_s
    sym_budget = sum(comb(n - 1, s) for s in range(1, r_s + 1))
    if sym_budget <= max(exact_cap, 5000):
        targets = [(j, i, r_s) for j in range(n) for i in range(b)]
        worst = _worst_packing(_minimal_recovery_sets(code, targets, limit=limit), exact_cap)
        value, exact = worst.value, worst.exact
        if b >= 2:
            expected = gaussian(M - 1, b - 1, q) - 1
            checks.append(
                _cond(
                    "symbol-availability",
                    "disjoint symbol helper sets within the symbol locality",
                    exact and value == expected,
                    expected,
                    f"{value} ({'exact' if exact else 'bound'})",
                )
            )
        else:
            bound = Fraction(q ** (M - 1) - 1, 2)
            checks.append(
                _cond(
                    "symbol-availability",
                    "disjoint symbol helper sets within the symbol locality",
                    exact and value >= bound,
                    f">= {bound}",
                    f"{value} ({'exact' if exact else 'bound'})",
                    "claimed closed form is non-integral at q=2; read as a lower bound and report the exact packing",
                )
            )
    else:
        checks.append(
            _skip(
                "symbol-availability",
                "disjoint symbol helper sets",
                "-",
                f"candidate enumeration {sym_budget} over cap",
            )
        )

    # node availability via the explicit pair family when b = 2
    if b != 2:
        node_budget = sum(comb(n - 1, s) for s in range(1, r_n + 1))
        if node_budget <= exact_cap:
            pools = _minimal_recovery_sets(code, [(j, None, r_n) for j in range(n)], limit=limit)
            worst = _worst_packing(pools, exact_cap)
            checks.append(
                _info(
                    "node-availability",
                    f"{worst.value} ({'exact' if worst.exact else 'bound'})",
                    "no closed form claimed at this width; measured value reported",
                )
            )
        else:
            checks.append(
                _skip(
                    "node-availability",
                    "disjoint node helper sets",
                    "-",
                    f"candidate enumeration {node_budget} over cap",
                )
            )
        return checks

    grass = enumerate_grassmannian(field, M, 2, limit=limit)
    pair_sizes = []
    covered_all = True
    pairs_valid = True
    node_budget = sum(comb(n - 1, s) for s in range(1, r_n + 1))
    t_values = []
    t_exact = True
    if node_budget <= exact_cap:
        pools = _minimal_recovery_sets(code, [(j, None, r_n) for j in range(n)], limit=limit)
    for j in range(n):
        pairing = grassmann_pairing(field, M, code.subspaces[j], limit=limit)
        for a, c in pairing.pairs:
            s = subspace_sum(grass[a], grass[c])
            if not contains_subspace(s, code.subspaces[j]):
                pairs_valid = False
        pair_sizes.append(len(pairing.pairs))
        covered_all = covered_all and pairing.covered == pairing.total_others
        if node_budget <= exact_cap:
            warm = [frozenset(p) for p in pairing.pairs]
            value, _, exact = max_disjoint_packing(
                pools[j], exact_cap=exact_cap, warm_start=warm
            )
            t_values.append(value)
            t_exact = t_exact and exact
    half = (gaussian(M, 2, q) - 1) // 2
    if q % 2 == 0:
        checks.append(
            _cond(
                "pairing-family",
                "explicit pair family is valid, disjoint, and covers every other subspace",
                pairs_valid and covered_all and min(pair_sizes) == half,
                f"{half} pairs covering all",
                f"min family {min(pair_sizes)}, covering={covered_all}, valid={pairs_valid}",
            )
        )
    else:
        lb = Fraction(
            gaussian(M, 2, q) - 1 - q * (q**2 + q - 1) * gaussian_or_zero(M - 2, 2, q), 2
        )
        checks.append(
            _cond(
                "pairing-family",
                "explicit pair family is valid, disjoint, and meets the lower bound",
                pairs_valid and min(pair_sizes) >= lb,
                f">= {lb}",
                f"min family {min(pair_sizes)}, valid={pairs_valid}",
            )
        )
    if t_values:
        t_n = min(t_values)
        if q % 2 == 0:
            checks.append(
                _cond(
                    "node-availability",
                    "exact packing achieves half the remaining subspace count",
                    t_exact and t_n == half,
                    half,
                    f"{t_n} ({'exact' if t_exact else 'bound'})",
                )
            )
        else:
            lb = Fraction(
                gaussian(M, 2, q) - 1 - q * (q**2 + q - 1) * gaussian_or_zero(M - 2, 2, q), 2
            )
            checks.append(
                _cond(
                    "node-availability",
                    "exact packing meets the pair-family lower bound",
                    t_exact and t_n >= lb,
                    f">= {lb}",
                    f"{t_n} ({'exact' if t_exact else 'bound'})",
                )
            )
    else:
        checks.append(
            _skip(
                "node-availability",
                "disjoint node helper sets",
                "-",
                f"candidate enumeration {node_budget} over cap; pair family still proves >= {min(pair_sizes)}",
            )
        )
    return checks


# --- spread codes --------------------------------------------------------------


def verify_spread_code(
    field,
    M: int,
    b: int,
    *,
    method: str = "gabidulin-echelon",
    limit: int | None = None,
    cross_check_limit: int = 4096,
) -> VerificationSuite:
    q = field.q
    design = build_spread(field, M, b, method)
    checks: list[Check] = [_design_check(verify_spread(design, limit=limit), "spread")]
    code = construction_spread(field, M, b, method)
    assert code.subspaces == tuple(design.blocks)

    n_expected = (q**M - 1) // (q**b - 1)
    checks.append(_eq("column-count", "one column per spread block", n_expected, code.n))

    d_expected = q ** (M - b)
    scan_limit = enumeration_limit(limit)
    if q**M <= scan_limit:
        wd = _distribution(code, limit)
        d = min(w for w in wd if w > 0)
        checks.append(_eq("distance", "exhaustive distance is q^(M-b)", d_expected, d))
        checks.append(
            _cond(
                "constant-weight",
                "every nonzero codeword has the same weight",
                wd == {0: 1, d: q**M - 1},
                f"{{0: 1, {d}: {q**M - 1}}}",
                str(wd),
            )
        )
    else:
        checks.append(_skip("distance", "exhaustive distance", d_expected, f"q^M={q**M} over limit"))
        checks.append(_skip("constant-weight", "single nonzero weight", "two support points", f"q^M={q**M} over limit"))

    if code.n < 3:
        checks.append(_skip("symbol-locality", "smallest symbol recovery", 2, "fewer than three columns"))
        checks.append(_skip("node-locality", "smallest node recovery", "-", "fewer than three columns"))
        profile = None
    else:
        profile = locality_profile(code)
        checks.append(
            _eq("symbol-locality", "worst-case smallest symbol recovery set", 2, profile.symbol_locality)
        )
        r_n_cap = min(b + 1, M // b)
        if M == 2 * b:
            checks.append(
                _eq("node-locality", "worst-case smallest node recovery set", 2, profile.node_locality)
            )
        else:
            checks.append(
                _cond(
                    "node-locality",
                    "node locality within the claimed bracket",
                    2 <= profile.node_locality <= r_n_cap,
                    f"in [2, {r_n_cap}]",
                    profile.node_locality,
                )
            )

    if M == 2 * b and q**M <= scan_limit:
        mds = is_mds(code, limit=limit)
        checks.append(_cond("mds", "distance meets n - M/b + 1", mds, True, mds))
    elif M != 2 * b:
        checks.append(_skip("mds", "distance meets n - M/b + 1", "-", "claimed only at M = 2b"))

    if profile is not None:
        checks.extend(
            _dual_distance_checks(code, profile, cross_check_limit=cross_check_limit)
        )
    perf = dual_perfectness(code)
    checks.append(
        _cond(
            "dual-perfect",
            "radius-1 balls around dual codewords tile the space",
            perf.is_perfect and perf.phi1 == q**M,
            f"perfect, ball size {q**M}",
            f"perfect={perf.is_perfect}, ball size {perf.phi1}, ratio {perf.ratio}",
        )
    )
    return VerificationSuite(
        "spread", {"q": q, "M": M, "b": b, "method": method}, tuple(checks)
    )


# --- parallel-class codes -------------------------------------------------------


def verify_std_par(
    field,
    t: int,
    b: int,
    M: int,
    *,
    class_index: int = 0,
    limit: int | None = None,
    exact_cap: int = 5000,
    cross_check_limit: int = 4096,
) -> VerificationSuite:
    q = field.q
    m = M - b
    design = build_std(field, t, b, m)
    checks: list[Check] = [_design_check(verify_std(design, limit=limit), "transversal design")]
    code = construction_std(field, t, b, M, "par", class_index)

    checks.append(_eq("column-count", "one column per class block", q**m, code.n))

    d_expected = q ** (M - b) - q ** (M - 2 * b)
    full = q ** (M - b)
    scan_limit = enumeration_limit(limit)
    if q**M <= scan_limit:
        wd = _distribution(code, limit)
        d = min(w for w in wd if w > 0)
        checks.append(_eq("distance", "exhaustive distance matches the closed form", d_expected, d))
        k = wd.get(full, 0)
        structure_ok = set(wd) <= {0, d_expected, full} and wd.get(0) == 1
        two_b = 2**b - 1
        q_b = q**b - 1
        if k == q_b:
            which = f"full-weight count matches q^b-1 = {q_b}" + (
                "" if two_b != q_b else " (= 2^b-1)"
            )
            count_ok = True
        elif k == two_b:
            which = f"full-weight count matches 2^b-1 = {two_b}, not q^b-1 = {q_b}"
            count_ok = True
        else:
            which = f"full-weight count {k} matches neither 2^b-1 = {two_b} nor q^b-1 = {q_b}"
            count_ok = False
        checks.append(
            _cond(
                "weight-distribution",
                "support points {0, d, full weight} with an admissible full-weight count",
                structure_ok and count_ok,
                f"{{0: 1, {d_expected}: rest, {full}: 2^b-1 or q^b-1}}",
                str(wd),
                which,
            )
        )
    else:
        checks.append(_skip("distance", "exhaustive distance", d_expected, f"q^M={q**M} over limit"))
        checks.append(_skip("weight-distribution", "three support points", "-", f"q^M={q**M} over limit"))

    profile = locality_profile(code)
    checks.append(
        _eq("symbol-locality", "worst-case smallest symbol recovery set", 2, profile.symbol_locality)
    )
    if q == 2 and M == 2 * b:
        note = (
            "the documented q=2 value is 3, but any two class blocks differ by a full-rank"
            " matrix, so their subspaces span everything at M=2b and two helpers always"
            " suffice; the value 3 requires M>2b"
        )
        expected_rn = 2
    elif q == 2:
        note = ""
        expected_rn = 3
    else:
        note = ""
        expected_rn = 2
    checks.append(
        _eq("node-locality", "worst-case smallest node recovery set", expected_rn, profile.node_locality, note)
    )

    if M == 2 * b and q**M <= scan_limit:
        mds = is_mds(code, limit=limit)
        checks.append(_cond("mds", "distance meets n - M/b + 1", mds, True, mds))
    elif M != 2 * b:
        checks.append(_skip("mds", "distance meets n - M/b + 1", "-", "claimed only at M = 2b"))

    checks.extend(
        _dual_distance_checks(code, profile, cross_check_limit=cross_check_limit)
    )
    ratio_expected = Fraction(1 + q**M - q ** (M - b), q**M)
    perf = dual_perfectness(code)
    checks.append(
        _cond(
            "dual-ball-ratio",
            "dual covering ratio equals 1 + q^-M - q^-b exactly",
            perf.ratio == ratio_expected,
            str(ratio_expected),
            str(perf.ratio),
        )
    )
    return VerificationSuite(
        "std-par",
        {"q": q, "t": t, "b": b, "M": M, "class": class_index},
        tuple(checks),
    )


# --- full design codes ----------------------------------------------------------


def verify_std_full(
    field,
    t: int,
    b: int,
    M: int,
    *,
    limit: int | None = None,
    exact_cap: int = 5000,
    cross_check_limit: int = 4096,
) -> VerificationSuite:
    q = field.q
    m = M - b
    design = build_std(field, t, b, m)
    checks: list[Check] = [_design_check(verify_std(design, limit=limit), "transversal design")]
    code = construction_std(field, t, b, M, "full")

    checks.append(_eq("column-count", "one column per design block", q ** (m * t), code.n))

    d_expected = q ** (m * (t - 1)) * (q**m - q ** (m - b))
    scan_limit = enumeration_limit(limit)
    if q**M <= scan_limit:
        d = min_distance(code, limit=limit)
        checks.append(_eq("distance", "exhaustive distance matches the closed form", d_expected, d))
    else:
        checks.append(_skip("distance", "exhaustive distance", d_expected, f"q^M={q**M} over limit"))

    profile = locality_profile(code)
    checks.append(
        _eq(
            "symbol-locality",
            "worst-case smallest symbol recovery set",
            1 if t >= 2 else 2,
            profile.symbol_locality,
        )
    )
    checks.append(
        _cond(
            "node-locality",
            "at least two helpers are needed for a whole node",
            profile.node_locality >= 2,
            ">= 2",
            profile.node_locality,
        )
    )

    if t >= 2:
        expected_ts = q ** (m * (t - 1)) - 1
        targets = [(j, i, profile.symbol_locality) for j in range(code.n) for i in range(code.b)]
        worst = _worst_packing(_minimal_recovery_sets(code, targets, limit=limit), exact_cap)
        checks.append(
            _cond(
                "symbol-availability",
                "disjoint singleton helpers per symbol",
                worst.exact and worst.value == expected_ts,
                expected_ts,
                f"{worst.value} ({'exact' if worst.exact else 'bound'})",
            )
        )
    else:
        checks.append(_skip("symbol-availability", "disjoint helpers per symbol", "-", "claimed only for t >= 2"))

    checks.extend(
        _dual_distance_checks(code, profile, cross_check_limit=cross_check_limit)
    )
    return VerificationSuite(
        "std-full", {"q": q, "t": t, "b": b, "M": M}, tuple(checks)
    )


# --- generic block sets ----------------------------------------------------------


def verify_blocks(code: ArrayCode, *, limit: int | None = None, cross_check_limit: int = 4096) -> VerificationSuite:
    """Report-style suite for a user-supplied block set."""
    q = code.field.q
    checks: list[Check] = []
    checks.append(
        _info(
            "column-rank",
            f"{sum(1 for s in code.subspaces if s.dim == code.b)}/{code.n} full width",
        )
    )
    try:
        covered = steiner_parameters(code.field, code.subspaces, limit=limit)
        if covered:
            measured = "t in " + str(sorted(covered))
            note = "every subspace of the listed dimensions lies in exactly one block"
        else:
            measured = "none"
            note = ""
        checks.append(_info("steiner", measured, note))
    except TooLarge as exc:
        checks.append(_skip("steiner", "exact-cover detection", "-", str(exc)))

    scan_limit = enumeration_limit(limit)
    if q**code.M <= scan_limit:
        wd = _distribution(code, limit)
        d = min(w for w in wd if w > 0)
        checks.append(_info("distance", d))
        checks.append(_info("weight-distribution", str(wd)))
    else:
        checks.append(_skip("distance", "exhaustive distance", "-", f"q^M={q**code.M} over limit"))

    profile = locality_profile(code)
    checks.append(_info("symbol-locality", profile.symbol_locality))
    checks.append(_info("node-locality", profile.node_locality))
    checks.append(
        _cond(
            "locality-order",
            "symbol locality never exceeds node locality",
            profile.symbol_locality <= profile.node_locality,
            "r_s <= r_n",
            f"r_s={profile.symbol_locality}, r_n={profile.node_locality}",
        )
    )
    checks.extend(
        _dual_distance_checks(code, profile, cross_check_limit=cross_check_limit)
    )
    perf = perfectness(code)
    checks.append(_info("ball-ratio", str(perf.ratio)))
    return VerificationSuite(
        "from-blocks", {"q": q, "M": code.M, "b": code.b, "n": code.n}, tuple(checks)
    )


def run_verification(
    construction: str,
    field,
    *,
    M: int | None = None,
    b: int | None = None,
    t: int = 1,
    class_index: int = 0,
    method: str = "gabidulin-echelon",
    blocks=None,
    limit: int | None = None,
    exact_cap: int = 5000,
    availability: bool = True,
    cross_check_limit: int = 4096,
) -> VerificationSuite:
    if construction == "all-subspaces":
        return verify_all_subspaces(
            field, M, b, limit=limit, exact_cap=exact_cap,
            availability=availability, cross_check_limit=cross_check_limit,
        )
    if construction == "spread":
        return verify_spread_code(
            field, M, b, method=method, limit=limit, cross_check_limit=cross_check_limit
        )
    if construction == "std-par":
        return verify_std_par(
            field, t, b, M, class_index=class_index, limit=limit,
            exact_cap=exact_cap, cross_check_limit=cross_check_limit,
        )
    if construction == "std-full":
        return verify_std_full(
            field, t, b, M, limit=limit, exact_cap=exact_cap,
            cross_check_limit=cross_check_limit,
        )
    if construction == "from-blocks":
        code = construction_from_blocks(field, blocks)
        return verify_blocks(code, limit=limit, cross_check_limit=cross_check_limit)
    raise BadParams(f"unknown construction {construction!r}")
