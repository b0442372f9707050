"""Named property checks for each construction, with measured vs expected.

A suite pairs expectations with one measurement pass. The expectations are
per construction: the closed forms it claims in its parameters (column
count, distance and weight support, symbol and node locality, availability,
dual distance and covering ratio), each with its note. The measurement is
shared: a `_Measure` computes each expensive quantity of one code at most
once (the weight distribution and d, the locality profile, the dual distance
by supports and the guarded exhaustive dual scan). One builder per check
kind pairs a claim with its measurement; availability comes from the one
locality entry that the library and `analyze` use too.

Every check carries the measured value even when it passes. A quantity over
an enumeration limit or the packing cap, or not claimed for the parameters,
surfaces as a skipped check with the reason, never as a silent omission.
Where a documented claim is internally inconsistent, the expectation used
here is the value forced by the surrounding facts and the note says why;
the measurement always decides the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arraycode import (
    ArrayCode,
    _spread_code,
    _std_code,
    _std_design,
    construction_all_subspaces,
    construction_from_blocks,
    dual,
    dual_distance_by_supports,
    dual_perfectness,
    is_mds,
    perfectness,
    weight_distribution,
)
from .designs import (
    build_spread,
    gaussian,
    gaussian_or_zero,
    steiner_parameters,
    verify_spread,
    verify_std,
)
from .errors import BadParams, NoRecovery, TooLarge
from .limits import DEFAULT_PACKING_CAP, enumeration_limit
from .locality import (
    _candidate_count,
    _nonzero_targets,
    _worst_availability,
    grassmann_pairing,
    locality_profile,
)

# Largest dual code, in codewords, that is scanned exhaustively to
# cross-check the dual distance found by the support search.
CROSS_CHECK_LIMIT = 4096


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


# --- claims and check primitives -----------------------------------------------


@dataclass(frozen=True)
class _Range:
    """Claim that a value lies in [lo, hi]; hi None means no upper end."""

    lo: int | Fraction
    hi: int | None = None

    def __str__(self) -> str:
        return f">= {self.lo}" if self.hi is None else f"in [{self.lo}, {self.hi}]"

    def holds(self, value) -> bool:
        return self.lo <= value and (self.hi is None or value <= self.hi)


def _meets(expected, value) -> bool:
    return expected.holds(value) if isinstance(expected, _Range) else expected == value


def _cond(check_id, description, ok, expected, measured, note="") -> Check:
    return Check(
        check_id, description, str(expected), str(measured), "pass" if ok else "fail", note
    )


def _skip(check_id, description, reason, expected="-") -> Check:
    return Check(check_id, description, str(expected), "-", "skipped", reason)


def _info(check_id, measured, note="") -> Check:
    return Check(check_id, "measured value reported", "reported", str(measured), "pass", note)


def _expect(check_id, description, expected, measured, note="") -> Check:
    """measured against a claim: a value, a _Range, or None (reported only)."""
    if expected is None:
        return _info(check_id, measured, note)
    return _cond(check_id, description, _meets(expected, measured), expected, measured, note)


def _design_check(outcomes, what) -> Check:
    fails = [c for c in outcomes if c.passed is False]
    skips = [c for c in outcomes if c.passed is None]
    measured = f"{len(outcomes) - len(fails) - len(skips)}/{len(outcomes)} properties hold"
    note = "; ".join(c.detail for c in fails) if fails else ""
    if skips and not fails:
        note = "skipped: " + "; ".join(c.name for c in skips)
    status = "fail" if fails else "pass"
    return Check("design-valid", f"every defining property of the {what} holds", "all properties", measured, status, note)


# --- measurement ------------------------------------------------------------------


class _Measure:
    """The measured quantities of one code, each computed at most once.

    Over the enumeration limit the scan results are None and scan_skip
    holds the reason, which the builders turn into a skipped check.
    """

    def __init__(self, code: ArrayCode, limit=None, exact_cap: int = DEFAULT_PACKING_CAP):
        self.code, self.limit, self.exact_cap = code, limit, exact_cap
        size = code.field.q**code.M
        self.scan_skip = "" if size <= enumeration_limit(limit) else f"q^M={size} over limit"

    @cached_property
    def weights(self) -> dict[int, int] | None:
        return None if self.scan_skip else weight_distribution(self.code, limit=self.limit)

    @cached_property
    def d(self) -> int | None:
        return None if self.weights is None else min(w for w in self.weights if w > 0)

    @cached_property
    def profile(self):
        return locality_profile(self.code)

    @cached_property
    def locality_skip(self) -> str:
        """Why the code has no locality profile: the first node with no
        recovery set, named by NoRecovery; empty when it has one."""
        try:
            self.profile
        except NoRecovery as exc:
            return str(exc)
        return ""

    @cached_property
    def dual_distance(self) -> int:
        return dual_distance_by_supports(self.code)

    @cached_property
    def dual_scan(self) -> int | None:
        """Dual distance by exhaustive scan; None when the dual is too large."""
        code = self.code
        if code.field.q ** (code.b * code.n - code.M) > CROSS_CHECK_LIMIT:
            return None
        wd = weight_distribution(dual(code), limit=CROSS_CHECK_LIMIT)
        return min(w for w in wd if w > 0)


# --- shared builders ----------------------------------------------------------------


def _scanned(m: _Measure, check_id, description, expected, build) -> Check:
    """build() when the weight scan fits the limit, else its skip."""
    return _skip(check_id, description, m.scan_skip, expected) if m.scan_skip else build()


def _distance(m: _Measure, expected, description) -> Check:
    return _scanned(
        m, "distance", "exhaustive distance", "-" if expected is None else expected,
        lambda: _expect("distance", description, expected, m.d),
    )


def _constant_weight(m: _Measure) -> Check:
    others = m.code.field.q**m.code.M - 1
    return _scanned(
        m, "constant-weight", "single nonzero weight", "two support points",
        lambda: _cond(
            "constant-weight",
            "every nonzero codeword has the same weight",
            m.weights == {0: 1, m.d: others},
            f"{{0: 1, {m.d}: {others}}}",
            m.weights,
        ),
    )


def _locality_checks(
    m: _Measure, symbol, node, *, node_description="worst-case smallest node recovery set", note="", skip=""
) -> list[Check]:
    """Symbol and node locality against their claims (see _expect)."""
    skip = skip or m.locality_skip
    if skip:
        return [
            _skip("symbol-locality", "smallest symbol recovery", skip, "-" if symbol is None else symbol),
            _skip("node-locality", "smallest node recovery", skip),
        ]
    p = m.profile
    return [
        _expect("symbol-locality", "worst-case smallest symbol recovery set", symbol, p.symbol_locality),
        _expect("node-locality", node_description, node, p.node_locality, note),
    ]


def _mds_check(m: _Measure, claimed: bool) -> Check:
    description = "distance meets n - M/b + 1"
    if not claimed:
        return _skip("mds", description, "claimed only at M = 2b")

    def build():
        mds = is_mds(m.code, distance=m.d)
        return _cond("mds", description, mds, True, mds)

    return _scanned(m, "mds", description, True, build)


def _availability_disabled() -> list[Check]:
    return [
        _skip("symbol-availability", "disjoint symbol recovery sets", "availability disabled"),
        _skip("node-availability", "disjoint node recovery sets", "availability disabled"),
    ]


def _availability_check(m: _Measure, kind, r, expected, description, *, note="", skip_note="", proven=None) -> Check:
    """Worst packing of disjoint helper sets over every node or symbol.

    A value proven by a certificate is taken as it is: it enumerates nothing,
    so neither the packing cap nor the enumeration limit applies. Otherwise
    skipped when r > 1 and the helper sets of size <= r outnumber the packing
    cap, or over the enumeration limit; so every packing measured is exact,
    single columns being disjoint. With expected None the value is reported.
    """
    check_id, what, code = f"{kind}-availability", f"disjoint {kind} helper sets", m.code
    if proven is None:
        budget = _candidate_count(code.n, r)
        if r > 1 and budget > m.exact_cap:
            return _skip(check_id, what, f"candidate enumeration {budget} over cap{skip_note}")
        try:
            group = _nonzero_targets(code, kind, r)
            [worst] = _worst_availability(code, [group], exact_cap=m.exact_cap, limit=m.limit)
        except TooLarge as exc:
            return _skip(check_id, what, f"{exc}{skip_note}")
        assert worst.exact, "single-column pools and pools within the cap pack exactly"
        proven = worst.value
    measured = f"{proven} (exact)"
    if expected is None:
        return _info(check_id, measured, note)
    return _cond(check_id, description, _meets(expected, proven), expected, measured, note)


def _dual_distance_checks(m: _Measure, skip="", *, claimed=True) -> list[Check]:
    """Dual distance against the worst and the smallest symbol recovery size
    plus one, cross-checked by the exhaustive dual scan when it fits. For a
    user's block set (claimed False) the first is only reported, and the
    second is a bound: two blocks can meet in a vector outside both bases.
    A node with no recovery set leaves the second unmeasured; with b n = M
    every generator column is independent, so the dual code is trivial.
    """
    by_worst = "dual code distance equals worst symbol locality plus one"
    by_min = "dual code distance equals smallest symbol recovery size plus one"
    if not claimed:
        by_min = "dual code distance is at most smallest symbol recovery size plus one"
    if skip or m.code.b * m.code.n == m.code.M:
        trivial, no_locality = skip or "dual code is trivial", skip or m.locality_skip
        return [_skip("dual-distance", by_worst, trivial), _skip("dual-distance-min-symbol", by_min, no_locality)]
    d_dual, exhaustive = m.dual_distance, m.dual_scan
    verdict = "agrees" if exhaustive == d_dual else "disagrees"
    note = "" if exhaustive is None else f"exhaustive dual scan {verdict}: {exhaustive}"
    by_worst_claim = m.profile.symbol_locality + 1 if claimed else None
    checks = [_expect("dual-distance", by_worst, by_worst_claim, d_dual, note)]
    if exhaustive is not None and exhaustive != d_dual:
        description = "support search agrees with exhaustive dual scan"
        checks.append(_cond("dual-distance-cross-check", description, False, d_dual, exhaustive))
    if m.locality_skip:
        return checks + [_skip("dual-distance-min-symbol", by_min, m.locality_skip)]
    # a nonzero symbol needs a helper and a zero symbol's witness is empty
    min_sym = min(w.size for row in m.profile.symbol_witnesses for w in row if w.size)
    by_min_claim = min_sym + 1 if claimed else _Range(1, min_sym + 1)
    checks.append(_expect("dual-distance-min-symbol", by_min, by_min_claim, d_dual))
    return checks


def _covering_check(check_id, description, perf, expected=None, *, ball=None) -> Check:
    """Covering ratio of the radius-1 balls against its closed form, or
    perfectness with the given ball size."""
    if ball is None:
        return _expect(check_id, description, expected, perf.ratio)
    return _cond(
        check_id,
        description,
        perf.is_perfect and perf.phi1 == ball,
        f"perfect, ball size {ball}",
        f"perfect={perf.is_perfect}, ball size {perf.phi1}, ratio {perf.ratio}",
    )


# --- full width-b family -----------------------------------------------------


def verify_all_subspaces(
    field,
    M: int,
    b: int,
    *,
    limit: int | None = None,
    exact_cap: int = DEFAULT_PACKING_CAP,
    availability: bool = True,
) -> VerificationSuite:
    q = field.q
    if not 1 <= b < M:
        raise BadParams(f"need 1 <= b < M, got b={b}, M={M}")
    code = construction_all_subspaces(field, M, b, limit=limit)
    m = _Measure(code, limit, exact_cap)

    d_expected = gaussian(M, b, q) - gaussian(M - 1, b, q)
    assert d_expected == q ** (M - b) * gaussian(M - 1, b - 1, q), "the two closed forms must agree"
    checks = [
        _expect("column-count", "one column per width-b subspace", gaussian(M, b, q), code.n),
        _cond(
            "column-rank",
            "every associated subspace has full width",
            all(s.dim == b for s in code.subspaces),
            "all width b",
            f"{sum(1 for s in code.subspaces if s.dim == b)}/{code.n} full",
        ),
        _distance(m, d_expected, "exhaustive distance matches the closed form"),
        _constant_weight(m),
        *_locality_checks(m, 1 if b > 1 else 2, 2),
        *(_all_subspaces_availability(m) if availability else _availability_disabled()),
        *_dual_distance_checks(m),
    ]
    return VerificationSuite(
        "all-subspaces", {"q": q, "M": M, "b": b}, tuple(checks)
    )


def _all_subspaces_availability(m: _Measure) -> list[Check]:
    code, M, b, q = m.code, m.code.M, m.code.b, m.code.field.q
    r_s, r_n = m.profile.symbol_locality, m.profile.node_locality

    # symbol availability: worst over symbols, helper sets of size <= r_s
    description = "disjoint symbol helper sets within the symbol locality"
    if b >= 2:
        expected, note = gaussian(M - 1, b - 1, q) - 1, ""
    else:
        expected = _Range(Fraction(q ** (M - 1) - 1, 2))
        note = "claimed closed form is non-integral at q=2; read as a lower bound and report the exact packing"
    checks = [_availability_check(m, "symbol", r_s, expected, description, note=note)]
    if b != 2:
        note = "no closed form claimed at this width; measured value reported"
        checks.append(_availability_check(m, "node", r_n, None, "", note=note))
        return checks

    # node availability via the explicit pair family when b = 2; the columns
    # are the Grassmannian in enumeration order, the order of the pairings
    pairings = grassmann_pairing(code.field, M, limit=m.limit)
    valid = _pairs_hold(code, pairings)
    covered = all(p.covered == p.total_others for p in pairings)
    smallest = min(len(p.pairs) for p in pairings)
    half = (gaussian(M, 2, q) - 1) // 2
    if q % 2 == 0:
        checks.append(
            _cond(
                "pairing-family",
                "explicit pair family is valid, disjoint, and covers every other subspace",
                valid and covered and smallest == half,
                f"{half} pairs covering all",
                f"min family {smallest}, covering={covered}, valid={valid}",
            )
        )
        expected, description = half, "exact packing achieves half the remaining subspace count"
    else:
        lb = Fraction(
            gaussian(M, 2, q) - 1 - q * (q**2 + q - 1) * gaussian_or_zero(M - 2, 2, q), 2
        )
        checks.append(
            _cond(
                "pairing-family",
                "explicit pair family is valid, disjoint, and meets the lower bound",
                valid and smallest >= lb,
                f">= {lb}",
                f"min family {smallest}, valid={valid}",
            )
        )
        expected, description = _Range(lb), "exact packing meets the pair-family lower bound"
    # with no single helper holding a node, every helper set takes two of the
    # other n - 1 columns: valid families of (n - 1) // 2 pairs pack maximally
    alone = any(w.size < 2 for w in m.profile.node_witnesses)
    proven = smallest if valid and not alone and smallest == (code.n - 1) // 2 else None
    skip_note = f"; pair family still proves >= {smallest}"
    checks.append(_availability_check(m, "node", r_n, expected, description, skip_note=skip_note, proven=proven))
    return checks


def _pairs_hold(code: ArrayCode, pairings) -> bool:
    """Whether each pair's sum holds its target nodes: the generator reduced modulo
    both helpers is zero there. Each unordered pair is reduced once, smaller
    index first, for the flags of every target it is listed for, and the
    reduction modulo a first helper is made once."""
    gen, targets, first = code._packed_generator, {}, {}
    for pairing in pairings:
        flag = gen.flag(pairing.target_index, None)
        for a, c in pairing.pairs:
            pair = (a, c) if a < c else (c, a)
            targets[pair] = targets.get(pair, 0) | flag
    for (a, c), flags in targets.items():
        if a not in first:
            first[a] = gen.eliminate(gen.rows, a)
        if gen.unheld(gen.eliminate(first[a], c)) & flags:
            return False
    return True


# --- spread codes --------------------------------------------------------------


def verify_spread_code(
    field,
    M: int,
    b: int,
    *,
    method: str = "gabidulin-echelon",
    limit: int | None = None,
) -> VerificationSuite:
    q = field.q
    design = build_spread(field, M, b, method)
    design_check = _design_check(verify_spread(design, limit=limit), "spread")
    code = _spread_code(design)
    m = _Measure(code, limit)

    few = "fewer than three columns" if code.n < 3 else ""
    tiling = "radius-1 balls around dual codewords tile the space"
    if M == 2 * b:
        node, node_description = 2, "worst-case smallest node recovery set"
    else:
        node = _Range(2, min(b + 1, M // b))
        node_description = "node locality within the claimed bracket"
    checks = [
        design_check,
        _expect("column-count", "one column per spread block", (q**M - 1) // (q**b - 1), code.n),
        _distance(m, q ** (M - b), "exhaustive distance is q^(M-b)"),
        _constant_weight(m),
        *_locality_checks(m, 2, node, node_description=node_description, skip=few),
        _mds_check(m, M == 2 * b),
        *_dual_distance_checks(m, skip=few),
        _covering_check("dual-perfect", tiling, dual_perfectness(code), ball=q**M),
    ]
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
) -> VerificationSuite:
    q = field.q
    m_dim = M - b
    design = _std_design(field, t, b, M)
    design_check = _design_check(verify_std(design, limit=limit), "transversal design")
    code = _std_code(design, "par", class_index)
    m = _Measure(code, limit)

    d_expected = q ** (M - b) - q ** (M - 2 * b)
    note = (
        "the documented q=2 value is 3, but any two class blocks differ by a full-rank"
        " matrix, so their subspaces span everything at M=2b and two helpers always"
        " suffice; the value 3 requires M>2b"
    ) if q == 2 and M == 2 * b else ""
    checks = [
        design_check,
        _expect("column-count", "one column per class block", q**m_dim, code.n),
        _distance(m, d_expected, "exhaustive distance matches the closed form"),
        _std_par_weights(m, d_expected),
        *_locality_checks(m, 2, 3 if q == 2 and M > 2 * b else 2, note=note),
        _mds_check(m, M == 2 * b),
        *_dual_distance_checks(m),
        _covering_check(
            "dual-ball-ratio",
            "dual covering ratio equals 1 + q^-M - q^-b exactly",
            dual_perfectness(code),
            Fraction(1 + q**M - q ** (M - b), q**M),
        ),
    ]
    return VerificationSuite(
        "std-par", {"q": q, "t": t, "b": b, "M": M, "class": class_index}, tuple(checks)
    )


def _std_par_weights(m: _Measure, d_expected: int) -> Check:
    """Support {0, d, full weight}, with 2^b-1 or q^b-1 full-weight codewords."""
    q, b = m.code.field.q, m.code.b
    full = q ** (m.code.M - b)

    def build():
        wd = m.weights
        k = wd.get(full, 0)
        two_b, q_b = 2**b - 1, q**b - 1
        if k == q_b:
            which = f"full-weight count matches q^b-1 = {q_b}" + (" (= 2^b-1)" if two_b == q_b else "")
        elif k == two_b:
            which = f"full-weight count matches 2^b-1 = {two_b}, not q^b-1 = {q_b}"
        else:
            which = f"full-weight count {k} matches neither 2^b-1 = {two_b} nor q^b-1 = {q_b}"
        return _cond(
            "weight-distribution",
            "support points {0, d, full weight} with an admissible full-weight count",
            set(wd) <= {0, d_expected, full} and wd.get(0) == 1 and k in (q_b, two_b),
            f"{{0: 1, {d_expected}: rest, {full}: 2^b-1 or q^b-1}}",
            wd,
            which,
        )

    return _scanned(m, "weight-distribution", "three support points", "-", build)


# --- full design codes ----------------------------------------------------------


def verify_std_full(
    field,
    t: int,
    b: int,
    M: int,
    *,
    limit: int | None = None,
    exact_cap: int = DEFAULT_PACKING_CAP,
    availability: bool = True,
) -> VerificationSuite:
    q = field.q
    m_dim = M - b
    design = _std_design(field, t, b, M)
    design_check = _design_check(verify_std(design, limit=limit), "transversal design")
    code = _std_code(design, "full")
    m = _Measure(code, limit, exact_cap)

    d_expected = q ** (m_dim * (t - 1)) * (q**m_dim - q ** (m_dim - b))
    at_least_two = "at least two helpers are needed for a whole node"
    if not availability:
        avail = _availability_disabled()
    elif t >= 2:
        r_s, expected = m.profile.symbol_locality, q ** (m_dim * (t - 1)) - 1
        avail = [_availability_check(m, "symbol", r_s, expected, "disjoint singleton helpers per symbol")]
    else:
        avail = [_skip("symbol-availability", "disjoint helpers per symbol", "claimed only for t >= 2")]
    checks = [
        design_check,
        _expect("column-count", "one column per design block", q ** (m_dim * t), code.n),
        _distance(m, d_expected, "exhaustive distance matches the closed form"),
        *_locality_checks(m, 1 if t >= 2 else 2, _Range(2), node_description=at_least_two),
        *avail,
        *_dual_distance_checks(m),
    ]
    return VerificationSuite(
        "std-full", {"q": q, "t": t, "b": b, "M": M}, tuple(checks)
    )


# --- generic block sets ----------------------------------------------------------


def verify_blocks(code: ArrayCode, *, limit: int | None = None) -> VerificationSuite:
    """Report-style suite for a user-supplied block set."""
    q = code.field.q
    m = _Measure(code, limit)
    covered = steiner_parameters(code.field, code.subspaces, limit=limit)
    note = "every subspace of the listed dimensions lies in exactly one block"
    steiner = _info("steiner", f"t in {sorted(covered)}", note) if covered else _info("steiner", "none")
    full = sum(1 for s in code.subspaces if s.dim == code.b)
    checks = [
        _info("column-rank", f"{full}/{code.n} full width"),
        steiner,
        _distance(m, None, ""),
        _scanned(
            m, "weight-distribution", "exhaustive weight distribution", "-",
            lambda: _info("weight-distribution", m.weights),
        ),
        *_locality_checks(m, None, None),
        _skip("locality-order", "symbol locality never exceeds node locality", m.locality_skip)
        if m.locality_skip
        else _cond(
            "locality-order",
            "symbol locality never exceeds node locality",
            m.profile.symbol_locality <= m.profile.node_locality,
            "r_s <= r_n",
            f"r_s={m.profile.symbol_locality}, r_n={m.profile.node_locality}",
        ),
        *_dual_distance_checks(m, claimed=False),
        _covering_check("ball-ratio", "", perfectness(code)),
    ]
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
    exact_cap: int = DEFAULT_PACKING_CAP,
    availability: bool = True,
) -> VerificationSuite:
    if construction == "all-subspaces":
        return verify_all_subspaces(
            field, M, b, limit=limit, exact_cap=exact_cap, availability=availability
        )
    if construction == "spread":
        return verify_spread_code(field, M, b, method=method, limit=limit)
    if construction == "std-par":
        return verify_std_par(field, t, b, M, class_index=class_index, limit=limit)
    if construction == "std-full":
        return verify_std_full(
            field, t, b, M, limit=limit, exact_cap=exact_cap, availability=availability
        )
    if construction == "from-blocks":
        return verify_blocks(construction_from_blocks(field, blocks), limit=limit)
    raise BadParams(f"unknown construction {construction!r}")
