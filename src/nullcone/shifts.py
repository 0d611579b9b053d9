"""Classification of the weights rho - alpha and rho + alpha over positive roots.

For every positive root alpha the weight rho - alpha is regular dominant
after one simple reflection when alpha is simple and not regular otherwise;
rho + alpha is regular dominant when alpha is the highest root, and among
the remaining roots it is regular for a short per-family list of values.
This module produces machine-checkable verdicts for both shifts, compares
them against the stated per-family classification, and verifies the
transcribed fixed-point tables for E6/E7/E8/F4 shipped under ``data/``.

Soundness contract: every verdict carries evidence that is checked against
the direct pairing predicates of :mod:`nullcone.roots` (a zero-pairing
positive root for ``not_regular``, a simple index whose reflection lands on
a regular dominant weight for ``regular_after_reflection``).  The stated
classification is the system under test; the pairing oracle is the ground
truth, and any disagreement between them becomes a reported discrepancy
rather than a silent fix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .roots import RootSystem, build_root_system

REGULAR_DOMINANT = "regular_dominant"
REGULAR_AFTER_REFLECTION = "regular_after_reflection"
NOT_REGULAR = "not_regular"

#: claimed number of non-highest roots alpha with rho + alpha regular
CLAIMED_PLUS_COUNTS = {"A": 0, "B": 2, "C": 1, "D": 1, "E": 0, "F": 2, "G": 2}


@dataclass(frozen=True)
class ShiftVerdict:
    shift: str  # 'minus' | 'plus'
    alpha: tuple
    status: str
    witness: object = None  # root with zero pairing, or a simple index


@dataclass(frozen=True)
class CheckOutcome:
    check_id: str
    claim: str
    ok: bool
    witness: object = None


# -- verdicts ---------------------------------------------------------------


def _evidence_verdict(rs: RootSystem, alpha, sign: int) -> ShiftVerdict:
    alpha = tuple(alpha)
    if not rs.is_positive_root(alpha):
        raise ValueError(f"{alpha} is not a positive root of {rs.stype}")
    shift = "minus" if sign < 0 else "plus"
    lam = rs.rho_shift(alpha, sign)
    gamma = rs.zero_pairing_witness(lam)
    if gamma is not None:
        return ShiftVerdict(shift, alpha, NOT_REGULAR, gamma)
    if rs.is_dominant(lam):
        return ShiftVerdict(shift, alpha, REGULAR_DOMINANT)
    for i in range(1, rs.rank + 1):
        refl = rs.reflect(lam, i)
        if rs.is_dominant(refl) and rs.is_regular(refl):
            return ShiftVerdict(shift, alpha, REGULAR_AFTER_REFLECTION, i)
    raise ArithmeticError(
        f"{rs.stype}: rho{'-' if sign < 0 else '+'}{alpha} is regular but no single "
        "simple reflection makes it dominant; outside the supported classification"
    )


def classify_rho_minus(rs: RootSystem, alpha) -> ShiftVerdict:
    """Verdict for rho - alpha; alpha must be a positive root."""
    return _evidence_verdict(rs, alpha, -1)


def classify_rho_plus(rs: RootSystem, alpha) -> ShiftVerdict:
    """Verdict for rho + alpha; alpha must be a positive root."""
    return _evidence_verdict(rs, alpha, +1)


def verdict_evidence_ok(rs: RootSystem, v: ShiftVerdict) -> bool:
    """Validate a verdict's evidence against the direct pairing predicates."""
    sign = -1 if v.shift == "minus" else +1
    lam = rs.rho_shift(v.alpha, sign)
    if v.status == NOT_REGULAR:
        return rs.is_positive_root(v.witness) and rs.pairing(lam, v.witness) == 0
    if v.status == REGULAR_DOMINANT:
        return rs.is_regular(lam) and rs.is_dominant(lam)
    refl = rs.reflect(lam, v.witness)
    return (
        rs.is_regular(lam)
        and not rs.is_dominant(lam)
        and rs.is_regular(refl)
        and rs.is_dominant(refl)
    )


# -- the stated classification ----------------------------------------------


def _designated_plus_values(rs: RootSystem) -> list:
    """The stated non-highest values of alpha with rho + alpha regular.

    Each entry is (alpha, stated status, reflection index or None).  For
    type D the designated value printed in the source coincides with the
    highest root; it is returned as-is so the verifier can flag it.
    """
    fam, n = rs.stype.family, rs.rank
    if fam in ("A", "E"):
        return []
    if fam == "B":
        return [
            ((1,) * n, REGULAR_DOMINANT, None),
            ((1,) * (n - 1) + (0,), REGULAR_AFTER_REFLECTION, n),
        ]
    if fam == "C":
        return [((1,) + (2,) * (n - 2) + (1,), REGULAR_DOMINANT, None)]
    if fam == "D":
        return [((1,) + (2,) * (n - 3) + (1, 1), REGULAR_DOMINANT, None)]
    if fam == "F":
        return [
            ((1, 2, 3, 2), REGULAR_DOMINANT, None),
            ((1, 2, 2, 2), REGULAR_AFTER_REFLECTION, 3),
        ]
    return [((2, 1), REGULAR_DOMINANT, None), ((0, 1), REGULAR_AFTER_REFLECTION, 1)]


def predicted_minus_status(rs: RootSystem, alpha) -> str:
    """Stated classification of rho - alpha."""
    return REGULAR_AFTER_REFLECTION if rs.is_simple(alpha) else NOT_REGULAR


def predicted_plus_status(rs: RootSystem, alpha) -> str:
    """Stated classification of rho + alpha."""
    alpha = tuple(alpha)
    if alpha == rs.highest_root:
        return REGULAR_DOMINANT
    for val, status, _ in _designated_plus_values(rs):
        if alpha == val and val != rs.highest_root:
            return status
    return NOT_REGULAR


def reflection_fixes_shift(rs: RootSystem, alpha, i: int, sign: int) -> bool:
    """Whether s_{beta_i} fixes rho + sign*alpha (i.e. the pairing vanishes)."""
    return rs.rho_shift(alpha, sign)[i - 1] == 0


def neighbor_sum_identity(rs: RootSystem, alpha, i: int, sign: int) -> bool:
    """The printed coordinate form of the fixed-point condition.

    2*n_i - 1 = sum of neighbour coordinates for the minus shift and
    2*n_i + 1 = ... for the plus shift; as printed this is only valid in
    simply-laced types (all root lengths equal).
    """
    if rs.stype.family not in ("A", "D", "E"):
        raise ValueError("neighbour-sum form only applies to simply-laced types")
    k = i - 1
    total = sum(alpha[j] for j in range(rs.rank) if j != k and rs.cartan[k][j] != 0)
    return 2 * alpha[k] + sign == total


# printed F4 minus-table conditions, one per simple index
_F4_MINUS_CONDITIONS = {
    1: lambda n: n[1] == 2 * n[0] - 1,
    2: lambda n: n[0] + n[2] == 2 * n[1] - 1,
    3: lambda n: 2 * n[1] + n[3] == 2 * n[2] - 1,
    4: lambda n: n[2] == 2 * n[3] - 1,
}


# -- table data --------------------------------------------------------------

_DISPLAY_PERMUTES_FIRST_TWO = ("E",)


def display_to_coords(family: str, disp) -> tuple:
    """Undo a table's display ordering ([n2, n1, n3, ...] for type E)."""
    disp = tuple(disp)
    if family in _DISPLAY_PERMUTES_FIRST_TWO:
        return (disp[1], disp[0]) + disp[2:]
    return disp


@dataclass
class ShiftTables:
    family: str
    rank: int
    roots: dict  # shift -> {label: display coords}
    assigns: dict  # shift -> {i: [labels]}  (as printed)
    errata: list = field(default_factory=list)  # (kind, shift, ...) records
    reductions: dict = field(default_factory=dict)  # shift -> [(i, label, target)]

    def coords(self, shift: str, label: int) -> tuple:
        return display_to_coords(self.family, self.roots[shift][label])

    def effective_assigns(self, shift: str) -> dict:
        """Assignments with the documented errata applied."""
        out = {i: list(js) for i, js in self.assigns[shift].items()}
        for rec in self.errata:
            if rec[0] == "move" and rec[1] == shift:
                _, _, label, i_src, i_dst = rec
                out[i_src].remove(label)
                out.setdefault(i_dst, []).append(label)
            elif rec[0] == "swap" and rec[1] == shift:
                _, _, i, j_src, j_dst = rec
                out[i][out[i].index(j_src)] = j_dst
        return out


_TABLE_FILES = {
    ("E", 6): "e6_shift_tables.txt",
    ("E", 7): "e7_shift_tables.txt",
    ("E", 8): "e8_shift_tables.txt",
    ("F", 4): "f4_shift_tables.txt",
}

_MOVE_RE = re.compile(r"^move (minus|plus) (\d+) : (\d+) -> (\d+)$")
_SWAP_RE = re.compile(r"^swap (minus|plus) (\d+) : (\d+) -> (\d+)$")
_REDUCE_RE = re.compile(r"^reduce-(minus|plus) (\d+) (\d+) -> (r (\d+)|c ([\d ]+))$")


def has_shift_tables(family: str, rank: int) -> bool:
    return (family, rank) in _TABLE_FILES


def load_shift_tables(family: str, rank: int) -> ShiftTables:
    """Parse one of the table data files shipped under ``data/``."""
    fname = _TABLE_FILES[(family, rank)]
    text = resources.files("nullcone.data").joinpath(fname).read_text()
    shared_roots: dict = {}
    tables = ShiftTables(
        family=family,
        rank=rank,
        roots={"minus": {}, "plus": {}},
        assigns={"minus": {}, "plus": {}},
        reductions={"minus": [], "plus": []},
    )
    split_roots = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _MOVE_RE.match(line)
        if m:
            shift, label, i_src, i_dst = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
            tables.errata.append(("move", shift, label, i_src, i_dst))
            continue
        m = _SWAP_RE.match(line)
        if m:
            shift, i, j_src, j_dst = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
            tables.errata.append(("swap", shift, i, j_src, j_dst))
            continue
        m = _REDUCE_RE.match(line)
        if m:
            shift, i, label = m.group(1), int(m.group(2)), int(m.group(3))
            if m.group(5) is not None:
                target = ("r", int(m.group(5)))
            else:
                target = ("c", tuple(int(x) for x in m.group(6).split()))
            tables.reductions[shift].append((i, label, target))
            continue
        head, _, tail = line.partition("|")
        head = head.split()
        if head[0] == "root":
            shared_roots[int(head[1])] = tuple(int(x) for x in tail.split())
        elif head[0] in ("root-minus", "root-plus"):
            split_roots = True
            shift = head[0].split("-")[1]
            tables.roots[shift][int(head[1])] = tuple(int(x) for x in tail.split())
        elif head[0] in ("minus", "plus"):
            tables.assigns[head[0]][int(head[1])] = [int(x) for x in tail.split()]
        else:
            raise ValueError(f"unrecognized table record: {raw!r}")
    if not split_roots:
        tables.roots = {"minus": dict(shared_roots), "plus": dict(shared_roots)}
    return tables


# -- verification -----------------------------------------------------------


def _expected_table_roots(rs: RootSystem, shift: str) -> set:
    """Which positive roots the transcribed lists are supposed to contain."""
    fam, n = rs.stype.family, rs.rank
    high = {r for r in rs.positive_roots if max(r) >= 2}
    if fam == "E" and n in (7, 8):
        return {r for r in high if r[n - 1] != 0}
    if fam == "F" and shift == "plus":
        skip = {rs.highest_root, (1, 2, 3, 2), (1, 2, 2, 2)}
        return set(rs.positive_roots) - skip
    return high


def _row_identity_ok(rs: RootSystem, alpha, i: int, sign: int) -> bool:
    """The printed form of a table row's claim for one root."""
    if rs.stype.family == "E":
        return neighbor_sum_identity(rs, alpha, i, sign)
    if rs.stype.family == "F" and sign < 0:
        return _F4_MINUS_CONDITIONS[i](alpha)
    return reflection_fixes_shift(rs, alpha, i, sign)


def verify_shift_tables(rs: RootSystem) -> list:
    """Check the transcribed tables for one of E6/E7/E8/F4.

    Every row entry must satisfy the printed coordinate identity, and the
    corresponding reflection must actually fix the shifted weight; errata
    are validated in both directions (the printed entry fails, the corrected
    one holds); the root lists and the row coverage are checked complete.
    """
    fam, n = rs.stype.family, rs.rank
    tables = load_shift_tables(fam, n)
    tname = rs.stype.name
    out = []

    for shift in ("minus", "plus"):
        sign = -1 if shift == "minus" else +1
        labels = tables.roots[shift]
        decoded = {j: display_to_coords(fam, d) for j, d in labels.items()}
        out.append(
            CheckOutcome(
                f"{tname}/table-decode-{shift}",
                "every transcribed coordinate list decodes to a positive root",
                all(rs.is_positive_root(r) for r in decoded.values()),
                [j for j, r in decoded.items() if not rs.is_positive_root(r)] or None,
            )
        )
        expected = _expected_table_roots(rs, shift)
        out.append(
            CheckOutcome(
                f"{tname}/table-roots-complete-{shift}",
                "the transcribed list matches the intended root subset exactly",
                set(decoded.values()) == expected,
                {
                    "missing": sorted(expected - set(decoded.values())),
                    "extra": sorted(set(decoded.values()) - expected),
                }
                if set(decoded.values()) != expected
                else None,
            )
        )
        effective = tables.effective_assigns(shift)
        bad_rows = []
        for i, js in sorted(effective.items()):
            for j in js:
                alpha = decoded[j]
                lam = rs.rho_shift(alpha, sign)
                identity = _row_identity_ok(rs, alpha, i, sign)
                fixed = rs.reflect(lam, i) == lam
                if not (identity and fixed):
                    bad_rows.append((i, j, "identity" if not identity else "reflection"))
        out.append(
            CheckOutcome(
                f"{tname}/table-rows-{shift}",
                "every (i, j) assignment satisfies the printed identity and "
                "the reflection fixes the shifted weight",
                not bad_rows,
                bad_rows or None,
            )
        )
        covered = {j for js in effective.values() for j in js}
        for i, label, target in tables.reductions[shift]:
            covered.add(label)
        expected_labels = set(labels)
        if shift == "plus":
            # the highest root is excluded from the plus rows
            high_labels = {j for j, r in decoded.items() if r == rs.highest_root}
            expected_labels -= high_labels
        out.append(
            CheckOutcome(
                f"{tname}/table-coverage-{shift}",
                "rows plus reduction records cover every listed root "
                + ("except the highest" if shift == "plus" else ""),
                covered == expected_labels,
                sorted(expected_labels ^ covered) or None,
            )
        )
        bad_red = []
        for i, label, target in tables.reductions[shift]:
            alpha = decoded[label]
            if target[0] == "r":
                tgt = decoded[target[1]]
            else:
                tgt = display_to_coords(fam, target[1])
            lam = rs.rho_shift(alpha, sign)
            want = rs.rho_shift(tgt, sign)
            if rs.reflect(lam, i) != want or rs.is_regular(want):
                bad_red.append((i, label, tgt))
        out.append(
            CheckOutcome(
                f"{tname}/table-reductions-{shift}",
                "each reduction record is an exact weight equality onto a "
                "non-regular shift",
                not bad_red,
                bad_red or None,
            )
        )

    bad_err = []
    for rec in tables.errata:
        if rec[0] == "move":
            _, shift, label, i_src, i_dst = rec
            sign = -1 if shift == "minus" else +1
            alpha = display_to_coords(fam, tables.roots[shift][label])
            if _row_identity_ok(rs, alpha, i_src, sign) or not _row_identity_ok(
                rs, alpha, i_dst, sign
            ):
                bad_err.append(rec)
        else:
            _, shift, i, j_src, j_dst = rec
            sign = -1 if shift == "minus" else +1
            a_src = display_to_coords(fam, tables.roots[shift][j_src])
            a_dst = display_to_coords(fam, tables.roots[shift][j_dst])
            satisfiers = [
                j
                for j, d in tables.roots[shift].items()
                if _row_identity_ok(rs, display_to_coords(fam, d), i, sign)
            ]
            if (
                _row_identity_ok(rs, a_src, i, sign)
                or not _row_identity_ok(rs, a_dst, i, sign)
                or satisfiers != [j_dst]
            ):
                bad_err.append(rec)
    out.append(
        CheckOutcome(
            f"{tname}/table-errata",
            "every documented correction is justified: the printed entry fails "
            "its identity and the corrected one holds",
            not bad_err,
            bad_err or None,
        )
    )
    return out


def verify_subsystem_reduction(rs: RootSystem) -> list:
    """E7/E8: roots with last coordinate 0 reduce to the lower-rank system.

    For such a root the lower system's fixed-point index still works after
    embedding (the extra node contributes 0 to every neighbour sum), except
    for the lower system's highest root on the plus side, where the new
    node's reflection provides the fixed point.
    """
    fam, n = rs.stype.family, rs.rank
    assert fam == "E" and n in (7, 8)
    tname = rs.stype.name
    bad = []
    low = build_root_system("E", n - 1)
    for alpha in rs.positive_roots:
        if max(alpha) < 2 or alpha[n - 1] != 0:
            continue
        sub = alpha[: n - 1]
        for sign in (-1, +1):
            if sign > 0 and sub == low.highest_root:
                ok = reflection_fixes_shift(rs, alpha, n, sign)
                if not ok:
                    bad.append((alpha, sign, n))
                continue
            idx = [
                i
                for i in range(1, n)
                if reflection_fixes_shift(low, sub, i, sign)
            ]
            if not idx or not any(
                reflection_fixes_shift(rs, alpha, i, sign) for i in idx
            ):
                bad.append((alpha, sign, idx))
    return [
        CheckOutcome(
            f"{tname}/subsystem-reduction",
            "every high-coordinate root with last coordinate 0 inherits its "
            "fixed point from the lower-rank subsystem",
            not bad,
            bad or None,
        )
    ]


_G2_INLINE = [
    # (sign, alpha, i, expected image as a shift of the same sign, or None if fixed)
    (-1, (2, 1), 1, None),
    (-1, (3, 2), 2, None),
    (-1, (3, 1), 1, (1, 1)),
    (+1, (1, 0), 2, None),
    (+1, (1, 1), 1, None),
    (+1, (3, 1), 2, None),
    (+1, (0, 1), 1, (2, 1)),
]


def verify_g2_inline(rs: RootSystem) -> list:
    """The explicit G2 reflection identities, checked as weight equalities."""
    assert rs.stype.family == "G"
    bad = []
    for sign, alpha, i, target in _G2_INLINE:
        lam = rs.rho_shift(alpha, sign)
        img = rs.reflect(lam, i)
        want = lam if target is None else rs.rho_shift(target, sign)
        if img != want:
            bad.append((sign, alpha, i))
    return [
        CheckOutcome(
            "G2/inline-equalities",
            "the explicit G2 reflection identities hold as stated",
            not bad,
            bad or None,
        )
    ]


def verify_low_coordinate_roots(rs: RootSystem) -> list:
    """Roots with all coordinates <= 1 admit the generic simple fixed point.

    For the minus shift every non-simple such root is fixed by some s_i with
    coordinate pairing one; for the plus shift every such root other than
    the highest admits a simple fixed point as well.  (Simply-laced types.)
    """
    tname = rs.stype.name
    bad = []
    for alpha in rs.positive_roots:
        if max(alpha) >= 2:
            continue
        if not rs.is_simple(alpha):
            if not any(
                reflection_fixes_shift(rs, alpha, i, -1) for i in range(1, rs.rank + 1)
            ):
                bad.append(("minus", alpha))
        if alpha != rs.highest_root:
            if not any(
                reflection_fixes_shift(rs, alpha, i, +1) for i in range(1, rs.rank + 1)
            ):
                bad.append(("plus", alpha))
    return [
        CheckOutcome(
            f"{tname}/low-coordinate-roots",
            "sums of distinct simple roots are handled by a single simple "
            "fixed point on both shifts",
            not bad,
            bad or None,
        )
    ]


def classification_report(rs: RootSystem) -> list:
    """Compare verdicts, oracle predicates and the stated classification."""
    tname = rs.stype.name
    out = []
    minus_bad, plus_bad, evidence_bad = [], [], []
    minus_pred_bad, plus_pred_bad = [], []
    plus_regular = []
    for alpha in rs.positive_roots:
        vm = classify_rho_minus(rs, alpha)
        vp = classify_rho_plus(rs, alpha)
        for v, bucket in ((vm, minus_bad), (vp, plus_bad)):
            lam = rs.rho_shift(alpha, -1 if v.shift == "minus" else +1)
            if (v.status == NOT_REGULAR) == rs.is_regular(lam):
                bucket.append(alpha)
        for v in (vm, vp):
            if not verdict_evidence_ok(rs, v):
                evidence_bad.append((v.shift, alpha))
        if predicted_minus_status(rs, alpha) != vm.status:
            minus_pred_bad.append((alpha, predicted_minus_status(rs, alpha), vm.status))
        if predicted_plus_status(rs, alpha) != vp.status:
            plus_pred_bad.append((alpha, predicted_plus_status(rs, alpha), vp.status))
        if vp.status != NOT_REGULAR and alpha != rs.highest_root:
            plus_regular.append((alpha, vp))

    out.append(
        CheckOutcome(
            f"{tname}/oracle-agreement",
            "classifier verdicts agree with the direct pairing oracle on "
            "regularity for every positive root and both shifts",
            not (minus_bad or plus_bad),
            {"minus": minus_bad, "plus": plus_bad} if minus_bad or plus_bad else None,
        )
    )
    out.append(
        CheckOutcome(
            f"{tname}/verdict-evidence",
            "every verdict carries valid evidence (zero-pairing witness or "
            "dominant-making reflection)",
            not evidence_bad,
            evidence_bad or None,
        )
    )
    out.append(
        CheckOutcome(
            f"{tname}/stated-minus-classification",
            "rho - alpha: simple roots are regular after one reflection, all "
            "other roots are not regular",
            not minus_pred_bad,
            minus_pred_bad or None,
        )
    )
    out.append(
        CheckOutcome(
            f"{tname}/stated-plus-classification",
            "rho + alpha: regular exactly at the highest root and the stated "
            "per-family values",
            not plus_pred_bad,
            plus_pred_bad or None,
        )
    )

    claimed = CLAIMED_PLUS_COUNTS[rs.stype.family]
    out.append(
        CheckOutcome(
            f"{tname}/plus-regular-count",
            f"number of non-highest roots with rho + alpha regular equals the "
            f"stated {claimed}",
            len(plus_regular) == claimed,
            {
                "stated": claimed,
                "actual": len(plus_regular),
                "roots": [a for a, _ in plus_regular],
            }
            if len(plus_regular) != claimed
            else None,
        )
    )

    designated = _designated_plus_values(rs)
    bad_designated = []
    for val, status, refl in designated:
        if not rs.is_positive_root(val):
            bad_designated.append((val, "not a root"))
            continue
        if val == rs.highest_root:
            bad_designated.append((val, "designated value equals the highest root"))
            continue
        v = classify_rho_plus(rs, val)
        if v.status != status or (refl is not None and v.witness != refl):
            bad_designated.append((val, f"stated {status}, got {v.status}"))
    out.append(
        CheckOutcome(
            f"{tname}/plus-designated-values",
            "each stated regular value of the plus shift is a non-highest "
            "root with the stated status and reflection",
            not bad_designated,
            bad_designated or None,
        )
    )

    bad_refl = [
        (a, v.status)
        for a, v in plus_regular
        if not rs.is_dominant(rs.rho_shift(a, +1)) and v.status != REGULAR_AFTER_REFLECTION
    ]
    out.append(
        CheckOutcome(
            f"{tname}/plus-reflection-to-dominant",
            "every non-dominant regular plus shift becomes regular dominant "
            "after one simple reflection",
            not bad_refl,
            bad_refl or None,
        )
    )
    return out


def full_shift_report(rs: RootSystem) -> list:
    """All shift checks applicable to one root system."""
    out = classification_report(rs)
    fam, n = rs.stype.family, rs.rank
    if fam in ("A", "D", "E"):
        out.extend(verify_low_coordinate_roots(rs))
    if has_shift_tables(fam, n):
        out.extend(verify_shift_tables(rs))
    if fam == "E" and n in (7, 8):
        out.extend(verify_subsystem_reduction(rs))
    if fam == "G":
        out.extend(verify_g2_inline(rs))
    return out
