"""Classification of the weights rho - alpha and rho + alpha over positive roots.

For every positive root alpha the weight rho - alpha is regular dominant
after one simple reflection when alpha is simple and not regular otherwise;
rho + alpha is regular dominant when alpha is the highest root, and among
the remaining roots it is regular for a short per-family list of values.
This module produces machine-checkable verdicts for both shifts, compares
them against the stated per-family classification, and verifies the
transcribed fixed-point tables for E6/E7/E8/F4 shipped under ``data/``.
The loader decodes the tables' display order once; a line it cannot read,
a missing label, a misplaced erratum or a row index outside 1..rank fails
a ``table-*`` record instead of stopping the run.

Soundness contract: every verdict carries evidence that is checked against
the direct pairing predicates of :mod:`nullcone.roots` (a zero-pairing
positive root for ``not_regular``, a simple index whose reflection lands on
a regular dominant weight for ``regular_after_reflection``, and for
``beyond_one_reflection`` a regular non-dominant weight that no simple
reflection makes regular dominant, which no stated classification allows).
The stated classification is the system under test; the pairing oracle is
the ground truth, and any disagreement between them becomes a reported
discrepancy rather than a silent fix.

A report builds the weights rho - alpha and rho + alpha of every positive
root once (``_shift_rows``); the classifier, the evidence checks and the
table, low-coordinate, subsystem and reduction checks read them.  The
classifier finds zero pairings with ``RootSystem.zero_pairing_witness``,
one integer pass over the coroot table packed into byte lanes.  The
oracle-agreement check shares neither that kernel nor the coroot table:
it scans the positive roots one at a time and pairs through the invariant
form, so it fails a coroot that moves a verdict.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from itertools import repeat
from math import lcm
from operator import mul

from .roots import RootSystem, build_root_system

REGULAR_DOMINANT = "regular_dominant"
REGULAR_AFTER_REFLECTION = "regular_after_reflection"
NOT_REGULAR = "not_regular"
BEYOND_ONE_REFLECTION = "beyond_one_reflection"

#: claimed number of non-highest roots alpha with rho + alpha regular
CLAIMED_PLUS_COUNTS = {"A": 0, "B": 2, "C": 1, "D": 1, "E": 0, "F": 2, "G": 2}


class ShiftVerdict(namedtuple("ShiftVerdict", "shift alpha status witness", defaults=(None,))):
    """The verdict on rho + alpha (``shift`` 'plus') or rho - alpha ('minus').

    ``witness`` is the root with zero pairing or the simple index whose
    reflection the status names, and None for the other statuses.
    """

    __slots__ = ()


class CheckOutcome(namedtuple("CheckOutcome", "check_id claim ok witness", defaults=(None,))):
    """One shift check: whether the claim held, and the failure that broke it."""

    __slots__ = ()


# -- verdicts ---------------------------------------------------------------

_SIGNS = {"minus": -1, "plus": +1}


def _outcome(check_id: str, claim: str, failure) -> CheckOutcome:
    """The one outcome rule: pass exactly when ``failure`` is empty.

    A non-empty ``failure`` (the offending entries, or a dict describing the
    mismatch) is the witness.
    """
    return CheckOutcome(check_id, claim, not failure, failure or None)


def _verdict(rs: RootSystem, alpha, shift: str, lam) -> ShiftVerdict:
    """The verdict on ``lam``, the weight rho - alpha or rho + alpha that ``shift`` names."""
    gamma = rs.zero_pairing_witness(lam)
    if gamma is not None:
        return ShiftVerdict(shift, alpha, NOT_REGULAR, gamma)
    if rs.is_dominant(lam):
        return ShiftVerdict(shift, alpha, REGULAR_DOMINANT)
    for i in range(1, rs.rank + 1):
        refl = rs.reflect(lam, i)
        if rs.is_dominant(refl) and rs.is_regular(refl):
            return ShiftVerdict(shift, alpha, REGULAR_AFTER_REFLECTION, i)
    return ShiftVerdict(shift, alpha, BEYOND_ONE_REFLECTION)


def _classify(rs: RootSystem, alpha, shift: str) -> ShiftVerdict:
    """The verdict on the weight ``shift`` names for alpha, which must be a positive root."""
    alpha = tuple(alpha)
    if not rs.is_positive_root(alpha):
        raise ValueError(f"{alpha} is not a positive root of {rs.stype}")
    return _verdict(rs, alpha, shift, rs.rho_shift(alpha, _SIGNS[shift]))


def classify_rho_minus(rs: RootSystem, alpha) -> ShiftVerdict:
    """Verdict for rho - alpha; alpha must be a positive root."""
    return _classify(rs, alpha, "minus")


def classify_rho_plus(rs: RootSystem, alpha) -> ShiftVerdict:
    """Verdict for rho + alpha; alpha must be a positive root."""
    return _classify(rs, alpha, "plus")


def verdict_evidence_ok(rs: RootSystem, v: ShiftVerdict) -> bool:
    """Validate a verdict's evidence against the direct pairing predicates."""
    return _evidence_ok(rs, v, rs.rho_shift(v.alpha, _SIGNS[v.shift]))


def _evidence_ok(rs: RootSystem, v: ShiftVerdict, lam) -> bool:
    """Whether ``v``'s evidence holds for ``lam``, the weight its shift names."""
    if v.status == NOT_REGULAR:
        return rs.is_positive_root(v.witness) and rs.pairing(lam, v.witness) == 0
    if v.status == REGULAR_DOMINANT:
        return rs.is_regular(lam) and rs.is_dominant(lam)
    if v.status == BEYOND_ONE_REFLECTION:
        reached = [rs.reflect(lam, i) for i in range(1, rs.rank + 1)]
        regular = rs.is_regular(lam) and not rs.is_dominant(lam)
        return regular and not any(rs.is_dominant(r) and rs.is_regular(r) for r in reached)
    refl = rs.reflect(lam, v.witness)
    regular = rs.is_regular(lam) and rs.is_regular(refl)
    return regular and not rs.is_dominant(lam) and rs.is_dominant(refl)


def _shift_rows(rs: RootSystem) -> dict:
    """rho - alpha and rho + alpha for every positive root alpha: {shift: {alpha: weight}}.

    One report builds them once, and its checks read them.
    """
    return {
        shift: dict(zip(rs.positive_roots, map(rs.rho_shift, rs.positive_roots, repeat(sign))))
        for shift, sign in _SIGNS.items()
    }


def _fixed_points(lam) -> list:
    """The simple indices i whose reflection fixes ``lam``: those with lam_i = 0."""
    return [i for i, x in enumerate(lam, 1) if x == 0]


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


def predicted_plus_status(rs: RootSystem, alpha, designated: list) -> str:
    """Stated classification of rho + alpha; ``designated`` is ``_designated_plus_values(rs)``."""
    alpha = tuple(alpha)
    if alpha == rs.highest_root:
        return REGULAR_DOMINANT
    return next((status for val, status, _ in designated if val == alpha), NOT_REGULAR)


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


class ShiftTables(namedtuple("ShiftTables", "family rank roots assigns errata reductions slips")):
    """The parsed tables of one type.

    ``roots`` maps each shift to {label: coords}, decoded from the display
    order, and ``assigns`` maps it to {i: [labels]} as printed; ``errata``
    lists the (kind, shift, ...) records and ``reductions`` maps each shift
    to [(i, label, target)], a ``c`` target decoded too.  ``slips`` maps each
    shift to the lines that could not be read, as "line <n>: <text>": a line
    with a token that is not a number, or no record the loader knows, is
    the slip of the shift it names, or of both when it names neither.  A
    slip, a label its list lacks, a misplaced erratum and a row index
    outside 1..rank are left to fail a ``table-*`` record.
    """

    __slots__ = ()

    def effective_assigns(self, shift: str) -> dict:
        """Assignments with the documented errata applied where their printed entry is."""
        out = {i: list(js) for i, js in self.assigns[shift].items()}
        for kind, rec_shift, a, b, c in self.errata:
            if rec_shift != shift:
                continue
            if kind == "move" and a in out.get(b, ()):  # label a moves from row b to row c
                out[b].remove(a)
                out.setdefault(c, []).append(a)
            elif kind == "swap" and b in out.get(a, ()):  # entry b of row a becomes c
                out[a][out[a].index(b)] = c
        return out


_TABLE_FILES = {
    ("E", 6): "e6_shift_tables.txt",
    ("E", 7): "e7_shift_tables.txt",
    ("E", 8): "e8_shift_tables.txt",
    ("F", 4): "f4_shift_tables.txt",
}

_ERRATUM_RE = re.compile(r"^(move|swap) (minus|plus) (\d+) : (\d+) -> (\d+)$")
_REDUCE_RE = re.compile(r"^reduce-(minus|plus) (\d+) (\d+) -> (r (\d+)|c ([\d ]+))$")


def load_shift_tables(family: str, rank: int) -> ShiftTables:
    """Parse one of the table data files shipped under ``data/``.

    Errata are recorded as they are printed; :meth:`ShiftTables.effective_assigns`
    applies them.  A line that cannot be read is kept in ``slips``.
    """
    fname = _TABLE_FILES[(family, rank)]
    with open(os.path.join(os.path.dirname(__file__), "data", fname), encoding="utf-8") as fh:
        text = fh.read()
    tables = ShiftTables(
        family=family,
        rank=rank,
        roots={"minus": {}, "plus": {}},
        assigns={"minus": {}, "plus": {}},
        errata=[],
        reductions={"minus": [], "plus": []},
        slips={"minus": [], "plus": []},
    )
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _read_record(tables, line)
        except ValueError:
            named = [shift for shift in _SIGNS if re.search(rf"\b{shift}\b", line)]
            for shift in named or _SIGNS:
                tables.slips[shift].append(f"line {number}: {line}")
    return tables


def _read_record(tables: ShiftTables, line: str) -> None:
    """Add the record on one line to ``tables``; ValueError, adding nothing, if it cannot be read."""
    # coordinates are decoded once from the display order, [n2, n1, n3, ...] for type E
    decode = tuple if tables.family != "E" else lambda disp: tuple(disp[1::-1] + disp[2:])
    m = _ERRATUM_RE.match(line)
    if m:
        tables.errata.append((m[1], m[2], int(m[3]), int(m[4]), int(m[5])))
        return
    m = _REDUCE_RE.match(line)
    if m:
        target = ("r", int(m[5])) if m[5] else ("c", decode([int(x) for x in m[6].split()]))
        tables.reductions[m[1]].append((int(m[2]), int(m[3]), target))
        return
    head, _, tail = line.partition("|")
    kind, _, key = head.strip().partition(" ")
    values = [int(x) for x in tail.split()]
    if kind in ("minus", "plus"):
        tables.assigns[kind][int(key)] = values
    elif kind in ("root", "root-minus", "root-plus"):
        # a plain root record belongs to both lists
        for shift in _SIGNS if kind == "root" else (kind.removeprefix("root-"),):
            tables.roots[shift][int(key)] = decode(values)
    else:
        raise ValueError(f"unrecognized table record: {line!r}")


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


def _row_fault(rs: RootSystem, alpha, i: int, shift: str, rows: dict):
    """Why row i may not list alpha: 'not a root', 'no such row', 'identity' or 'reflection'."""
    lam = rows[shift].get(alpha)
    if lam is None:
        return "not a root"
    if not 1 <= i <= rs.rank:
        return "no such row"
    # the printed form of the row's claim for alpha
    if rs.stype.family == "E":
        printed = neighbor_sum_identity(rs, alpha, i, _SIGNS[shift])
    elif rs.stype.family == "F" and shift == "minus":
        printed = _F4_MINUS_CONDITIONS[i](alpha)
    else:
        printed = i in _fixed_points(lam)
    if not printed:
        return "identity"
    return "reflection" if rs.reflect(lam, i) != lam else None


def verify_shift_tables(rs: RootSystem, rows=None) -> list:
    """Check the transcribed tables for one of E6/E7/E8/F4.

    Every row entry must be a positive root, satisfy the printed coordinate
    identity, and have the corresponding reflection actually fix the shifted
    weight, and a reduction must join two positive roots; errata are
    validated in both directions (the printed entry fails, the corrected one
    holds); the root lists and the row coverage are checked complete.
    ``rows`` are the type's ``_shift_rows``, built here when not given.
    """
    rows = rows or _shift_rows(rs)
    tables = load_shift_tables(rs.stype.family, rs.rank)
    tname = rs.stype.name
    out = []
    for shift in _SIGNS:
        roots = tables.roots[shift]  # roots.get(label) is None for a label the list lacks
        listed, expected = set(roots.values()), _expected_table_roots(rs, shift)
        effective = tables.effective_assigns(shift)
        reductions = tables.reductions[shift]
        covered = {j for js in effective.values() for j in js}
        covered |= {label for _, label, _ in reductions}
        # every listed label is due, except the highest root's on the plus side
        due = {j for j, r in roots.items() if shift == "minus" or r != rs.highest_root}
        bad_reductions = []
        for i, label, (kind, target) in reductions:
            tgt = roots.get(target) if kind == "r" else target
            lam, want = rows[shift].get(roots.get(label)), rows[shift].get(tgt)
            fits = lam is not None and want is not None and 1 <= i <= rs.rank
            if not fits or rs.reflect(lam, i) != want or rs.is_regular(want):
                bad_reductions.append((i, label, tgt))
        out += [
            _outcome(
                f"{tname}/table-decode-{shift}",
                "every transcribed coordinate list decodes to a positive root",
                [j for j, r in roots.items() if r not in rows[shift]] + tables.slips[shift],
            ),
            _outcome(
                f"{tname}/table-roots-complete-{shift}",
                "the transcribed list matches the intended root subset exactly",
                listed != expected
                and {"missing": sorted(expected - listed), "extra": sorted(listed - expected)},
            ),
            _outcome(
                f"{tname}/table-rows-{shift}",
                "every (i, j) assignment satisfies the printed identity and "
                "the reflection fixes the shifted weight",
                [
                    (i, j, fault)
                    for i, js in sorted(effective.items())
                    for j in js
                    if (fault := _row_fault(rs, roots.get(j), i, shift, rows))
                ],
            ),
            _outcome(
                f"{tname}/table-coverage-{shift}",
                "rows plus reduction records cover every listed root "
                + ("except the highest" if shift == "plus" else ""),
                sorted(due ^ covered),
            ),
            _outcome(
                f"{tname}/table-reductions-{shift}",
                "each reduction record is an exact weight equality onto a "
                "non-regular shift",
                bad_reductions,
            ),
        ]

    def holds(shift, j, i):  # r(j) satisfies the printed identity of row i
        return _row_fault(rs, tables.roots[shift].get(j), i, shift, rows) in (None, "reflection")

    def justified(kind, shift, a, b, c):
        printed = tables.assigns[shift]
        if kind == "move":  # label a, printed in row b, fails its identity there and holds at row c
            return a in printed.get(b, ()) and not holds(shift, a, b) and holds(shift, a, c)
        # entry b of row a fails the identity; c is the one root satisfying it
        satisfiers = [j for j in tables.roots[shift] if holds(shift, j, a)]
        return b in printed.get(a, ()) and not holds(shift, b, a) and satisfiers == [c]

    out.append(
        _outcome(
            f"{tname}/table-errata",
            "every documented correction is justified: the printed entry fails "
            "its identity and the corrected one holds",
            [rec for rec in tables.errata if not justified(*rec)],
        )
    )
    return out


def verify_subsystem_reduction(rs: RootSystem, rows: dict) -> list:
    """E7/E8: roots with last coordinate 0 reduce to the lower-rank system.

    For such a root the lower system's fixed-point index still works after
    embedding (the extra node contributes 0 to every neighbour sum), except
    for the lower system's highest root on the plus side, where the new
    node's reflection provides the fixed point.  ``rows`` are the type's
    ``_shift_rows``.
    """
    fam, n = rs.stype.family, rs.rank
    assert fam == "E" and n in (7, 8)
    bad = []
    low = build_root_system("E", n - 1)
    for alpha in rs.positive_roots:
        if max(alpha) < 2 or alpha[n - 1] != 0:
            continue
        sub = alpha[: n - 1]
        for shift, sign in _SIGNS.items():
            fixed = _fixed_points(rows[shift][alpha])
            if sign > 0 and sub == low.highest_root:
                if n not in fixed:
                    bad.append((alpha, sign, n))
                continue
            idx = _fixed_points(low.rho_shift(sub, sign))
            if not any(i in fixed for i in idx):
                bad.append((alpha, sign, idx))
    return [
        _outcome(
            f"{rs.stype.name}/subsystem-reduction",
            "every high-coordinate root with last coordinate 0 inherits its "
            "fixed point from the lower-rank subsystem",
            bad,
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
    bad = [
        (sign, alpha, i)
        for sign, alpha, i, target in _G2_INLINE
        if rs.reflect(rs.rho_shift(alpha, sign), i) != rs.rho_shift(target or alpha, sign)
    ]
    return [
        _outcome(
            "G2/inline-equalities", "the explicit G2 reflection identities hold as stated", bad
        )
    ]


def verify_low_coordinate_roots(rs: RootSystem, rows: dict) -> list:
    """Roots with all coordinates <= 1 admit the generic simple fixed point.

    For the minus shift every non-simple such root is fixed by some s_i with
    coordinate pairing one; for the plus shift every such root other than
    the highest admits a simple fixed point as well.  (Simply-laced types.)
    ``rows`` are the type's ``_shift_rows``.
    """
    bad = []
    for alpha in rs.positive_roots:
        if max(alpha) >= 2:
            continue
        for shift, exempt in (("minus", rs.is_simple(alpha)), ("plus", alpha == rs.highest_root)):
            if not exempt and not _fixed_points(rows[shift][alpha]):
                bad.append((shift, alpha))
    return [
        _outcome(
            f"{rs.stype.name}/low-coordinate-roots",
            "sums of distinct simple roots are handled by a single simple "
            "fixed point on both shifts",
            bad,
        )
    ]


def classification_report(rs: RootSystem, rows=None) -> list:
    """Compare verdicts, oracle predicates and the stated classification.

    ``rows`` are the type's ``_shift_rows``, built here when not given; the
    classifier and the evidence checks read them.  The oracle does not read
    the coroot table: it pairs each row with every positive root through
    the invariant form, one root at a time.
    """
    rows = rows or _shift_rows(rs)
    tname = rs.stype.name
    oracle_bad = {"minus": [], "plus": []}
    stated_bad = {"minus": [], "plus": []}
    evidence_bad, plus_regular, plus_verdicts = [], [], {}
    designated = _designated_plus_values(rs)
    # the oracle pairs through the form: <lam, r^vee> = sum_j r_j len2(beta_j) lam_j / (r, r)
    scale = lcm(*(l.denominator for l in rs.lengths))
    form = [l.numerator * scale // l.denominator for l in rs.lengths]  # integer multiples
    form_rows = [tuple(map(mul, form, r)) for r in rs.positive_roots]  # scale (r, r) times r^vee
    for alpha, minus, plus in zip(rs.positive_roots, rows["minus"].values(), rows["plus"].values()):
        vp = plus_verdicts[alpha] = _verdict(rs, alpha, "plus", plus)
        for v, lam, predicted in (
            (_verdict(rs, alpha, "minus", minus), minus, predicted_minus_status(rs, alpha)),
            (vp, plus, predicted_plus_status(rs, alpha, designated)),
        ):
            regular = all(sum(map(mul, lam, row)) for row in form_rows)
            if (v.status == NOT_REGULAR) == regular:
                oracle_bad[v.shift].append(alpha)
            if not _evidence_ok(rs, v, lam):
                evidence_bad.append((v.shift, alpha))
            if predicted != v.status:
                stated_bad[v.shift].append((alpha, predicted, v.status))
        if vp.status != NOT_REGULAR and alpha != rs.highest_root:
            plus_regular.append((alpha, vp))

    claimed = CLAIMED_PLUS_COUNTS[rs.stype.family]
    bad_designated = []
    for val, status, refl in designated:
        if not rs.is_positive_root(val):
            bad_designated.append((val, "not a root"))
        elif val == rs.highest_root:
            bad_designated.append((val, "designated value equals the highest root"))
        else:
            v = plus_verdicts[val]
            if v.status != status or (refl is not None and v.witness != refl):
                bad_designated.append((val, f"stated {status}, got {v.status}"))
    return [
        _outcome(
            f"{tname}/oracle-agreement",
            "classifier verdicts agree with the direct pairing oracle on "
            "regularity for every positive root and both shifts",
            any(oracle_bad.values()) and oracle_bad,
        ),
        _outcome(
            f"{tname}/verdict-evidence",
            "every verdict carries valid evidence (zero-pairing witness or "
            "dominant-making reflection)",
            evidence_bad,
        ),
        _outcome(
            f"{tname}/stated-minus-classification",
            "rho - alpha: simple roots are regular after one reflection, all "
            "other roots are not regular",
            stated_bad["minus"],
        ),
        _outcome(
            f"{tname}/stated-plus-classification",
            "rho + alpha: regular exactly at the highest root and the stated "
            "per-family values",
            stated_bad["plus"],
        ),
        _outcome(
            f"{tname}/plus-regular-count",
            f"number of non-highest roots with rho + alpha regular equals the "
            f"stated {claimed}",
            len(plus_regular) != claimed
            and {
                "stated": claimed,
                "actual": len(plus_regular),
                "roots": [a for a, _ in plus_regular],
            },
        ),
        _outcome(
            f"{tname}/plus-designated-values",
            "each stated regular value of the plus shift is a non-highest "
            "root with the stated status and reflection",
            bad_designated,
        ),
        _outcome(
            f"{tname}/plus-reflection-to-dominant",
            "every non-dominant regular plus shift becomes regular dominant "
            "after one simple reflection",
            [
                (a, v.status)
                for a, v in plus_regular
                if not rs.is_dominant(rows["plus"][a]) and v.status != REGULAR_AFTER_REFLECTION
            ],
        ),
    ]


def full_shift_report(rs: RootSystem) -> list:
    """All shift checks applicable to one root system."""
    rows = _shift_rows(rs)
    out = classification_report(rs, rows)
    fam, n = rs.stype.family, rs.rank
    if fam in ("A", "D", "E"):
        out.extend(verify_low_coordinate_roots(rs, rows))
    if (fam, n) in _TABLE_FILES:
        out.extend(verify_shift_tables(rs, rows))
    if fam == "E" and n in (7, 8):
        out.extend(verify_subsystem_reduction(rs, rows))
    if fam == "G":
        out.extend(verify_g2_inline(rs))
    return out
