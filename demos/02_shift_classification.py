"""The rho +/- alpha classification, including where the stated counts fail.

For every positive root alpha: rho - alpha is regular (after one simple
reflection) exactly when alpha is simple; rho + alpha is regular dominant
at the highest root, and among the other roots it is regular for a small
per-family list.  The toolkit's ground truth is the direct pairing oracle,
and it finds that family C has *two* such values (the stated classification
lists one) while family D has none (the stated value is the highest root
itself).  This demo shows both the verified tables and the discrepancy.
Each G2 verdict's evidence is checked again with ``verdict_evidence_ok``.
"""

from nullcone import build_root_system, classify_rho_minus, classify_rho_plus
from nullcone.shifts import full_shift_report, verdict_evidence_ok, verify_shift_tables

g2 = build_root_system("G", 2)
print("G2, minus shift:")
for alpha in g2.positive_roots:
    v = classify_rho_minus(g2, alpha)
    checked = "checked" if verdict_evidence_ok(g2, v) else "FAILS"
    print(f"  rho - {alpha}: {v.status} (witness {v.witness}, evidence {checked})")

print()
print("G2, plus shift:")
for alpha in g2.positive_roots:
    v = classify_rho_plus(g2, alpha)
    checked = "checked" if verdict_evidence_ok(g2, v) else "FAILS"
    print(f"  rho + {alpha}: {v.status} (witness {v.witness}, evidence {checked})")

print()
c3 = build_root_system("C", 3)
print("C3, plus shift: the stated classification lists one non-highest")
print("regular value, the oracle finds two:")
for alpha in c3.positive_roots:
    v = classify_rho_plus(c3, alpha)
    if v.status != "not_regular":
        star = " (highest)" if alpha == c3.highest_root else ""
        print(f"  rho + {alpha}: {v.status}{star}")

print()
print("Every failed check in the C3 report, with its witness:")
for outcome in full_shift_report(c3):
    if not outcome.ok:
        print(f"  {outcome.check_id}: {outcome.witness}")

print()
e8 = build_root_system("E", 8)
outcomes = verify_shift_tables(e8)
print(f"E8 table verification: {sum(o.ok for o in outcomes)}/{len(outcomes)} checks pass")
print("(the two documented corrections are themselves verified:")
print(" the printed entries fail their identities, the corrected ones hold)")
