"""Records keep their value semantics: pickling, equality and their repr.

A shared run pickles ``CheckResult`` records across the fork, and the text
report prints a failing witness with ``repr``, so each record type must
come back from ``pickle`` equal and keep the ``Name(field=value, ...)`` form.
The rank checks of ``SimpleType`` are in ``test_roots.py::test_rank_bounds``.
"""

import pickle

import pytest

from nullcone import report
from nullcone.algebra import SpanReport
from nullcone.geometry import Membership, TangentReport
from nullcone.roots import SimpleType, build_root_system
from nullcone.shifts import CheckOutcome, ShiftVerdict, load_shift_tables
from nullcone.weyl import element_from_word

RECORDS = [
    (
        report.CheckResult("roots/A2/positive-count", "claim", "fail", {"found": 2}, 0.5, 3),
        ("check_id", "claim", "status", "witness", "elapsed", "draws"),
    ),
    (
        report._Check("positive-count", "claim", report._positive_count, ("A2",), "s", 3,
                      report._singular_summary),
        ("name", "claim", "body", "types", "stream", "draws", "summary"),
    ),
    (report.RunConfig(types=("A2",)),
     ("suites", "types", "seed", "samples", "max_weyl_order", "output_format")),
    (ShiftVerdict("plus", (1, 1), "not_regular", (0, 1)), ("shift", "alpha", "status", "witness")),
    (CheckOutcome("A2/oracle-agreement", "claim", False, [(1, 0)]),
     ("check_id", "claim", "ok", "witness")),
    (load_shift_tables("F", 4), ("family", "rank", "roots", "assigns", "errata", "reductions")),
    (SpanReport(((1, 0), (0, 1)), 2, True), ("vectors", "dim", "in_borel")),
    (TangentReport(10, 7, 3), ("domain_dim", "rank", "kernel_dim")),
    (Membership("member", flag=((1, 0), (0, 1))), ("status", "reason", "flag")),
    (SimpleType("E", 8), ("family", "rank")),
    (element_from_word(build_root_system("A", 2), (1, 2)), ("word", "perm")),
]


@pytest.mark.parametrize("record,fields", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_pickle_equal_and_print_their_fields(record, fields):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{type(record).__name__}({shown})"
