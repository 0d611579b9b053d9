"""The functions the traced run wraps, and the per-layer metrics made from their spans.

Layers are the modules of ``nullcone``.  Each wrapped public function gives
``<layer>.<function>.calls`` and ``<layer>.<function>.s`` (self time: span
time not covered by other wrapped functions it called).  A few also record
counters about their inputs, reported as shares whose base is the same
function's ``.calls``.  ``report.*`` metrics are inclusive times of one
``report.run`` call per suite x type unit.
"""

from __future__ import annotations

from fractions import Fraction

from spans import Tracer, install
from stats import share

SUITES = ("roots", "shifts", "invariants", "geometry")

#: suite x type units that take at least 1 s at workload seed 1789
REPORT_UNITS = (
    "roots.E6",
    "invariants.A4", "invariants.B2", "invariants.B3", "invariants.C3",
    "geometry.A3", "geometry.A4", "geometry.B2", "geometry.B3",
    "geometry.C3", "geometry.E6",
)

STATUSES = ("pass", "fail", "skipped", "undecided")


def _all_int(m) -> bool:
    return all(isinstance(x, int) for row in m for x in row)


def _note_rank(tracer, args, kwargs, result):
    rows = args[0]
    if _all_int(rows):
        tracer.count("linalg.rank.int")
    tracer.count("linalg.rank.entries", len(rows) * (len(rows[0]) if len(rows) else 0))


def _note_mul(tracer, args, kwargs, result):
    if not (_all_int(args[0]) and _all_int(args[1])):
        tracer.count("linalg.mul.frac")


def _note_char_poly(tracer, args, kwargs, result):
    if _all_int(args[0]):
        tracer.count("linalg.char_poly.int")


def _note_polarize_all(tracer, args, kwargs, result):
    _alg, x, y = args[:3]
    if any(isinstance(v, Fraction) for m in (x, y) for row in m for v in row):
        tracer.count("algebra.polarize_all.frac")


def _note_membership(tracer, args, kwargs, result):
    if result.status != "undecided":
        tracer.count("geometry.nullcone_membership.decided")


def _repeat_counter(name: str, key):
    """A note counting calls whose ``key(args)`` an earlier call already had."""
    seen = set()

    def note(tracer, args, kwargs, result):
        k = key(args, kwargs)
        if k in seen:
            tracer.count(name + ".repeat")
        seen.add(k)

    return note


def _weyl_note():
    repeats = _repeat_counter("weyl.generate_weyl", _weyl_key)

    def note(tracer, args, kwargs, result):
        repeats(tracer, args, kwargs, result)
        tracer.count("weyl.generate_weyl.elements", len(result))

    return note


def _weyl_key(args, kwargs):
    rs = args[0]
    cap = args[1] if len(args) > 1 else kwargs.get("max_order", 10**6)
    return rs.stype.name, cap


def _args_key(args, kwargs):
    return args, tuple(sorted(kwargs.items()))


#: (module, class or None, attribute, span name, note factory or None)
TARGETS = (
    ("linalg", None, "rank", "linalg.rank", lambda: _note_rank),
    ("linalg", None, "rref", "linalg.rref", None),
    ("linalg", None, "solve", "linalg.solve", None),
    ("linalg", None, "inverse", "linalg.inverse", None),
    ("linalg", None, "mul", "linalg.mul", lambda: _note_mul),
    ("linalg", None, "char_poly", "linalg.char_poly", lambda: _note_char_poly),
    ("linalg", None, "faddeev", "linalg.faddeev", None),
    ("algebra", None, "build_algebra", "algebra.build_algebra", None),
    ("algebra", "MatrixLieAlgebra", "polarize_all", "algebra.polarize_all", lambda: _note_polarize_all),
    ("algebra", "MatrixLieAlgebra", "eval_all_p", "algebra.eval_all_p", None),
    ("algebra", "MatrixLieAlgebra", "epsilon_all", "algebra.epsilon_all", None),
    ("algebra", "MatrixLieAlgebra", "unipotent", "algebra.unipotent", None),
    ("algebra", "MatrixLieAlgebra", "weyl_rep", "algebra.weyl_rep", None),
    ("algebra", "GroupElement", "conjugate", "algebra.GroupElement.conjugate", None),
    ("algebra", "MatrixLieAlgebra", "centralizer_dim", "algebra.centralizer_dim", None),
    ("algebra", "MatrixLieAlgebra", "borel_span", "algebra.borel_span", None),
    ("geometry", None, "rank_borel_pair", "geometry.rank_borel_pair", None),
    ("geometry", None, "rank_nullcone_pair", "geometry.rank_nullcone_pair", None),
    ("geometry", None, "mu_kernel", "geometry.mu_kernel", None),
    ("geometry", None, "pencil_tangent_vanishing", "geometry.pencil_tangent_vanishing", None),
    ("geometry", None, "nullcone_membership", "geometry.nullcone_membership", lambda: _note_membership),
    ("geometry", None, "sigma_fiber_is_weyl_orbit", "geometry.sigma_fiber_is_weyl_orbit", None),
    ("weyl", None, "generate_weyl", "weyl.generate_weyl", _weyl_note),
    ("weyl", None, "chain_of_lines", "weyl.chain_of_lines", None),
    ("weyl", None, "borels_containing_torus", "weyl.borels_containing_torus", None),
    ("roots", None, "build_root_system", "roots.build_root_system",
     lambda: _repeat_counter("roots.build_root_system", _args_key)),
    ("shifts", None, "full_shift_report", "shifts.full_shift_report", None),
    ("shifts", None, "load_shift_tables", "shifts.load_shift_tables", None),
)


def install_all(tracer: Tracer, nullcone_modules: dict) -> None:
    """Wrap every function of TARGETS; ``nullcone_modules`` maps short name -> module."""
    modules = list(nullcone_modules.values())
    for module, cls, attr, name, note in TARGETS:
        owner = nullcone_modules[module]
        if cls is not None:
            owner = getattr(owner, cls)
        install(tracer, modules, owner, attr, name, note() if note else None)


#: span name -> extra metrics beyond .calls and .s, as (suffix, counter, is_share)
_EXTRAS = {
    "linalg.rank": (("int_share", "int", True), ("entries", "entries", False)),
    "linalg.mul": (("frac_share", "frac", True),),
    "linalg.char_poly": (("int_share", "int", True),),
    "algebra.polarize_all": (("frac_share", "frac", True),),
    "geometry.nullcone_membership": (("decided_share", "decided", True),),
    "weyl.generate_weyl": (("elements", "elements", False), ("repeat_share", "repeat", True)),
    "roots.build_root_system": (("repeat_share", "repeat", True),),
}

#: spans reported with .calls and .s; build_algebra is cached and reports only .s
_FUNCTIONS = tuple(t[3] for t in TARGETS if t[3] != "algebra.build_algebra")


def _unit(suffix: str) -> str:
    if suffix == "s":
        return "s"
    return "share" if suffix.endswith("share") else "count"


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"report.{suite}.s", "s") for suite in SUITES]
    out += [(f"report.{unit}.s", "s") for unit in REPORT_UNITS]
    out += [(f"report.checks.{status}", "count") for status in STATUSES]
    out.append(("algebra.build_algebra.s", "s"))
    for fn in _FUNCTIONS:
        suffixes = ["calls", "s"] + [extra[0] for extra in _EXTRAS.get(fn, ())]
        out += [(f"{fn}.{suffix}", _unit(suffix)) for suffix in suffixes]
    out += [("trace.overhead_s", "s"), ("wrong_verdict_share", "share")]
    return out


def layer_metrics(tracer: Tracer, statuses) -> dict:
    """Per-layer metric values from a traced run, except the two made by the parent.

    ``statuses`` is the list of check statuses of the traced report.
    """
    by_name = tracer.by_name()
    out = {}
    for suite in SUITES:
        out[f"report.{suite}.s"] = sum(
            s.total for name, s in by_name.items() if name.startswith(f"report.{suite}.")
        )
    for unit in REPORT_UNITS:
        stats = by_name.get(f"report.{unit}")
        out[f"report.{unit}.s"] = stats.total if stats else 0.0
    for status in STATUSES:
        out[f"report.checks.{status}"] = sum(1 for s in statuses if s == status)
    build = by_name.get("algebra.build_algebra")
    out["algebra.build_algebra.s"] = build.self_time if build else 0.0
    for fn in _FUNCTIONS:
        stats = by_name.get(fn)
        calls = stats.calls if stats else 0
        out[f"{fn}.calls"] = calls
        out[f"{fn}.s"] = stats.self_time if stats else 0.0
        for suffix, counter, is_share in _EXTRAS.get(fn, ()):
            value = tracer.counts.get(f"{fn}.{counter}", 0)
            out[f"{fn}.{suffix}"] = share(value, calls) if is_share else value
    return out
