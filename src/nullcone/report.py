"""Verification suites with deterministic, diff-friendly reports.

A run is configured by :class:`RunConfig` and produces a list of
:class:`CheckResult`.  The roots, invariants and geometry suites are tables
of entries (:class:`_Check`), one per claim, run by one runner: it builds
the check ids, gives each stream label of a suite on a type one seeded
stream that every entry naming it shares, and makes and counts the draws of
sampled entries.  Above the configured Weyl cap (``--max-weyl-order``),
``weyl-order`` and ``regular-semisimple-fiber-count`` are skipped, each
with its own witness naming the group's order; ``torus-borel-count`` and
``line-chains`` give no record, nor does ``length-inversions`` (also above
order 1152); any other entry that asks for the group is skipped with the
refusal, which names the order and the cap, as its witness.  The other
records of its suite and type are kept.  ``line-chains`` gives each sampled
element w its maximal common support R+ ∩ w(R+), which covers every
sub-support.  The shifts suite reports :mod:`nullcone.shifts` outcomes.

:func:`run` hands out whole types, each with all of its suites, from one
queue shared by this process and, when the run has several types and
several CPUs, by children forked from it (see :func:`_process_count` for
the whole gate).  A type's suites share one :class:`_Unit`, which holds
its root system, realization, Weyl group, streams and notes, so the group
is enumerated at most once per type and run.  The queue hands out the
largest types first, by positive-root count.

Structured output is line-delimited JSON sorted by check id with a versioned
schema identifier; it contains no timing, no draw counts and no environment
data, so two runs with the same configuration are byte-identical.  Text
output is for humans: the records suite x type by suite x type, each in
the order its records were checked, with each check's measured time, from
the previous record of its suite on its type (so set-up shared by several
checks, or by several suites of the type, is charged to the first of them),
and a sampled check's draw count.  A type's shifts records all come from
one :func:`~nullcone.shifts.full_shift_report` pass, so the first record
that pass returns (``shifts/<type>/oracle-agreement``) comes first and
carries the whole pass's time, and every other shifts record of the type
shows 0.000s.  A check is timed in the process that ran its type, so with
several processes the times can add up to more than the run's wall time.

Exit status convention: 0 when some check passed and none failed, 1 when
any check failed (undecided and skipped do not fail a run), 2 for usage
errors, 3 when nothing was checked: no record passed and none failed.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import repeat
from operator import itemgetter, mul, sub

from . import geometry as geo
from . import linalg as la
from . import __version__
from .algebra import SUPPORTED_RANKS, build_algebra, randints
from .roots import POSITIVE_ROOT_COUNTS, SimpleType, build_root_system
from .shifts import full_shift_report
from .weyl import (
    WeylOrderError,
    borels_containing_torus,
    chain_of_lines,
    generate_weyl,
    length_inversion_failures,
    weyl_order,
)

SCHEMA_ID = "nullcone-report/1"
TOOL_VERSION = __version__

SUITES = ("roots", "shifts", "invariants", "geometry")

DEFAULT_TYPES = (
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C3", "C4",
    "D4",
    "G2", "F4",
    "E6", "E7", "E8",
)

#: types with a matrix realization (invariants/geometry suites)
ALGEBRA_TYPES = tuple(f"{fam}{n}" for fam, ns in SUPPORTED_RANKS.items() for n in ns)

# Largest group given a `length-inversions` record.  The check reads every
# element's length and inversion count in bulk, with no element built, so
# the cap no longer bounds its cost; it only keeps the default record set.
# Lifting it to E6 (51,840) adds a record, which waits for a golden
# regeneration.
_EXHAUSTIVE_WEYL_CAP = 1152


class CheckResult(namedtuple("CheckResult", "check_id claim status witness elapsed draws",
                             defaults=(None, 0.0, None))):
    """One record of a run.

    ``status`` is 'pass', 'fail', 'undecided' or 'skipped'; ``draws`` counts
    the draws of a sampled check and is None for a direct one.
    """

    __slots__ = ()


# A dataclass, not a record like the others: perfbench/child.py derives its
# per-unit configurations with dataclasses.replace.
@dataclass(frozen=True)
class RunConfig:
    suites: tuple = SUITES
    types: tuple = DEFAULT_TYPES
    seed: int = 1789
    samples: int = 25
    max_weyl_order: int = 10**6
    output_format: str = "text"  # 'text' | 'structured'


def _result(check_id, claim, ok, witness=None, draws=None) -> CheckResult:
    if ok in ("undecided", "skipped"):
        status = ok
    else:
        status = "pass" if ok else "fail"
    if status in ("fail", "undecided") and witness is None:
        witness = "no further detail"
    return CheckResult(check_id, claim, status, witness, draws=draws)


# -- check entries and their runner -----------------------------------------------


class _Check(namedtuple("_Check", "name claim body types stream draws summary",
                        defaults=(None, None, None, lambda unit, n: (True, None)))):
    """One claim of a suite, checked on every type in ``types`` (None: all).

    ``body(unit, rng)`` gets its suite's stream named ``stream`` (None without
    one).  A direct entry (``draws`` None) returns ``(ok, witness)``, or None
    for no record.  A sampled entry calls it up to ``draws`` times (an int,
    or a function of the configured sample count); a draw returns True when
    the claim holds on it, None when its precondition is not met (not
    counted), or a failure witness (False for none), and the first failure
    ends the check.  ``summary(unit, n)`` gives ``(ok, witness)`` once all
    ``n`` counted draws held; a check with no counted draw is undecided.
    """

    __slots__ = ()


def _fifth(samples: int) -> int:
    """The draw count of most sampled identities."""
    return max(3, samples // 5)


class _Unit:
    """What the suites of one type share in one run, each part built on first use."""

    def __init__(self, config: RunConfig, stype: SimpleType):
        self.config, self.stype = config, stype
        self.streams = {}
        self.notes = {}  # values an entry leaves for a later entry of the type

    def stream(self, suite: str, label: str) -> random.Random:
        """The stream seeded by ``<suite>/<type>/<label>``, one per suite and label."""
        seed = f"{self.config.seed}:{suite}/{self.stype.name}/{label}"
        if seed not in self.streams:
            self.streams[seed] = random.Random(seed)
        return self.streams[seed]

    @cached_property
    def rs(self):
        return build_root_system(self.stype.family, self.stype.rank)

    @cached_property
    def alg(self):
        return build_algebra(self.stype.family, self.stype.rank)

    @cached_property
    def order(self) -> int:
        return weyl_order(self.rs)

    @property
    def capped(self) -> bool:
        """Whether the Weyl group order is above the configured cap."""
        return self.order > self.config.max_weyl_order

    @cached_property
    def group(self):
        return generate_weyl(self.rs, self.config.max_weyl_order)

    @cached_property
    def xreg(self):
        return self.alg.regular_nilpotent()


def _run_check(check: _Check, unit: _Unit, suite: str):
    """The record of ``suite``'s ``check`` on ``unit``, or None; see :class:`_Check`."""
    check_id = f"{suite}/{unit.stype.name}/{check.name}"
    rng = unit.stream(suite, check.stream) if check.stream else None
    try:
        if check.draws is None:
            got = check.body(unit, rng)
            return None if got is None else _result(check_id, check.claim, *got)
        count = check.draws if isinstance(check.draws, int) else check.draws(unit.config.samples)
        n = 0
        for _ in range(count):
            got = check.body(unit, rng)
            if got is None:
                continue
            n += 1
            if got is not True:
                return _result(check_id, check.claim, False, got or None, n)
    except WeylOrderError as exc:
        return _result(check_id, check.claim, "skipped", str(exc))
    if not n:
        return _result(check_id, check.claim, "undecided", "no counted draws", n)
    return _result(check_id, check.claim, *check.summary(unit, n), draws=n)


# -- roots suite ---------------------------------------------------------------


def _positive_count(u, rng):
    found = len(u.rs.positive_roots)
    expected = POSITIVE_ROOT_COUNTS[u.stype.family](u.stype.rank)
    return found == expected, {"found": found, "expected": expected}


def _simple_reflections(u, rng):
    """Reads the tables the Weyl group composes: s_i(root k) is root ``table[k]``."""
    rs, bad = u.rs, []
    m = rs.num_positive
    for i, (beta, table) in enumerate(zip(rs.simple_roots, rs.reflection_tables), 1):
        own, images = rs.index[beta], table[:m]  # root k + m is the negative of root k
        for k, img in enumerate(images):
            if k == own:
                if img != own + m:
                    bad.append((i, beta))
            elif img >= m:
                bad.append((i, rs.roots[k]))
        if len(set(images)) != m:
            bad.append((i, "not injective"))
    return not bad, bad or None


def _rho_half_sum(u, rng):
    rs = u.rs
    half_sum = tuple(Fraction(sum(r[k] for r in rs.positive_roots), 2) for k in range(rs.rank))
    pairings = tuple(
        sum(rs.cartan[i][j] * half_sum[j] for j in range(rs.rank)) for i in range(rs.rank)
    )
    ok = pairings == (1,) * rs.rank
    return ok, None if ok else pairings


def _weight_reflect(u, rng):
    """Checks every entry of every reflection table, negative roots included.

    The weight of s_i(root k) must be s_i of root k's weight, whose entry j
    is w_j - C[j][i] w_i.  So for each s_i and j, column j of the weights
    (w_j of every root) gathered through table i is compared whole with
    w_j - C[j][i] w_i, column i scaled; a failing entry (root k, i) is
    listed once, by root order, then letter.
    """
    rs, bad = u.rs, set()
    columns = tuple(zip(*map(rs.weight_of_root, rs.roots)))
    for i, table in enumerate(rs.reflection_tables):
        gather = itemgetter(*table)  # a tuple: every table has 2m >= 2 entries
        for j, wj in enumerate(columns):
            c = rs.cartan[j][i]
            got = gather(wj)
            want = tuple(map(sub, wj, map(mul, repeat(c), columns[i]))) if c else wj
            if got != want:
                bad.update((k, i + 1) for k, (g, w) in enumerate(zip(got, want)) if g != w)
    bad = [(rs.roots[k], i) for k, i in sorted(bad)]
    return not bad, bad or None


def _weyl_order(u, rng):
    if u.capped:
        return "skipped", f"group order {u.order} above the cap {u.config.max_weyl_order}"
    return len(u.group) == u.order, {"generated": len(u.group), "expected": u.order}


def _torus_borel_count(u, rng):
    return None if u.capped else (borels_containing_torus(u.rs, u.group) == u.order, None)


def _length_inversions(u, rng):
    if u.order > min(u.config.max_weyl_order, _EXHAUSTIVE_WEYL_CAP):
        return None
    bad = [u.group[j].word for j in length_inversion_failures(u.group)[:5]]
    return not bad, bad or None


# -- invariants suite -----------------------------------------------------------


def _degree_sum(u, rng):
    alg = u.alg
    return sum(alg.degrees) == alg.borel_dim, {"degrees": alg.degrees, "borel_dim": alg.borel_dim}


def _sigma_length(u, rng):
    zero = la.zeros(u.alg.size, u.alg.size)
    return len(u.alg.sigma(zero, zero)) == u.alg.borel_dim + u.alg.rank, None


def _unipotent(alg, rng):
    """exp of a combination of the positive root vectors, each coefficient drawn in [-2, 2]."""
    roots = alg.rs.positive_roots
    return alg.unipotent(dict(zip(roots, randints(rng, -2, 2, len(roots)))))


def _torus_params(rng, values, count):
    """``count`` torus parameters, each drawn from ``values`` as ``rng.choice`` draws."""
    return [values[i] for i in randints(rng, 0, len(values) - 1, count)]


def _reassembly_failure(alg, pols, x, y, a, b):
    """The first invariant i (1-based) with p_i(a x + b y) != sum_k a^(d-k) b^k p_i^(k)(x, y),
    where ``pols`` is ``polarize_all(x, y)``; None when every invariant reassembles."""
    direct = alg.eval_all_p(la.add(la.scale(a, x), la.scale(b, y)))
    for idx, d in enumerate(alg.degrees):
        if sum(a ** (d - k) * b**k * c for k, c in enumerate(pols[idx])) != direct[idx]:
            return idx + 1
    return None


def _polarization(u, rng):
    alg = u.alg
    x, y = alg.random_element(rng, 2), alg.random_element(rng, 2)
    a, b = randints(rng, -3, 3, 2)
    bad = _reassembly_failure(alg, alg.polarize_all(x, y), x, y, a, b)
    return bad is None or {"invariant": bad, "a": a, "b": b}


def _borel_reduction(u, rng):
    alg = u.alg
    x, y = alg.random_element(rng, 2, where="b"), alg.random_element(rng, 2, where="b")
    return alg.sigma(x, y) == alg.sigma(alg.h_component(x), alg.h_component(y)) or {"x": x, "y": y}


def _conjugation(u, rng):
    alg = u.alg
    x, y = alg.random_element(rng, 2), alg.random_element(rng, 2)
    g = _unipotent(alg, rng)
    g = g * alg.torus(_torus_params(rng, (1, 2, 3, Fraction(1, 2)), alg.rank))
    return alg.sigma(g.conjugate(x), g.conjugate(y)) == alg.sigma(x, y) or {"x": x, "y": y}


def _euler(u, rng):
    alg = u.alg
    x = alg.random_element(rng, 2)
    eps, ps = alg.epsilon_all(x), alg.eval_all_p(x)
    ok = all(alg.trace_form(eps[i], x) == d * ps[i] for i, d in enumerate(alg.degrees))
    return ok or {"x": x}


def _gradient_pairing(u, rng):
    alg = u.alg
    x = alg.random_element(rng, 2)
    pairs = zip(alg.epsilon_all(x), alg.gradient_matrices(x))
    ok = all(alg.basis_pairings(eps) == alg.basis_pairings(grad) for eps, grad in pairs)
    return ok or {"x": x}


def _eps_polarization(u, rng):
    alg = u.alg
    x, y = alg.random_element(rng, 2), alg.random_element(rng, 2)
    a, b = 2, 3
    target = alg.epsilon_all(la.add(la.scale(a, x), la.scale(b, y)))
    parts_all = alg.epsilon_polarize_all(x, y)
    for i, (d, parts, want) in enumerate(zip(alg.degrees, parts_all, target)):
        total = la.zeros(alg.size, alg.size)
        for m, part in enumerate(parts):
            total = la.add(total, la.scale(a ** (d - m - 1) * b**m, part))
        if total != want:
            return {"invariant": i + 1, "x": x, "y": y}
    return True


def _weyl_invariance(u, rng):
    alg = u.alg
    x, y = alg.random_element(rng, 3, where="h"), alg.random_element(rng, 2, where="h")
    s0 = alg.sigma(x, y)
    for w in u.group:
        rep = alg.weyl_rep(w.word)
        if alg.sigma(rep.conjugate(x), rep.conjugate(y)) != s0:
            return {"word": w.word, "x": x, "y": y}
    return True


def _span_is_borel(u, rng):
    span = u.alg.borel_span(*_regular_pencil_pair(u.alg, rng))
    ok = span.dim == u.alg.borel_dim and span.in_borel
    return ok or {"dim": span.dim, "in_borel": span.in_borel}


def _regular_cartan(alg, rng):
    """A regular semisimple element of the Cartan subalgebra, drawn from ``rng``."""
    for _ in range(1000):
        # regularity needs distinct eigenvalues (on so/sp: distinct nonzero +- pairs)
        h = alg.random_element(rng, alg.rank + 2, where="h")
        if alg.is_regular_element(h):
            return h
    raise AssertionError("could not draw a regular semisimple element")


def _regular_pencil_pair(alg, rng):
    """A Borel pair whose whole pencil is regular, by construction.

    x is triangular with a regular semisimple diagonal part, y is strictly
    upper with nonzero coefficients on every simple root; then a*x + b*y is
    triangular with distinct diagonal for a != 0 and a regular nilpotent
    for a = 0, so every nonzero pencil member is regular (and the sampled
    precondition of borel_span necessarily passes).
    """
    x = la.add(_regular_cartan(alg, rng), alg.random_element(rng, 2, where="u"))
    y = alg.random_element(rng, 2, where="u")
    for root in alg.rs.simple_roots:
        y = la.add(y, la.scale(3, alg.pos_vectors[root]))
    return x, y


# -- geometry suite ---------------------------------------------------------------


def _fiber_count(u, rng):
    if u.capped:
        return "skipped", f"group order {u.order} above the cap"
    return borels_containing_torus(u.rs, u.group) == u.order, {"expected": u.order}


def _common_positive_roots(rs, w) -> list:
    """R+ ∩ w(R+) in positive-root order: the positive roots indexed in w.perm[:m]."""
    image = set(w.perm[: rs.num_positive])
    return [r for k, r in enumerate(rs.positive_roots) if k in image]


def _line_chains(u, rng):
    # A direct body: the at most 60 elements are drawn once, not per draw.
    # Each w gets the maximal support R+ ∩ w(R+), the strongest case
    # (Humphreys, Reflection Groups and Coxeter Groups, secs. 1.6-1.7): along
    # a reduced word, R+ \ w_q(R+) grows by exactly w_{q-1}(alpha_{a_q}) at
    # step q and stays inside R+ \ w(R+), so R+ ∩ w(R+) lies in
    # w_{q-1}(R+ \ {alpha_{a_q}}) at every step, and so does each sub-support.
    if u.capped:
        return None
    rs, group, bad = u.rs, u.group, []
    for w in rng.sample(group, 60) if len(group) > 60 else group:
        try:
            if chain_of_lines(rs, _common_positive_roots(rs, w), w)[-1].perm != w.perm:
                bad.append((w.word, "wrong endpoints"))
        except (ValueError, AssertionError) as exc:
            bad.append((w.word, str(exc)))
    return not bad, bad[:5] or None


def _borel_pair_rank(u, rng):
    alg = u.alg
    hreg = _regular_cartan(alg, rng)
    rep = geo.rank_borel_pair(alg, hreg, la.add(u.xreg, alg.random_element(rng, 2, where="b")))
    expected = 3 * alg.borel_dim - alg.rank
    return rep.rank == expected, {"rank": rep.rank, "expected": expected}


def _nullcone_pair_rank(u, rng):
    alg = u.alg
    rep = geo.rank_nullcone_pair(alg, u.xreg, alg.random_element(rng, 2, where="u"))
    expected = 3 * (alg.borel_dim - alg.rank)
    return rep.rank == expected, {"rank": rep.rank, "expected": expected}


def _mu_kernel(u, rng):
    alg = u.alg
    rep = u.notes["mu"] = geo.mu_kernel(alg, u.xreg, alg.random_element(rng, 2, where="u"))
    return rep.kernel_dim == alg.borel_dim, {"kernel": rep.kernel_dim, "expected": alg.borel_dim}


def _rank_nullity(u, rng):
    rep = u.notes["mu"]
    return rep.rank + rep.kernel_dim == rep.domain_dim, None


def _pencil_tangent_vanishing(u, rng):
    alg = u.alg
    y = alg.random_element(rng, 2, where="u")
    tangents = geo.nullcone_tangent_spanners(alg, u.xreg, y)
    return geo.pencil_tangent_vanishing(alg, u.xreg, y, tangents), None


def _pencil_consistency(u, rng):
    # p_i(x + t y) = sum_k t^k p_i^(k)(x, y) at max-degree + 1 distinct t,
    # enough points to pin down every p_i along the pencil
    alg = u.alg
    x, y = alg.random_element(rng, 2, where="h"), alg.random_element(rng, 2, where="h")
    pols = alg.polarize_all(x, y)
    ok = all(
        _reassembly_failure(alg, pols, x, y, 1, t) is None for t in range(alg.degrees[-1] + 1)
    )
    return ok or {"x": x, "y": y}


def _commuting(u, rng):
    alg = u.alg
    h1, h2 = alg.random_element(rng, 2, where="h"), alg.random_element(rng, 2, where="h")
    g = _unipotent(alg, rng)
    if alg.sigma(g.conjugate(h1), g.conjugate(h2)) != alg.sigma(h1, h2):
        return {"h1": h1, "h2": h2}
    # sigma vanishes on (n, q(n)) for n nilpotent and q(t) = c_1 t + c_2 t^2
    n = alg.random_element(rng, 2, where="u")
    coeffs = randints(rng, -2, 2, 2)
    q = la.add(la.scale(coeffs[0], n), la.scale(coeffs[1], la.mul(n, n)))
    return not any(alg.sigma(n, q)) or {"n": n, "coeffs": coeffs}


def _h_component_conjugation(u, rng):
    # ((n_w b)(x))_0 = w(x_0) for x in the Borel and b in the Borel group
    alg = u.alg
    x = alg.random_element(rng, 2, where="b")
    word = tuple(randints(rng, 1, alg.rank, randints(rng, 0, 4, 1)[0]))
    b_elem = _unipotent(alg, rng)
    b_elem = b_elem * alg.torus(_torus_params(rng, (1, 2, Fraction(1, 2), 3), alg.rank))
    n_w = alg.weyl_rep(word)
    ok = alg.h_component((n_w * b_elem).conjugate(x)) == n_w.conjugate(alg.h_component(x))
    return ok or {"x": x, "word": word}


def _height_grading(u, rng):
    # x in the Borel is its Cartan part x_0 plus parts x_h on the roots of
    # height h; rho^vee grades them, [rho^vee, x_h] = h x_h, and they sum to x,
    # checked over int with L rho^vee, L the denominator of rho^vee
    alg = u.alg
    x = alg.random_element(rng, 2, where="b")
    parts, heights = {0: alg.h_component(x)}, []
    for root, c in zip(alg.rs.positive_roots, alg.coordinates(x)[alg.rank :]):
        if c:
            h = alg.rs.root_height(root)
            heights.append(h)
            part = la.scale(c, alg.pos_vectors[root])
            parts[h] = la.add(parts[h], part) if h in parts else part
    lcd, t = la.clear_denominators(alg.height_element)
    ok = all(la.commutator(t, part) == la.scale(lcd * h, part) for h, part in parts.items())
    ok = ok and la.is_zero(la.sub(x, reduce(la.add, parts.values())))
    return ok or {"x": x, "heights": sorted(heights)}


def _sigma_fibers(u, rng):
    # a direct body: each pair is also compared with the next one drawn
    alg, group = u.alg, u.group
    pairs = [
        (alg.random_element(rng, 3, where="h"), alg.random_element(rng, 3, where="h"))
        for _ in range(max(5, u.config.samples // 2))
    ]
    ok = True
    for i, pa in enumerate(pairs):
        rep_w = alg.weyl_rep(group[randints(rng, 0, len(group) - 1, 1)[0]].word)
        moved = (rep_w.conjugate(pa[0]), rep_w.conjugate(pa[1]))
        ok = geo.sigma_fiber_is_weyl_orbit(alg, group, pa, moved) and ok
        if i + 1 < len(pairs):
            ok = geo.sigma_fiber_is_weyl_orbit(alg, group, pa, pairs[i + 1]) and ok
    return ok, None


def _rank_monotonicity(u, rng):
    alg = u.alg
    xb, yb = alg.random_element(rng, 2, where="b"), alg.random_element(rng, 2, where="b")
    if geo.rank_borel_pair(alg, xb, yb).rank > 3 * alg.borel_dim - alg.rank:
        return {"borel_pair": (xb, yb)}
    xu, yu = alg.random_element(rng, 2, where="u"), alg.random_element(rng, 2, where="u")
    ok = geo.rank_nullcone_pair(alg, xu, yu).rank <= 3 * (alg.borel_dim - alg.rank)
    return ok or {"nilpotent_pair": (xu, yu)}


def _nonregular_hyperplanes(u, rng):
    alg = u.alg
    x, y = alg.random_element(rng, 2, where="h"), alg.random_element(rng, 2, where="h")
    if alg.is_regular_element(x) or alg.is_regular_element(y):
        return None
    for z in (x, y):
        if not any(alg.root_value(r, z) == 0 for r in alg.rs.positive_roots):
            return {"off_every_hyperplane": z}
    return True


def _singular_summary(u, n):
    plain, stratum = u.notes.get("singular", (0, 0))
    generic = 3 * (u.alg.borel_dim - u.alg.rank)
    return True, {
        "samples": n,
        "max_rank": plain,
        "max_stratum_rank": stratum,
        "generic": generic,
        "generic_minus_four": generic - 4,
        "stratum_rank_le_generic_minus_four": stratum <= generic - 4,
    }


def _singular_stratum(u, rng):
    # measured, not asserted: tangent ranks over the doubly non-regular
    # nilpotent stratum (fiber directions restricted to the stratum),
    # reported next to the generic value minus four
    alg = u.alg
    xu, yu = alg.random_element(rng, 1, where="u"), alg.random_element(rng, 1, where="u")
    if alg.is_regular_element(xu) or alg.is_regular_element(yu):
        return None
    plain, stratum = u.notes.get("singular", (0, 0))
    u.notes["singular"] = (
        max(plain, geo.rank_nullcone_pair(alg, xu, yu).rank),
        max(stratum, geo.rank_nonregular_stratum_pair(alg, xu, yu).rank),
    )
    return True


def _membership(u, rng):
    alg = u.alg
    u1, u2 = alg.random_element(rng, 2, where="u"), alg.random_element(rng, 2, where="u")
    g = _unipotent(alg, rng)
    g = g * alg.weyl_rep(tuple(randints(rng, 1, alg.rank, 2)))
    m = geo.nullcone_membership(alg, g.conjugate(u1), g.conjugate(u2))
    return m.status == "member" or {"rejected": [m.reason]}


# -- the check table -------------------------------------------------------------


def _unrealized(reason: str):
    """A body that skips each type without a matrix realization and is silent on the rest.

    The skip of a type in a realized family names that family's realized
    ranks; ``reason`` is the skip of every other family.
    """
    def body(u, rng):
        if u.stype.name in ALGEBRA_TYPES:
            return None
        fam, ranks = u.stype.family, SUPPORTED_RANKS.get(u.stype.family)
        if ranks:
            return "skipped", f"type {fam} is realized at {fam}{ranks[0]}-{fam}{ranks[-1]} only"
        return "skipped", reason

    return body


#: the entries of each suite, in run order
_CHECKS = {
    "roots": (
        _Check("positive-count", "number of positive roots matches the classical closed form",
               _positive_count),
        _Check("simple-reflection-permutation", "each simple reflection permutes the other "
               "positive roots and negates its own root", _simple_reflections),
        _Check("rho-half-sum", "half the sum of the positive roots pairs to 1 with every simple "
               "coroot", _rho_half_sum),
        _Check("weight-reflect-commutes", "reflecting a root then taking coroot pairings equals "
               "reflecting the pairings", _weight_reflect),
        _Check("weyl-order", "generated Weyl group order matches the classical formula",
               _weyl_order),
        _Check("torus-borel-count", "distinct torus-fixed Borels (sets w(R+)) number exactly |W|",
               _torus_borel_count),
        _Check("length-inversions", "reduced word length equals the inversion count for every "
               "element", _length_inversions),
    ),
    "invariants": (
        _Check("matrix-realization", "a matrix realization exists for this type",
               _unrealized("no realization shipped (type D uses a Pfaffian; E/F/G none)")),
        _Check("degree-sum", "invariant degrees sum to the Borel dimension", _degree_sum,
               ALGEBRA_TYPES),
        _Check("sigma-length", "the polarization vector has borel_dim + rank entries",
               _sigma_length, ALGEBRA_TYPES),
        _Check("polarization-identity", "p_i(a x + b y) equals its polarization expansion exactly "
               "on seeded integer samples", _polarization, ALGEBRA_TYPES, "polarization",
               draws=lambda samples: samples),
        _Check("sigma-borel-reduction", "on Borel pairs sigma only sees the Cartan components",
               _borel_reduction, ALGEBRA_TYPES, "borel-reduction", draws=_fifth),
        _Check("sigma-conjugation-invariance", "sigma is constant under sampled unipotent and "
               "torus conjugations", _conjugation, ALGEBRA_TYPES, "conjugation", draws=_fifth),
        _Check("euler-identity", "the trace-form gradient satisfies <eps_i(x), x> = d_i p_i(x)",
               _euler, ALGEBRA_TYPES, "euler", draws=3),
        _Check("gradient-pairing", "<eps_i(x), v> equals the exact directional derivative for "
               "every basis direction", _gradient_pairing, ALGEBRA_TYPES, "gradient", draws=1),
        _Check("epsilon-polarization-identity",
               "the gradient polarizations reassemble eps_i(a x + b y) exactly",
               _eps_polarization, ALGEBRA_TYPES, "eps-polarization", draws=1),
        _Check("sigma-weyl-invariance", "sigma is invariant under the whole realized Weyl group "
               "on Cartan pairs", _weyl_invariance, ("A1", "A2", "B2"), "weyl", draws=3),
        _Check("gradient-span-borel", "on regular Borel pencils the gradient polarizations span "
               "exactly the Borel subalgebra", _span_is_borel, ("A1", "A2", "B2"), "span",
               draws=lambda samples: max(5, samples // 5),
               summary=lambda u, n: (True, {"pairs_checked": n})),
    ),
    "geometry": (
        _Check("regular-semisimple-fiber-count", "torus Borels containing a regular semisimple "
               "element number |W|", _fiber_count),
        _Check("line-chains", "every torus Borel pair sharing a nilpotent support is joined by a "
               "chain of projective lines of length l(w)", _line_chains, stream="chains"),
        _Check("matrix-checks", "tangent-rank and fiber checks on the matrix realization",
               _unrealized("no matrix realization for this type")),
        _Check("borel-pair-rank", "the Borel-pair tangent map attains rank 3*b_g - rk at a "
               "witness point", _borel_pair_rank, ALGEBRA_TYPES, "ranks"),
        _Check("nullcone-pair-rank", "the nilpotent-pair tangent map attains rank 3*(b_g - rk) at "
               "a regular nilpotent witness", _nullcone_pair_rank, ALGEBRA_TYPES, "ranks"),
        _Check("mu-kernel", "the pair map on g x u x u has kernel dimension b_g at a regular "
               "nilpotent", _mu_kernel, ALGEBRA_TYPES, "ranks"),
        _Check("rank-nullity", "rank plus kernel dimension equals the domain dimension",
               _rank_nullity, ALGEBRA_TYPES),
        _Check("pencil-tangent-vanishing", "tangent directions of the nilpotent pair variety "
               "annihilate the invariant differentials along the whole pencil",
               _pencil_tangent_vanishing, ALGEBRA_TYPES, "pencil"),
        _Check("sigma-pencil-consistency", "sigma reassembled along a pencil of parameters "
               "reproduces the plain invariants pointwise", _pencil_consistency, ALGEBRA_TYPES,
               "pencil-consistency", draws=_fifth),
        _Check("commuting-pairs-sigma", "sigma collapses commuting pairs to their Cartan data: "
               "conjugated Cartan pairs keep their value, nilpotent polynomial pairs give 0",
               _commuting, ALGEBRA_TYPES, "commuting", draws=_fifth),
        _Check("h-component-conjugation", "conjugating a Borel element by n_w b moves its Cartan "
               "component by exactly w", _h_component_conjugation, ALGEBRA_TYPES, "tau",
               draws=_fifth),
        _Check("height-grading", "Borel elements decompose into height-graded eigencomponents of "
               "the grading element", _height_grading, ALGEBRA_TYPES, "grading", draws=_fifth),
        _Check("sigma-fiber-weyl-orbit", "two Cartan pairs share a sigma value exactly when they "
               "share a diagonal Weyl orbit", _sigma_fibers, ("A1", "A2", "B2"), "fibers"),
        _Check("rank-monotonicity", "tangent ranks never exceed their generic values at any "
               "sampled point", _rank_monotonicity, ALGEBRA_TYPES, "monotonicity", draws=_fifth),
        _Check("nonregular-pair-hyperplanes", "both members of a doubly non-regular Cartan pair "
               "lie on explicit root hyperplanes (so such pairs have codimension at least two)",
               _nonregular_hyperplanes, ALGEBRA_TYPES, "hyperplanes", draws=50,
               summary=lambda u, n: (True, {"pairs_witnessed": n})),
        _Check("singular-stratum-ranks", "measured tangent ranks over doubly non-regular "
               "nilpotent pairs, reported against the generic value minus four", _singular_stratum,
               ("A1", "A2"), "singular", draws=200, summary=_singular_summary),
        # membership is always decided; "undecided" stays for the report schema
        _Check("membership-constructed-pairs", "conjugated nilradical pairs are never rejected by "
               "the common-flag search", _membership, ("A1", "A2", "A3"), "membership",
               draws=lambda samples: max(5, samples // 2),
               summary=lambda u, n: (True, {"members": n, "undecided": 0, "rejected": []})),
    ),
}


# -- assembly ------------------------------------------------------------------


def _type_results(config: RunConfig, stype: SimpleType) -> list:
    """The records of each configured suite on one type, each timed as it arrives.

    The suites share one :class:`_Unit`.  A record's elapsed time runs from
    the previous record of its suite (or the suite's start), so set-up
    shared by later checks is charged to the first check after it.  An
    entry that hits the Weyl enumeration cap is skipped by
    :func:`_run_check`, and the type's other records stay.
    """
    unit, results = _Unit(config, stype), []
    for suite in config.suites:
        last = time.perf_counter()  # building the shifts records runs the whole pass
        if suite == "shifts":
            records = (_result(f"shifts/{o.check_id}", o.claim, o.ok, o.witness)
                       for o in full_shift_report(unit.rs))
        else:
            records = (_run_check(check, unit, suite) for check in _CHECKS[suite]
                       if check.types is None or stype.name in check.types)
        for record in records:
            if record is None:
                continue
            now = time.perf_counter()
            results.append(record._replace(elapsed=now - last))
            last = now
    return results


# Type slots of the shared queue: one byte each, slot b holding the parsed
# types stypes[b::_SLOTS], so a run of any length fills at most 256 bytes
# of the pipe before any process reads it.
_SLOTS = 256


class _ChildTraceback(Exception):
    """The traceback text of an exception a forked child raised (pickling drops the traceback)."""


def _records(config: RunConfig, stypes: tuple, slots) -> list:
    """The records of every configured suite on the types of each queue slot in ``slots``."""
    return [c for b in slots for stype in stypes[b::_SLOTS] for c in _type_results(config, stype)]


def _slot_order(stypes: tuple) -> bytes:
    """The queue's slots, costliest first, so no large type is handed out last.

    A slot costs the positive roots of its types, and slots of equal cost
    keep the configured order: Graham's largest-first rule, whose finish
    time is within 4/3 of the best.
    """
    def cost(b):
        return sum(POSITIVE_ROOT_COUNTS[s.family](s.rank) for s in stypes[b::_SLOTS])

    return bytes(sorted(range(min(len(stypes), _SLOTS)), key=lambda b: -cost(b)))


def _queued(queue: int):
    """The slots this process reads from the ``queue`` pipe, one byte each, until EOF."""
    while slot := os.read(queue, 1):
        yield slot[0]


def _process_count(config: RunConfig) -> int:
    """How many processes share out the run's types; 1 runs them all in this one.

    Forking needs ``os.fork``, a second CPU and no other thread in this
    process (a forked child gets only the forking thread, so a lock another
    thread holds would stay locked in it).  No more processes start than
    there are types.
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return min(cpus, len(config.types))


def _child_result(config: RunConfig, stypes: tuple, queue: int) -> bytes:
    """The pickled ``(records, None, None)`` of the types this child reads from
    ``queue``, or ``(None, exception, traceback text)`` if it raised.

    An exception that cannot be pickled, or that the parent could not
    rebuild from its pickle, is sent as a ``RuntimeError`` naming it, with
    both tracebacks in the text.
    """
    import pickle  # already loaded: the parent imported it before forking

    try:
        return pickle.dumps((_records(config, stypes, _queued(queue)), None, None))
    except BaseException as exc:  # the parent re-raises it
        import traceback

        error, text = exc, traceback.format_exc()
    try:
        data = pickle.dumps((None, error, text))
        pickle.loads(data)
        return data
    except BaseException:
        text += "\nIt could not be sent to the parent process:\n\n" + traceback.format_exc()
        name = "".join(traceback.format_exception_only(type(error), error)).strip()
        message = f"worker process {os.getpid()} raised an exception it could not send: {name}"
        return pickle.dumps((None, RuntimeError(message), text))


def _work_as_child(config: RunConfig, stypes: tuple, queue: int, out: int) -> None:
    """Run the types read from ``queue`` in a forked child, write their pickled
    result (see :func:`_child_result`) to ``out``, and exit.

    Never returns: the child exits with status 0 once its result is
    written, and with status 1 if it could not be written.
    """
    status = 1
    try:
        data = _child_result(config, stypes, queue)
        with open(out, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _shared_results(config: RunConfig, stypes: tuple, processes: int) -> list:
    """The records of every type of ``stypes``, shared out between this process and
    ``processes - 1`` forked children, each type run whole by one process.

    The queue is a pipe holding one byte per type slot, costliest slot
    first (:func:`_slot_order`), filled and closed before any fork; every
    process reads one slot at a time until EOF.  A run that forks imports
    ``pickle`` before its first fork, so no child imports a module before
    its first type.
    Each child pickles its records (or the exception it raised, with its
    traceback text) to a pipe of its own.  Once its own share is done,
    this process reads each child's pipe to EOF, reaps the child and
    re-raises its exception, with the child's traceback as the cause, or
    raises ``RuntimeError`` for a child that exited without a result.
    Whatever this process raises, it first kills and reaps the children
    still running.  A fork that fails leaves the queue to the processes
    already running.
    """
    queue, fill = os.pipe()
    os.write(fill, _slot_order(stypes))
    os.close(fill)
    children = {}  # pid -> read end of its result pipe, until the child is reaped
    try:
        if processes > 1:
            import pickle
        for _ in range(processes - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                _work_as_child(config, stypes, queue, write_end)
            os.close(write_end)
            children[pid] = read_end
        results = _records(config, stypes, _queued(queue))
        for pid, read_end in list(children.items()):
            with open(read_end, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if status != 0 or not data:
                raise RuntimeError(f"worker process {pid} exited with status {status} "
                                   "and no result")
            records, error, text = pickle.loads(data)
            if error is not None:
                error.__cause__ = _ChildTraceback(text)
                raise error
            results.extend(records)
        return results
    finally:
        os.close(queue)
        for pid, read_end in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)


def run(config: RunConfig):
    """Execute the configured suites; returns (exit_code, results).

    The results are grouped by suite x type, the groups sorted by name and
    each group's records in the order they were checked.  Each type is
    parsed here, once, and checked and reported by its canonical name (``a2``
    as ``A2``).  A count below 1, an unknown suite, a name that is not a
    valid simple type or a type named twice (``A2`` and ``a2`` included)
    raises ``ValueError`` before any type runs.
    """
    for field in ("samples", "max_weyl_order"):
        if getattr(config, field) < 1:
            raise ValueError(f"{field} must be at least 1, got {getattr(config, field)!r}")
    for suite in config.suites:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}")
    stypes = []
    for tname in config.types:
        try:
            stype = SimpleType.from_name(tname)
        except ValueError as exc:
            raise ValueError(f"invalid simple type {tname!r}: {exc}") from None
        if stype in stypes:
            raise ValueError(f"type {tname!r} repeats {stype.name!r}")
        stypes.append(stype)
    results = _shared_results(config, tuple(stypes), _process_count(config))
    results.sort(key=lambda c: c.check_id.rpartition("/")[0])
    statuses = {c.status for c in results}
    exit_code = 1 if "fail" in statuses else 0 if "pass" in statuses else 3
    return exit_code, results


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_jsonable(v) for v in items]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return repr(value)


def structured_lines(config: RunConfig, results) -> list:
    """Line-delimited JSON records, sorted by check id, no timings; types by canonical name."""
    header = {
        "schema": SCHEMA_ID,
        "tool_version": TOOL_VERSION,
        "config": {
            "suites": list(config.suites),
            "types": [SimpleType.from_name(t).name for t in config.types],
            "seed": config.seed,
            "samples": config.samples,
            "max_weyl_order": config.max_weyl_order,
        },
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for c in sorted(results, key=lambda c: c.check_id):
        record = {
            "check_id": c.check_id,
            "claim": c.claim,
            "status": c.status,
            "witness": _jsonable(c.witness),
        }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return lines


def text_lines(config: RunConfig, results) -> list:
    lines = [f"nullcone-verify {TOOL_VERSION} (seed {config.seed})"]
    counts = {"pass": 0, "fail": 0, "undecided": 0, "skipped": 0}
    for c in results:
        counts[c.status] += 1
        mark = {"pass": "ok", "fail": "FAIL", "undecided": "??", "skipped": "--"}[c.status]
        drawn = "" if c.draws is None else f", {c.draws} draw{'s' * (c.draws != 1)}"
        line = f"[{mark:>4}] {c.check_id}  ({c.elapsed:.3f}s{drawn})"
        if c.status in ("fail", "undecided"):
            line += f"\n       claim: {c.claim}\n       witness: {c.witness!r}"
        lines.append(line)
    lines.append(
        "summary: {pass} passed, {fail} failed, {undecided} undecided, "
        "{skipped} skipped".format(**counts)
    )
    return lines
