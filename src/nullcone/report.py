"""Verification suites with deterministic, diff-friendly reports.

A run is configured by :class:`RunConfig` and produces a list of
:class:`CheckResult`.  Structured output is line-delimited JSON sorted by
check id with a versioned schema identifier; it contains no timing and no
environment data, so two runs with the same configuration are
byte-identical.  Text output is for humans and includes each check's
measured time: the time since the previous record of its suite x type unit,
so set-up shared by several checks is charged to the first of them.

Exit status convention: 0 when nothing failed, 1 when any check failed
(undecided and skipped do not fail a run), 2 for usage errors.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import geometry as geo
from . import linalg as la
from . import __version__
from .algebra import SUPPORTED_RANKS, build_algebra
from .roots import POSITIVE_ROOT_COUNTS, SimpleType, build_root_system
from .shifts import full_shift_report
from .weyl import (
    WeylOrderError,
    borels_containing_torus,
    chain_of_lines,
    generate_weyl,
    inversions,
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

_EXHAUSTIVE_WEYL_CAP = 1152  # largest group walked element by element


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    claim: str
    status: str  # 'pass' | 'fail' | 'undecided' | 'skipped'
    witness: object = None
    elapsed: float = 0.0


@dataclass(frozen=True)
class RunConfig:
    suites: tuple = SUITES
    types: tuple = DEFAULT_TYPES
    seed: int = 1789
    samples: int = 25
    max_weyl_order: int = 10**6
    output_format: str = "text"  # 'text' | 'structured'


def _rng(config: RunConfig, label: str) -> random.Random:
    return random.Random(f"{config.seed}:{label}")


def _sampled_check(config: RunConfig, label: str, sample, count=None) -> bool:
    """A sampled check passes iff ``sample(rng)`` holds on every seeded draw.

    ``rng`` is seeded by ``label``; ``count`` defaults to max(3, samples // 5).
    """
    rng = _rng(config, label)
    if count is None:
        count = max(3, config.samples // 5)
    return all(sample(rng) for _ in range(count))


def _result(check_id, claim, ok, witness=None) -> CheckResult:
    if ok in ("undecided", "skipped"):
        status = ok
    else:
        status = "pass" if ok else "fail"
    if status in ("fail", "undecided") and witness is None:
        witness = "no further detail"
    return CheckResult(check_id, claim, status, witness)


def _parse_type(name: str):
    try:
        return SimpleType.from_name(name)
    except (ValueError, IndexError) as exc:
        return str(exc)


# -- roots suite ---------------------------------------------------------------


def _roots_checks(config: RunConfig, tname: str):
    stype = SimpleType.from_name(tname)
    rs = build_root_system(stype.family, stype.rank)
    expected = POSITIVE_ROOT_COUNTS[stype.family](stype.rank)
    yield _result(
        f"roots/{tname}/positive-count",
        "number of positive roots matches the classical closed form",
        len(rs.positive_roots) == expected,
        {"found": len(rs.positive_roots), "expected": expected},
    )

    bad = []
    for i in range(1, rs.rank + 1):
        beta = tuple(1 if j == i - 1 else 0 for j in range(rs.rank))
        images = set()
        for r in rs.positive_roots:
            img = rs.reflect_root(r, i)
            if r == beta:
                if img != tuple(-x for x in beta):
                    bad.append((i, r))
            elif not rs.is_positive_root(img):
                bad.append((i, r))
            images.add(img)
        if len(images) != len(rs.positive_roots):
            bad.append((i, "not injective"))
    yield _result(
        f"roots/{tname}/simple-reflection-permutation",
        "each simple reflection permutes the other positive roots and "
        "negates its own root",
        not bad,
        bad or None,
    )

    total = [0] * rs.rank
    for r in rs.positive_roots:
        for k in range(rs.rank):
            total[k] += r[k]
    half_sum = tuple(Fraction(t, 2) for t in total)
    pairings = tuple(
        sum(rs.cartan[i][j] * half_sum[j] for j in range(rs.rank))
        for i in range(rs.rank)
    )
    yield _result(
        f"roots/{tname}/rho-half-sum",
        "half the sum of the positive roots pairs to 1 with every simple coroot",
        pairings == (1,) * rs.rank,
        pairings if pairings != (1,) * rs.rank else None,
    )

    bad = []
    for r in rs.positive_roots:
        wr = rs.weight_of_root(r)
        for i in range(1, rs.rank + 1):
            img = rs.reflect_root(r, i)
            if rs.is_root(img) and rs.weight_of_root(img) != rs.reflect(wr, i):
                bad.append((r, i))
    yield _result(
        f"roots/{tname}/weight-reflect-commutes",
        "reflecting a root then taking coroot pairings equals reflecting "
        "the pairings",
        not bad,
        bad or None,
    )

    order = weyl_order(rs)
    order_id = f"roots/{tname}/weyl-order"
    order_claim = "generated Weyl group order matches the classical formula"
    if order > config.max_weyl_order:
        yield _result(
            order_id,
            order_claim,
            "skipped",
            f"group order {order} above the cap {config.max_weyl_order}",
        )
        return
    group = generate_weyl(rs, config.max_weyl_order)
    yield _result(
        order_id, order_claim, len(group) == order, {"generated": len(group), "expected": order}
    )
    yield _result(
        f"roots/{tname}/torus-borel-count",
        "distinct torus-fixed Borels (sets w(R+)) number exactly |W|",
        borels_containing_torus(rs, group) == order,
    )
    if order <= _EXHAUSTIVE_WEYL_CAP:
        bad = [w.word for w in group if len(w.word) != inversions(rs, w)]
        yield _result(
            f"roots/{tname}/length-inversions",
            "reduced word length equals the inversion count for every element",
            not bad,
            bad[:5] or None,
        )


# -- invariants suite -----------------------------------------------------------


def _invariants_checks(config: RunConfig, tname: str):
    if tname not in ALGEBRA_TYPES:
        yield _result(
            f"invariants/{tname}/matrix-realization",
            "a matrix realization exists for this type",
            "skipped",
            "no realization shipped (type D uses a Pfaffian; E/F/G none)",
        )
        return
    stype = SimpleType.from_name(tname)
    alg = build_algebra(stype.family, stype.rank)
    yield _result(
        f"invariants/{tname}/degree-sum",
        "invariant degrees sum to the Borel dimension",
        sum(alg.degrees) == alg.borel_dim,
        {"degrees": alg.degrees, "borel_dim": alg.borel_dim},
    )
    yield _result(
        f"invariants/{tname}/sigma-length",
        "the polarization vector has borel_dim + rank entries",
        len(alg.sigma(la.zeros(alg.size, alg.size), la.zeros(alg.size, alg.size)))
        == alg.borel_dim + alg.rank,
    )

    rng = _rng(config, f"invariants/{tname}/polarization")
    bad = None
    for _ in range(config.samples):
        x = alg.random_element(rng, 2)
        y = alg.random_element(rng, 2)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        pols = alg.polarize_all(x, y)
        direct = alg.eval_all_p(la.add(la.scale(a, x), la.scale(b, y)))
        for idx, d in enumerate(alg.degrees):
            total = sum(
                a ** (d - k) * b**k * c
                for k, c in enumerate(pols[idx])
            )
            if total != direct[idx]:
                bad = {"invariant": idx + 1, "a": a, "b": b}
        if bad:
            break
    yield _result(
        f"invariants/{tname}/polarization-identity",
        "p_i(a x + b y) equals its polarization expansion exactly on "
        "seeded integer samples",
        bad is None,
        bad,
    )

    def borel_reduction(rng):
        x = alg.random_element(rng, 2, where="b")
        y = alg.random_element(rng, 2, where="b")
        return alg.sigma(x, y) == alg.sigma(alg.h_component(x), alg.h_component(y))

    yield _result(
        f"invariants/{tname}/sigma-borel-reduction",
        "on Borel pairs sigma only sees the Cartan components",
        _sampled_check(config, f"invariants/{tname}/borel-reduction", borel_reduction),
    )

    def conjugation(rng):
        x = alg.random_element(rng, 2)
        y = alg.random_element(rng, 2)
        g = alg.unipotent({r: rng.randint(-2, 2) for r in alg.rs.positive_roots})
        g = g * alg.torus([rng.choice([1, 2, 3, Fraction(1, 2)]) for _ in range(alg.rank)])
        return alg.sigma(g.conjugate(x), g.conjugate(y)) == alg.sigma(x, y)

    yield _result(
        f"invariants/{tname}/sigma-conjugation-invariance",
        "sigma is constant under sampled unipotent and torus conjugations",
        _sampled_check(config, f"invariants/{tname}/conjugation", conjugation),
    )

    def euler(rng):
        x = alg.random_element(rng, 2)
        eps = alg.epsilon_all(x)
        ps = alg.eval_all_p(x)
        return all(alg.trace_form(eps[i], x) == d * ps[i] for i, d in enumerate(alg.degrees))

    yield _result(
        f"invariants/{tname}/euler-identity",
        "the trace-form gradient satisfies <eps_i(x), x> = d_i p_i(x)",
        _sampled_check(config, f"invariants/{tname}/euler", euler, 3),
    )

    def gradient_pairing(rng):
        x = alg.random_element(rng, 2)
        pairs = tuple(zip(alg.epsilon_all(x), alg.gradient_matrices(x)))
        return all(
            alg.trace_form(eps, v) == la.trace_mul(grad, v)
            for v in alg.basis
            for eps, grad in pairs
        )

    yield _result(
        f"invariants/{tname}/gradient-pairing",
        "<eps_i(x), v> equals the exact directional derivative for every "
        "basis direction",
        _sampled_check(config, f"invariants/{tname}/gradient", gradient_pairing, 1),
    )

    def eps_polarization(rng):
        x = alg.random_element(rng, 2)
        y = alg.random_element(rng, 2)
        a, b = 2, 3
        target = alg.epsilon_all(la.add(la.scale(a, x), la.scale(b, y)))
        for d, parts, want in zip(alg.degrees, alg.epsilon_polarize_all(x, y), target):
            total = la.zeros(alg.size, alg.size)
            for m, part in enumerate(parts):
                total = la.add(
                    total, la.scale(a ** (d - m - 1) * b**m, part)
                )
            if total != want:
                return False
        return True

    yield _result(
        f"invariants/{tname}/epsilon-polarization-identity",
        "the gradient polarizations reassemble eps_i(a x + b y) exactly",
        _sampled_check(config, f"invariants/{tname}/eps-polarization", eps_polarization, 1),
    )

    if tname not in ("A1", "A2", "B2"):
        return
    group = generate_weyl(alg.rs, config.max_weyl_order)

    def weyl_invariance(rng):
        x = alg.random_element(rng, 3, where="h")
        y = alg.random_element(rng, 2, where="h")
        s0 = alg.sigma(x, y)
        for w in group:
            rep = alg.weyl_rep(w.word)
            if alg.sigma(rep.conjugate(x), rep.conjugate(y)) != s0:
                return False
        return True

    yield _result(
        f"invariants/{tname}/sigma-weyl-invariance",
        "sigma is invariant under the whole realized Weyl group on "
        "Cartan pairs",
        _sampled_check(config, f"invariants/{tname}/weyl", weyl_invariance, 3),
    )

    def span_is_borel(rng):
        span = alg.borel_span(*_regular_pencil_pair(alg, rng))
        return span.dim == alg.borel_dim and span.in_borel

    count = max(5, config.samples // 5)
    yield _result(
        f"invariants/{tname}/gradient-span-borel",
        "on regular Borel pencils the gradient polarizations span "
        "exactly the Borel subalgebra",
        _sampled_check(config, f"invariants/{tname}/span", span_is_borel, count),
        {"pairs_checked": count},
    )


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
    for root in alg.rs.positive_roots:
        if alg.rs.is_simple(root):
            y = la.add(y, la.scale(3, alg.pos_vectors[root]))
    return x, y


# -- geometry suite ---------------------------------------------------------------


def _geometry_checks(config: RunConfig, tname: str):
    stype = SimpleType.from_name(tname)
    rs = build_root_system(stype.family, stype.rank)
    order = weyl_order(rs)
    fiber_id = f"geometry/{tname}/regular-semisimple-fiber-count"
    fiber_claim = "torus Borels containing a regular semisimple element number |W|"
    if order > config.max_weyl_order:
        yield _result(fiber_id, fiber_claim, "skipped", f"group order {order} above the cap")
    else:
        group = generate_weyl(rs, config.max_weyl_order)
        yield _result(
            fiber_id, fiber_claim, borels_containing_torus(rs, group) == order, {"expected": order}
        )
        rng = _rng(config, f"geometry/{tname}/chains")
        bad = []
        sample = rng.sample(group, 60) if len(group) > 60 else group
        for w in sample:
            pos_image = {w.apply_root(rs, r) for r in rs.positive_roots}
            common = [r for r in rs.positive_roots if r in pos_image]
            support = [r for r in common if rng.random() < 0.5]
            try:
                chain = chain_of_lines(rs, support, w)
            except (ValueError, AssertionError) as exc:
                bad.append((w.word, str(exc)))
                continue
            if len(chain) != len(w.word) + 1 or chain[-1].perm != w.perm:
                bad.append((w.word, "wrong endpoints"))
        yield _result(
            f"geometry/{tname}/line-chains",
            "every torus Borel pair sharing a nilpotent support is joined "
            "by a chain of projective lines of length l(w)",
            not bad,
            bad[:5] or None,
        )

    if tname not in ALGEBRA_TYPES:
        yield _result(
            f"geometry/{tname}/matrix-checks",
            "tangent-rank and fiber checks on the matrix realization",
            "skipped",
            "no matrix realization for this type",
        )
        return

    alg = build_algebra(stype.family, stype.rank)
    b_g, rk = alg.borel_dim, alg.rank
    rng = _rng(config, f"geometry/{tname}/ranks")
    xreg = alg.regular_nilpotent()
    hreg = _regular_cartan(alg, rng)
    rep = geo.rank_borel_pair(alg, hreg, la.add(xreg, alg.random_element(rng, 2, where="b")))
    yield _result(
        f"geometry/{tname}/borel-pair-rank",
        "the Borel-pair tangent map attains rank 3*b_g - rk at a witness point",
        rep.rank == 3 * b_g - rk,
        {"rank": rep.rank, "expected": 3 * b_g - rk},
    )
    rep = geo.rank_nullcone_pair(alg, xreg, alg.random_element(rng, 2, where="u"))
    yield _result(
        f"geometry/{tname}/nullcone-pair-rank",
        "the nilpotent-pair tangent map attains rank 3*(b_g - rk) at a "
        "regular nilpotent witness",
        rep.rank == 3 * (b_g - rk),
        {"rank": rep.rank, "expected": 3 * (b_g - rk)},
    )
    rep = geo.mu_kernel(alg, xreg, alg.random_element(rng, 2, where="u"))
    yield _result(
        f"geometry/{tname}/mu-kernel",
        "the pair map on g x u x u has kernel dimension b_g at a regular "
        "nilpotent",
        rep.kernel_dim == b_g,
        {"kernel": rep.kernel_dim, "expected": b_g},
    )
    yield _result(
        f"geometry/{tname}/rank-nullity",
        "rank plus kernel dimension equals the domain dimension",
        rep.rank + rep.kernel_dim == rep.domain_dim,
    )

    rng = _rng(config, f"geometry/{tname}/pencil")
    y = alg.random_element(rng, 2, where="u")
    tangents = geo.nullcone_tangent_spanners(alg, xreg, y)
    yield _result(
        f"geometry/{tname}/pencil-tangent-vanishing",
        "tangent directions of the nilpotent pair variety annihilate the "
        "invariant differentials along the whole pencil",
        geo.pencil_tangent_vanishing(alg, xreg, y, tangents, range(6)),
    )

    def pencil_consistency(rng):
        x = alg.random_element(rng, 2, where="h")
        yh = alg.random_element(rng, 2, where="h")
        return geo.sigma_pencil_consistency(alg, x, yh, range(alg.degrees[-1] + 1))

    yield _result(
        f"geometry/{tname}/sigma-pencil-consistency",
        "sigma reassembled along a pencil of parameters reproduces the "
        "plain invariants pointwise",
        _sampled_check(config, f"geometry/{tname}/pencil-consistency", pencil_consistency),
    )

    def commuting(rng):
        h1 = alg.random_element(rng, 2, where="h")
        h2 = alg.random_element(rng, 2, where="h")
        g = alg.unipotent({r: rng.randint(-2, 2) for r in alg.rs.positive_roots})
        if not geo.conjugated_cartan_sigma_check(alg, h1, h2, g):
            return False
        n_elem = alg.random_element(rng, 2, where="u")
        return geo.nilpotent_polynomial_sigma_check(
            alg, n_elem, [rng.randint(-2, 2) for _ in range(2)]
        )

    yield _result(
        f"geometry/{tname}/commuting-pairs-sigma",
        "sigma collapses commuting pairs to their Cartan data: conjugated "
        "Cartan pairs keep their value, nilpotent polynomial pairs give 0",
        _sampled_check(config, f"geometry/{tname}/commuting", commuting),
    )

    def h_component_conjugation(rng):
        x = alg.random_element(rng, 2, where="b")
        word = tuple(rng.randint(1, alg.rank) for _ in range(rng.randint(0, 4)))
        b_elem = alg.unipotent({r: rng.randint(-2, 2) for r in alg.rs.positive_roots})
        b_elem = b_elem * alg.torus(
            [rng.choice([1, 2, Fraction(1, 2), 3]) for _ in range(alg.rank)]
        )
        return geo.h_component_conjugation_check(alg, x, word, b_elem)

    yield _result(
        f"geometry/{tname}/h-component-conjugation",
        "conjugating a Borel element by n_w b moves its Cartan component "
        "by exactly w",
        _sampled_check(config, f"geometry/{tname}/tau", h_component_conjugation),
    )

    def height_grading(rng):
        good, _heights = geo.height_grading_check(alg, alg.random_element(rng, 2, where="b"))
        return good

    yield _result(
        f"geometry/{tname}/height-grading",
        "Borel elements decompose into height-graded eigencomponents of "
        "the grading element",
        _sampled_check(config, f"geometry/{tname}/grading", height_grading),
    )

    if tname in ("A1", "A2", "B2"):
        group = generate_weyl(alg.rs, config.max_weyl_order)
        rng = _rng(config, f"geometry/{tname}/fibers")
        pairs = [
            (alg.random_element(rng, 3, where="h"), alg.random_element(rng, 3, where="h"))
            for _ in range(max(5, config.samples // 2))
        ]
        ok = True
        for i, pa in enumerate(pairs):
            w = group[rng.randrange(len(group))]
            rep_w = alg.weyl_rep(w.word)
            moved = (rep_w.conjugate(pa[0]), rep_w.conjugate(pa[1]))
            if not geo.sigma_fiber_is_weyl_orbit(alg, group, pa, moved):
                ok = False
            if i + 1 < len(pairs):
                if not geo.sigma_fiber_is_weyl_orbit(alg, group, pa, pairs[i + 1]):
                    ok = False
        yield _result(
            f"geometry/{tname}/sigma-fiber-weyl-orbit",
            "two Cartan pairs share a sigma value exactly when they share "
            "a diagonal Weyl orbit",
            ok,
        )

    def rank_monotonicity(rng):
        xb = alg.random_element(rng, 2, where="b")
        yb = alg.random_element(rng, 2, where="b")
        if geo.rank_borel_pair(alg, xb, yb).rank > 3 * b_g - rk:
            return False
        xu = alg.random_element(rng, 2, where="u")
        yu = alg.random_element(rng, 2, where="u")
        return geo.rank_nullcone_pair(alg, xu, yu).rank <= 3 * (b_g - rk)

    yield _result(
        f"geometry/{tname}/rank-monotonicity",
        "tangent ranks never exceed their generic values at any sampled point",
        _sampled_check(config, f"geometry/{tname}/monotonicity", rank_monotonicity),
    )

    rng = _rng(config, f"geometry/{tname}/hyperplanes")
    ok = True
    found = 0
    for _ in range(50):
        x = alg.random_element(rng, 2, where="h")
        y = alg.random_element(rng, 2, where="h")
        if alg.is_regular_element(x) or alg.is_regular_element(y):
            continue
        found += 1
        for z in (x, y):
            if not any(alg.root_value(r, z) == 0 for r in alg.rs.positive_roots):
                ok = False
    yield _result(
        f"geometry/{tname}/nonregular-pair-hyperplanes",
        "both members of a doubly non-regular Cartan pair lie on explicit "
        "root hyperplanes (so such pairs have codimension at least two)",
        ok,
        {"pairs_witnessed": found},
    )

    if tname in ("A1", "A2"):
        # measured, not asserted: tangent ranks over the doubly non-regular
        # nilpotent stratum (fiber directions restricted to the stratum),
        # reported next to the generic value minus four
        rng = _rng(config, f"geometry/{tname}/singular")
        observed_plain, observed_stratum = 0, 0
        samples = 0
        for _ in range(200):
            xu = alg.random_element(rng, 1, where="u")
            yu = alg.random_element(rng, 1, where="u")
            if alg.is_regular_element(xu) or alg.is_regular_element(yu):
                continue
            samples += 1
            observed_plain = max(
                observed_plain, geo.rank_nullcone_pair(alg, xu, yu).rank
            )
            observed_stratum = max(
                observed_stratum, geo.rank_nonregular_stratum_pair(alg, xu, yu).rank
            )
        yield _result(
            f"geometry/{tname}/singular-stratum-ranks",
            "measured tangent ranks over doubly non-regular nilpotent "
            "pairs, reported against the generic value minus four",
            samples > 0,
            {
                "samples": samples,
                "max_rank": observed_plain,
                "max_stratum_rank": observed_stratum,
                "generic": 3 * (b_g - rk),
                "generic_minus_four": 3 * (b_g - rk) - 4,
                "stratum_rank_le_generic_minus_four": observed_stratum
                <= 3 * (b_g - rk) - 4,
            },
        )

    if alg.family == "A" and alg.size <= 4:
        rng = _rng(config, f"geometry/{tname}/membership")
        members, rejected = 0, []
        for _ in range(max(5, config.samples // 2)):
            u1 = alg.random_element(rng, 2, where="u")
            u2 = alg.random_element(rng, 2, where="u")
            g = alg.unipotent({r: rng.randint(-2, 2) for r in alg.rs.positive_roots})
            g = g * alg.weyl_rep(tuple(rng.randint(1, alg.rank) for _ in range(2)))
            m = geo.nullcone_membership(alg, g.conjugate(u1), g.conjugate(u2))
            if m.status == "member":
                members += 1
            else:
                rejected.append(m.reason)
        yield _result(
            f"geometry/{tname}/membership-constructed-pairs",
            "conjugated nilradical pairs are never rejected by the "
            "common-flag search",
            not rejected,
            # membership is always decided; "undecided" stays for the report schema
            {"members": members, "undecided": 0, "rejected": rejected},
        )


def _shifts_checks(config: RunConfig, tname: str):
    stype = SimpleType.from_name(tname)
    for o in full_shift_report(build_root_system(stype.family, stype.rank)):
        yield _result(f"shifts/{o.check_id}", o.claim, o.ok, o.witness)


# -- assembly ------------------------------------------------------------------


_SUITE_FUNCS = {
    "roots": _roots_checks,
    "shifts": _shifts_checks,
    "invariants": _invariants_checks,
    "geometry": _geometry_checks,
}


def _unit_results(config: RunConfig, suite: str, tname: str) -> list:
    """The records of one suite x type unit, each timed as it arrives.

    A record's elapsed time runs from the previous record of the unit (or
    the unit's start), so set-up shared by later checks is charged to the
    first check after it.  A unit that hits the Weyl enumeration cap
    reports only that skip.
    """
    start = last = time.perf_counter()
    results = []
    try:
        for check in _SUITE_FUNCS[suite](config, tname):
            now = time.perf_counter()
            results.append(replace(check, elapsed=now - last))
            last = now
    except WeylOrderError as exc:
        skip = _result(
            f"{suite}/{tname}/enumeration",
            "group enumeration within the configured cap",
            "skipped",
            str(exc),
        )
        return [replace(skip, elapsed=time.perf_counter() - start)]
    return results


def run(config: RunConfig):
    """Execute the configured suites; returns (exit_code, results)."""
    results = []
    for suite in config.suites:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}")
        for tname in config.types:
            parsed = _parse_type(tname)
            if isinstance(parsed, str):
                results.append(
                    _result(
                        f"{suite}/{tname}/valid-type",
                        "the requested type and rank form a valid simple type",
                        "skipped",
                        parsed,
                    )
                )
                continue
            results.extend(_unit_results(config, suite, tname))
    results.sort(key=lambda c: c.check_id)
    exit_code = 1 if any(c.status == "fail" for c in results) else 0
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
    """Line-delimited JSON records, sorted by check id, no timings."""
    header = {
        "schema": SCHEMA_ID,
        "tool_version": TOOL_VERSION,
        "config": {
            "suites": list(config.suites),
            "types": list(config.types),
            "seed": config.seed,
            "samples": config.samples,
            "max_weyl_order": config.max_weyl_order,
        },
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for c in results:
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
        line = f"[{mark:>4}] {c.check_id}  ({c.elapsed:.3f}s)"
        if c.status in ("fail", "undecided"):
            line += f"\n       claim: {c.claim}\n       witness: {c.witness!r}"
        lines.append(line)
    lines.append(
        "summary: {pass} passed, {fail} failed, {undecided} undecided, "
        "{skipped} skipped".format(**counts)
    )
    return lines
