"""Point-by-point support and cosupport of finite-dimensional modules.

The ambient space is P^{r-1} with coordinates dual to the generators
z_1..z_r.  A closed point [a_1 : ... : a_r] is in the support when the
operator (sum a_i Z_i)^{p-1} has rank below n/p (or p does not divide n);
it is in the cosupport when the same test fails on the coinduced module
over the point's field.  Sampling enumerates one canonical representative
(first nonzero coordinate scaled to 1) of every point rational over each
extension of the base of relative degree <= e_max, skipping points already
defined over a proper subfield; Galois orbits are listed per rational
representative, not merged.

The generic-point verdict refers to the generic point of P^{r-1} on the
chart a_1 = 1, i.e. the rank of N(s)^{p-1} over the rational function field
in s_2..s_r.  Engines decide it by a finite specialization scan: the
relevant (n/p)-minors have degree at most (p-1)n/p in each variable, so a
nonzero minor cannot vanish on a full grid S^{r-1} with |S| > (p-1)n/p, and
specialization can only drop rank.  Scanning such a grid over a single
finite extension is therefore an exact decision, and it agrees with the
direct transcendental computation (tested).
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import fields, linalg, pipoints, reps
from .errors import BudgetExceeded, DimensionTooLarge, NotARefinement
from .fields import FieldElement
from .linalg import int_matpow, int_rank

DEFAULT_ENUM_BUDGET = 200_000
DEFAULT_IDEAL_MAX_DIM = 12

#: sentinel ideal for modules whose dimension is prime to p: every point of
#: the ambient space is in the support, no minors are computed
EVERYTHING = "everything"


class ProjPoint:
    """Point of P^{r-1} over a finite tower member, canonicalized so the
    first nonzero coordinate is 1."""

    __slots__ = ("desc", "coords")

    def __init__(self, desc, coords):
        coords = tuple(coords)
        if not any(coords):
            raise ValueError("all coordinates zero")
        lead = next(x for x in coords if x)
        inv = lead.inv()
        coords = tuple(inv * x for x in coords)
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    def scalar_coords(self):
        return tuple(x.as_scalar() for x in self.coords)

    def sort_key(self):
        codes = tuple(self.desc.sto_code(s) for s in self.scalar_coords())
        lead = next(i for i, c in enumerate(codes) if c)
        return (self.desc.deg, lead, codes)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.desc == other.desc and self.coords == other.coords

    def __hash__(self):
        return hash((self.desc, self.coords))

    def __str__(self):
        return "[" + ":".join(fields.to_literal(x) for x in self.coords) + "]"

    def __repr__(self):
        return f"ProjPoint({self})"


@dataclass
class SupportDescription:
    """Sampled verdicts, the generic verdict, and (optionally) the ideal."""

    module: object
    e_max: int | None = None
    sampled: dict = field(default_factory=dict)
    generic: bool | None = None
    ideal: object = None  # None (not computed), EVERYTHING, or list of Polynomial

    def points_in_support(self):
        return [pt for pt, verdict in self.sampled.items() if verdict]

    def sample_empty(self):
        return not any(self.sampled.values())

    def is_empty(self):
        return self.sample_empty() and not self.generic

    def report_lines(self):
        lines = []
        for pt in sorted(self.sampled, key=ProjPoint.sort_key):
            verdict = "in" if self.sampled[pt] else "out"
            lines.append(f"point {pt} {verdict}")
        if self.generic is not None:
            lines.append(f"generic {'in' if self.generic else 'out'}")
        if self.ideal == EVERYTHING:
            lines.append("ideal everything")
        elif self.ideal is not None:
            for gen in sorted(self.ideal, key=_glex_generator_key, reverse=True):
                lines.append(f"ideal-generator {fields.poly_str(gen)}")
        return lines


def _glex_generator_key(gen):
    return tuple(
        sorted(((fields.glex_key(e), c) for e, c in gen.terms.items()),
               reverse=True)
    )


# ---------------------------------------------------------------------------
# Point verdicts


def in_support(mod, point) -> bool:
    """Definition-level verdict: restrict the base-changed module along the
    point and test for non-projectivity."""
    m = reps.base_change(mod, point.K)
    op = pipoints.restrict(point, m)
    return not linalg.is_full(op, mod.spec.p)


def in_cosupport(mod, point) -> bool:
    """Cosupport verdict.  Over a finite extension this is computed directly
    on the coinduced module.  At a transcendental point it falls back to the
    support verdict, which agrees for finite-dimensional modules (coinduction
    is then a finite direct sum of base changes)."""
    if point.K.is_finite:
        co = reps.coinduced(mod, point.K)
        op = pipoints.restrict(point, co)
        return not linalg.is_full(op, mod.spec.p)
    return in_support(mod, point)


def point_pi(spec, pt: ProjPoint) -> pipoints.PiPoint:
    """The linear point with coefficients a canonical representative of pt."""
    return pipoints.make_linear(spec, pt.desc, list(pt.coords))


# ---------------------------------------------------------------------------
# Fast finite-field tester: one closed point == one integer rank computation


def _point_tester(mod, K):
    """Callable deciding in-support for coordinate tuples of K-scalars.

    Precomputes the embedded coordinate arrays of the generator matrices so
    that each point costs a few numpy operations.  Agrees with in_support on
    linear points by construction of the block representation (and is
    cross-checked in the test suite).
    """
    p = mod.spec.p
    n = mod.n
    e = K.deg
    emb = linalg.embedding_matrix(mod.spec.base, K)
    powers = linalg.companion_powers(K)
    carr = [linalg.coeff_array(m) @ emb % p for m in mod.Z]
    target = None if n % p else e * (n // p)

    def tester(coord_scalars):
        if target is None:
            return True
        acc = np.zeros((n, n, e), dtype=np.int64)
        for a, c in zip(coord_scalars, carr):
            if any(a):
                bmat = np.tensordot(np.array(a, dtype=np.int64), powers, axes=(0, 0))
                acc += np.einsum("ab,uvb->uva", bmat, c)
        block = linalg.blockify(acc % p, K)
        op = int_matpow(block, p - 1, p) if p > 2 else block
        return int_rank(op, p, stop_at=target) != target

    return tester


# ---------------------------------------------------------------------------
# Sampling


def _sampling_field(base, e):
    """Extension of the base of relative degree e with canonical defining
    polynomial; the base must embed into it."""
    K = fields.canonical_extension(base.p, base.deg * e)
    if not fields.refines(K, base):
        raise NotARefinement("base does not embed into the sampling field")
    return K


def _proper_subfield_degrees(e):
    return [d for d in range(1, e) if e % d == 0]


def enumerate_points(base, r, e_max, budget=DEFAULT_ENUM_BUDGET):
    """Canonical representatives of P^{r-1}(F_{q^e}) for e <= e_max, new
    points only (nothing already rational over a proper subfield).  Yields
    (ProjPoint, scalar coordinate tuple, field)."""
    if r * base.p ** (e_max * r) > budget:
        raise BudgetExceeded(
            f"enumeration size r*p^(e_max*r) exceeds budget {budget}"
        )
    q0 = base.order
    for e in range(1, e_max + 1):
        K = _sampling_field(base, e)
        one = K.sone()
        sub_degrees = _proper_subfield_degrees(e)

        def in_proper_subfield(scalars):
            for d in sub_degrees:
                power = q0**d
                if all(K.spow(x, power) == x for x in scalars):
                    return True
            return False

        for lead in range(r):
            tail = r - lead - 1
            for codes in itertools.product(range(K.order), repeat=tail):
                scalars = (
                    (K.szero(),) * lead
                    + (one,)
                    + tuple(K.sfrom_code(c) for c in codes)
                )
                if e > 1 and in_proper_subfield(scalars):
                    continue
                coords = tuple(FieldElement.from_scalar(K, s) for s in scalars)
                yield ProjPoint(K, coords), scalars, K


def support_sample(mod, e_max, budget=DEFAULT_ENUM_BUDGET) -> SupportDescription:
    """Verdicts at every sampled closed point plus the generic verdict."""
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    desc = SupportDescription(module=mod, e_max=e_max)
    testers = {}
    for pt, scalars, K in enumerate_points(mod.spec.base, mod.spec.r, e_max, budget):
        if K not in testers:
            testers[K] = _point_tester(mod, K)
        desc.sampled[pt] = testers[K](scalars)
    desc.generic = generic_in_support(mod)
    return desc


def cosupport_sample(mod, e_max, budget=DEFAULT_ENUM_BUDGET) -> SupportDescription:
    """Cosupport verdicts over the same sample, via coinduction per field."""
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    desc = SupportDescription(module=mod, e_max=e_max)
    testers = {}
    for pt, scalars, K in enumerate_points(mod.spec.base, mod.spec.r, e_max, budget):
        if K not in testers:
            testers[K] = _point_tester(reps.coinduced(mod, K), K)
        desc.sampled[pt] = testers[K](scalars)
    desc.generic = generic_in_support(mod)  # finite-dimensional fallback
    return desc


def generic_in_support(mod) -> bool:
    """Verdict at the generic point of P^{r-1} (chart a_1 = 1).

    Exact finite decision: rank of N(s)^{p-1} over the function field equals
    the maximum specialization rank over a grid S^{r-1} once |S| exceeds the
    per-variable degree (p-1)n/p of the deciding minors.  The scan exits at
    the first specialization of full rank n/p.
    """
    n, p, r = mod.n, mod.spec.p, mod.spec.r
    if n == 0:
        return False
    if n % p:
        return True
    base = mod.spec.base
    if not base.is_finite:
        raise ValueError("generic sampling needs a finite base field")
    bound = (p - 1) * (n // p) + 1
    e = 1
    while base.order**e < bound:
        e += 1
    K = _sampling_field(base, e)
    tester = _point_tester(mod, K)
    one = K.sone()
    for codes in itertools.product(range(K.order), repeat=r - 1):
        scalars = (one,) + tuple(K.sfrom_code(c) for c in codes)
        if not tester(scalars):
            return False
    return True


# ---------------------------------------------------------------------------
# Determinantal support ideal


def support_ideal(mod, max_dim=DEFAULT_IDEAL_MAX_DIM) -> SupportDescription:
    """Homogeneous generators of the support locus: the nonzero (n/p)-minors
    of N(s)^{p-1} where N(s) = s_1 Z_1 + ... + s_r Z_r."""
    n, p, r = mod.n, mod.spec.p, mod.spec.r
    if n > max_dim:
        raise DimensionTooLarge(f"ideal mode limited to dimension {max_dim}")
    desc = SupportDescription(module=mod)
    if n % p:
        desc.ideal = EVERYTHING
        return desc
    base = mod.spec.base
    names = tuple(f"s{i}" for i in range(1, r + 1))
    if set(names) & set(base.vars):
        raise ValueError("ideal variable names collide with the base field")
    K = fields.make_field(p, base.ext, base.vars + names)
    gens = []
    acc = linalg.Matrix.zero(K, n, n)
    for i, name in enumerate(names):
        s = FieldElement.variable(K, name)
        zk = mod.Z[i].map_entries(lambda x: fields.embed(x, K), K)
        acc = acc + zk.scale(s)
    op = acc.power(p - 1)
    for minor in linalg.minors(op, n // p):
        if not minor.is_zero():
            gens.append(minor)
    desc.ideal = gens
    return desc


def ideal_vanishes_at(gens, pt: ProjPoint) -> bool:
    """Spot-check helper: do all generators vanish at the closed point?"""
    K = pt.desc
    coords = pt.scalar_coords()
    for gen in gens:
        emb = fields._scalar_embedding(_finite_part(gen.desc), K)
        value = gen.evaluate_scalars(K, coords, lambda c: emb(c))
        if any(value):
            return False
    return True


def _finite_part(desc):
    return fields.FieldDescriptor(desc.p, desc.ext, ())


# ---------------------------------------------------------------------------
# Verification engines


def is_projective(mod) -> bool:
    return reps.is_free(mod)


@dataclass
class DadeReport:
    module_name: str
    dim: int
    free: bool
    sample_in_support: int
    generic: bool
    agree: bool

    def line(self):
        status = "ok" if self.agree else "DISAGREE"
        return (
            f"dade {self.module_name} dim={self.dim} free={self.free} "
            f"support-points={self.sample_in_support} "
            f"generic={'in' if self.generic else 'out'} {status}"
        )


def verify_dade(mod, e_max, budget=DEFAULT_ENUM_BUDGET) -> DadeReport:
    """Freeness oracle against emptiness of the sampled support plus the
    generic verdict.  Disagreement would falsify the projectivity detection
    statement at desk scale; none is expected."""
    sample = support_sample(mod, e_max, budget)
    free = reps.is_free(mod)
    agree = free == sample.is_empty()
    return DadeReport(
        module_name=mod.name or "module",
        dim=mod.n,
        free=free,
        sample_in_support=len(sample.points_in_support()),
        generic=sample.generic,
        agree=agree,
    )


@dataclass
class FormulaReport:
    kind: str
    points: list  # (label, lhs, rhs)
    generic_lhs: bool = False
    generic_rhs: bool = False

    @property
    def equal(self):
        return self.generic_lhs == self.generic_rhs and all(
            lhs == rhs for _, lhs, rhs in self.points
        )

    def mismatches(self):
        out = [label for label, lhs, rhs in self.points if lhs != rhs]
        if self.generic_lhs != self.generic_rhs:
            out.append("generic")
        return out


def verify_tensor_formula(m, n, e_max, budget=DEFAULT_ENUM_BUDGET) -> FormulaReport:
    """Pointwise comparison of supp(M (x) N) with supp(M) /\\ supp(N)."""
    if m.spec != n.spec:
        raise ValueError("modules over different algebras")
    t = reps.tensor(m, n)
    rows = []
    testers = {}
    for pt, scalars, K in enumerate_points(m.spec.base, m.spec.r, e_max, budget):
        if K not in testers:
            testers[K] = (
                _point_tester(t, K),
                _point_tester(m, K),
                _point_tester(n, K),
            )
        tt, tm, tn = testers[K]
        rows.append((str(pt), tt(scalars), tm(scalars) and tn(scalars)))
    g_lhs = generic_in_support(t)
    g_rhs = generic_in_support(m) and generic_in_support(n)
    return FormulaReport("tensor", rows, g_lhs, g_rhs)


def verify_hom_formula(m, n, e_max, budget=DEFAULT_ENUM_BUDGET) -> FormulaReport:
    """Pointwise comparison of cosupp(Hom(M, N)) with supp(M) /\\ cosupp(N).

    The left side is computed directly on the Hom module: coinduction over
    each sampled field, then restriction.  At the generic point both
    cosupports use the documented finite-dimensional fallback.
    """
    if m.spec != n.spec:
        raise ValueError("modules over different algebras")
    h = reps.hom(m, n)
    rows = []
    testers = {}
    for pt, scalars, K in enumerate_points(m.spec.base, m.spec.r, e_max, budget):
        if K not in testers:
            testers[K] = (
                _point_tester(reps.coinduced(h, K), K),
                _point_tester(m, K),
                _point_tester(reps.coinduced(n, K), K),
            )
        th, tm, tn = testers[K]
        rows.append((str(pt), th(scalars), tm(scalars) and tn(scalars)))
    g_lhs = generic_in_support(h)
    g_rhs = generic_in_support(m) and generic_in_support(n)
    return FormulaReport("hom", rows, g_lhs, g_rhs)


@dataclass
class HomTableReport:
    p: int
    rows: list  # (u, v, dim, dim_ok, free, free_ok)

    @property
    def all_ok(self):
        return all(d_ok and f_ok for _, _, _, d_ok, _, f_ok in self.rows)


def verify_jordan_hom_table(p) -> HomTableReport:
    """dim Hom(J_u, J_v) = u*v, free exactly when u = p or v = p."""
    spec = reps.make_spec(p, 1, flavors=(reps.PRIMITIVE,))
    blocks = {u: reps.jordan_block_module(spec, u) for u in range(1, p + 1)}
    rows = []
    for u in range(1, p + 1):
        for v in range(1, p + 1):
            h = reps.hom(blocks[u], blocks[v])
            free = reps.is_free(h)
            rows.append(
                (u, v, h.n, h.n == u * v, free, free == (u == p or v == p))
            )
    return HomTableReport(p, rows)
