"""Point-by-point support and cosupport of finite-dimensional modules.

The ambient space is P^{r-1} with coordinates dual to the generators
z_1..z_r.  A closed point [a_1 : ... : a_r] is in the support when the
operator (sum a_i Z_i)^{p-1} has rank below n/p (or p does not divide n);
it is in the cosupport when the same test fails on the coinduced module
over the point's field.  in_support and in_cosupport decide this from the
definition, on the block matrix over F_p; sampling and the generic scan use
_point_tester, which eliminates N(a)^{p-1} over the point's field F_q on
Zech logarithms (linalg.fq_rank).  Sampling enumerates one canonical
representative (first nonzero coordinate scaled to 1) of every point
rational over each extension of the base of relative degree <= e_max,
skipping points already defined over a proper subfield (read off the
logarithms, fields.subfield_mask); Galois orbits are listed per rational
representative, not merged.  Every sampler checks the enumeration and then
the generic scan against the budget and the degree cap before it tests a
point.

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
from .errors import (
    BudgetExceeded,
    DimensionTooLarge,
    NonPolynomialEntry,
    NotARefinement,
)
from .fields import FieldElement

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
# Fast finite-field tester: one closed point == one rank computation over K


def _point_tester(mod, K):
    """Callable deciding in-support for coordinate tuples of K-scalars.

    Precomputes the embedded coordinate arrays of the generator matrices.
    A point a accumulates N(a) = sum a_i Z_i as an (n, n, e) coordinate
    array, raises it to the power p - 1 by p - 2 products with its F_p
    block matrix (linalg.coeff_power), and decides rank N(a)^{p-1} < n/p
    by elimination over K itself on Zech logarithms (linalg.fq_rank),
    stopping at rank n/p.  Agrees with in_support on linear points; the
    test suite checks it against elimination of the ne x ne block matrix
    over F_p at every sampled point.
    """
    p, n = mod.spec.p, mod.n
    emb = linalg.embedding_matrix(mod.spec.base, K)
    carr = [linalg.coeff_array(m) @ emb % p for m in mod.Z]
    target = n // p

    def tester(coord_scalars):
        if n % p:
            return True
        acc = np.zeros((n, n, K.deg), dtype=np.int64)
        for a, c in zip(coord_scalars, carr):
            if any(a):
                acc += np.einsum("ab,uvb->uva", linalg.scalar_matrix(K, a), c)
        op = linalg.coeff_power(acc % p, p - 1, K)
        return linalg.fq_rank(linalg.log_codes(op, K), K, stop_at=target) != target

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


def enumeration_size(base, r, e_max):
    """Coordinate tuples enumerate_points visits: |P^{r-1}(F_{q^e})| =
    (q^{er} - 1)/(q^e - 1) for each e <= e_max, q the order of the base,
    including the tuples it then skips as rational over a subfield."""
    q = base.order
    return sum((q ** (e * r) - 1) // (q**e - 1) for e in range(1, e_max + 1))


def enumerate_points(base, r, e_max, budget=DEFAULT_ENUM_BUDGET):
    """Canonical representatives of P^{r-1}(F_{q^e}) for e <= e_max, new
    points only (nothing already rational over a proper subfield).  Yields
    (ProjPoint, scalar coordinate tuple, field).  Raises BudgetExceeded on
    the first step when more than ``budget`` tuples would be visited."""
    _check_enumeration(base, r, e_max, budget)
    yield from _points(base, r, e_max)


def _check_enumeration(base, r, e_max, budget):
    size = enumeration_size(base, r, e_max)
    if size > budget:
        raise BudgetExceeded(
            f"enumeration of {size} coordinate tuples exceeds budget {budget}"
        )
    _check_degree(base, e_max, "sampling")


def _points(base, r, e_max):
    """enumerate_points without its checks.  A tuple lies in the subfield
    F_{q0^d} when each of its codes does (fields.subfield_mask)."""
    q0 = base.order
    for e in range(1, e_max + 1):
        if e > 1 and r == 1:
            return  # the one point of P^0 is rational over the base
        K = _sampling_field(base, e)
        one = K.sone()
        masks = [fields.subfield_mask(K, q0**d).tolist()
                 for d in _proper_subfield_degrees(e)]
        for lead in range(r):
            tail = r - lead - 1
            for codes in itertools.product(range(K.order), repeat=tail):
                if any(all(mask[c] for c in codes) for mask in masks):
                    continue
                scalars = (
                    (K.szero(),) * lead
                    + (one,)
                    + tuple(K.sfrom_code(c) for c in codes)
                )
                coords = tuple(FieldElement.from_scalar(K, s) for s in scalars)
                yield ProjPoint(K, coords), scalars, K


def _check_degree(base, e, what):
    """BudgetExceeded when F_{q^e}, q the order of the base, is past the cap
    on extension degrees, so that nothing is tested before the failure."""
    degree = base.deg * e
    if degree > fields.MAX_EXTENSION_DEGREE:
        raise BudgetExceeded(
            f"{what} needs extension degree {degree} over F_{base.p}, "
            f"past the cap {fields.MAX_EXTENSION_DEGREE}"
        )


def _sampled(spec, e_max, budget, make_testers, scanned):
    """The points of enumerate_points over the base of spec, each with what
    make_testers(K) returned for its field K, built once per field.  Before
    the first point is tested, the enumeration and then the generic scan of
    each module in ``scanned`` are checked against the budget and the
    degree cap."""
    _check_enumeration(spec.base, spec.r, e_max, budget)
    for mod in scanned:
        _generic_scan_degree(mod, budget)
    testers = {}
    for pt, scalars, K in _points(spec.base, spec.r, e_max):
        if K not in testers:
            testers[K] = make_testers(K)
        yield pt, scalars, testers[K]


def support_sample(mod, e_max, budget=DEFAULT_ENUM_BUDGET) -> SupportDescription:
    """Verdicts at every sampled closed point plus the generic verdict."""
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    desc = SupportDescription(module=mod, e_max=e_max)
    points = _sampled(mod.spec, e_max, budget, lambda K: _point_tester(mod, K),
                      [mod])
    for pt, scalars, tester in points:
        desc.sampled[pt] = tester(scalars)
    desc.generic = generic_in_support(mod, budget)
    return desc


def cosupport_sample(mod, e_max, budget=DEFAULT_ENUM_BUDGET) -> SupportDescription:
    """Cosupport verdicts over the same sample, via coinduction per field."""
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    desc = SupportDescription(module=mod, e_max=e_max)
    points = _sampled(mod.spec, e_max, budget,
                      lambda K: _point_tester(reps.coinduced(mod, K), K), [mod])
    for pt, scalars, tester in points:
        desc.sampled[pt] = tester(scalars)
    desc.generic = generic_in_support(mod, budget)  # finite-dimensional fallback
    return desc


def _generic_scan_degree(mod, budget):
    """Relative degree e of the field F_{q^e} whose grid decides the generic
    verdict of mod, or None when no scan is needed (n = 0 or p does not
    divide n).  Raises BudgetExceeded when the grid has more than
    ``budget`` points or F_{q^e} is past the degree cap."""
    n, p, r = mod.n, mod.spec.p, mod.spec.r
    if n == 0 or n % p:
        return None
    base = mod.spec.base
    if not base.is_finite:
        raise ValueError("generic sampling needs a finite base field")
    bound = (p - 1) * (n // p) + 1
    e = 1
    while base.order**e < bound:
        e += 1
    size = base.order ** (e * (r - 1))
    if size > budget:
        raise BudgetExceeded(f"generic scan of {size} points exceeds budget {budget}")
    _check_degree(base, e, "generic scan")
    return e


def generic_in_support(mod, budget=DEFAULT_ENUM_BUDGET) -> bool:
    """Verdict at the generic point of P^{r-1} (chart a_1 = 1).

    Exact finite decision: rank of N(s)^{p-1} over the function field equals
    the maximum specialization rank over a grid S^{r-1} once |S| exceeds the
    per-variable degree (p-1)n/p of the deciding minors.  The scan exits at
    the first specialization of full rank n/p.  Raises BudgetExceeded before
    scanning when the grid has more than ``budget`` points.
    """
    e = _generic_scan_degree(mod, budget)
    if e is None:
        return mod.n % mod.spec.p != 0  # the zero module has empty support
    K = _sampling_field(mod.spec.base, e)
    tester = _point_tester(mod, K)
    one = K.sone()
    for codes in itertools.product(range(K.order), repeat=mod.spec.r - 1):
        scalars = (one,) + tuple(K.sfrom_code(c) for c in codes)
        if not tester(scalars):
            return False
    return True


# ---------------------------------------------------------------------------
# Determinantal support ideal


def support_ideal(mod, max_dim=DEFAULT_IDEAL_MAX_DIM) -> SupportDescription:
    """Homogeneous generators of the support locus: the nonzero (n/p)-minors
    of N(s)^{p-1} where N(s) = s_1 Z_1 + ... + s_r Z_r.

    Only the minors of the pivot submatrix op[I, J] (see _pivot_submatrix)
    are taken, and a minor that is a nonzero scalar multiple of one already
    kept is dropped.  Both generate the same ideal as the full list, of
    which the result is a subsequence.
    """
    n, p = mod.n, mod.spec.p
    if n > max_dim:
        raise DimensionTooLarge(f"ideal mode limited to dimension {max_dim}")
    desc = SupportDescription(module=mod)
    if n % p:
        desc.ideal = EVERYTHING
        return desc
    op = ideal_operator(mod)
    K = op.desc
    sub = _pivot_submatrix(op)
    desc.ideal = []
    if min(sub.rows, sub.cols) < n // p:
        return desc  # every (n/p)-minor vanishes: the zero ideal
    seen = set()
    for minor in linalg.minors(sub, n // p):
        if minor.is_zero():
            continue
        _, lead = minor.leading_term()
        monic = minor.scale(K.sinv(lead))
        if monic not in seen:
            seen.add(monic)
            desc.ideal.append(minor)
    return desc


def ideal_operator(mod):
    """N(s)^{p-1} with N(s) = s_1 Z_1 + ... + s_r Z_r, over the base with
    the variables s_1..s_r appended."""
    n, p, r = mod.n, mod.spec.p, mod.spec.r
    base = mod.spec.base
    names = tuple(f"s{i}" for i in range(1, r + 1))
    if set(names) & set(base.vars):
        raise ValueError("ideal variable names collide with the base field")
    K = fields.make_field(p, base.ext, base.vars + names)
    acc = linalg.Matrix.zero(K, n, n)
    for name, zk in zip(names, reps.base_change(mod, K).Z):
        acc = acc + zk.scale(FieldElement.variable(K, name))
    return acc.power(p - 1)


def _pivot_submatrix(op):
    """The submatrix op[I, J] that has the same ideal of k-minors as op.

    Write op = sum_b m_b C_b with monomials m_b in the transcendentals and
    constant matrices C_b over the finite part.  J, the pivot columns of the
    stack [C_b1; C_b2; ...], spans the columns of every C_b, so
    op = op[:, J] R for a constant R containing an identity block; I, the
    pivot columns of the stack of transposes, gives op = L^T op[I, :] in the
    same way.  So op = L^T op[I, J] R, and by Cauchy-Binet every k-minor of
    op is a constant combination of k-minors of op[I, J], which are
    themselves k-minors of op.
    """
    K = op.desc
    fin = _finite_part(K)
    n, e = op.rows, fin.deg
    terms = {}
    for i, row in enumerate(op.entries):
        for j, x in enumerate(row):
            if not x.is_polynomial():
                raise NonPolynomialEntry("matrix entry has a denominator")
            for exps, coeff in x.num.terms.items():
                if exps not in terms:
                    terms[exps] = np.zeros((n, n, e), dtype=np.int64)
                terms[exps][i, j] = coeff
    if not terms:
        return linalg.Matrix(K, [])
    rows = _pivot_lines([c.transpose(1, 0, 2) for c in terms.values()], fin)
    cols = _pivot_lines(list(terms.values()), fin)
    return linalg.Matrix(K, [[op.entries[i][j] for j in cols] for i in rows])


def _pivot_lines(coeffs, fin):
    """Pivot columns of the vertical stack of (n, n, e) coefficient arrays
    over the finite field ``fin``.  The F_p columns of column j span the
    fin-line through it, so F_p pivots come in whole blocks of e."""
    e = fin.deg
    block = linalg.blockify(np.concatenate(coeffs, axis=0), fin)
    _, pivots, _ = linalg.int_row_reduce(block, fin.p)
    return [c // e for c in pivots if c % e == 0]


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
    points = _sampled(m.spec, e_max, budget, lambda K: (
        _point_tester(t, K), _point_tester(m, K), _point_tester(n, K)),
        [t, m, n])
    for pt, scalars, (tt, tm, tn) in points:
        rows.append((str(pt), tt(scalars), tm(scalars) and tn(scalars)))
    g_lhs = generic_in_support(t, budget)
    g_rhs = generic_in_support(m, budget) and generic_in_support(n, budget)
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
    points = _sampled(m.spec, e_max, budget, lambda K: (
        _point_tester(reps.coinduced(h, K), K),
        _point_tester(m, K),
        _point_tester(reps.coinduced(n, K), K),
    ), [h, m, n])
    for pt, scalars, (th, tm, tn) in points:
        rows.append((str(pt), th(scalars), tm(scalars) and tn(scalars)))
    g_lhs = generic_in_support(h, budget)
    g_rhs = generic_in_support(m, budget) and generic_in_support(n, budget)
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
