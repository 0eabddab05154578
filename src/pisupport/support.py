"""Point-by-point support and cosupport of finite-dimensional modules.

The ambient space is P^{r-1} with coordinates dual to the generators
z_1..z_r.  A closed point [a_1 : ... : a_r] is in the support when the
operator N(a) = sum a_i Z_i has rank below n - n/p (or p does not divide
n).  N(a)^p = 0, so N(a) has n - rank N(a) Jordan blocks, each of size at
most p.  The restriction is free when all of them have size p, that is
when there are n/p of them.  A point is in the cosupport when the same
test fails on the coinduced module over the point's field.  Every such rank
is taken over the point's field F_q on Zech logarithms, a prime field
included: in_support and in_cosupport decide from the definition,
through the restricted operator and its Jordan type (linalg.fq_rank), and
sampling and the generic scan use _point_tester, which ranks N(a) itself
and forms no power of it; for sparse generators it sums and ranks N(a) on
rows of dicts (linalg.sparse_combination, linalg.sparse_rank).  The
ne x ne block matrix over F_p is eliminated in the tests, as the oracle,
and by fq_rank only past linalg.ZECH_MAX_ORDER.  Sampling enumerates one
canonical representative (first nonzero coordinate scaled to 1) of every
point rational over each extension of the base of relative degree
<= e_max.  The Z_i have entries in the base k, of order q0, so for
the Frobenius s: x -> x^q0 of the point's field N(s a) = s(N(a)) entry by
entry, and s keeps every rank: the verdicts at a and at its conjugates
agree.  One code table of s (fields.frobenius) decides both steps of the
enumeration (_new_points): a point fixed by s^j, 0 < j < e, is rational
over a proper subfield and skipped, and every other point is grouped with
its conjugates, so that each closed point is decided once.  A point is
carried as its element codes (ProjPoint.codes) from enumeration to
report, and repeated enumerations share the same points and orbits.
Every sampler checks the enumeration and then the generic scan against
the budget and the degree cap before it tests a point.

The generic-point verdict refers to the generic point of P^{r-1} on the
chart a_1 = 1, i.e. the rank of N(s) over the rational function field in
s_2..s_r.  A support is closed, so the generic point is in it exactly when
every closed point is, and finitely many closed points decide that: the
(n - n/p)-minors of N(s) are homogeneous of degree (p-1)n/p, so a nonzero
minor cannot vanish on every chart point (1, t) of a grid S^{r-1} with
|S| > (p-1)n/p, and specialization can only drop rank.  With q^e > (p-1)n/p
the points of P^{r-1}(F_{q^e}) therefore decide it exactly, and the scan
ranks them on the sampling enumeration, over F_{q^d} for each d | e, one
rank per Frobenius orbit.  It agrees with the direct transcendental
computation (tested).

Direct sums are decided block by block.  The blocks of a module
(reps.blocks) are the connected components of the union of the nonzero
patterns of the Z_i, so N(a) is block diagonal on them at every point and
its rank is the sum of the blocks' ranks.  On a block of dimension n_c
that rank is n_c less the number of Jordan blocks, which is more than
n_c/p when p does not divide n_c.  Such a block keeps the sum below
n - n/p, so it puts every point, and the generic point, in the support,
and nothing is ranked.  A free block is a projective summand, and the
support is an invariant of the stable module category, where projectives
are zero: supp(M + P) = supp M (Friedlander and Pevtsova, Duke Math. J.
139, 2007).  On a module of several blocks whose dimensions p all
divides, each block of dimension a multiple of p^r is tested for freeness
once, by Nakayama (reps.free_blocks), and base change and coinduction
carry the flags.  N(a) restricted to a free block is free at every point,
of rank n_c - n_c/p, so the point tester ranks N(a) on the other blocks
only, n' rows and columns against n' - n'/p, and a module of free blocks
alone is out everywhere with no rank.  The blocks left are ranked
together, once per point: on rows of dicts the elimination never mixes
blocks anyway, and on the numpy route one pipeline of numpy calls costs
less than one per block.  The generic verdict uses
supp(M + N) = supp M u supp N: the generic point is in exactly when it is
in for some block, and a block needs only the field with
q^e > (p-1)n_c/p.  So it runs one plan (_generic_scan): each block that is
not free, scanned over its own field by the point tester cut to that
block's rows and columns, up to the first block that is generically in; a
module of free blocks alone has an empty plan and is out.  The samplers
and the formula checks read the sample first: a sampled point out puts the
generic point out, with no scan.  The guard before any of this counts the
same plan, so it refuses a call exactly when the plan is too large.

The support ideal is generated by the (n/p)-minors of N(s)^{p-1} over the
polynomial ring in s_1..s_r.  When a block has dimension prime to p, the
rank is at most the sum of the floor(n_c/p), below n/p, so every such minor
vanishes and the list is empty.  Otherwise the monomial coefficients C_b of
the whole operator are formed by a word expansion of the power in Matrix
arithmetic, one code path for every base, and kept as coefficient arrays;
the pivot submatrix op[I, J] has the same ideal of minors (Cauchy-Binet),
and its minors are taken by Laplace expansion (linalg.minors).  I and J
are the pivot columns of the stacked C_b and of their transposes, found
over the finite part by the elimination that ranks every other matrix
(linalg.fq_pivots).  The minors are expanded on lists of Python integers
(linalg._expand_row), as the matrices of this path are at most 12 x 12
and numpy's fixed cost per call outweighs their arithmetic.
"""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import fields, linalg, pipoints, reps
from .errors import (
    BudgetExceeded,
    DimensionTooLarge,
    NotARefinement,
)

DEFAULT_ENUM_BUDGET = 200_000
DEFAULT_IDEAL_MAX_DIM = 12

#: sentinel ideal for modules whose dimension is prime to p: every point of
#: the ambient space is in the support, no minors are computed
EVERYTHING = "everything"


class ProjPoint:
    """Point of P^{r-1} over a finite tower member, held as the element
    codes (FieldDescriptor.sto_code) of its coordinates, scaled so that the
    first nonzero code is 1.  Equality, hashing and the report order read
    the codes; the FieldElement coordinates are built only when read."""

    __slots__ = ("desc", "codes")

    def __init__(self, desc, coords):
        coords = tuple(coords)
        if not any(coords):
            raise ValueError("all coordinates zero")
        inv = next(x for x in coords if x).inv()
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "codes", tuple(
            desc.sto_code((inv * x).as_scalar()) for x in coords))

    @classmethod
    def _from_codes(cls, desc, codes):  # the first nonzero code must be 1
        pt = object.__new__(cls)
        object.__setattr__(pt, "desc", desc)
        object.__setattr__(pt, "codes", codes)
        return pt

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @property
    def coords(self):
        desc = self.desc
        return tuple(fields.interned(desc, desc.sfrom_code(c)) for c in self.codes)

    def sort_key(self):
        lead = next(i for i, c in enumerate(self.codes) if c)
        return (self.desc.deg, lead, self.codes)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.desc == other.desc and self.codes == other.codes

    def __hash__(self):
        return hash((self.desc, self.codes))

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
    """Cosupport verdict.  At a point over a finite field K this is the
    support verdict of the coinduced module Hom_k(K, M), which is already
    over K, so in_support does not embed it again.  At a transcendental
    point it falls back to the support verdict of M, which agrees for
    finite-dimensional modules (coinduction is then a finite direct sum of
    base changes)."""
    if point.K.is_finite:
        return in_support(reps.coinduced(mod, point.K), point)
    return in_support(mod, point)


def point_pi(spec, pt: ProjPoint) -> pipoints.PiPoint:
    """The linear point with coefficients a canonical representative of pt."""
    return pipoints.make_linear(spec, pt.desc, list(pt.coords))


# ---------------------------------------------------------------------------
# Fast finite-field tester: one closed point == one rank computation over K


def _point_tester(mod, K, block=None):
    """Callable deciding in-support for a point of P^{r-1}(K) given by its
    element codes (ProjPoint.codes).  Given ``block``, the indices of one
    block of mod that is not free (_live_blocks), it decides the point for
    the summand on that block instead, as the generic scan asks: N(a) is
    ranked on that block's rows and columns in place of the kept ones, on
    the route chosen for mod, from the nonzero entries of mod itself, so
    that no summand is built and every block reads the same cached entries.

    A module with a block (reps.blocks) of dimension prime to p has that
    block as a direct summand, which is in the support everywhere, so the
    tester is constant and ranks nothing.  A free block (reps.free_blocks)
    is a projective summand, free at every point, so it adds exactly
    n_c - n_c/p to the rank of N(a) = sum a_i Z_i wherever it is taken: the
    tester ranks N(a) on the rows and columns of the other blocks only
    (_kept), n' of them, and decides rank < n' - n'/p, stopping at
    n' - n'/p; when every block is free it is constant "out".  No power of
    N(a) is formed (see the module docstring).  The route is chosen once
    per (module, field).  When the union of the nonzero patterns of the Z_i
    has at most linalg.SPARSE_ROW_NONZEROS * n entries and K has at most
    linalg.ZECH_MAX_ORDER elements, the nonzero entries of the kept rows of
    the Z_i, read over the base once per module (reps.nonzero_codes), are
    embedded into K, and at each point N(a) is summed from them as rows of
    dicts (linalg.sparse_combination) and ranked by linalg.sparse_rank,
    with no numpy call.  Otherwise the generators of the base change of mod
    to K (reps.base_change, the identity on a module already over K), cut
    to the kept rows and columns, are one (n', n', r*e) coordinate array,
    the F_p digits of the codes times the powers of the generator of K
    (fields.companion_powers) are the F_p matrices of multiplication by the
    a_i, one more product (linalg.fp_matmul) gives N(a), and linalg.fq_rank
    ranks it.  The tests check both routes against the rank of N(a)^{p-1}
    of the whole module on the ne x ne block matrix over F_p at every
    sampled point.
    """
    p, n, e = mod.spec.p, mod.n, K.deg
    kept = _kept(mod) if block is None else block
    if kept is None:
        return lambda codes: True
    if not kept:
        return lambda codes: False
    size = len(kept)
    target = size - size // p
    by_gen, pattern = reps.nonzero_codes(mod)
    if K.order <= linalg.ZECH_MAX_ORDER and pattern <= linalg.SPARSE_ROW_NONZEROS * n:
        if size < n:
            by_gen = [[gen[a] for a in kept] for gen in by_gen]
        combine = linalg.sparse_combination(by_gen, mod.spec.base, K)
        return lambda codes: linalg.sparse_rank(combine(codes), K, target) != target
    # gens[u, v, i*e + b] is coordinate b of (Z_i)_{uv}, and row i*e + b of
    # (digits @ powers).reshape(-1, e) is column b of multiplication by a_i
    gens = np.stack([linalg.coeff_array(m) for m in reps.base_change(mod, K).Z],
                    axis=2).reshape(n, n, mod.spec.r * e)
    if size < n:
        gens = gens[np.ix_(kept, kept)]
    powers = fields.companion_powers(K).transpose(0, 2, 1).reshape(e, e * e)
    place = p ** np.arange(e, dtype=np.int64)

    def tester(codes):
        digits = np.array(codes, dtype=np.int64)[:, None] // place % p
        acc = linalg.fp_matmul(gens, (digits @ powers).reshape(-1, e) % p, p)
        return linalg.fq_rank(acc, K, stop_at=target) != target

    return tester


def _kept(mod):
    """The basis indices, ascending, on which the point tester ranks N(a):
    those of the blocks that _live_blocks gives, every index when no block
    is free, and None when it gives None (every point is then in the
    support)."""
    live = _live_blocks(mod)
    if live is None:
        return None
    if len(live) == len(reps.blocks(mod)):
        return range(mod.n)
    return sorted(i for block in live for i in block)


def _live_blocks(mod):
    """The blocks of mod (reps.blocks) that are not free (reps.free_blocks),
    in their order: the blocks whose rows the point tester and the generic
    scan rank.  None when p does not divide n or some block has dimension
    prime to p, so that every point, and the generic point, is in the
    support."""
    if mod.n % mod.spec.p or _has_block_prime_to_p(mod):
        return None
    return [block for block, free in zip(reps.blocks(mod), reps.free_blocks(mod))
            if not free]


def _has_block_prime_to_p(mod):
    """Does some block of mod (reps.blocks) have dimension prime to p?  Such
    a block is a direct summand that is in the support everywhere."""
    p = mod.spec.p
    return any(len(block) % p for block in reps.blocks(mod))


# ---------------------------------------------------------------------------
# Sampling


def _sampling_field(base, e):
    """Extension of the base of relative degree e with canonical defining
    polynomial; the base must embed into it."""
    K = fields.canonical_extension(base.p, base.deg * e)
    if not fields.refines(K, base):
        raise NotARefinement("base does not embed into the sampling field")
    return K


def enumeration_size(base, r, e_max):
    """Coordinate tuples enumerate_points visits: _tuple_count over the
    relative degrees 1..e_max."""
    return _tuple_count(base, r, range(1, e_max + 1))


def _tuple_count(base, r, degrees):
    """Coordinate tuples _new_points visits for each relative degree d in
    ``degrees``: |P^{r-1}(F_{q^d})| = (q^{dr} - 1)/(q^d - 1), q the order of
    the base, including the tuples it then skips as rational over a
    subfield."""
    q = base.order
    return sum((q ** (d * r) - 1) // (q**d - 1) for d in degrees)


def enumerate_points(base, r, e_max, budget=DEFAULT_ENUM_BUDGET):
    """Canonical representatives of P^{r-1}(F_{q^e}) for e <= e_max, new
    points only (nothing already rational over a proper subfield), as
    ProjPoints whose field is pt.desc, in the order of _new_points: by
    degree, then by the position of the leading 1, then by codes.  Raises
    ValueError for e_max < 1, and BudgetExceeded, on the first step, when
    more than ``budget`` tuples would be visited."""
    _check_enumeration(base, r, e_max, budget)
    for e in range(1, e_max + 1):
        yield from _new_points(base, r, e)[0]


def _check_enumeration(base, r, e_max, budget, scanned=()):
    """Check e_max >= 1, the enumeration for e <= e_max and then the
    generic scan of each module in ``scanned`` against the budget and the
    degree cap, so that a sampler fails before it tests a point."""
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    size = enumeration_size(base, r, e_max)
    if size > budget:
        raise BudgetExceeded(
            f"enumeration of {size} coordinate tuples exceeds budget {budget}"
        )
    _check_degree(base, e_max, "sampling")
    for mod in scanned:
        _generic_scan(mod, budget)


@lru_cache(maxsize=32)
def _new_points(base, r, e):
    """The points of P^{r-1}(F_{q0^e}) not rational over a proper subfield,
    q0 the order of the base, in enumeration order, and their Frobenius
    orbits: (points, first), where first[i] is the index of the first point
    of the orbit of point i.  A tuple is rational over a proper subfield
    when a conjugate s^j(codes), 0 < j < e, equals it (s: x -> x^q0).
    Conjugates share their zeros, so the first point of an orbit is its
    least code tuple.  Both are tuples, so that repeated samples share the
    same immutable ProjPoints and the orbits are found once."""
    if e > 1 and r == 1:
        return (), ()  # the one point of P^0 is rational over the base
    K = _sampling_field(base, e)
    frob = fields.frobenius(K, base.order).tolist() if e > 1 else None
    points, first, index = [], [], {}
    for lead in range(r):
        head = (0,) * lead + (1,)
        for tail in itertools.product(range(K.order), repeat=r - lead - 1):
            codes = head + tail
            orbit = [codes]  # codes, s(codes), ..., s^{e-1}(codes)
            for _ in range(e - 1):
                orbit.append(tuple([frob[c] for c in orbit[-1]]))
            if codes in orbit[1:]:
                continue
            first.append(index.setdefault(min(orbit), len(points)))
            points.append(ProjPoint._from_codes(K, codes))
    return tuple(points), tuple(first)


def _check_degree(base, e, what):
    """BudgetExceeded when F_{q^e}, q the order of the base, is past the cap
    on extension degrees, so that nothing is tested before the failure."""
    degree = base.deg * e
    if degree > fields.MAX_EXTENSION_DEGREE:
        raise BudgetExceeded(
            f"{what} needs extension degree {degree} over F_{base.p}, "
            f"past the cap {fields.MAX_EXTENSION_DEGREE}"
        )


def _sampled(spec, degrees, make_decider):
    """The points of _new_points over the base of spec for each relative
    degree in ``degrees``, in that order, each with its verdict
    decide(pt.codes), decide = make_decider(K) built once for each field
    K = pt.desc.  decide runs once per Frobenius orbit, at its first point,
    and the conjugates repeat its verdict.  The Frobenius is taken over the
    base of spec, not over that of the module decide tests, which is K
    itself for a coinduced one.  The callers check the budget and the
    degree cap first (_check_enumeration)."""
    for e in degrees:
        points, first = _new_points(spec.base, spec.r, e)
        if not points:
            continue
        decide = make_decider(points[0].desc)
        memo = {}
        for pt, i in zip(points, first):
            if i not in memo:
                memo[i] = decide(pt.codes)
            yield pt, memo[i]


def support_sample(mod, e_max, budget=DEFAULT_ENUM_BUDGET) -> SupportDescription:
    """Verdicts at every sampled closed point plus the generic verdict."""
    return _sample(mod, e_max, budget, lambda x, K: x)


def cosupport_sample(mod, e_max, budget=DEFAULT_ENUM_BUDGET) -> SupportDescription:
    """Cosupport verdicts over the same sample, via coinduction per field."""
    return _sample(mod, e_max, budget, reps.coinduced)


def _sample(mod, e_max, budget, over):
    """The sampled verdicts of over(mod, K) at the points of each field K,
    and the generic verdict of mod (for a cosupport, the finite-dimensional
    fallback)."""
    _check_enumeration(mod.spec.base, mod.spec.r, e_max, budget, [mod])
    desc = SupportDescription(module=mod, e_max=e_max)
    desc.sampled.update(_sampled(mod.spec, range(1, e_max + 1),
                                 lambda K: _point_tester(over(mod, K), K)))
    # a support is closed, so a sampled point out puts the generic point out
    desc.generic = all(desc.sampled.values()) and generic_in_support(mod, budget)
    return desc


def _generic_scan_degree(base, p, n):
    """Relative degree e of the field F_{q^e}, q the order of the base, whose
    closed points decide the generic verdict of a module of dimension n
    divisible by p: the least e with q^e > (p-1)n/p."""
    bound = (p - 1) * (n // p) + 1
    e = 1
    while base.order**e < bound:
        e += 1
    return e


def _generic_scan(mod, budget):
    """The plan of the scan that decides the generic verdict of mod: for
    each block that is not free (_live_blocks), the pair (block, degrees),
    degrees the divisors of its own relative degree e from
    _generic_scan_degree.  None when no rank can change the verdict: n = 0,
    p does not divide n, or some block has dimension prime to p.  An empty
    plan, every block free, is "out".  Raises BudgetExceeded when the plan
    visits more than ``budget`` tuples in all (_tuple_count), or when the
    largest e of the plan is past the degree cap.  It reads the block sizes
    and the freeness flags only, and builds no summand."""
    n, p, r = mod.n, mod.spec.p, mod.spec.r
    if n == 0 or n % p:
        return None
    base = mod.spec.base
    if not base.is_finite:
        raise ValueError("generic sampling needs a finite base field")
    live = _live_blocks(mod)
    if live is None:
        return None
    plan = [(block, _divisors(_generic_scan_degree(base, p, len(block))))
            for block in live]
    size = sum(_tuple_count(base, r, degrees) for _, degrees in plan)
    if size > budget:
        raise BudgetExceeded(f"generic scan of {size} points exceeds budget {budget}")
    _check_degree(base, max((degrees[-1] for _, degrees in plan), default=1),
                  "generic scan")
    return plan


def _divisors(e):
    return [d for d in range(1, e + 1) if e % d == 0]


def generic_in_support(mod, budget=DEFAULT_ENUM_BUDGET) -> bool:
    """Verdict at the generic point of P^{r-1} (chart a_1 = 1).

    The support of a direct sum is the union of the supports of its
    summands, so the generic point is in exactly when it is in for some
    block, and a free block is never in.  So the scan runs the plan of
    _generic_scan, and a module whose plan is empty, of free blocks alone,
    is out with no rank.  A block is in exactly when every closed point of
    P^{r-1}(F_{q^e}) is in for it, with its own e (see the module
    docstring).  Each such point is new over F_{q^d} for exactly one d | e,
    and rank does not change under field extension, so the block is
    _sampled over the divisors of e, smallest field first, by the point
    tester of the whole module cut to that block, and its scan stops at its
    first point out.  The plan stops at the first block that is in.
    Raises BudgetExceeded before any point is ranked when the plan visits
    more than ``budget`` tuples.
    """
    plan = _generic_scan(mod, budget)
    if plan is None:
        return mod.n > 0  # the zero module has empty support
    return any(all(verdict for _, verdict in _sampled(
        mod.spec, degrees, lambda K, block=block: _point_tester(mod, K, block)))
        for block, degrees in plan)


# ---------------------------------------------------------------------------
# Determinantal support ideal


def support_ideal(mod, max_dim=DEFAULT_IDEAL_MAX_DIM) -> SupportDescription:
    """Homogeneous generators of the support locus: the nonzero (n/p)-minors
    of N(s)^{p-1} where N(s) = s_1 Z_1 + ... + s_r Z_r.

    The monomial coefficients C_b of N(s)^{p-1} are formed as coordinate
    arrays (_operator_coeffs).  Only the minors of the pivot submatrix
    op[I, J] (see _pivot_submatrix) are taken, on its coefficients
    (linalg.PolyMatrix), and a minor that is a nonzero scalar multiple of
    one already kept is dropped.  Both generate the same ideal as the full
    list, of which the result is a subsequence.  A block (reps.blocks) of
    dimension prime to p makes every minor vanish, and nothing is formed.
    """
    n, p = mod.n, mod.spec.p
    if n > max_dim:
        raise DimensionTooLarge(f"ideal mode limited to dimension {max_dim}")
    desc = SupportDescription(module=mod)
    if n % p:
        desc.ideal = EVERYTHING
        return desc
    base = mod.spec.base
    names = tuple(f"s{i}" for i in range(1, mod.spec.r + 1))
    if set(names) & set(base.vars):
        raise ValueError("ideal variable names collide with the base field")
    desc.ideal = []
    if _has_block_prime_to_p(mod):
        # rank N(s)^{p-1} is the sum over the blocks of at most
        # floor(n_c/p), which falls short of n/p: the zero ideal
        return desc
    K = fields.make_field(p, base.ext, base.vars + names)
    sub = _pivot_submatrix(K, _operator_coeffs(mod))
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


def _operator_coeffs(mod):
    """The C_b of N(s)^{p-1} = sum_b m_b C_b as (n, n, e) int64 coordinate
    arrays over the finite part, keyed by the exponents of m_b in the base's
    variables and s.

    P_1 = {e_i: Z_i} and P_{j+1}[a + e_i] sums the Z_i P_j[a], in Matrix
    arithmetic over the base; this uses only N^{j+1} = N N^j, so the Z_i
    need not commute.  Each word is split by monomials in the base's
    variables through linalg.PolyMatrix.from_matrix (NonPolynomialEntry for
    an entry with a denominator).  Over a finite base that split is the
    word's own coefficient array, so every monomial of degree p - 1 in s
    keeps its C_b, zero or not, and the work depends on n, p and r only;
    over a base with transcendentals only the monomials that occur are kept.
    """
    r, p = mod.spec.r, mod.spec.p
    words = {tuple(int(j == i) for j in range(r)): z for i, z in enumerate(mod.Z)}
    for _ in range(p - 2):
        nxt = {}
        for alpha, c in words.items():
            for i, z in enumerate(mod.Z):
                beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                prod = z @ c
                nxt[beta] = nxt[beta] + prod if beta in nxt else prod
        words = nxt
    coeffs = {}
    for alpha, c in words.items():
        split = linalg.PolyMatrix.from_matrix(c)
        for exps, cb in zip(split.exps, split.coeffs):
            coeffs[exps + alpha] = cb
    return coeffs


def _pivot_submatrix(K, coeffs):
    """The submatrix op[I, J] over K that has the same ideal of k-minors as
    op = sum_b m_b C_b, given the C_b by monomial (_operator_coeffs).

    J, the pivot columns of the stack [C_b1; C_b2; ...], spans the columns
    of every C_b, so op = op[:, J] R for a constant R containing an identity
    block; I, the pivot columns of the stack of transposes, gives
    op = L^T op[I, :] in the same way.  So op = L^T op[I, J] R, and by
    Cauchy-Binet every k-minor of op is a constant combination of k-minors
    of op[I, J], which are themselves k-minors of op.  Pivot columns depend
    only on the row space of a stack, not on the order of its blocks.  The
    C_b are stacked once, and op[I, J] is cut from the stack by indexing.
    """
    if not coeffs:
        empty = np.zeros((0, 0, 0, K.deg), dtype=np.int64)
        return linalg.PolyMatrix(K, 0, 0, (), empty)
    fin = K.finite_part
    stack = np.stack(list(coeffs.values()))
    rows = _pivot_lines(stack.transpose(0, 2, 1, 3), fin)
    cols = _pivot_lines(stack, fin)
    return linalg.PolyMatrix(K, len(rows), len(cols), tuple(coeffs),
                             stack[:, rows][:, :, cols])


def _pivot_lines(stack, fin):
    """Pivot columns, in ascending order, of the vertical stack of a
    (k, rows, n, e) coordinate array over the finite field ``fin``
    (linalg.fq_pivots, with no stop, so that every route finds the same
    columns)."""
    k, rows, n, e = stack.shape
    return sorted(linalg.fq_pivots(stack.reshape(k * rows, n, e), fin))


def ideal_vanishes_at(gens, pt: ProjPoint) -> bool:
    """Spot-check helper: do all generators vanish at the closed point?"""
    K = pt.desc
    coords = tuple(K.sfrom_code(c) for c in pt.codes)
    for gen in gens:
        emb = fields._scalar_embedding(gen.desc.finite_part, K)
        value = gen.evaluate_scalars(K, coords, emb)
        if any(value):
            return False
    return True


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
    statement at desk scale; none is expected.  Both sides use the same
    Nakayama test where a sum has several blocks (reps.free_blocks): the
    samplers leave its free blocks out, so for them "free => empty" rests
    on that test, and it is the point ranks of the other blocks, and of
    modules of one block, that the statement checks."""
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
    module: object  # the tensor or Hom module whose support is compared
    points: list  # (ProjPoint, lhs, rhs)
    generic_lhs: bool = False
    generic_rhs: bool = False

    @property
    def equal(self):
        return self.generic_lhs == self.generic_rhs and all(
            lhs == rhs for _, lhs, rhs in self.points
        )

    def mismatches(self):
        """Labels of the points where the two sides differ, then "generic"
        if they differ at the generic point."""
        out = [str(pt) for pt, lhs, rhs in self.points if lhs != rhs]
        if self.generic_lhs != self.generic_rhs:
            out.append("generic")
        return out


def verify_tensor_formula(m, n, e_max, budget=DEFAULT_ENUM_BUDGET) -> FormulaReport:
    """Pointwise comparison of supp(M (x) N) with supp(M) /\\ supp(N)."""
    return _verify_formula("tensor", reps.tensor, lambda x, K: x, m, n, e_max, budget)


def verify_hom_formula(m, n, e_max, budget=DEFAULT_ENUM_BUDGET) -> FormulaReport:
    """Pointwise comparison of cosupp(Hom(M, N)) with supp(M) /\\ cosupp(N).

    The left side is computed directly on the Hom module: coinduction over
    each sampled field, then restriction.  At the generic point both
    cosupports use the documented finite-dimensional fallback.
    """
    return _verify_formula("hom", reps.hom, reps.coinduced, m, n, e_max, budget)


def _verify_formula(kind, build, over, m, n, e_max, budget) -> FormulaReport:
    """Both sides of one formula at every sampled point, as rows (point,
    lhs, rhs), and at the generic point.  lhs is the verdict of over(t, K)
    for t = build(m, n), rhs that of m and of over(n, K); over(x, K) is the
    module over the point's field K whose support is compared: x itself for
    a support, its coinduced module for a cosupport."""
    if m.spec != n.spec:
        raise ValueError("modules over different algebras")
    base, r = m.spec.base, m.spec.r
    # the guards fire before the n*m-dimensional product is built
    _check_enumeration(base, r, e_max, budget)
    t = build(m, n)
    _check_enumeration(base, r, e_max, budget, [t, m, n])

    def make_decider(K):
        tl, tm, tr = (_point_tester(x, K) for x in (over(t, K), m, over(n, K)))
        return lambda codes: (tl(codes), tm(codes) and tr(codes))

    rows = [(pt, lhs, rhs) for pt, (lhs, rhs)
            in _sampled(m.spec, range(1, e_max + 1), make_decider)]
    # a support is closed, and the lhs is a support or, for a cosupport,
    # that of a base change: a sampled point out puts the generic point out
    g_lhs = all(lhs for _, lhs, _ in rows) and generic_in_support(t, budget)
    g_rhs = generic_in_support(m, budget) and generic_in_support(n, budget)
    return FormulaReport(kind, t, rows, g_lhs, g_rhs)


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
