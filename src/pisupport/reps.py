"""Modules over A = K[z_1..z_r]/(z_1^p,...,z_r^p) with a Hopf flavor per
generator, and the constructions that need the Hopf structure: tensor
products, Hom modules, duals, invariants, base change and coinduction.

Flavor "group" carries the comultiplication z -> z(x)1 + 1(x)z + z(x)z and
antipode z -> (1+z)^{p-1} - 1; flavor "primitive" carries z -> z(x)1 + 1(x)z
and antipode z -> -z.  Mixed flavors give the quasi-elementary algebras.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import fields, linalg
from .errors import (
    BlockTooBig,
    InfiniteExtension,
    NotARefinement,
    SpecMismatch,
    ValidationError,
)
from .fields import embed
from .linalg import Matrix

GROUP = "group"
PRIMITIVE = "primitive"


@dataclass(frozen=True)
class AlgebraSpec:
    """Shape of the algebra: characteristic, generator count, flavor per
    generator, and the coefficient field."""

    p: int
    r: int
    flavors: tuple
    base: fields.FieldDescriptor

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need at least one generator")
        if len(self.flavors) != self.r:
            raise ValueError("one flavor per generator required")
        if any(f not in (GROUP, PRIMITIVE) for f in self.flavors):
            raise ValueError(f"unknown flavor in {self.flavors}")
        if self.base.p != self.p:
            raise ValueError("base characteristic differs from p")

    def with_base(self, base):
        return AlgebraSpec(self.p, self.r, self.flavors, base)


def make_spec(p, r, flavors=None, base=None):
    if flavors is None:
        flavors = (GROUP,) * r
    if isinstance(flavors, str):
        flavors = (flavors,) * r
    if base is None:
        base = fields.make_field(p)
    return AlgebraSpec(p, r, tuple(flavors), base)


class ModuleRep:
    """A finite-dimensional module: r commuting p-nilpotent matrices.  Its
    partition into blocks (see blocks), which of them are free (see
    free_blocks) and its nonzero entries (see nonzero_codes) are kept once
    found."""

    __slots__ = ("spec", "n", "Z", "name", "_blocks", "_free", "_nonzeros")

    def __init__(self, spec, Z, name=None, _checked=False, _blocks=None, _free=None):
        Z = tuple(Z)
        if len(Z) != spec.r:
            raise ValidationError(f"expected {spec.r} generator matrices")
        n = Z[0].rows if Z else 0
        for m in Z:
            if m.rows != n or m.cols != n:
                raise ValidationError("generator matrices must be square, equal size")
            if m.desc != spec.base:
                raise ValidationError("generator matrix over the wrong field")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_blocks", _blocks)
        object.__setattr__(self, "_free", _free)
        object.__setattr__(self, "_nonzeros", None)
        if not _checked:
            violations = validate(self)
            if violations:
                kind, where = violations[0]
                raise ValidationError(f"{kind} violated at {where}")

    def __setattr__(self, name, value):
        raise AttributeError("ModuleRep is immutable")

    def __repr__(self):
        label = self.name or "module"
        return f"ModuleRep({label}, dim={self.n}, p={self.spec.p}, r={self.spec.r})"

    def renamed(self, name):
        return ModuleRep(self.spec, self.Z, name=name, _checked=True,
                         _blocks=self._blocks, _free=self._free)


def validate(mod):
    """Check commutativity and p-nilpotence; return the list of violations,
    each as (kind, index-or-pair).  Empty list means the module is valid."""
    spec = mod.spec
    out = []
    for i, j in itertools.combinations(range(spec.r), 2):
        if mod.Z[i] @ mod.Z[j] != mod.Z[j] @ mod.Z[i]:
            out.append(("commutativity", (i + 1, j + 1)))
    for i, m in enumerate(mod.Z):
        if not m.power(spec.p).is_zero():
            out.append(("nilpotence", i + 1))
    return out


# ---------------------------------------------------------------------------
# Basic constructions


def trivial_module(spec) -> ModuleRep:
    z = Matrix.zero(spec.base, 1, 1)
    return ModuleRep(spec, [z] * spec.r, name="trivial", _checked=True)


def free_module(spec, g) -> ModuleRep:
    """Free module of rank g; basis indexed by (copy, exponent vector) with
    exponent vectors in lexicographic order and z_i raising the i-th exponent.

    Basis vector x is c p^r + sum_i e_i p^(r-1-i) for copy c and exponents
    e_i, so z_i sends x to x + p^(r-1-i) while e_i < p - 1, and to 0 when
    e_i = p - 1; each z_i is written as that 0/1 array of size g p^r."""
    if g < 0:
        raise ValueError("rank must be nonnegative")
    p, r = spec.p, spec.r
    n = g * p**r
    x = np.arange(n)
    mats = []
    for i in range(r):
        stride = p ** (r - 1 - i)
        src = x[x // stride % p < p - 1]
        z = np.zeros((n, n), dtype=np.int64)
        z[src + stride, src] = 1
        mats.append(Matrix.from_ints(spec.base, z))
    return ModuleRep(spec, mats, name=f"free:{g}", _checked=True)


def jordan_block_module(spec, u) -> ModuleRep:
    """Cyclic module K[t]/(t^u) for a rank-one algebra."""
    if spec.r != 1:
        raise SpecMismatch("jordan block modules need r = 1")
    if not 1 <= u <= spec.p:
        raise BlockTooBig(f"block size {u} outside 1..{spec.p}")
    shift = Matrix.from_ints(spec.base, np.eye(u, k=-1, dtype=np.int64))
    return ModuleRep(spec, [shift], name=f"jordan:{u}", _checked=True)


def direct_sum(a, b) -> ModuleRep:
    if a.spec != b.spec:
        raise SpecMismatch("direct sum needs matching algebra specs")
    mats = [linalg.block_diag([x, y]) for x, y in zip(a.Z, b.Z)]
    return ModuleRep(a.spec, mats, _checked=True)


def blocks(mod):
    """The connected components of the union of the nonzero patterns of
    Z_1..Z_r, as tuples of basis indices, each sorted, in the order of their
    least index.  Every Z_i maps the span of a block into itself, so the
    module is the direct sum of its restrictions to the blocks, and
    N(a) = sum a_i Z_i is block diagonal on them at every point a.
    Found on first use and kept on the module."""
    if mod._blocks is None:
        n = mod.n
        linked = np.eye(n, dtype=bool)
        for z in mod.Z:
            if z.desc.is_finite:
                nonzero = linalg.coeff_array(z).any(axis=2)
            else:
                nonzero = np.array([[bool(x) for x in row] for row in z.entries],
                                   dtype=bool).reshape(n, n)
            linked |= nonzero | nonzero.T
        # label propagation: each index takes the least label among its
        # neighbours, then the label of that label; labels only fall, each
        # stays an index of the same component, and at the fixed point every
        # index carries the least index of its component
        label = np.arange(n)
        while True:
            low = np.where(linked, label, n).min(axis=1, initial=n)
            low = low[low]
            if (low == label).all():
                break
            label = low
        comps = {}
        for i, c in enumerate(label.tolist()):
            comps.setdefault(c, []).append(i)
        object.__setattr__(mod, "_blocks", tuple(map(tuple, comps.values())))
    return mod._blocks


def free_blocks(mod):
    """For each block of mod (blocks), in their order, whether the direct
    summand on it is free.  The blocks are tested only when there are at
    least two and p divides the dimension of each, all together by one
    elimination (_free_on); every other flag is False, so a module of one
    block takes no rank here.  Freeness does not change under field
    extension, so base_change (and so coinduced) and renamed carry the
    flags.  Found on first use and kept on the module."""
    if mod._free is None:
        parts, p = blocks(mod), mod.spec.p
        test = len(parts) > 1 and not any(len(block) % p for block in parts)
        object.__setattr__(mod, "_free",
                           _free_on(mod, parts) if test else (False,) * len(parts))
    return mod._free


def nonzero_codes(mod):
    """(by_gen, size) over a finite base: by_gen[i][a] lists the (column,
    element code) pairs of the nonzero entries in row a of Z_i, and size
    counts the positions where some Z_i is nonzero.  Kept on the module."""
    if mod._nonzeros is None:
        codes = [linalg.element_codes(linalg.coeff_array(z), mod.spec.base)
                 for z in mod.Z]
        by_gen = [[[] for _ in range(mod.n)] for _ in codes]
        for rows, c in zip(by_gen, codes):
            u, v = c.nonzero()
            for a, b, x in zip(u.tolist(), v.tolist(), c[u, v].tolist()):
                rows[a].append((b, x))
        # codes are nonnegative, so their sum is nonzero on the union
        object.__setattr__(mod, "_nonzeros", (by_gen, np.count_nonzero(sum(codes))))
    return mod._nonzeros


# ---------------------------------------------------------------------------
# Hopf constructions.  These are genuine computations whose outputs are
# re-validated: commutativity and p-nilpotence of the results exercise the
# comultiplication and antipode formulas.


def tensor(a, b) -> ModuleRep:
    """Tensor product; basis (i,j) -> i*dim(b) + j."""
    if a.spec != b.spec:
        raise SpecMismatch("tensor needs matching algebra specs")
    spec = a.spec
    ia = Matrix.identity(spec.base, a.n)
    ib = Matrix.identity(spec.base, b.n)
    mats = []
    for i in range(spec.r):
        m = linalg.kron(a.Z[i], ib) + linalg.kron(ia, b.Z[i])
        if spec.flavors[i] == GROUP:
            m = m + linalg.kron(a.Z[i], b.Z[i])
        mats.append(m)
    return ModuleRep(spec, mats)


def hom(a, b) -> ModuleRep:
    """Module of linear maps a -> b; basis is the matrix units E_{q,r}
    ordered row-major by (target, source).

    Generator action (from comultiplication and antipode):
      primitive: f -> Z_b f - f Z_a
      group:     f -> (I + Z_b) f (I + Z_a)^{p-1} - f
    """
    if a.spec != b.spec:
        raise SpecMismatch("hom needs matching algebra specs")
    spec = a.spec
    p = spec.p
    ia = Matrix.identity(spec.base, a.n)
    ib = Matrix.identity(spec.base, b.n)
    mats = []
    for i in range(spec.r):
        if spec.flavors[i] == PRIMITIVE:
            m = linalg.kron(b.Z[i], ia) - linalg.kron(ib, a.Z[i].transpose())
        else:
            left = ib + b.Z[i]
            right = (ia + a.Z[i]).power(p - 1)
            m = linalg.kron(left, right.transpose()) - linalg.kron(ib, ia)
        mats.append(m)
    return ModuleRep(spec, mats)


def dual(mod) -> ModuleRep:
    return hom(mod, trivial_module(mod.spec))


def base_change(mod, target) -> ModuleRep:
    """Same matrices with entries embedded into a refinement of the base."""
    if target == mod.spec.base:
        return mod
    if not fields.refines(target, mod.spec.base):
        raise NotARefinement(f"{target} does not refine {mod.spec.base}")
    spec = mod.spec.with_base(target)
    if target.is_finite:
        emb = linalg.embedding_matrix(mod.spec.base, target)
        mats = [linalg.from_coeff_array(target, linalg.coeff_array(m) @ emb)
                for m in mod.Z]
    else:
        mats = [m.map_entries(lambda x: embed(x, target), target) for m in mod.Z]
    # embedding keeps the nonzero pattern, and with it the blocks, and the
    # rank behind each freeness flag
    return ModuleRep(spec, mats, name=mod.name, _checked=True, _blocks=mod._blocks,
                     _free=mod._free)


# ---------------------------------------------------------------------------
# Coinduction


def coinduced(mod, target) -> ModuleRep:
    """Hom_k(K, M), the k-linear maps from K = target to M = mod with k the
    base, as a module over K: K acts by precomposition,
    (lambda f)(x) = f(lambda x), and the generators by post-composition.

    This is the base change of M to K.  Let h_j = (x -> Tr(x) m_j), with
    Tr = Tr_{K/k} and m_j the basis of M.  Finite fields are separable, so
    the trace pairing (x, y) -> Tr(xy) is nondegenerate: every k-linear map
    K -> k is x -> Tr(lambda x) for a unique lambda in K, every f is
    sum_j lambda_j h_j for unique lambda_j, and the h_j are a K-basis.  For
    c in k, c h_q = (x -> Tr(cx) m_q) = (x -> c Tr(x) m_q) because Tr is
    k-linear, so z_i h_j = (x -> Tr(x) z_i m_j) = sum_q (Z_i)_{qj} h_q with
    every coefficient in k.  In the basis h_j, z_i is Z_i with its entries
    embedded into K.
    """
    base = mod.spec.base
    if not base.is_finite or not target.is_finite:
        raise InfiniteExtension("coinduction requires finite fields")
    return base_change(mod, target)  # NotARefinement unless target refines the base


# ---------------------------------------------------------------------------
# Invariants and the freeness oracle


@dataclass(frozen=True)
class InvariantsInfo:
    dimension: int
    basis: tuple


def invariants(mod) -> InvariantsInfo:
    """The joint kernel of the generators (socle-side invariants)."""
    if mod.n == 0:
        return InvariantsInfo(0, ())
    stacked = linalg.vstack(list(mod.Z))
    basis = linalg.kernel_basis(stacked)
    return InvariantsInfo(len(basis), tuple(tuple(v) for v in basis))


def radical_quotient_dim(mod) -> int:
    """Minimal number of generators, by Nakayama over the local algebra:
    n - dim(sum of the generator images)."""
    return mod.n - _generator_ranks(mod, [range(mod.n)])[0]


def _generator_ranks(mod, parts):
    """The rank of [Z_1 | ... | Z_r] on the rows and columns of each of
    ``parts``, disjoint sequences of basis indices whose spans every Z_i
    maps into themselves (blocks, or every index), with no summand built.

    Over a finite base this is one fq_pivots call on the transpose
    [Z_1; ...; Z_r] cut to the indices of all parts (no cut for every
    index in order): its rows are r times shorter, so that a sparse module
    is eliminated on rows of dicts, and the cut is block diagonal up to
    order, so the pivot columns of each part number its rank."""
    base = mod.spec.base
    if not base.is_finite:
        ranks = []
        for part in parts:
            cut = [Matrix(base, [[z.entries[a][b] for b in part] for a in part])
                   for z in mod.Z]
            ranks.append(linalg.rank(linalg.hstack(cut)))
        return ranks
    idx = [i for part in parts for i in part]
    if not idx:
        return [0] * len(parts)
    gens = [linalg.coeff_array(z) for z in mod.Z]
    if idx != list(range(mod.n)):
        cut = np.ix_(idx, idx)
        gens = [g[cut] for g in gens]
    pivots = linalg.fq_pivots(np.concatenate(gens, axis=1).transpose(1, 0, 2), base)
    if len(parts) == 1:
        return [len(pivots)]
    owner = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
    return np.bincount(owner[list(pivots)], minlength=len(parts)).tolist()


def _free_on(mod, parts):
    """Whether the summand of mod on each of ``parts`` (as _generator_ranks
    takes them) is free.  The minimal cover of a summand of dimension n_c is
    free of rank g = n_c - rank [Z_1 | ... | Z_r] on its rows and columns,
    and the summand is free iff n_c = p^r * g.  Only the parts of dimension
    a multiple of p^r are ranked, all in one _generator_ranks call."""
    size = mod.spec.p ** mod.spec.r
    tested = [k for k, part in enumerate(parts) if len(part) % size == 0]
    free = [False] * len(parts)
    for k, rank in zip(tested, _generator_ranks(mod, [parts[k] for k in tested])):
        free[k] = len(parts[k]) == size * (len(parts[k]) - rank)
    return tuple(free)


def is_free(mod) -> bool:
    """Freeness test over the local algebra: _free_on every index, the
    test behind free_blocks."""
    return _free_on(mod, [range(mod.n)])[0]
