"""Modules over A = K[z_1..z_r]/(z_1^p,...,z_r^p) with a Hopf flavor per
generator, and the constructions that need the Hopf structure: tensor
products, Hom modules, duals, invariants, base change and coinduction.

Flavor "group" carries the comultiplication z -> z(x)1 + 1(x)z + z(x)z and
antipode z -> (1+z)^{p-1} - 1; flavor "primitive" carries z -> z(x)1 + 1(x)z
and antipode z -> -z.  Mixed flavors give the quasi-elementary algebras.

Over a finite base a module is one read-only (r, n, n, e) int64 array, the
stack of its generators' coefficient arrays (ModuleRep.stack), and its Z
are Matrix views of it.  validate, tensor, hom, base_change, direct_sum
and the reads of patterns, codes and ranks run on the stack in numpy
(linalg.coeff_kron, linalg.coeff_powers, linalg.fp_matmul), with no Matrix
built between them.  Over a function field the generators are a tuple of
boxed Matrix, and the same constructions are Matrix arithmetic.
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
    """A finite-dimensional module: r commuting p-nilpotent matrices Z,
    given as Matrix or, over a finite base, as the (r, n, n, e) int64 array
    of their coefficient arrays (linalg.coeff_array), reduced mod p, which
    the module then owns.  Over a finite base ``stack`` is that read-only
    array, built once, and Z a tuple of Matrix views of it, made on first
    read and kept; over a function field ``stack`` is None and Z the boxed
    matrices.  Its partition into blocks (see blocks), which of them are
    free (see free_blocks) and its nonzero entries (see nonzero_codes) are
    kept once found."""

    __slots__ = ("spec", "n", "stack", "_Z", "name", "_blocks", "_free", "_nonzeros")

    def __init__(self, spec, Z, name=None, _checked=False, _blocks=None, _free=None):
        if isinstance(Z, np.ndarray):
            stack, n = Z, Z.shape[1] if Z.ndim > 1 else -1
            if not spec.base.is_finite or stack.shape != (spec.r, n, n, spec.base.deg):
                raise ValidationError(
                    f"generator stack of shape {stack.shape} over {spec.base}")
        else:
            Z = tuple(Z)
            if len(Z) != spec.r:
                raise ValidationError(f"expected {spec.r} generator matrices")
            n = Z[0].rows
            for m in Z:
                if m.rows != n or m.cols != n:
                    raise ValidationError("generator matrices must be square, equal size")
                if m.desc != spec.base:
                    raise ValidationError("generator matrix over the wrong field")
            stack = None
            if spec.base.is_finite:
                stack = np.stack([linalg.coeff_array(m) for m in Z])
        if stack is not None:
            stack.flags.writeable = False
            n, Z = stack.shape[1], None
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "_Z", Z)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_blocks", _blocks)
        object.__setattr__(self, "_free", _free)
        object.__setattr__(self, "_nonzeros", None)
        if not _checked:
            violations = validate(self)
            if violations:
                kind, where = violations[0]
                raise ValidationError(f"{kind} violated at {where}")

    @property
    def Z(self):
        if self._Z is None:
            object.__setattr__(self, "_Z", tuple(
                Matrix._from_coeffs(self.spec.base, z) for z in self.stack))
        return self._Z

    def __setattr__(self, name, value):
        raise AttributeError("ModuleRep is immutable")

    def __repr__(self):
        label = self.name or "module"
        return f"ModuleRep({label}, dim={self.n}, p={self.spec.p}, r={self.spec.r})"

    def renamed(self, name):
        return ModuleRep(self.spec, self.Z if self.stack is None else self.stack,
                         name=name, _checked=True, _blocks=self._blocks, _free=self._free)


def validate(mod):
    """Check commutativity and p-nilpotence; return the list of violations,
    each as (kind, index-or-pair), the pairs in itertools.combinations
    order and then the indices.  Empty list means the module is valid.

    Over a finite base, for each i one fp_matmul of the block matrix of Z_i
    (linalg.blockify) with the coordinate columns of every Z_j, j > i,
    gives the Z_i Z_j, and one of their block matrices with those of Z_i
    the Z_j Z_i; p - 1 batched products give every Z_i^p.  One row of
    products is held at a time."""
    spec, p = mod.spec, mod.spec.p
    if mod.stack is None:
        out = [("commutativity", (i + 1, j + 1))
               for i, j in itertools.combinations(range(spec.r), 2)
               if mod.Z[i] @ mod.Z[j] != mod.Z[j] @ mod.Z[i]]
        return out + [("nilpotence", i + 1) for i, m in enumerate(mod.Z)
                      if not m.power(p).is_zero()]
    blocks, cols = linalg.blockify(mod.stack, spec.base), linalg.columns(mod.stack)
    out = []
    for i in range(spec.r - 1):
        left = linalg.fp_matmul(blocks[i], cols[i + 1:], p)
        right = linalg.fp_matmul(blocks[i + 1:], cols[i], p)
        unequal = np.flatnonzero((left != right).any(axis=(1, 2))) + i + 2
        out += [("commutativity", (i + 1, j)) for j in unequal.tolist()]
    for _ in range(p - 1):
        cols = linalg.fp_matmul(blocks, cols, p)
    nonzero = np.flatnonzero(cols.any(axis=(1, 2))) + 1
    return out + [("nilpotence", i) for i in nonzero.tolist()]


# ---------------------------------------------------------------------------
# Basic constructions


def from_ints(spec, ints, **kwargs) -> ModuleRep:
    """The module whose Z_i has entry (a, b) the integer ints[i, a, b] mod p,
    from an (r, n, n) integer array: over a finite base coordinate 0 of the
    stack, and over a function field Matrix.from_ints.  ``kwargs`` go to
    ModuleRep."""
    base = spec.base
    if not base.is_finite:
        return ModuleRep(spec, [Matrix.from_ints(base, z) for z in ints], **kwargs)
    return ModuleRep(spec, linalg.int_coeffs(ints, base), **kwargs)


def trivial_module(spec) -> ModuleRep:
    return from_ints(spec, np.zeros((spec.r, 1, 1), dtype=np.int64), name="trivial",
                     _checked=True)


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
    ints = np.zeros((r, n, n), dtype=np.int64)
    for i in range(r):
        stride = p ** (r - 1 - i)
        src = x[x // stride % p < p - 1]
        ints[i, src + stride, src] = 1
    return from_ints(spec, ints, name=f"free:{g}", _checked=True)


def jordan_block_module(spec, u) -> ModuleRep:
    """Cyclic module K[t]/(t^u) for a rank-one algebra."""
    if spec.r != 1:
        raise SpecMismatch("jordan block modules need r = 1")
    if not 1 <= u <= spec.p:
        raise BlockTooBig(f"block size {u} outside 1..{spec.p}")
    shift = np.eye(u, k=-1, dtype=np.int64)
    return from_ints(spec, shift[None], name=f"jordan:{u}", _checked=True)


def direct_sum(a, b) -> ModuleRep:
    if a.spec != b.spec:
        raise SpecMismatch("direct sum needs matching algebra specs")
    if a.stack is None:
        return ModuleRep(a.spec, [linalg.block_diag([x, y]) for x, y in zip(a.Z, b.Z)],
                         _checked=True)
    r, n, e = a.spec.r, a.n + b.n, a.spec.base.deg
    out = np.zeros((r, n, n, e), dtype=np.int64)
    out[:, :a.n, :a.n], out[:, a.n:, a.n:] = a.stack, b.stack
    return ModuleRep(a.spec, out, _checked=True)


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
        for nonzero in _nonzero_patterns(mod):
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


def _nonzero_patterns(mod):
    """For each Z_i, the (n, n) bool array of its nonzero entries."""
    n = mod.n
    if mod.stack is not None:
        return mod.stack.any(axis=3)
    return [np.array([[bool(x) for x in row] for row in z.entries],
                     dtype=bool).reshape(n, n) for z in mod.Z]


def free_blocks(mod):
    """For each block of mod (blocks), in their order, whether the direct
    summand on it is free: every block, a module of one block included, is
    tested by the same elimination (_free_on), all together.  Freeness does
    not change under field extension, so base_change (and so coinduced) and
    renamed carry the flags.  Found on first use and kept on the module."""
    if mod._free is None:
        object.__setattr__(mod, "_free", _free_on(mod, blocks(mod)))
    return mod._free


def nonzero_codes(mod):
    """(rows, size) over a finite base: the nonzero entries of the
    generators row-major, as linalg.sparse_pivots takes them, and the
    number of positions where some Z_i is nonzero.  rows[a] lists the terms
    (i, pairs) of the Z_i that are nonzero in row a, in generator order,
    pairs the (column, element code) of their entries there.  Kept on the
    module."""
    if mod._nonzeros is None:
        codes = linalg.element_codes(mod.stack, mod.spec.base).transpose(1, 0, 2)
        at = codes.nonzero()
        rows = [[] for _ in range(mod.n)]
        entries = zip(*(u.tolist() for u in at), codes[at].tolist())
        for (a, i), group in itertools.groupby(entries, key=lambda entry: entry[:2]):
            rows[a].append((i, [(b, x) for _, _, b, x in group]))
        size = np.count_nonzero(codes.any(axis=1))
        object.__setattr__(mod, "_nonzeros", (rows, size))
    return mod._nonzeros


# ---------------------------------------------------------------------------
# Hopf constructions.  These are genuine computations whose outputs are
# re-validated: commutativity and p-nilpotence of the results exercise the
# comultiplication and antipode formulas.


def tensor(a, b) -> ModuleRep:
    """Tensor product; basis (i,j) -> i*dim(b) + j."""
    if a.spec != b.spec:
        raise SpecMismatch("tensor needs matching algebra specs")
    return _tensor(a.spec, *((a.Z, b.Z) if a.stack is None else (a.stack, b.stack)))


def _tensor(spec, x, y):
    """The tensor product of modules with generators x and y, stacks over a
    finite base and Matrix otherwise: z_i acts as z_i(x)1 + 1(x)z_i, plus
    z_i(x)z_i for the group flavor.  Stacks take batched Kronecker
    products (linalg.coeff_kron), of every generator at once."""
    base = spec.base
    group = [i for i, f in enumerate(spec.flavors) if f == GROUP]
    if isinstance(x, np.ndarray):
        ix, iy = (linalg.int_coeffs(np.eye(z.shape[1], dtype=np.int64), base)
                  for z in (x, y))
        gens = linalg.coeff_kron(x, iy, base) + linalg.coeff_kron(ix, y, base)
        gens[group] += linalg.coeff_kron(x[group], y[group], base)
        return ModuleRep(spec, gens % spec.p)
    ix, iy = (Matrix.identity(base, z[0].rows) for z in (x, y))
    mats = [linalg.kron(x[i], iy) + linalg.kron(ix, y[i]) for i in range(spec.r)]
    return ModuleRep(spec, [m + linalg.kron(x[i], y[i]) if i in group else m
                            for i, m in enumerate(mats)])


def hom(a, b) -> ModuleRep:
    """Module of linear maps a -> b; basis is the matrix units E_{q,r}
    ordered row-major by (target, source).

    Generator action (from comultiplication and antipode):
      primitive: f -> Z_b f - f Z_a
      group:     f -> (I + Z_b) f (I + Z_a)^{p-1} - f
    This is the tensor product of b with the dual of a, on which z_i acts
    as the transpose of its antipode: -Z_i^T, or ((I + Z_i)^{p-1})^T - I.
    """
    if a.spec != b.spec:
        raise SpecMismatch("hom needs matching algebra specs")
    spec, p = a.spec, a.spec.p
    group = [i for i, f in enumerate(spec.flavors) if f == GROUP]
    if a.stack is None:
        ia = Matrix.identity(spec.base, a.n)
        dual = [(ia + z).power(p - 1).transpose() - ia if i in group else -z.transpose()
                for i, z in enumerate(a.Z)]
        return _tensor(spec, b.Z, dual)
    x, ia = a.stack, linalg.int_coeffs(np.eye(a.n, dtype=np.int64), spec.base)
    dual = -x.swapaxes(1, 2)
    right = linalg.coeff_powers((ia + x[group]) % p, spec.base, p - 1)[-1]
    dual[group] = right.swapaxes(1, 2) - ia
    return _tensor(spec, b.stack, dual % p)


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
        mats = mod.stack @ linalg.embedding_matrix(mod.spec.base, target) % target.p
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
    gens = mod.stack
    if idx != list(range(mod.n)):
        gens = gens[:, idx][:, :, idx]
    r, m, _, e = gens.shape  # the transpose of [Z_1 | ... | Z_r]: row j*m + b
    pivots = linalg.fq_pivots(gens.transpose(0, 2, 1, 3).reshape(r * m, m, e), base)
    if len(parts) == 1:
        return [len(pivots)]
    owner = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
    return np.bincount(owner[list(pivots)], minlength=len(parts)).tolist()


def _free_on(mod, parts):
    """Whether the summand of mod on each of ``parts`` (as _generator_ranks
    takes them) is free.  The minimal cover of a summand of dimension n_c is
    free of rank g = n_c - rank [Z_1 | ... | Z_r] on its rows and columns,
    and the summand is free iff n_c = p^r * g, that is iff that rank is
    n_c - n_c/p^r.  It is at most the number of nonzero rows of
    [Z_1 | ... | Z_r] on the part, and at most that of its nonzero columns,
    which a part, as a union of blocks, counts over its own indices.  Only
    the parts of dimension a multiple of p^r where both counts reach
    n_c - n_c/p^r are ranked, all in one _generator_ranks call, and none
    when no part is left."""
    size = mod.spec.p ** mod.spec.r
    tested = [k for k, part in enumerate(parts) if len(part) % size == 0]
    if tested:
        nonzero = np.array(_nonzero_patterns(mod))  # (r, n, n)
        rows = nonzero.any(axis=(0, 2)).tolist()  # some Z_i has row a nonzero
        cols = nonzero.any(axis=1).sum(axis=0).tolist()  # Z_i with column b nonzero
        tested = [k for k in tested if min(sum(rows[a] for a in parts[k]),
                                           sum(cols[b] for b in parts[k]))
                  >= len(parts[k]) - len(parts[k]) // size]
    free = [False] * len(parts)
    for k, rank in zip(tested, _generator_ranks(mod, [parts[k] for k in tested])):
        free[k] = len(parts[k]) == size * (len(parts[k]) - rank)
    return tuple(free)


def is_free(mod) -> bool:
    """Freeness test over the local algebra: _free_on every index, the
    test behind free_blocks."""
    return _free_on(mod, [range(mod.n)])[0]
