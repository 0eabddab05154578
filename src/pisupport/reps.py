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
from .fields import FieldElement, embed
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
    """A finite-dimensional module: r commuting p-nilpotent matrices."""

    __slots__ = ("spec", "n", "Z", "name")

    def __init__(self, spec, Z, name=None, _checked=False):
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
        return ModuleRep(self.spec, self.Z, name=name, _checked=True)


def validate(mod):
    """Check commutativity and p-nilpotence; return the list of violations,
    each as (kind, index-or-pair).  Empty list means the module is valid."""
    spec = mod.spec
    out = []
    if spec.base.is_finite and mod.n:
        blocks = [linalg.to_block_int(m)[0] for m in mod.Z]
        p = spec.p
        for i, j in itertools.combinations(range(spec.r), 2):
            if (((blocks[i] @ blocks[j]) - (blocks[j] @ blocks[i])) % p).any():
                out.append(("commutativity", (i + 1, j + 1)))
        for i, b in enumerate(blocks):
            if linalg.int_matpow(b, p, p).any():
                out.append(("nilpotence", i + 1))
        return out
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
    exponent vectors in lexicographic order and z_i raising the i-th exponent."""
    if g < 0:
        raise ValueError("rank must be nonnegative")
    p, r = spec.p, spec.r
    size = p**r
    n = g * size
    exps = list(itertools.product(range(p), repeat=r))
    index = {e: k for k, e in enumerate(exps)}
    zero = FieldElement.zero(spec.base)
    one = FieldElement.one(spec.base)
    mats = []
    for i in range(r):
        grid = [[zero] * n for _ in range(n)]
        for copy in range(g):
            for e, k in index.items():
                if e[i] == p - 1:
                    continue
                target = list(e)
                target[i] += 1
                grid[copy * size + index[tuple(target)]][copy * size + k] = one
        mats.append(Matrix(spec.base, grid))
    return ModuleRep(spec, mats, name=f"free:{g}", _checked=True)


def jordan_block_module(spec, u) -> ModuleRep:
    """Cyclic module K[t]/(t^u) for a rank-one algebra."""
    if spec.r != 1:
        raise SpecMismatch("jordan block modules need r = 1")
    if not 1 <= u <= spec.p:
        raise BlockTooBig(f"block size {u} outside 1..{spec.p}")
    zero = FieldElement.zero(spec.base)
    one = FieldElement.one(spec.base)
    grid = [[zero] * u for _ in range(u)]
    for i in range(u - 1):
        grid[i + 1][i] = one
    return ModuleRep(spec, [Matrix(spec.base, grid)], name=f"jordan:{u}",
                     _checked=True)


def direct_sum(a, b) -> ModuleRep:
    if a.spec != b.spec:
        raise SpecMismatch("direct sum needs matching algebra specs")
    mats = [linalg.block_diag([x, y]) for x, y in zip(a.Z, b.Z)]
    return ModuleRep(a.spec, mats, _checked=True)


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
    mats = [m.map_entries(lambda x: embed(x, target), target) for m in mod.Z]
    return ModuleRep(spec, mats, name=mod.name, _checked=True)


# ---------------------------------------------------------------------------
# Coinduction


def coinduced(mod, target) -> ModuleRep:
    """The module of base-linear maps target -> mod, as a module over the
    extended field.

    Realized concretely: maps are coordinatized by their values on a basis
    of the extension, the generators act by post-composition, the extension
    field acts by precomposition with multiplication, and the K-structure is
    read off in the basis of maps (x -> Tr(x) m_j) coming from the trace
    pairing (valid since finite fields are separable).  For finite
    dimensional inputs the result is isomorphic to base change.
    """
    base = mod.spec.base
    if not base.is_finite or not target.is_finite:
        raise InfiniteExtension("coinduction requires finite fields")
    if not fields.refines(target, base):
        raise NotARefinement(f"{target} does not refine {base}")
    p = mod.spec.p
    eb, eK = base.deg, target.deg
    if eK % eb:
        raise NotARefinement("incompatible extension degrees")
    d = eK // eb
    n = mod.n
    if n == 0:
        return ModuleRep(mod.spec.with_base(target),
                         [Matrix.zero(target, 0, 0)] * mod.spec.r,
                         name=mod.name, _checked=True)

    # stack[:, j*eb + c] holds the F_p coordinates of w^c x^j, with w^c the
    # embedded base power basis and x^j the power basis of target.  Each
    # base line through x^j is independent of the span of the earlier lines
    # or inside it, so pivots come in whole blocks and the pivot columns
    # with c = 0 pick a basis b_0 = 1, ..., b_{d-1} of target over the base.
    wb = linalg.embedding_matrix(base, target).T  # eK x eb
    xpow = linalg.companion_powers(target)
    stack = np.concatenate([xpow[j] @ wb for j in range(eK)], axis=1) % p
    _, pivots, _ = linalg.int_row_reduce(stack, p)
    basis = [tuple(int(t == c // eb) for t in range(eK))
             for c in pivots if c % eb == 0]
    # B: coordinates of w^c b_u, columns ordered (u, c)
    B = stack[:, pivots]
    B_inv = linalg.int_solve(B, np.eye(eK, dtype=np.int64), p)

    def base_coords(x):
        """k'-coordinates (length eb*d ordered (u,c)) of x in the basis b."""
        return (B_inv @ np.array(x, dtype=np.int64)) % p

    # multiplication data: mu[s][t][u] in k' with b_s b_t = sum_u mu b_u
    mu = [[base_coords(target.smul(bs, bt)).reshape(d, eb) for bt in basis]
          for bs in basis]

    # relative trace of each basis element, as a k'-scalar
    q0 = base.order
    tr = []
    for t in range(d):
        acc = target.szero()
        cur = basis[t]
        for _ in range(d):
            acc = target.sadd(acc, cur)
            cur = target.spow(cur, q0)
        coords = base_coords(acc)
        assert not coords[eb:].any(), "trace left the base field"
        tr.append(coords[:eb])

    # F_p coordinates of Hom(target, mod): index ((t*n + j)*eb + c)
    dim = d * n * eb
    zb = [linalg.to_block_int(m)[0] for m in mod.Z]  # (n*eb, n*eb)
    z_h = [np.kron(np.eye(d, dtype=np.int64), b) % p for b in zb]

    def mult_mat(scalar):
        """eb x eb matrix of multiplication by a base scalar."""
        powers = linalg.companion_powers(base)
        return sum(int(ci) * powers[i] for i, ci in enumerate(scalar)) % p

    t_s = []
    for s in range(d):
        op = np.zeros((dim, dim), dtype=np.int64)
        for t in range(d):
            for u in range(d):
                blockm = np.kron(np.eye(n, dtype=np.int64), mult_mat(mu[s][t][u]))
                op[t * n * eb : (t + 1) * n * eb, u * n * eb : (u + 1) * n * eb] = blockm
        t_s.append(op % p)

    hvec = np.zeros((dim, n), dtype=np.int64)
    for j in range(n):
        for t in range(d):
            for c in range(eb):
                hvec[(t * n + j) * eb + c, j] = tr[t][c]

    # columns (s, q, c): scalar w^c times (T_{b_s} h_q)
    big = np.zeros((dim, dim), dtype=np.int64)
    col = 0
    wmats = [
        np.kron(np.eye(d * n, dtype=np.int64),
                mult_mat(tuple(1 if t == c else 0 for t in range(eb))))
        for c in range(eb)
    ]
    tsh = [np.array((t_s[s] @ hvec) % p) for s in range(d)]
    for s in range(d):
        for q in range(n):
            for c in range(eb):
                big[:, col] = (wmats[c] @ tsh[s][:, q]) % p
                col += 1

    rhs = np.concatenate([(z @ hvec) % p for z in z_h], axis=1)
    sol = linalg.int_solve(big, rhs, p)  # the trace pairing keeps it regular

    # entry (q, j) of generator i is sum over (s, c) of
    # sol[(s*n + q)*eb + c, i*n + j] * w^c b_s, and w^c b_s is column (s, c) of B
    mats = []
    for i in range(mod.spec.r):
        x = sol[:, i * n : (i + 1) * n].reshape(d, n, eb, n)
        x = x.transpose(1, 3, 0, 2).reshape(n, n, d * eb)
        mats.append(linalg.from_coeff_array(target, (x @ B.T) % p))
    spec = mod.spec.with_base(target)
    return ModuleRep(spec, mats, name=mod.name)


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
    if mod.n == 0:
        return 0
    stacked = linalg.hstack(list(mod.Z))
    return mod.n - linalg.rank(stacked)


def is_free(mod) -> bool:
    """Freeness test over the local algebra: the minimal cover has rank
    g = radical_quotient_dim, and the module is free iff n = p^r * g."""
    return mod.n == mod.spec.p ** mod.spec.r * radical_quotient_dim(mod)
