import itertools
import random
from functools import reduce
from operator import matmul

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from pisupport import (
    FieldElement,
    Matrix,
    Polynomial,
    direct_sum,
    fields,
    free_module,
    linalg,
    make_field,
    reps,
    support,
    trivial_module,
)
from pisupport.support import enumerate_points

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F4 = make_field(2, (1, 1, 1))
F9 = make_field(3, (2, 2, 1))
F2S = make_field(2, vars=("s",))
F3S = make_field(3, vars=("s",))
F2SU = make_field(2, vars=("s", "u"))

TOWERS = [F2, F3, F5, F4, F9, F2S, F3S, F2SU]


@st.composite
def polynomials(draw, desc, max_exp=2, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(
            draw(st.integers(0, max_exp)) for _ in range(desc.nvars)
        )
        code = draw(st.integers(0, desc.order - 1))
        terms[exps] = desc.sfrom_code(code)
    return Polynomial(desc, terms)


@st.composite
def elements(draw, desc):
    if desc.nvars == 0:
        code = draw(st.integers(0, desc.order - 1))
        return FieldElement.from_scalar(desc, desc.sfrom_code(code))
    num = draw(polynomials(desc))
    den = draw(polynomials(desc).filter(lambda q: not q.is_zero()))
    return FieldElement(desc, num, den)


def boxed_ints(desc, ints):
    """The matrix of the integers ``ints`` built entry by entry from
    FieldElement.from_int: the reference for Matrix.from_ints."""
    return Matrix(desc, [[FieldElement.from_int(desc, c) for c in row] for row in ints])


def conjugated(mod, rng, scale=None):
    """The module in a seeded basis Z -> P Z P^-1, P = I + L with L strictly
    lower triangular, so that entries leave the prime field when the base is
    larger.  With ``scale`` the entries of L are multiplied by it; P^-1 is
    the finite sum of the (-L)^j, so polynomial entries stay polynomial.
    Over a finite base without ``scale`` the products are taken on the
    stack, as F_p block matrices (linalg.blockify) acting on coordinate
    columns (linalg.columns); otherwise in Matrix arithmetic."""
    base, n = mod.spec.base, mod.n
    codes = [[rng.randrange(base.order) if j < i else 0 for j in range(n)]
             for i in range(n)]
    if base.is_finite and scale is None:
        p = base.p
        lower = linalg.blockify(np.array(
            [[base.sfrom_code(c) for c in row] for row in codes],
            dtype=np.int64).reshape(n, n, base.deg), base)
        # the coordinate columns of P^-1
        term = p_inv = linalg.columns(linalg.int_coeffs(np.eye(n, dtype=np.int64), base))
        for _ in range(n - 1):
            term = -lower @ term % p
            p_inv = (p_inv + term) % p
        p_block = np.eye(len(lower), dtype=np.int64) + lower
        mats = p_block @ linalg.blockify(mod.stack, base) % p @ p_inv % p
        return reps.ModuleRep(mod.spec, linalg.from_columns(mats, base.deg), name=mod.name)

    def entry(code):
        x = FieldElement.from_scalar(base, base.sfrom_code(code))
        return x if scale is None else x * scale

    lower = Matrix(base, [[entry(c) for c in row] for row in codes])
    ident = Matrix.identity(base, n)
    p_inv, term = ident, ident
    for _ in range(n - 1):
        term = -(term @ lower)
        p_inv = p_inv + term
    mats = [(ident + lower) @ z @ p_inv for z in mod.Z]
    return reps.ModuleRep(mod.spec, mats, name=mod.name)


def shift_block(spec, v, rng, lead=None):
    """Module of dimension p*v on which z_i acts as sum_{d >= v} c_{i,d} N^d
    for the nilpotent shift N, with coefficients from the base, seeded
    apart from the leads c_{i,v} when ``lead`` gives them.  Its support is
    the hyperplane sum_i a_i c_{i,v} = 0.  Entry (a, b) of z_i is
    c_{i,a-b}, and the c_{i,d} are drawn in order of i, then of d."""
    base, q = spec.base, spec.p * v

    def scalar():
        return FieldElement.from_scalar(base, base.sfrom_code(rng.randrange(base.order)))

    while lead is None or not any(lead):
        lead = [scalar() for _ in range(spec.r)]
    zero = FieldElement.zero(base)
    mats = []
    for c in lead:
        coeff = {d: c if d == v else scalar() for d in range(v, q)}
        mats.append(Matrix(base, [[coeff.get(a - b, zero) for b in range(q)]
                                  for a in range(q)]))
    return reps.ModuleRep(spec, mats)


def monomial(mod, rng):
    """The module in a seeded monomial basis: basis vector i moves to
    position perm[i] and is scaled by a nonzero element of the base.  Returns
    the module and perm."""
    base, n = mod.spec.base, mod.n
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [FieldElement.from_scalar(base, base.sfrom_code(rng.randrange(1, base.order)))
             for _ in range(n)]
    mats = []
    for z in mod.Z:
        grid = [[None] * n for _ in range(n)]
        for i, row in enumerate(z.entries):
            for j, x in enumerate(row):
                grid[perm[i]][perm[j]] = x * scale[i] / scale[j]
        mats.append(Matrix(base, grid))
    return reps.ModuleRep(mod.spec, mats, name=mod.name), perm


def mixed(mod, rng):
    """The module in a dense seeded basis: conjugated by a lower, then,
    after reversing the basis, by an upper unitriangular matrix, so that
    N(a)^{p-1} is not a corner block and its rows mix."""
    mod = conjugated(mod, rng)
    flip = mod.stack[:, ::-1, ::-1] if mod.stack is not None else [
        Matrix(z.desc, [row[::-1] for row in z.entries[::-1]]) for z in mod.Z]
    return conjugated(reps.ModuleRep(mod.spec, flip, name=mod.name), rng)


def _dense_full_support(spec, g, rng):
    """trivial^p + free:g in a dense seeded basis: in the support everywhere,
    and one block, so that the generic scan ranks every closed point."""
    trivial, mod = trivial_module(spec), free_module(spec, g)
    for _ in range(spec.p):
        mod = direct_sum(trivial, mod)
    mod = mixed(mod, rng)
    assert len(reps.blocks(mod)) == 1
    return mod


def _record_testers(monkeypatch):
    """Wrap support._point_tester and return the list of the ``block``
    arguments it is built with: None for the tester of a sampled point, a
    block's indices for a tester of the generic scan."""
    built, tester = [], support._point_tester

    def record(mod, K, block=None):
        built.append(block)
        return tester(mod, K, block)

    monkeypatch.setattr(support, "_point_tester", record)
    return built


def _direct_sum(mods):
    out = mods[0]
    for mod in mods[1:]:
        out = direct_sum(out, mod)
    return out


def _covering_lines(spec, rng):
    """At r = 2, one shift block for each point [a_1 : a_2] of P^1 over the
    base, with leads (a_2, -a_1), so that its support is that point alone:
    the sum has every point of degree 1 in its support and the generic
    point out."""
    lines = []
    for pt in enumerate_points(spec.base, 2, 1):
        a1, a2 = pt.coords
        lines.append(shift_block(spec, 1, rng, [a2, -a1]))
    return _direct_sum(lines)


def int_solve(a, rhs, p):
    """Solve a x = rhs mod p for square invertible a; ValueError if singular."""
    n = a.shape[0]
    _, pivots, ech = linalg.int_row_reduce(np.concatenate([a, rhs], axis=1), p)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular system")
    x = ech[:, n:]
    for c in range(n - 1, 0, -1):
        x[:c] = (x[:c] - np.outer(ech[:c, c], x[c])) % p
    return x


def _coinduced_by_trace_pairing(mod, target):
    """Hom_k(K, M) built from its definition, the oracle for coinduced.

    Maps K -> M are coordinatized by their values on a k-basis b_s of K, the
    generators act by post-composition, K acts by precomposition with
    multiplication, and the matrices are read off by solving for the images
    z_i h_j in the K-basis h_j = (x -> Tr(x) m_j) of the trace pairing.
    """
    base = mod.spec.base
    p = mod.spec.p
    eb, eK = base.deg, target.deg
    d = eK // eb
    n = mod.n
    if n == 0:
        return reps.ModuleRep(mod.spec.with_base(target),
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
    B_inv = int_solve(B, np.eye(eK, dtype=np.int64), p)

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

    t_s = []
    for s in range(d):
        op = np.zeros((dim, dim), dtype=np.int64)
        for t in range(d):
            for u in range(d):
                blockm = np.kron(np.eye(n, dtype=np.int64),
                                 fields.scalar_matrix(base, mu[s][t][u]))
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
    wmats = [np.kron(np.eye(d * n, dtype=np.int64), w)
             for w in linalg.companion_powers(base)]
    tsh = [np.array((t_s[s] @ hvec) % p) for s in range(d)]
    for s in range(d):
        for q in range(n):
            for c in range(eb):
                big[:, col] = (wmats[c] @ tsh[s][:, q]) % p
                col += 1

    rhs = np.concatenate([(z @ hvec) % p for z in z_h], axis=1)
    sol = int_solve(big, rhs, p)  # the trace pairing keeps it regular

    # entry (q, j) of generator i is sum over (s, c) of
    # sol[(s*n + q)*eb + c, i*n + j] * w^c b_s, and w^c b_s is column (s, c) of B
    mats = []
    for i in range(mod.spec.r):
        x = sol[:, i * n : (i + 1) * n].reshape(d, n, eb, n)
        x = x.transpose(1, 3, 0, 2).reshape(n, n, d * eb)
        mats.append(linalg.from_coeff_array(target, (x @ B.T) % p))
    spec = mod.spec.with_base(target)
    return reps.ModuleRep(spec, mats, name=mod.name)


# ---------------------------------------------------------------------------
# Matrix-chain oracle: the module constructions over a finite base written
# one generator at a time as chains of Matrix operations, the way the
# package wrote them before a module became one coefficient stack.  Each
# returns the generators as a list of Matrix, so that no ModuleRep, and so
# no stack route, is involved.


def chain_validate(mod):
    spec = mod.spec
    out = []
    for i, j in itertools.combinations(range(spec.r), 2):
        if mod.Z[i] @ mod.Z[j] != mod.Z[j] @ mod.Z[i]:
            out.append(("commutativity", (i + 1, j + 1)))
    for i, m in enumerate(mod.Z):
        if not m.power(spec.p).is_zero():
            out.append(("nilpotence", i + 1))
    return out


def chain_tensor(a, b):
    spec = a.spec
    ia = Matrix.identity(spec.base, a.n)
    ib = Matrix.identity(spec.base, b.n)
    mats = []
    for i in range(spec.r):
        m = linalg.kron(a.Z[i], ib) + linalg.kron(ia, b.Z[i])
        if spec.flavors[i] == reps.GROUP:
            m = m + linalg.kron(a.Z[i], b.Z[i])
        mats.append(m)
    return mats


def chain_hom(a, b):
    spec = a.spec
    p = spec.p
    ia = Matrix.identity(spec.base, a.n)
    ib = Matrix.identity(spec.base, b.n)
    mats = []
    for i in range(spec.r):
        if spec.flavors[i] == reps.PRIMITIVE:
            m = linalg.kron(b.Z[i], ia) - linalg.kron(ib, a.Z[i].transpose())
        else:
            left = ib + b.Z[i]
            right = (ia + a.Z[i]).power(p - 1)
            m = linalg.kron(left, right.transpose()) - linalg.kron(ib, ia)
        mats.append(m)
    return mats


def chain_base_change(mod, target):
    emb = linalg.embedding_matrix(mod.spec.base, target)
    return [linalg.from_coeff_array(target, linalg.coeff_array(m) @ emb) for m in mod.Z]


def chain_image(K, linear, higher, Z):
    """The image polynomial of a point evaluated at the generators Z."""
    n = Z[0].rows
    acc = Matrix.zero(K, n, n)
    for i, a in enumerate(linear):
        if a:
            acc = acc + Z[i].scale(a)
    for exps, coeff in sorted(higher.items()):
        term = reduce(matmul, [Z[i] for i, e in enumerate(exps) for _ in range(e)])
        acc = acc + term.scale(coeff)
    return acc


def chain_is_full(mat, p):
    """is_full with the powers of T taken by repeated products."""
    powers = [mat]
    for _ in range(p - 2):
        powers.append(powers[-1] @ mat)
    assert (powers[-1] @ mat).is_zero()
    return mat.rows % p == 0 and linalg.rank(powers[-1]) == mat.rows // p


def chain_flatness_certificate(spec, K, linear, higher):
    regular = chain_base_change(free_module(spec, 1), K)
    return chain_is_full(chain_image(K, linear, higher, regular), spec.p)


@pytest.fixture
def rng():
    return random.Random(20240811)
