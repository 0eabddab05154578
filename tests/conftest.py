import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from pisupport import FieldElement, Matrix, Polynomial, linalg, make_field, reps

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
    the finite sum of the (-L)^j, so polynomial entries stay polynomial."""
    base, n = mod.spec.base, mod.n
    zero = FieldElement.zero(base)

    def entry():
        x = FieldElement.from_scalar(base, base.sfrom_code(rng.randrange(base.order)))
        return x if scale is None else x * scale

    lower = Matrix(base, [[entry() if j < i else zero for j in range(n)]
                          for i in range(n)])
    ident = Matrix.identity(base, n)
    p_inv, term = ident, ident
    for _ in range(n - 1):
        term = -(term @ lower)
        p_inv = p_inv + term
    mats = [(ident + lower) @ z @ p_inv for z in mod.Z]
    return reps.ModuleRep(mod.spec, mats, name=mod.name)


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
                                 linalg.scalar_matrix(base, mu[s][t][u]))
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


@pytest.fixture
def rng():
    return random.Random(20240811)
