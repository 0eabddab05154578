import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from pisupport import FieldElement, Matrix, Polynomial, make_field, reps

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


@pytest.fixture
def rng():
    return random.Random(20240811)
