"""Seeded random module generation for the verification suites.

Random commuting families are built by design, not by rejection: each block
is either a free module, a trivial line, or a cyclic block where every
generator acts as a polynomial (with prime-field coefficients and valuation
at least ceil(q/p)) in a single nilpotent Jordan block of size q.  The
valuation bound makes each f_i(N) p-nilpotent; polynomials in one matrix
always commute.  Prime-field coefficients keep every support locus cut out
over F_p, so low-degree sampling plus the generic point sees a nonempty
support whenever there is one.
"""

import math

import numpy as np

from . import reps


def _cyclic_block(rng, spec, max_dim):
    """Cyclic block of dimension q on which each z_i acts as
    sum_{d >= vmin} c_d N^d, N the shift e_b -> e_{b+1}: each z_i is the
    (q, q) lower triangular Toeplitz array with entry (a, b) c_{a-b}, its
    c_d drawn in order of d."""
    q = rng.randint(2, max(2, min(2 * spec.p, max_dim)))
    vmin = math.ceil(q / spec.p)
    toeplitz = np.zeros((spec.r, q, q), dtype=np.int64)
    for z in toeplitz:
        for d in range(vmin, q):
            z[range(d, q), range(q - d)] = rng.randrange(spec.p)
    return reps.from_ints(spec, toeplitz)


def random_module(rng, spec, max_dim=24, force_free=False) -> reps.ModuleRep:
    """One random module of dimension <= max_dim over the given algebra,
    whose base must be finite."""
    size = spec.p**spec.r
    if force_free:
        g = max(1, min(rng.randint(1, 2), max_dim // size))
        return reps.free_module(spec, g).renamed(f"rand-free:{g}")
    blocks = []
    budget = max_dim
    for _ in range(rng.randint(1, 3)):
        if budget < 1:
            break
        roll = rng.random()
        if roll < 0.3 and budget >= size:
            blocks.append(reps.free_module(spec, 1))
            budget -= size
        elif roll < 0.45 or budget < 2:
            blocks.append(reps.trivial_module(spec))
            budget -= 1
        else:
            block = _cyclic_block(rng, spec, budget)
            blocks.append(block)
            budget -= block.n
    mod = blocks[0]
    for extra in blocks[1:]:
        mod = reps.direct_sum(mod, extra)
    return mod.renamed(f"rand:{mod.n}")
