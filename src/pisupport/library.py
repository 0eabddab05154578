"""Bundled example modules addressable by name.

Names: "trivial", "free:g", "jordan:u", "klein-Mn:n" (with "klein-M2" style
shorthand).  The Klein family M_n is the 2n-dimensional module over
F_2[x,y]/(x^2,y^2) with basis u_0..u_{n-1}, v_0..v_{n-1} and action
x u_i = v_i, y u_i = v_{i-1} (v_{-1} = 0), x v_i = y v_i = 0; each M_n is a
genuine submodule of the corresponding infinite-dimensional module.
"""

import re

import numpy as np

from . import reps


def klein_spec() -> reps.AlgebraSpec:
    return reps.make_spec(2, 2, flavors=(reps.GROUP, reps.GROUP))


def klein_truncation(n) -> reps.ModuleRep:
    """M_n: basis u_0..u_{n-1}, v_0..v_{n-1} in that order, so x and y
    map the u block onto the v block by the identity and by the shift
    u_i -> v_{i-1}, written as two integer arrays."""
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    spec = klein_spec()
    ints = np.zeros((2, 2 * n, 2 * n), dtype=np.int64)
    ints[0, n:, :n] = np.eye(n, dtype=np.int64)  # x u_i = v_i
    ints[1, n:, :n] = np.eye(n, k=1, dtype=np.int64)  # y u_i = v_{i-1}
    return reps.from_ints(spec, ints, name=f"klein-M{n}")


_KLEIN_SHORT = re.compile(r"^klein-M(\d+)$")


def build(name, spec=None) -> reps.ModuleRep:
    """Construct a library module.  ``spec`` supplies the algebra for the
    generic constructors and is ignored by the Klein family."""
    short = _KLEIN_SHORT.match(name)
    if short:
        return klein_truncation(int(short.group(1)))
    head, _, arg = name.partition(":")
    if head == "klein-Mn":
        return klein_truncation(int(arg))
    if spec is None:
        raise ValueError(f"library name {name!r} needs an algebra spec")
    if head == "trivial":
        return reps.trivial_module(spec)
    if head == "free":
        return reps.free_module(spec, int(arg))
    if head == "jordan":
        return reps.jordan_block_module(spec, int(arg))
    raise KeyError(f"unknown library name {name!r}")


def is_library_name(name) -> bool:
    if _KLEIN_SHORT.match(name):
        return True
    head = name.partition(":")[0]
    return head in {"trivial", "free", "jordan", "klein-Mn"}
