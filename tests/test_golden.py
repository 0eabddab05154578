"""Golden transcripts: CLI stdout and coinduced module files, byte for byte.

Each file under ``tests/golden/`` is the exact output of one command or one
coinduction recorded from a known-good tree.  A refactor that changes any
verdict, any report line or any coinduced matrix shows up here as a diff.

``cli_matrix.json`` is the CLI contract: for each argv of MATRIX_ARGVS its
exit code, its stderr and the sha256 and line count of its stdout, run from
the repository root, so that a changed exit code or a changed message shows
up as a diff of one row.

To re-record after an intended output change (and say so in CHANGES.md):

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import os
import random
from pathlib import Path

import pytest

from pisupport import fields, linalg, modfile, randmod, reps, support
from pisupport.cli import run_command

from conftest import (
    _covering_lines,
    _dense_full_support,
    conjugated,
    mixed,
    monomial,
    shift_block,
)

GOLDEN = Path(__file__).parent / "golden"
ROOT = GOLDEN.parent.parent
CLI_MATRIX = GOLDEN / "cli_matrix.json"

CLI_CASES = {
    **{f"demo_klein_n{n}": ["demo", "klein", "--n", str(n)] for n in range(1, 5)},
    "support_klein-M2_deg3_ideal": ["support", "klein-M2", "--sample-degree",
                                    "3", "--ideal"],
    "support_free1_p3_r2_deg1_ideal": ["support", "free:1", "--p", "3", "--r", "2",
                                       "--sample-degree", "1", "--ideal"],
    "support_free2_p2_r3_deg3": ["support", "free:2", "--p", "2", "--r", "3",
                                 "--sample-degree", "3"],
    # past the ideal's dimension cap of 12, but p does not divide n: no
    # minor is taken, so the cap does not apply
    "support_jordan13_p17_deg1_ideal": ["support", "jordan:13", "--p", "17",
                                        "--sample-degree", "1", "--ideal"],
    # two free blocks: out everywhere, the generic point included, with no
    # rank of N(a) and no generic scan to count
    "support_free2_p2_r5_deg1": ["support", "free:2", "--p", "2", "--r", "5",
                                 "--sample-degree", "1"],
    **{
        f"verify_p{p}_r{r}_trials2": ["verify", "--trials", "2", "--p", str(p),
                                      "--r", str(r)]
        for p, r in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2), (3, 4), (2, 5))
    },
}

# (p, base degree, relative degree, max module dimension)
COINDUCED_CASES = {
    "coinduced_f2_rel2": (2, 1, 2, 8),
    "coinduced_f2_rel4": (2, 1, 4, 6),
    "coinduced_f4_rel2": (2, 2, 2, 8),
    "coinduced_f4_rel3": (2, 2, 3, 6),
    "coinduced_f9_rel2": (3, 2, 2, 9),
    "coinduced_f9_rel3": (3, 2, 3, 6),
}

# support ideal reports of seeded modules in a dense basis:
# (p, base degree, r, max module dimension)
IDEAL_CASES = {
    "ideal_f9_r2": (3, 2, 2, 9),
    # F_{5^8} has 390,625 elements, past linalg.ZECH_MAX_ORDER
    "ideal_f5e8_r2": (5, 8, 2, 10),
    "ideal_f5_r3": (5, 1, 3, 10),
    "ideal_f7_r2": (7, 1, 2, 12),
}

# support ideal reports of sums of shift blocks (conftest.shift_block) in a
# dense basis, whose stacked C_b have more than linalg.SPARSE_ROW_NONZEROS
# nonzero entries per row, so that their pivots are found in numpy:
# (p, base degree, r, the blocks' dimensions over p)
DENSE_IDEAL_CASES = {
    "ideal_dense_f9_r2": (3, 2, 2, (1, 2)),
}

# support and cosupport samples of two shift blocks plus free:1 in a
# permuted monomial basis: (p, r, e_max)
SAMPLE_CASES = {
    "sample_p2_r3": (2, 3, 3),
    "sample_p3_r2": (3, 2, 3),
}

# support and cosupport samples at r = 2, in a permuted monomial basis, of
# conftest._covering_lines, whose support holds every point of degree 1 but
# not the generic point, alone or plus conftest._dense_full_support, one
# block in the support everywhere: (p, e_max, with the dense block)
COVERING_CASES = {
    "covering_p2": (2, 1, False),
    "covering_dense_p2": (2, 2, True),
    "covering_p3": (3, 1, False),
    "covering_dense_p3": (3, 2, True),
}


def _matrix_argvs():
    """The argvs of cli_matrix.json, in its row order."""
    algebras = [(2, r) for r in range(2, 7)] + [(3, r) for r in range(2, 5)] + [(5, 2), (5, 3)]
    argvs = []
    for p, r in algebras:
        pr = ["--p", str(p), "--r", str(r)]
        argvs += [["support", f"free:{g}", *pr, "--sample-degree", "1"] for g in (1, 2, 3)]
        argvs.append(["support", "free:2", *pr])
    argvs += [["verify", "--trials", "1", "--seed", str(seed), "--p", str(p), "--r", str(r)]
              for p, r in algebras for seed in (1, 2)]
    for n in range(1, 9):
        argvs.append(["support", f"klein-M{n}", "--sample-degree", "2"])
        argvs.append(["support", f"klein-M{n}", "--sample-degree", "1", "--ideal"])
    argvs += [["demo", "klein", "--n", str(n)] for n in range(1, 5)]
    # restrictions at points over F_4 and F_8, and at the generic point
    for n in range(1, 5):
        argvs += [["jordan", f"klein-M{n}", "--point", point]
                  for point in ("[0,1],1", "1,[0,1]", "[0,0,1],1", "[1,1,0],[0,1,1]")]
        argvs.append(["jordan", f"klein-M{n}", "--generic"])
    for n in (2, 3):
        argvs += [["cosupport", f"klein-M{n}", "--point", point]
                  for point in ("[0,1],1", "[1,1,0],1", "1,[0,0,1]")]
        argvs.append(["cosupport", f"klein-M{n}", "--generic"])
    argvs += [
        ["jordan", "free:1", "--p", "2", "--r", "3", "--point", "[0,1],1,[1,1]"],
        ["jordan", "free:1", "--p", "3", "--r", "2", "--point", "[0,1],1"],
        ["jordan", "free:1", "--p", "3", "--r", "2", "--generic"],
        ["cosupport", "free:1", "--p", "3", "--r", "2", "--point", "[0,1],1"],
        ["jordan", "jordan:3", "--p", "3", "--point", "[0,1]"],
        ["jordan", "jordan:3", "--p", "3", "--generic"],
    ]
    # modules over F_4, F_16, F_64, F_81 and F_729, at points over their base
    for name in COINDUCED_CASES:
        path = f"tests/golden/{name}.modrep"
        _, base_deg, rel, _ = COINDUCED_CASES[name]
        e = base_deg * rel
        one = "[" + ",".join(["1"] + ["0"] * (e - 1)) + "]"
        gen = "[" + ",".join(["0", "1"] + ["0"] * (e - 2)) + "]"
        argvs += [["check", path], ["is-projective", path],
                  ["jordan", path, "--point", f"{one},{gen}"], ["jordan", path, "--generic"],
                  ["cosupport", path, "--point", f"{gen},{one}"],
                  ["support", path, "--sample-degree", "1"]]
    # input and usage errors
    argvs += [
        ["check", "tests/golden/malformed_row.modrep"],
        ["check", "tests/golden/malformed_noncommuting.modrep"],
        ["check", "tests/golden/no_such_file.modrep"],
        ["support", "nosuch:3"],
        ["support", "free", "--p", "2"],
        ["support", "free:1", "--p", "2", "--r", "2", "--sample-degree", "9"],
        ["verify", "--trials", "0"],
        ["jordan", "klein-M2"],
        ["cosupport", "klein-M2"],
        ["verify", "--bogus"],
        ["demo", "klein", "--n", "0"],
        ["jordan", "klein-M2", "--point", "1"],
        ["jordan", "jordan:9", "--p", "3", "--point", "1"],
    ]
    # jordan:u is a module over r = 1 with the primitive flavor
    argvs += [
        ["jordan", "jordan:3", "--p", "3", "--r", "2", "--point", "[0,1],1"],
        ["support", "jordan:3", "--p", "3", "--r", "3", "--sample-degree", "1"],
        ["support", "jordan:3", "--p", "3", "--r", "1", "--flavors", "group",
         "--sample-degree", "1"],
        ["support", "jordan:2", "--p", "2", "--r", "1", "--flavors", "primitive",
         "--sample-degree", "1"],
    ]
    # the Klein family is a module over p = 2, r = 2 with the group flavor,
    # and verify runs over the group flavor
    argvs += [
        ["support", "klein-M2", "--p", "3", "--r", "4", "--flavors", "primitive",
         "--sample-degree", "1"],
        ["support", "klein-M2", "--r", "3", "--sample-degree", "1"],
        ["jordan", "klein-Mn:3", "--flavors", "primitive,group", "--generic"],
        ["support", "klein-M2", "--p", "2", "--r", "2", "--flavors", "group,group",
         "--sample-degree", "1"],
        ["verify", "--trials", "1", "--p", "2", "--r", "2", "--flavors",
         "primitive,primitive"],
        ["verify", "--trials", "1", "--p", "3", "--r", "2", "--flavors", "group,group"],
    ]
    # a module file takes the algebra it is over, and refuses other flags
    argvs += [
        ["check", "tests/golden/coinduced_f9_rel2.modrep", "--p", "5", "--r", "7",
         "--flavors", "primitive"],
        ["check", "tests/golden/coinduced_f9_rel2.modrep", "--p", "3", "--r", "2",
         "--flavors", "group,group"],
    ]
    # each suite's trial 0 at p = 2, r = 7 is decided with no generic scan
    argvs.append(["verify", "--trials", "1", "--p", "2", "--r", "7"])
    return argvs


def _matrix_row(argv):
    code, out, err = run_command(argv)
    return {"argv": argv, "exit": code, "stderr": err,
            "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
            "stdout_lines": len(out.splitlines())}


def _matrix_text():
    return "[\n" + ",\n".join(json.dumps(_matrix_row(argv)) for argv in _matrix_argvs()) + "\n]\n"


def _cli_text(name):
    code, out, err = run_command(CLI_CASES[name])
    assert err == ""
    return f"exit {code}\n{out}"


def _coinduced_text(name):
    p, base_deg, rel, max_dim = COINDUCED_CASES[name]
    base = fields.canonical_extension(p, base_deg)
    spec = reps.make_spec(p, 2, base=base)
    rng = random.Random(f"golden:{name}")
    mod = randmod.random_module(rng, spec, max_dim=max_dim)
    while mod.n < 3:
        mod = randmod.random_module(rng, spec, max_dim=max_dim)
    target = fields.canonical_extension(p, base_deg * rel)
    return modfile.emit_module_file(reps.coinduced(conjugated(mod, rng), target))


def _ideal_module(name):
    """One block of dimension divisible by p, whose ideal is therefore not
    read off the block sizes, conjugated over the base so that the word
    expansion multiplies entries outside the prime field."""
    p, base_deg, r, max_dim = IDEAL_CASES[name]
    spec = reps.make_spec(p, r, base=fields.canonical_extension(p, base_deg))
    rng = random.Random(f"golden:{name}")
    mod = randmod.random_module(rng, spec, max_dim=max_dim)
    while mod.n % p or len(reps.blocks(mod)) > 1:
        mod = randmod.random_module(rng, spec, max_dim=max_dim)
    return conjugated(mod, rng)


def _ideal_text(name):
    desc = support.support_ideal(_ideal_module(name))
    return "".join(line + "\n" for line in desc.report_lines())


def _dense_ideal_module(name):
    p, base_deg, r, sizes = DENSE_IDEAL_CASES[name]
    spec = reps.make_spec(p, r, base=fields.canonical_extension(p, base_deg))
    rng = random.Random(f"golden:{name}")
    mod = shift_block(spec, sizes[0], rng)
    for v in sizes[1:]:
        mod = reps.direct_sum(mod, shift_block(spec, v, rng))
    return mixed(mod, rng)


def _dense_ideal_text(name):
    desc = support.support_ideal(_dense_ideal_module(name))
    return "".join(line + "\n" for line in desc.report_lines())


def _sample_module(name):
    p, r, _ = SAMPLE_CASES[name]
    spec = reps.make_spec(p, r)
    rng = random.Random(f"golden:{name}")
    parts = [shift_block(spec, 1, rng), shift_block(spec, 2, rng), reps.free_module(spec, 1)]
    return monomial(reps.direct_sum(reps.direct_sum(*parts[:2]), parts[2]), rng)[0]


def _covering_module(name):
    p, _, dense = COVERING_CASES[name]
    spec = reps.make_spec(p, 2)
    rng = random.Random(f"golden:{name}")
    mod = _covering_lines(spec, rng)
    if dense:
        mod = reps.direct_sum(mod, _dense_full_support(spec, 1, rng))
    return monomial(mod, rng)[0]


def _sample_text(name):
    """The support, then the cosupport, report of _sample_module or of
    _covering_module."""
    if name in COVERING_CASES:
        mod, e_max = _covering_module(name), COVERING_CASES[name][1]
    else:
        mod, e_max = _sample_module(name), SAMPLE_CASES[name][2]
    lines = []
    for label, sample in (("support", support.support_sample),
                          ("cosupport", support.cosupport_sample)):
        lines += [label, *sample(mod, e_max).report_lines()]
    return "".join(line + "\n" for line in lines)


def _render(name):
    if name in CLI_CASES:
        return name + ".txt", _cli_text(name)
    if name in IDEAL_CASES:
        return name + ".txt", _ideal_text(name)
    if name in DENSE_IDEAL_CASES:
        return name + ".txt", _dense_ideal_text(name)
    if name in SAMPLE_CASES or name in COVERING_CASES:
        return name + ".txt", _sample_text(name)
    return name + ".modrep", _coinduced_text(name)


CASES = [*CLI_CASES, *COINDUCED_CASES, *IDEAL_CASES, *DENSE_IDEAL_CASES, *SAMPLE_CASES,
         *COVERING_CASES]


@pytest.mark.parametrize("name", CASES)
def test_golden(name):
    filename, text = _render(name)
    expected = (GOLDEN / filename).read_text(encoding="utf-8")
    assert text == expected


def test_cli_matrix(monkeypatch):
    monkeypatch.chdir(ROOT)
    rows = json.loads(CLI_MATRIX.read_text(encoding="utf-8"))
    assert [row["argv"] for row in rows] == _matrix_argvs()
    assert [row["argv"] for row in rows if _matrix_row(row["argv"]) != row] == []


@pytest.mark.parametrize("name", DENSE_IDEAL_CASES)
def test_dense_ideal_golden_finds_pivots_in_numpy(name, monkeypatch):
    # the premise of DENSE_IDEAL_CASES: both pivot stacks, of the C_b and of
    # their transposes, are eliminated by linalg._log_pivots_numpy
    shapes, route = [], linalg._log_pivots_numpy

    def record(logs, desc, stop_at):
        shapes.append(logs.shape)
        return route(logs, desc, stop_at)

    monkeypatch.setattr(linalg, "_log_pivots_numpy", record)
    mod = _dense_ideal_module(name)
    support.support_ideal(mod)
    k = len(support._operator_coeffs(mod))
    assert shapes == [(k * mod.n, mod.n)] * 2


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        filename, text = _render(case)
        (GOLDEN / filename).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {GOLDEN / filename}")
    os.chdir(ROOT)
    CLI_MATRIX.write_text(_matrix_text(), encoding="utf-8", newline="\n")
    print(f"wrote {CLI_MATRIX}")
