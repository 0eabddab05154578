"""Golden transcripts: CLI stdout and coinduced module files, byte for byte.

Each file under ``tests/golden/`` is the exact output of one command or one
coinduction recorded from a known-good tree.  A refactor that changes any
verdict, any report line or any coinduced matrix shows up here as a diff.

To re-record after an intended output change (and say so in CHANGES.md):

    PYTHONPATH=src python3 tests/test_golden.py
"""

import random
from pathlib import Path

import pytest

from pisupport import fields, modfile, randmod, reps, support
from pisupport.cli import run_command

from conftest import conjugated

GOLDEN = Path(__file__).parent / "golden"

CLI_CASES = {
    **{f"demo_klein_n{n}": ["demo", "klein", "--n", str(n)] for n in range(1, 5)},
    "support_klein-M2_deg3_ideal": ["support", "klein-M2", "--sample-degree",
                                    "3", "--ideal"],
    "support_free1_p3_r2_deg1_ideal": ["support", "free:1", "--p", "3", "--r", "2",
                                       "--sample-degree", "1", "--ideal"],
    **{
        f"verify_p{p}_r{r}_trials2": ["verify", "--trials", "2", "--p", str(p),
                                      "--r", str(r)]
        for p, r in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2))
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
}


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


def _ideal_text(name):
    """The report of one block of dimension divisible by p, whose ideal is
    therefore not read off the block sizes, conjugated over the base so
    that the word expansion multiplies entries outside the prime field."""
    p, base_deg, r, max_dim = IDEAL_CASES[name]
    spec = reps.make_spec(p, r, base=fields.canonical_extension(p, base_deg))
    rng = random.Random(f"golden:{name}")
    mod = randmod.random_module(rng, spec, max_dim=max_dim)
    while mod.n % p or len(reps.blocks(mod)) > 1:
        mod = randmod.random_module(rng, spec, max_dim=max_dim)
    desc = support.support_ideal(conjugated(mod, rng))
    return "".join(line + "\n" for line in desc.report_lines())


def _render(name):
    if name in CLI_CASES:
        return name + ".txt", _cli_text(name)
    if name in IDEAL_CASES:
        return name + ".txt", _ideal_text(name)
    return name + ".modrep", _coinduced_text(name)


CASES = [*CLI_CASES, *COINDUCED_CASES, *IDEAL_CASES]


@pytest.mark.parametrize("name", CASES)
def test_golden(name):
    filename, text = _render(name)
    expected = (GOLDEN / filename).read_text(encoding="utf-8")
    assert text == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        filename, text = _render(case)
        (GOLDEN / filename).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {GOLDEN / filename}")
