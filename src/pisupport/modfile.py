"""The versioned module file format.

Strict, human-writable key-value text with nested blocks:

    format: modrep/1
    algebra {
      base {
        char: 2
        ext: none
        vars: none
      }
      flavors: group, group
      p: 2
      r: 2
    }
    module {
      dim: 4
      name: klein-M2
      z1 {
        row: 0, 0, 0, 0
        ...
      }
      z2 { ... }
    }

Matrices are row-major with one ``row:`` line per row; entries are
field-element literals (decimal integers, coefficient arrays, or num/den
objects).  Canonical emission sorts keys, uses LF line endings, and
round-trips exactly: parse(emit(M)) == M.
"""

from . import fields, reps
from .errors import ModuleFileSyntaxError, ValidationError
from .linalg import Matrix

FORMAT_LINE = "format: modrep/1"


def split_literals(text):
    """Split on top-level commas, respecting brackets and braces."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


# ---------------------------------------------------------------------------
# Parsing


def _parse_blocks(text):
    """Nested dict of {key: value-string | subdict | list (repeated row:)}."""
    root = {}
    stack = [root]
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "}":
            if len(stack) == 1:
                raise ModuleFileSyntaxError("unbalanced '}'", lineno)
            stack.pop()
            continue
        if line.endswith("{"):
            key = line[:-1].strip()
            if not key:
                raise ModuleFileSyntaxError("block needs a name", lineno)
            if key in stack[-1]:
                raise ModuleFileSyntaxError(f"duplicate block {key!r}", lineno)
            block = {}
            stack[-1][key] = block
            stack.append(block)
            continue
        if ":" not in line:
            raise ModuleFileSyntaxError(f"expected 'key: value', got {line!r}", lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "row":
            stack[-1].setdefault("row", [])
            if not isinstance(stack[-1]["row"], list):
                raise ModuleFileSyntaxError("'row' clashes with another key", lineno)
            stack[-1]["row"].append((lineno, value))
        else:
            if key in stack[-1]:
                raise ModuleFileSyntaxError(f"duplicate key {key!r}", lineno)
            stack[-1][key] = (lineno, value)
    if len(stack) != 1:
        raise ModuleFileSyntaxError("unclosed block at end of file", len(text.split("\n")))
    return root


def _take(block, key, lineno_hint=0):
    if key not in block:
        raise ModuleFileSyntaxError(f"missing key {key!r}", lineno_hint)
    return block.pop(key)


def _parse_int(item, what):
    lineno, value = item
    try:
        return int(value)
    except ValueError:
        raise ModuleFileSyntaxError(f"{what} must be an integer, got {value!r}", lineno)


def parse_module_file(text) -> reps.ModuleRep:
    """Parse and validate; raises ModuleFileSyntaxError on malformed text and
    ValidationError (or a field-construction error) on bad content."""
    root = _parse_blocks(text)
    fmt = _take(root, "format")
    if fmt[1] != "modrep/1":
        raise ModuleFileSyntaxError(f"unsupported format {fmt[1]!r}", fmt[0])
    algebra = _take(root, "algebra")
    module = _take(root, "module")
    if root:
        raise ModuleFileSyntaxError(f"unexpected top-level key {next(iter(root))!r}")
    if not isinstance(algebra, dict) or not isinstance(module, dict):
        raise ModuleFileSyntaxError("'algebra' and 'module' must be blocks")

    p = _parse_int(_take(algebra, "p"), "p")
    r = _parse_int(_take(algebra, "r"), "r")
    fl_line, fl_value = _take(algebra, "flavors")
    flavors = tuple(f.strip() for f in fl_value.split(","))
    baseblock = _take(algebra, "base")
    if algebra:
        raise ModuleFileSyntaxError(f"unexpected algebra key {next(iter(algebra))!r}")
    if not isinstance(baseblock, dict):
        raise ModuleFileSyntaxError("'base' must be a block", fl_line)

    char = _parse_int(_take(baseblock, "char"), "char")
    ext_line, ext_value = _take(baseblock, "ext")
    vars_line, vars_value = _take(baseblock, "vars")
    if baseblock:
        raise ModuleFileSyntaxError(f"unexpected base key {next(iter(baseblock))!r}")
    if char != p:
        raise ValidationError(f"base characteristic {char} differs from p = {p}")
    ext = None
    if ext_value != "none":
        try:
            ext = tuple(int(c) for c in split_literals(ext_value.strip("[]")))
        except ValueError:
            raise ModuleFileSyntaxError(f"bad ext {ext_value!r}", ext_line)
    names = ()
    if vars_value != "none":
        names = tuple(v.strip() for v in vars_value.split(","))
    base = fields.make_field(p, ext, names)

    if len(flavors) != r:
        raise ValidationError(f"expected {r} flavors, got {len(flavors)}")
    try:
        spec = reps.AlgebraSpec(p, r, flavors, base)
    except ValueError as exc:
        raise ValidationError(str(exc))

    dim = _parse_int(_take(module, "dim"), "dim")
    name = None
    if "name" in module:
        name = _take(module, "name")[1]
    mats = []
    for i in range(1, r + 1):
        key = f"z{i}"
        if key not in module:
            raise ModuleFileSyntaxError(f"missing matrix block {key!r}")
        zblock = module.pop(key)
        if not isinstance(zblock, dict) or set(zblock) - {"row"}:
            raise ModuleFileSyntaxError(f"matrix block {key!r} must hold row: lines")
        rows = zblock.get("row", [])
        if len(rows) != dim:
            raise ValidationError(f"{key} has {len(rows)} rows, expected {dim}")
        grid = []
        for lineno, row_text in rows:
            literals = split_literals(row_text)
            if len(literals) != dim:
                raise ValidationError(
                    f"{key} row at line {lineno} has {len(literals)} entries, "
                    f"expected {dim}"
                )
            try:
                grid.append([fields.parse_literal(lit, base) for lit in literals])
            except ValueError as exc:
                raise ModuleFileSyntaxError(str(exc), lineno)
        mats.append(Matrix(base, grid))
    if module:
        raise ModuleFileSyntaxError(f"unexpected module key {next(iter(module))!r}")
    return reps.ModuleRep(spec, mats, name=name)


# ---------------------------------------------------------------------------
# Emission


def emit_module_file(mod) -> str:
    """Canonical text for a module: sorted keys, LF endings, exact round-trip."""
    base = mod.spec.base
    if base.ext is None:
        ext = "none"
    else:
        ext = "[" + ", ".join(str(c) for c in base.ext) + "]"
    vars_value = ", ".join(base.vars) if base.vars else "none"
    lines = [
        FORMAT_LINE,
        "algebra {",
        "  base {",
        f"    char: {base.p}",
        f"    ext: {ext}",
        f"    vars: {vars_value}",
        "  }",
        f"  flavors: {', '.join(mod.spec.flavors)}",
        f"  p: {mod.spec.p}",
        f"  r: {mod.spec.r}",
        "}",
        "module {",
        f"  dim: {mod.n}",
    ]
    if mod.name is not None:
        lines.append(f"  name: {mod.name}")
    for i, mat in enumerate(mod.Z, start=1):
        lines.append(f"  z{i} {{")
        for row in mat.entries:
            lines.append("    row: " + ", ".join(fields.to_literal(x) for x in row))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
