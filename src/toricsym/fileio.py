"""Text formats for fans and polytopes.

Files must be UTF-8 text: any other bytes raise `ParseError`, naming the
line of the first bad byte, and the CLI exits with code 2 on it.

Fan file (`#` comments allowed anywhere):

    dim <n>
    rays <d>
    <d lines of n integers>
    cones <c>            # optional; omitted means the face fan of the rays
    <c lines of 0-based ray indices>

Polytope file:

    dim <n>
    vertices <m>
    <m lines of rationals, `p/q` or plain integers>
"""

import io
from fractions import Fraction

from .errors import ParseError, ValidationError
from .fan import Fan, face_fan_from_polytope, ray_problems, validate_fan
from .polytope import polytope_from_vertices


def _tokens(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text (byte {data[exc.start]:#04x})", line) from None
    out = []
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line.split()))
    return out


def _parse_int(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected an integer {what}, got {tok!r}", lineno)


def _parse_fraction(tok, lineno):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational p/q, got {tok!r}", lineno)


def parse_fan_file(path):
    """Parse and validate a fan file; cones default to the face fan.

    Explicit cones get the full `validate_fan` check.  A face fan is a fan
    by construction, so only its rays are checked.
    """
    rows = _tokens(path)
    pos = 0

    def expect(keyword):
        nonlocal pos
        if pos >= len(rows):
            raise ParseError(f"unexpected end of file, wanted {keyword!r}")
        lineno, toks = rows[pos]
        if toks[0] != keyword or len(toks) != 2:
            raise ParseError(f"expected {keyword!r} <count>, got {' '.join(toks)!r}", lineno)
        pos += 1
        return lineno, _parse_int(toks[1], lineno, f"after {keyword!r}")

    _, dim = expect("dim")
    if dim < 1:
        raise ParseError("dimension must be positive")
    _, nrays = expect("rays")
    rays = []
    for _ in range(nrays):
        if pos >= len(rows):
            raise ParseError("unexpected end of file in ray list")
        lineno, toks = rows[pos]
        pos += 1
        if len(toks) != dim:
            raise ParseError(f"ray needs {dim} coordinates, got {len(toks)}", lineno)
        rays.append(tuple(_parse_int(t, lineno, "coordinate") for t in toks))

    cones = None
    if pos < len(rows) and rows[pos][1][0] == "cones":
        _, ncones = expect("cones")
        cones = []
        for _ in range(ncones):
            if pos >= len(rows):
                raise ParseError("unexpected end of file in cone list")
            lineno, toks = rows[pos]
            pos += 1
            cone = tuple(_parse_int(t, lineno, "ray index") for t in toks)
            if any(i < 0 or i >= nrays for i in cone):
                raise ParseError("cone refers to a ray index out of range", lineno)
            cones.append(cone)
    if pos < len(rows):
        raise ParseError("trailing content", rows[pos][0])

    if cones is None:
        # face_fan_from_polytope has checked that every ray is a vertex of
        # the hull and that 0 is interior, so the cones over the facets are
        # strongly convex and meet in common faces: only the rays are left.
        fan = face_fan_from_polytope(rays)
        problems = ray_problems(fan)
    else:
        fan = Fan.make(dim, rays, cones)
        problems = validate_fan(fan).problems
    if problems:
        raise ValidationError("; ".join(problems))
    return fan


def parse_polytope_file(path):
    rows = _tokens(path)
    pos = 0

    def expect(keyword):
        nonlocal pos
        if pos >= len(rows):
            raise ParseError(f"unexpected end of file, wanted {keyword!r}")
        lineno, toks = rows[pos]
        if toks[0] != keyword or len(toks) != 2:
            raise ParseError(f"expected {keyword!r} <count>, got {' '.join(toks)!r}", lineno)
        pos += 1
        return lineno, _parse_int(toks[1], lineno, f"after {keyword!r}")

    _, dim = expect("dim")
    _, nverts = expect("vertices")
    verts = []
    for _ in range(nverts):
        if pos >= len(rows):
            raise ParseError("unexpected end of file in vertex list")
        lineno, toks = rows[pos]
        pos += 1
        if len(toks) != dim:
            raise ParseError(f"vertex needs {dim} coordinates, got {len(toks)}", lineno)
        verts.append(tuple(_parse_fraction(t, lineno) for t in toks))
    if pos < len(rows):
        raise ParseError("trailing content", rows[pos][0])
    return polytope_from_vertices(verts)


def write_fan_file(path, fan, comment=None):
    """Rays, and a `cones` section unless the fan is a face fan."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(f"dim {fan.dim}\n")
        sections = [("rays", fan.rays)]
        if fan.hull is None:
            sections.append(("cones", fan.max_cones))
        for keyword, rows in sections:
            fh.write(f"{keyword} {len(rows)}\n")
            for row in rows:
                fh.write(" ".join(str(x) for x in row) + "\n")
