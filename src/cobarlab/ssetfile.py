"""Line-based text format for simplicial presentations.

A file consists of a header line, generator lines and face lines::

    sset <name> [reduced|1-reduced]
    gen <name> dim=<n>
    face <gen> <i> = [s_j ...] <gen|*>

``*`` abbreviates the unique vertex of a reduced presentation; degeneracy
words are written outermost first with strictly decreasing indices (the
normal form of a degenerate simplex).  Blank lines and ``#`` comments are
ignored.  Parsing then serializing a canonical file is the identity.

Whether a presentation is reduced (one vertex) or 1-reduced (one vertex
and no edges) is read from its generators.  A header flag is a claim that
the parser checks: a claim the generators contradict is a
:class:`ParseError` at the header line, and a weaker claim that holds
(``reduced`` on a 1-reduced set) is accepted.  :func:`serialize` writes
the strongest flag that holds.
"""

from __future__ import annotations

from .simplicial import Simplex, SimplicialPresentation


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_simplex(tokens, gens, lineno: int) -> Simplex:
    degens = []
    for tok in tokens[:-1]:
        if not tok.startswith("s_"):
            raise ParseError(lineno, f"expected degeneracy token, got {tok!r}")
        try:
            degens.append(int(tok[2:]))
        except ValueError:
            raise ParseError(lineno, f"bad degeneracy index in {tok!r}")
    if degens != sorted(degens, reverse=True) or len(set(degens)) < len(degens):
        # a valid normal form is strictly decreasing read outermost first
        raise ParseError(lineno, "degeneracy word is not in normal form")
    name = tokens[-1]
    if name == "*" and "*" not in gens:
        vertices = [g for g, d in gens.items() if d == 0]
        if len(vertices) != 1:
            raise ParseError(lineno, "'*' needs a unique vertex generator")
        name = vertices[0]
    if name not in gens:
        raise ParseError(lineno, f"unknown generator {name!r}")
    for t, q in enumerate(reversed(degens)):
        if not 0 <= q <= gens[name] + t:
            raise ParseError(lineno, "degeneracy index out of range")
    return Simplex(tuple(degens), name, gens[name])


def parse(text: str) -> SimplicialPresentation:
    """Parse the text of a presentation file."""
    name = None
    flags = {}  # claimed flag -> header line number
    gens = {}
    faces = {}
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "sset":
            if seen_header:
                raise ParseError(lineno, "duplicate header line")
            if len(tokens) < 2:
                raise ParseError(lineno, "header needs a name")
            name = tokens[1]
            for flag in tokens[2:]:
                if flag not in ("reduced", "1-reduced"):
                    raise ParseError(lineno, f"unknown flag {flag!r}")
                flags[flag] = lineno
            seen_header = True
        elif kind == "gen":
            if not seen_header:
                raise ParseError(lineno, "generator before header")
            if len(tokens) != 3 or not tokens[2].startswith("dim="):
                raise ParseError(lineno, "expected: gen <name> dim=<n>")
            gname = tokens[1]
            if gname in gens:
                raise ParseError(lineno, f"duplicate generator {gname!r}")
            try:
                dim = int(tokens[2][4:])
            except ValueError:
                raise ParseError(lineno, f"bad dimension in {tokens[2]!r}")
            if dim < 0:
                raise ParseError(lineno, "negative dimension")
            gens[gname] = dim
        elif kind == "face":
            if len(tokens) < 5 or tokens[3] != "=":
                raise ParseError(lineno, "expected: face <gen> <i> = ...")
            gname = tokens[1]
            if gname not in gens:
                raise ParseError(lineno, f"unknown generator {gname!r}")
            try:
                i = int(tokens[2])
            except ValueError:
                raise ParseError(lineno, f"bad face index {tokens[2]!r}")
            if not 0 <= i <= gens[gname]:
                raise ParseError(lineno, "face index out of range")
            if (gname, i) in faces:
                raise ParseError(lineno, f"duplicate face ({gname}, {i})")
            value = _parse_simplex(tokens[4:], gens, lineno)
            if value.dim != gens[gname] - 1:
                raise ParseError(lineno, "face has the wrong dimension")
            faces[(gname, i)] = value
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    if not seen_header:
        raise ParseError(1, "missing header line")
    for g, d in gens.items():
        if d >= 1:
            for i in range(d + 1):
                if (g, i) not in faces:
                    raise ParseError(1, f"missing face ({g}, {i})")
    sset = SimplicialPresentation(name, gens, faces)
    for flag, holds in (("reduced", sset.reduced),
                        ("1-reduced", sset.one_reduced)):
        if flag in flags and not holds:
            dims = list(gens.values())
            raise ParseError(flags[flag], f"header claims {flag}, but there"
                             f" are {dims.count(0)} generators of dimension 0"
                             f" and {dims.count(1)} of dimension 1")
    return sset


def _format_simplex(x: Simplex, sset: SimplicialPresentation) -> str:
    word = " ".join(f"s_{q}" for q in x.degens)
    vertices = [g for g, d in sset.gens.items() if d == 0]
    gen = "*" if x.gen_dim == 0 and vertices == [x.gen] else x.gen
    return f"{word} {gen}".strip()


def serialize(sset: SimplicialPresentation) -> str:
    """Render a presentation in canonical file form."""
    lines = ["sset " + sset.name
             + (" 1-reduced" if sset.one_reduced
                else " reduced" if sset.reduced else "")]
    order = sorted(sset.gens, key=lambda g: (sset.gens[g], g))
    for g in order:
        lines.append(f"gen {g} dim={sset.gens[g]}")
    for g in order:
        for i in range(sset.gens[g] + 1):
            if sset.gens[g] >= 1:
                lines.append(f"face {g} {i} = "
                             + _format_simplex(sset.faces[(g, i)], sset))
    return "\n".join(lines) + "\n"


def load(path) -> SimplicialPresentation:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def save(path, sset: SimplicialPresentation):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(sset))
