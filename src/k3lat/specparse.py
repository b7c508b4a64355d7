"""Parser for lattice-spec expressions.

Grammar (whitespace insensitive, integers signed decimal):

    spec := term ('+' term)*
    term := '-'? atom
    atom := 'E8' | 'E7' | 'E6' | 'H'
          | 'II(' int ',' int ')'
          | '(' int ')'
          | 'gram:' path

`print_spec` emits the canonical form (terms joined by ' + '), and
parse(print(ast)) == ast.
"""

from __future__ import annotations

from .errors import SpecSyntaxError
from .records import Record

# The named lattices, constants of `lattice`: a spec parses without it.
_NAMED = ("E8", "E7", "E6", "H")


class Named(Record):
    __slots__ = ("name",)


class Standard(Record):
    __slots__ = ("p", "q")


class Rank1(Record):
    __slots__ = ("norm",)


class GramFile(Record):
    __slots__ = ("path",)


class Term(Record):
    """An atom (Named, Standard, Rank1 or GramFile), negated or not."""

    __slots__ = ("negated", "atom")


class LatticeSpec(Record):
    """The terms of a spec, a tuple of Term."""

    __slots__ = ("terms",)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        self.skip_ws()
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise SpecSyntaxError(f"expected {ch!r}", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        digits = self.pos
        while "0" <= self.peek() <= "9":  # ASCII digits only, as in Gram files
            self.pos += 1
        if self.pos == digits:
            raise SpecSyntaxError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() takes
            raise SpecSyntaxError("expected an integer", start) from None

    def word(self) -> str:
        start = self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        return self.text[start:self.pos]


def _parse_atom(sc: _Scanner):
    sc.skip_ws()
    start = sc.pos
    ch = sc.peek()
    if ch == "(":
        sc.pos += 1
        n = sc.integer()
        sc.expect(")")
        return Rank1(n)
    if not (ch.isalpha() or ch == "_"):
        raise SpecSyntaxError("expected a lattice atom", start)
    name = sc.word()
    if name in _NAMED:
        return Named(name)
    if name == "II":
        sc.expect("(")
        p = sc.integer()
        sc.expect(",")
        q = sc.integer()
        sc.expect(")")
        from .lattice import _STANDARD_PAIRS
        if (p, q) not in _STANDARD_PAIRS:
            raise SpecSyntaxError(
                f"II({p},{q}) is not one of {list(_STANDARD_PAIRS)}", start)
        return Standard(p, q)
    if name == "gram":
        sc.expect(":")
        sc.skip_ws()
        pstart = sc.pos
        while sc.peek() and not sc.peek().isspace() and sc.peek() != "+":
            sc.pos += 1
        if sc.pos == pstart:
            raise SpecSyntaxError("expected a file path after gram:", pstart)
        return GramFile(sc.text[pstart:sc.pos])
    raise SpecSyntaxError(f"unknown lattice name {name!r}", start)


def parse_spec(text: str) -> LatticeSpec:
    sc = _Scanner(text)
    terms = []
    while True:
        sc.skip_ws()
        negated = sc.take("-")
        terms.append(Term(negated, _parse_atom(sc)))
        sc.skip_ws()
        if not sc.take("+"):
            break
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise SpecSyntaxError("unexpected trailing input", sc.pos)
    return LatticeSpec(tuple(terms))


def print_spec(spec: LatticeSpec) -> str:
    parts = []
    for term in spec.terms:
        if isinstance(term.atom, Named):
            text = term.atom.name
        elif isinstance(term.atom, Standard):
            text = f"II({term.atom.p},{term.atom.q})"
        elif isinstance(term.atom, Rank1):
            text = f"({term.atom.norm})"
        else:
            text = f"gram:{term.atom.path}"
        parts.append(("-" if term.negated else "") + text)
    return " + ".join(parts)


def evaluate(spec: LatticeSpec) -> Lattice:
    """Build the lattice a parsed expression denotes."""
    from . import lattice as lt
    pieces = []
    for term in spec.terms:
        atom = term.atom
        if isinstance(atom, Named):
            piece = getattr(lt, atom.name)
        elif isinstance(atom, Standard):
            piece = lt.ii(atom.p, atom.q)
        elif isinstance(atom, Rank1):
            piece = lt.rank1(atom.norm)
        else:  # a relative path is read from the working directory
            piece = lt.load_gram_file(atom.path)
        pieces.append(lt.rescale(piece) if term.negated else piece)
    return lt.direct_sum(*pieces)


def lattice_from_text(text: str) -> Lattice:
    return evaluate(parse_spec(text))
