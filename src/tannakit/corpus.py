"""Corpus files: a line-oriented text format for complexes, pairs, maps,
filtrations, covers, divisor decompositions, diagrams and truncation data.

Format (UTF-8, LF): `key = value` lines inside `[kind name]` sections; `#`
starts a comment; list values use `|` or `;` separators as documented per
key; repeated keys are allowed where noted.  Subcomplex expressions combine
names with `*` (staircase product), `+` (union), `skel(expr, k)` and
`empty`.  See the README for the full schema.

Complexes, pairs, maps, filtrations, covers and divisors are built and
checked at parse time, read by the command or not, so a malformed one fails
the run; diagram, subdiagram, tower and comodule sections are read on first
use.  Parsing complexes and pairs loads only linalg and simplicial; the
first map, filtration, cover or divisors section loads tannakit.structures,
which builds those four kinds (SimplicialMap and Filtration live there).  A
corpus builds each staircase product of two complexes once, for all its
expressions and product maps.
"""

import re
from contextlib import contextmanager

from . import _deferred
from .errors import InputError
from .linalg import QQ, ZZ
from .simplicial import SimplicialComplex, SimplicialPair, product_complex

_SECTION = re.compile(r"^\[(\w+)\s+([\w.-]+)\]$")
# in the order a corpus loads them
_KINDS = ("complex", "pair", "map", "filtration", "cover", "divisors",
          "diagram", "subdiagram", "tower", "comodule")


def _split_entries(value, sep):
    return [part.strip() for part in value.split(sep) if part.strip()]


@contextmanager
def _malformed(where):
    try:
        yield
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("%s: %s" % (where, exc)) from None


class Section:
    def __init__(self, kind, name):
        self.kind = kind
        self.name = name
        self.items = []            # (key, value) in declaration order

    def get(self, key, default=None):
        for k, v in self.items:
            if k == key:
                return v
        return default

    def get_all(self, key):
        return [v for k, v in self.items if k == key]

    def require(self, key):
        v = self.get(key)
        if v is None:
            raise InputError("[%s %s] misses key %r" % (self.kind, self.name, key))
        return v


def parse_sections(text):
    ring = None
    sections = []
    declared = set()
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION.match(line)
        if m:
            kind, name = m.group(1), m.group(2)
            if kind not in _KINDS:
                raise InputError("line %d: unknown section kind %r" % (lineno, kind))
            if (kind, name) in declared:
                raise InputError("duplicate %s %r" % (kind, name))
            declared.add((kind, name))
            current = Section(kind, name)
            sections.append(current)
            continue
        if "=" not in line:
            raise InputError("line %d: expected 'key = value'" % lineno)
        key, value = [part.strip() for part in line.split("=", 1)]
        if current is None:
            if key == "ring":
                if value not in (ZZ, QQ):
                    raise InputError("line %d: ring must be z or q" % lineno)
                ring = value
                continue
            raise InputError("line %d: %r outside of a section" % (lineno, key))
        current.items.append((key, value))
    return ring, sections


class Corpus:
    """All named objects of a corpus file; the diagram contexts are built
    on first use.  Its methods context, subdiagram, tower and comodule are
    the corpus_* readers of tannakit.diagrams, .bialgebra and .comodule."""

    def __init__(self, text):
        self.ring, sections = parse_sections(text)
        self.complexes = {}
        self.pairs = {}
        self.maps = {}
        self.filtrations = {}
        self.covers = {}
        self.divisors = {}
        self._diagram_decls = {}
        self._subdiagram_decls = {}
        self._tower_decls = {}
        self._comodule_decls = {}
        self._contexts = {}
        self._products = {}
        for sec in sorted(sections, key=lambda s: _KINDS.index(s.kind)):
            getattr(self, "_load_" + sec.kind)(sec)

    # -- expressions ------------------------------------------------------
    def expr(self, text) -> SimplicialComplex:
        return _ExprParser(text, self.complexes, self._product).parse()

    def _product(self, X, Y) -> SimplicialComplex:
        """product_complex(X, Y), built once per pair of factors for this
        corpus: complexes are immutable and hash by their simplices."""
        key = (X, Y)
        P = self._products.get(key)
        if P is None:
            P = self._products[key] = product_complex(X, Y)
        return P

    # -- loaders ----------------------------------------------------------
    def _load_complex(self, sec):
        vertices = _split_entries(sec.get("vertices", ""), " ")
        maximal = []
        simp = sec.get("simplices", "")
        for part in _split_entries(simp, "|"):
            maximal.append(tuple(part.split()))
        cx = SimplicialComplex.from_maximal(maximal, vertices)
        self.complexes[sec.name] = cx

    def _load_pair(self, sec):
        X = self.expr(sec.require("space"))
        sub = sec.get("sub")
        Z = self.expr(sub) if sub else SimplicialComplex.empty()
        self.pairs[sec.name] = SimplicialPair(X, Z)

    def _declare(self, sec):
        """A diagram, subdiagram, tower or comodule section, kept to be read
        on first use."""
        getattr(self, "_%s_decls" % sec.kind)[sec.name] = sec

    _load_diagram = _load_subdiagram = _load_tower = _load_comodule = _declare

    # -- the sections of simplicial maps, filtrations, covers and divisors:
    # tannakit.structures, imported at the first one
    _load_map = _deferred("structures", "load_map")
    _load_filtration = _deferred("structures", "load_filtration")
    _load_cover = _deferred("structures", "load_cover")
    _load_divisors = _deferred("structures", "load_divisors")

    # -- diagram contexts and what is read off them, built on first use
    context = _deferred("diagrams", "corpus_context")
    subdiagram = _deferred("diagrams", "corpus_subdiagram")
    tower = _deferred("bialgebra", "corpus_tower")
    comodule = _deferred("comodule", "corpus_comodule")


class _ExprParser:
    """expr := term ('+' term)*; term := atom ('*' atom)*;
    atom := NAME | 'empty' | 'skel' '(' expr ',' INT ')' | '(' expr ')'."""

    def __init__(self, text, names, product):
        self.tokens = re.findall(r"[\w.-]+|[()*+,]", text)
        self.pos = 0
        self.names = names
        self.product = product
        self.text = text

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise InputError("bad expression %r (at %s)"
                             % (self.text, "its end" if tok is None else repr(tok)))
        self.pos += 1
        return tok

    def parse(self):
        out = self.expr()
        if self.peek() is not None:
            raise InputError("trailing tokens in expression %r" % self.text)
        return out

    def expr(self):
        out = self.term()
        while self.peek() == "+":
            self.take("+")
            right = self.term()
            try:
                out = out.union(right)
            except TypeError:      # e.g. a vertex x and a product vertex (x, y)
                raise InputError("expression %r unites complexes whose vertices "
                                 "cannot be ordered together" % self.text) from None
        return out

    def term(self):
        out = self.atom()
        while self.peek() == "*":
            self.take("*")
            out = self.product(out, self.atom())
        return out

    def atom(self):
        tok = self.take()
        if tok == "(":
            out = self.expr()
            self.take(")")
            return out
        if tok == "empty":
            return SimplicialComplex.empty()
        if tok == "skel":
            self.take("(")
            inner = self.expr()
            self.take(",")
            with _malformed("expression %r" % self.text):
                k = int(self.take())
            self.take(")")
            return inner.skeleton(k)
        if tok in self.names:
            return self.names[tok]
        raise InputError("unknown complex %r in expression %r" % (tok, self.text))


def load_corpus(path) -> Corpus:
    with open(path, "r", encoding="utf-8") as fh:
        return Corpus(fh.read())
