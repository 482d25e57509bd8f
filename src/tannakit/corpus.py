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
use.  Parsing loads only linalg and simplicial, where Filtration lives.  A
corpus builds each staircase product of two complexes once, for all its
expressions and product maps.
"""

import re
from contextlib import contextmanager

from .errors import InputError
from .linalg import QQ, ZZ
from .simplicial import (
    Filtration, SimplicialComplex, SimplicialMap, SimplicialPair, product_complex,
)

_SECTION = re.compile(r"^\[(\w+)\s+([\w.-]+)\]$")
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
    on first use."""

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
        order = {"complex": 0, "pair": 1, "map": 2, "filtration": 3,
                 "cover": 4, "divisors": 5, "diagram": 6, "subdiagram": 7,
                 "tower": 8, "comodule": 9}
        for sec in sorted(sections, key=lambda s: order[s.kind]):
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

    def _load_map(self, sec):
        kind = sec.get("kind")
        if kind is None:
            source = self.expr(sec.require("source"))
            target = self.expr(sec.require("target"))
            assignment = {}
            for part in _split_entries(sec.require("assign"), " "):
                if ":" not in part:
                    raise InputError("map %r: bad assignment %r" % (sec.name, part))
                a, b = part.split(":", 1)
                assignment[a] = b
            self.maps[sec.name] = SimplicialMap(source, target, assignment)
            return
        left = self.expr(sec.require("left"))
        right = self.expr(sec.require("right"))
        if kind == "swap":
            src = self._product(left, right)
            tgt = self._product(right, left)
            assignment = {v: (v[1], v[0]) for v in src.vertices}
        elif kind == "proj1":
            src = self._product(left, right)
            tgt = left
            assignment = {v: v[0] for v in src.vertices}
        elif kind == "proj2":
            src = self._product(left, right)
            tgt = right
            assignment = {v: v[1] for v in src.vertices}
        elif kind == "assoc":
            third = self.expr(sec.require("third"))
            src = self._product(self._product(left, right), third)
            tgt = self._product(left, self._product(right, third))
            assignment = {v: (v[0][0], (v[0][1], v[1])) for v in src.vertices}
        else:
            raise InputError("map %r: unknown kind %r" % (sec.name, kind))
        self.maps[sec.name] = SimplicialMap(src, tgt, assignment)

    def _load_filtration(self, sec):
        X = self.expr(sec.require("space"))
        levels = [self.expr(e) for e in _split_entries(sec.require("levels"), ";")]
        self.filtrations[sec.name] = Filtration(X, levels)

    def _load_cover(self, sec):
        X = self.expr(sec.require("space"))
        sets = [self.expr(e) for e in _split_entries(sec.require("sets"), ";")]
        self.covers[sec.name] = (X, sets)

    def _load_divisors(self, sec):
        X = self.expr(sec.require("space"))
        comps = [self.expr(e) for e in _split_entries(sec.require("components"), ";")]
        self.divisors[sec.name] = (X, comps)

    def _load_diagram(self, sec):
        self._diagram_decls[sec.name] = sec

    def _load_subdiagram(self, sec):
        self._subdiagram_decls[sec.name] = sec

    def _load_tower(self, sec):
        self._tower_decls[sec.name] = sec

    def _load_comodule(self, sec):
        self._comodule_decls[sec.name] = sec

    # -- diagram contexts, built on first use -------------------------------
    def context(self, name, ring) -> "PairsContext":
        from .tannaka import PairsContext, build_pairs_diagram
        key = (name, ring)
        if key in self._contexts:
            return self._contexts[key]
        sec = self._diagram_decls.get(name)
        if sec is None:
            raise InputError("unknown diagram %r" % name)
        vertices = {}
        for decl in sec.get_all("vertex"):
            parts = _split_entries(decl, ":")
            if len(parts) != 3:
                raise InputError("diagram %r: bad vertex %r" % (name, decl))
            vname, pairname, deg = parts
            if pairname not in self.pairs:
                raise InputError("diagram %r: unknown pair %r" % (name, pairname))
            with _malformed("[diagram %s]" % name):
                vertices[vname] = (self.pairs[pairname], int(deg))
        map_edges = []
        for decl in sec.get_all("edge"):
            parts = _split_entries(decl, ":")
            if len(parts) != 3 or "->" not in parts[2]:
                raise InputError("diagram %r: bad edge %r" % (name, decl))
            ename, mapname, route = parts
            if mapname not in self.maps:
                raise InputError("diagram %r: unknown map %r" % (name, mapname))
            src, dst = [p.strip() for p in route.split("->", 1)]
            map_edges.append((ename, src, dst, self.maps[mapname]))
        triple_edges = []
        for decl in sec.get_all("triple"):
            parts = _split_entries(decl, ":")
            if len(parts) != 2 or "->" not in parts[1]:
                raise InputError("diagram %r: bad triple %r" % (name, decl))
            ename, route = parts
            src, dst = [p.strip() for p in route.split("->", 1)]
            triple_edges.append((ename, src, dst))
        products = {}
        for decl in sec.get_all("product"):
            lhs, _, rhs = decl.partition(":")
            vw = lhs.strip()
            if "*" not in rhs:
                raise InputError("diagram %r: bad product %r" % (name, decl))
            v, w = [p.strip() for p in rhs.split("*", 1)]
            products[(v, w)] = vw
        circle = sec.get("circle")
        dia, rep = build_pairs_diagram(ring, vertices, map_edges, triple_edges)
        ctx = PairsContext(dia, rep, products, circle, self._product)
        self._contexts[key] = ctx
        return ctx

    def subdiagram(self, name, ring):
        from .tannaka import Subdiagram
        sec = self._subdiagram_decls.get(name)
        if sec is None:
            raise InputError("unknown subdiagram %r" % name)
        dname = sec.require("diagram")
        ctx = self.context(dname, ring)
        vertices = _split_entries(sec.require("vertices"), " ")
        return ctx, Subdiagram(ctx.diagram, vertices, name=name)

    def tower(self, name, ring):
        from .tannaka import vertex_payload
        sec = self._tower_decls.get(name)
        if sec is None:
            raise InputError("unknown tower %r" % name)
        dname = sec.require("diagram")
        ctx = self.context(dname, ring)
        subs = []
        for sname in _split_entries(sec.require("truncations"), " "):
            _, sub = self.subdiagram(sname, ring)
            if sub.diagram is not ctx.diagram:
                raise InputError("[tower %s]: truncation %r is not a subdiagram of %r"
                                 % (name, sname, dname))
            if subs and not subs[-1].is_subset_of(sub):
                raise InputError("[tower %s]: truncation %r does not contain %r; "
                                 "truncations must be ordered by inclusion"
                                 % (name, sname, subs[-1].name))
            subs.append(sub)
        if not subs:
            raise InputError("[tower %s] lists no truncations" % name)
        unit = sec.get("unit")
        if unit is not None:
            vertex_payload(ctx.diagram.payloads, unit)
        return ctx, subs, unit

    def comodule(self, name, ring):
        from .matrix import Matrix
        from .tannaka import Comodule, coaction
        sec = self._comodule_decls.get(name)
        if sec is None:
            raise InputError("unknown comodule %r" % name)
        sname = sec.require("subdiagram")
        ctx, sub = self.subdiagram(sname, ring)
        vertex = sec.get("vertex")
        if vertex is not None:
            return ctx, coaction(ctx.rep, sub, vertex, ctx.end(sub))
        A = ctx.coalgebra(sub)
        with _malformed("[comodule %s]" % name):
            orders = tuple(int(t) for t in _split_entries(sec.require("orders"), " "))
            rows = []
            for part in _split_entries(sec.require("rho"), ";"):
                rows.append([_parse_scalar(x) for x in part.split()])
            k = len(orders)
            rho = Matrix(ring, rows, A.rank * k, k)
        return ctx, Comodule(A, orders, rho)


def _parse_scalar(text):
    if "/" in text:
        from fractions import Fraction
        return Fraction(text)
    return int(text)


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
            raise InputError("bad expression %r (at %r)" % (self.text, tok))
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
