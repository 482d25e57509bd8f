"""The corpus parser and its expression grammar: the per-corpus product
cache, and generated expressions and malformed corpus files, which must give
a complex or an input error and never any other exception."""

import contextlib
import io
import string

import pytest
from hypothesis import given, settings, strategies as st

from tannakit import corpus as corpus_module
from tannakit.cli import default_corpus_text, main
from tannakit.corpus import Corpus, _ExprParser
from tannakit.errors import InputError
from tannakit.simplicial import SimplicialComplex, product_complex

BUNDLED = Corpus(default_corpus_text())


def test_bundled_parse_builds_each_product_once(monkeypatch):
    calls = []
    monkeypatch.setattr(corpus_module, "product_complex",
                        lambda X, Y: calls.append((X, Y)) or product_complex(X, Y))
    Corpus(default_corpus_text())
    assert len(calls) == len(set(calls)) == 21


def test_product_cache_is_per_corpus(monkeypatch):
    calls = []
    monkeypatch.setattr(corpus_module, "product_complex",
                        lambda X, Y: calls.append((X, Y)) or product_complex(X, Y))
    text = "[complex c]\nsimplices = x y\n"
    first, second = Corpus(text), Corpus(text)
    assert first.expr("c * c") is first.expr("(c) * c")
    assert second.expr("c * c") == first.expr("c * c")
    assert len(calls) == 2


# -- generated expressions -----------------------------------------------------

# bundled complexes of dimension at most 1, so that a product of three stays small
NAMES = ("point", "two_points", "edge", "ends", "enda", "circle3", "arc_ac")
JUNK = ("(", ")", ",", "*", "+", "skel", "empty", "nosuch", "1", "-1", "x.y")


def _leaf():
    return st.one_of(st.sampled_from(NAMES).map(lambda n: (n, BUNDLED.complexes[n])),
                     st.just(("empty", SimplicialComplex.empty())))


def _union(X, Y):
    try:
        return X.union(Y)
    except TypeError:       # a vertex x and a product vertex (x, y) do not compare
        return None


def _combine(children):
    """Products, unions and skeleta of children; the value None marks an
    expression that must be an input error."""
    def apply(op, *args):
        return None if None in args else op(*args)
    product = st.tuples(children, children).map(
        lambda ab: ("(%s * %s)" % (ab[0][0], ab[1][0]),
                    apply(product_complex, ab[0][1], ab[1][1])))
    union = st.tuples(children, children).map(
        lambda ab: ("(%s + %s)" % (ab[0][0], ab[1][0]), apply(_union, ab[0][1], ab[1][1])))
    skel = st.tuples(children, st.integers(-1, 3)).map(
        lambda ek: ("skel(%s, %d)" % (ek[0][0], ek[1]),
                    apply(SimplicialComplex.skeleton, ek[0][1], ek[1])))
    return st.one_of(product, union, skel)


# (text, complex or None) pairs, the complex evaluated without any cache
EXPRESSIONS = st.recursive(_leaf(), _combine, max_leaves=3)


@st.composite
def mutated(draw):
    """A well-formed expression, its value, and the expression with junk
    tokens inserted or tokens deleted (None when left intact)."""
    text, value = draw(EXPRESSIONS)
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
    edits = draw(st.lists(st.tuples(st.booleans(), st.integers(0, len(tokens)),
                                    st.sampled_from(JUNK)), max_size=3))
    for insert, at, junk in edits:
        if insert:
            tokens.insert(at, junk)
        elif tokens:
            del tokens[at % len(tokens)]
    return text, value, " ".join(tokens) if edits else None


def _evaluate(parse):
    """The complex parse() returns, or None if it raises InputError."""
    try:
        return parse()
    except InputError:
        return None


@settings(max_examples=200, deadline=None)
@given(mutated())
def test_expressions_give_the_uncached_complex_or_an_input_error(case):
    text, value, junk = case
    assert _evaluate(lambda: BUNDLED.expr(text)) == value
    if junk is not None:
        got = _evaluate(lambda: BUNDLED.expr(junk))
        expect = _evaluate(lambda: _ExprParser(junk, BUNDLED.complexes, product_complex).parse())
        assert got == expect


# -- generated malformed corpus files -------------------------------------------

BASE = """ring = z
[complex pt]
simplices = a
[complex seg]
simplices = a b
[pair p]
space = seg
sub = pt
[map m]
source = pt
target = seg
assign = a:a
[filtration f]
space = seg
levels = pt ; seg
[cover k]
space = seg
sets = seg ; pt
[divisors dv]
space = seg
components = pt
"""
LINES = BASE.splitlines()
# keys that hold expressions, and keys without which a section is malformed
EXPRESSION_KEYS = ("space", "sub", "source", "target", "levels", "sets", "components")
REQUIRED_KEYS = ("space", "source", "target", "assign", "levels", "sets", "components")
# printable text that holds no key, section or comment syntax
PLAIN = string.ascii_letters + string.digits + " ()*+,;|:.-_/"


def _sections():
    starts = [i for i, line in enumerate(LINES) if line.startswith("[")]
    return [LINES[a:b] for a, b in zip(starts, starts[1:] + [len(LINES)])]


def _key_lines(keys):
    return [i for i, line in enumerate(LINES) if line.split(" = ")[0] in keys]


@st.composite
def malformed_corpora(draw):
    """BASE with one change that makes it malformed."""
    lines = list(LINES)
    kind = draw(st.sampled_from(("junk line", "unknown kind", "key outside", "ring",
                                 "duplicate", "bad expression", "missing key")))
    if kind == "junk line":
        junk = draw(st.text(PLAIN, min_size=1).filter(str.strip))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    elif kind == "unknown kind":
        name = draw(st.text(string.ascii_lowercase, min_size=1)
                    .filter(lambda s: s not in corpus_module._KINDS))
        lines.insert(draw(st.integers(1, len(lines))), "[%s x]" % name)
    elif kind == "key outside":
        key = draw(st.text(string.ascii_lowercase, min_size=1).filter(lambda s: s != "ring"))
        lines.insert(draw(st.integers(0, 1)), "%s = 1" % key)
    elif kind == "ring":
        lines[0] = "ring = %s" % draw(st.text(PLAIN).filter(lambda s: s.strip() not in "zq"))
    elif kind == "duplicate":
        lines += draw(st.sampled_from(_sections()))
    elif kind == "bad expression":
        # every token of a parsed expression is read, and `nosuch` names no
        # complex and is no integer, so the expression cannot parse
        i = draw(st.sampled_from(_key_lines(EXPRESSION_KEYS)))
        tokens = draw(st.lists(st.sampled_from(("pt", "seg") + JUNK), max_size=4))
        tokens.insert(draw(st.integers(0, len(tokens))), "nosuch")
        lines[i] = "%s = %s" % (lines[i].split(" = ")[0], " ".join(tokens))
    else:
        del lines[draw(st.sampled_from(_key_lines(REQUIRED_KEYS)))]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "fuzz.corpus"


def _run(path, text):
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--corpus", str(path), "homology", "p"])
    return code, err.getvalue()


def test_fuzz_base_corpus_is_valid(corpus_path):
    assert _run(corpus_path, BASE) == (0, "")


@settings(max_examples=200, deadline=None)
@given(malformed_corpora())
def test_malformed_corpus_is_input_error(corpus_path, text):
    code, err = _run(corpus_path, text)
    assert code == 1 and err.startswith("input error:"), (text, err)
