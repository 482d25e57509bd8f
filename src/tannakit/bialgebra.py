"""Monoidal layer over the truncation data: products of coalgebra
truncations, bialgebra certificates, the multiplication-by-sigma directed
system standing in for localization, the towers of a corpus, and the
bialgebra-check and sigma-system commands.

The product of truncations is computed on the algebra side.  Restriction
of a compatible family to the product vertices, conjugated through the
Kunneth isomorphisms, is one map of sparse columns from End(T|H) into
End(T|F) (x) End(T|G), built by _swapped_tensor from tau and tau^-1 and
applied to End(T|H)'s whole basis by one _compose; each image is read by
two sparse reads, one in each factor's basis, with the two End algebras'
own solvers.  Failure of that membership is reported as ProductEscape,
never silently projected.  mu is sparse columns {row: entry}, as tau, the
End bases and transition maps are; .matrix is a dense view, built when
read.  Every identity checked here and the sigma step contract those
columns by maps._tensor_apply or _compose: mu is checked as a coalgebra
morphism out of the tensor coalgebra A_F (x) A_G by
transition._coalgebra_morphism, the check every transition map passes.

This module imports what a Tannaka pass runs beyond tannakit.tannaka: tau
(tannakit.kunneth), sigma (tannakit.sigma), transition maps and the
factorization check (tannakit.transition), so a process that has imported
both modules (the benchmark's tannaka-sweep does, before its timed jobs)
compiles nothing more on a call.  Corpus.tower is corpus_tower here.
"""

from .corpus import _split_entries
from .errors import InputError, MissingProducts, ProductEscape, WrongRank
# kunneth_tau is not called here: bench/tracing.py wraps tau by this path
from .kunneth import _swapped_tensor, kunneth_tau, tensor_swap  # noqa: F401
from .linalg import _compose, _echelon, _integral, _transpose
from .maps import _apply, _tensor_apply
from .matrix import Matrix, jmatrix
from .sigma import sigma_element
from .tannaka import PairsContext, Subdiagram, vertex_payload
from .transition import _coalgebra_morphism, transition_map

# -- products of truncations --------------------------------------------------

class MuFragment:
    """mu: A_F (x) A_G -> A_H, the dual of restriction-to-products, as
    sparse columns (column f * dim G + g for e_f (x) e_g)."""

    __slots__ = ("EF", "EG", "EH", "columns")

    def __init__(self, EF, EG, EH, columns):
        self.EF, self.EG, self.EH, self.columns = EF, EG, EH, columns

    @property
    def matrix(self) -> Matrix:
        return Matrix.from_sparse(self.EH.ring, self.columns, self.EH.dim)

    def apply(self, f_coords, g_coords):
        return _apply(self.columns, [a * b for a in f_coords for b in g_coords], self.EH.dim)


def _tensor_coordinates(y, n, SF, SG):
    """x with Y = B_F x B_G^T, for Y given by its nonzeros {f * n + g: entry}
    (n columns), as the nonzeros {i * dim G + j: x_ij}, or None: the columns
    of Y are read in B_F, then the rows of that in B_G, by the solvers SF and
    SG of the bases."""
    columns, rows, x = {}, {}, {}
    for fg, e in y.items():
        f, g = divmod(fg, n)
        columns.setdefault(g, {})[f] = e
    for g, col in columns.items():
        z = SF.read(col)
        if z is None:
            return None
        for i, e in z.items():
            rows.setdefault(i, {})[g] = e
    for i, row in rows.items():
        xi = SG.read(row)
        if xi is None:
            return None
        x.update((i * SG.size + j, e) for j, e in xi.items())
    return x


def product_on_truncations(ctx: PairsContext, subF, subG, subH) -> MuFragment:
    """Restriction-to-products read through the Kunneth isomorphisms, dualized.

    Every product vertex v x w (v in F, w in G) must be registered and lie in
    H; tau data is computed on demand.  The restriction is one map of sparse
    columns from End(T|H)'s flat layout to pairs (F index, G index): the
    block B of a family at v x w goes to tau B tau^-1, and row-major
    vec(tau B tau^-1) = (tau (x) tau^-T) vec(B), whose rows (a, b, c, d)
    _swapped_tensor reorders to (a, c, b, d), End(T|F)'s flat index
    (v, a, c) and End(T|G)'s (w, b, d).  Family k so restricted is a matrix
    Y, and Y = B_F x B_G^T for the row k of mu, x; mu's sparse columns are
    read off those rows.  ProductEscape reports a family with no such x.
    """
    EF, EG, EH = ctx.end(subF), ctx.end(subG), ctx.end(subH)
    hvs, nG = set(subH.vertices), EG.total
    restrict = [{} for _ in range(EH.total)]
    for v in subF.vertices:
        for w in subG.vertices:
            vw = ctx.product_vertex(v, w)
            if vw not in hvs:
                raise MissingProducts("product vertex %r of (%r, %r) is outside H"
                                      % (vw, v, w))
            t, rv, rw = ctx.tau(v, w), ctx.rep.rank(v), ctx.rep.rank(w)
            f0, g0, h0 = EF.offsets[v], EG.offsets[w], EH.offsets[vw]
            for xy, col in enumerate(_swapped_tensor(
                    t.columns, _transpose(t.inverse_columns, rv * rw), rv, rw, rv, rw)):
                for i, y in col.items():
                    f, g = divmod(i, rw * rw)
                    restrict[h0 + xy][(f0 + f) * nG + g0 + g] = y
    rows = []
    for k, image in enumerate(_compose(restrict, EH.basis_columns)):
        x = _tensor_coordinates(image, nG, EF._solver, EG._solver)
        if x is None:
            raise ProductEscape("family %d of End(T|H) leaves End(T|F) (x) End(T|G)" % k)
        rows.append(x)
    return MuFragment(EF, EG, EH, _transpose(rows, EF.dim * EG.dim))


# -- bialgebra certificate ----------------------------------------------------

class BialgebraCert:
    __slots__ = ("checks", "violations")

    def __init__(self):
        self.checks = []
        self.violations = []

    def record(self, name, ok, detail=""):
        self.checks.append({"name": name, "ok": ok, "detail": detail})
        if not ok:
            self.violations.append(name)

    @property
    def ok(self):
        return not self.violations

    def as_dict(self):
        return {"ok": self.ok, "checks": self.checks}


def check_fragment_bialgebra(ctx, mu: MuFragment, cert=None, label=""):
    """Delta o mu = (mu (x) mu) (1 swap 1) (Delta (x) Delta); eps o mu = eps (x) eps.

    That is, mu is a coalgebra morphism out of the tensor coalgebra
    A_F (x) A_G, whose comultiplication (1 swap 1)(Delta_F (x) Delta_G) and
    counit eps_F (x) eps_G are built as sparse columns by _swapped_tensor;
    tannaka._coalgebra_morphism, which checks every transition, checks it.
    """
    AF, AG, AH = mu.EF.coalgebra(), mu.EG.coalgebra(), mu.EH.coalgebra()
    cert = BialgebraCert() if cert is None else cert
    rf, rg = AF.rank, AG.rank
    comultiplicative, counital = _coalgebra_morphism(
        mu.columns, _swapped_tensor(AF.delta_columns, AG.delta_columns, rf, rf, rg, rg),
        _swapped_tensor(AF.counit_columns, AG.counit_columns, 1, 1, 1, 1), AH)
    cert.record("delta-mu%s" % label, comultiplicative)
    cert.record("epsilon-mu%s" % label, counital)
    return cert


def check_commutativity(ctx, muFG: MuFragment, muGF: MuFragment, cert=None,
                        label=""):
    """mu_{F,G} = mu_{G,F} o flip after landing in the same truncation."""
    cert = BialgebraCert() if cert is None else cert
    if muFG.EH is not muGF.EH and muFG.EH.sub.vertices != muGF.EH.sub.vertices:
        raise InputError("commutativity check needs a common target truncation")
    flip = tensor_swap(1, muFG.EG.dim, muFG.EF.dim, 1)
    cert.record("commutativity%s" % label, muFG.columns == [muGF.columns[j] for j in flip])
    return cert


def check_unit_grouplike(ctx, unit_vertex, sub, cert=None, label=""):
    """The image of the canonical unit element is grouplike in A_sub."""
    cert = BialgebraCert() if cert is None else cert
    EU, Esub = ctx.end(Subdiagram(ctx.diagram, [unit_vertex])), ctx.end(sub)
    if EU.coalgebra().rank != 1:
        raise WrongRank("unit truncation must have rank 1")
    A = Esub.coalgebra()
    unit_img = _apply(transition_map(ctx.rep, EU, Esub).columns, (1,), A.rank)
    cert.record("unit-grouplike%s" % label, A.grouplike_defect(unit_img).is_zero())
    cert.record("unit-counit%s" % label, A.counit_of(unit_img) == 1)
    return cert


def bialgebra_axiom_check(ctx: PairsContext, tower, unit_vertex=None) -> BialgebraCert:
    """Run every bialgebra check the tower supports.

    tower: list of Subdiagrams ordered by inclusion.  For every ordered pair
    (F, G) from the tower whose products all land in some tower member H the
    fragment mu_{F,G->H} is computed and checked; mirrored pairs yield
    commutativity checks; the unit vertex (if given) grouplike checks.  A
    tower that supports none of these raises MissingProducts, so that no
    certificate is given for a tower that was never checked.
    """
    cert = BialgebraCert()
    fragments = {}
    for i, F in enumerate(tower):
        for j, G in enumerate(tower):
            try:
                needed = {ctx.product_vertex(v, w) for v in F.vertices for w in G.vertices}
            except MissingProducts:
                continue
            host = next((H for H in tower if needed <= set(H.vertices)), None)
            if host is None:
                continue
            mu = product_on_truncations(ctx, F, G, host)
            fragments[(i, j)] = mu
            check_fragment_bialgebra(ctx, mu, cert=cert,
                                     label="[F%d,F%d]" % (i, j))
    for (i, j), mu in fragments.items():
        mirror = fragments.get((j, i))
        if mirror is not None and \
           mirror.EH.sub.vertices == mu.EH.sub.vertices:
            check_commutativity(ctx, mu, mirror, cert=cert,
                                label="[F%d,F%d]" % (i, j))
    if unit_vertex is not None:
        for i, F in enumerate(tower):
            if unit_vertex in F.vertices:
                check_unit_grouplike(ctx, unit_vertex, F, cert=cert,
                                     label="[F%d]" % i)
    if not cert.checks:
        raise MissingProducts("no pair of truncations has its products in the tower, "
                              "and no truncation holds a unit vertex")
    return cert


# -- sigma --------------------------------------------------------------------

class SigmaSystem:
    """Multiplication by sigma along a chain of truncations: its steps as
    (sparse columns, row count), kernel reports, and .steps, a dense view."""

    __slots__ = ("ring", "maps", "kernels")

    def __init__(self, ring, maps, kernels):
        self.ring, self.maps, self.kernels = ring, maps, kernels

    @property
    def steps(self):
        return [Matrix.from_sparse(self.ring, cols, rows) for cols, rows in self.maps]


def sigma_directed_system(ctx: PairsContext, chain, depth) -> SigmaSystem:
    """Multiplication-by-sigma maps A_{F_k} -> A_{F_{k+1}} with kernel reports.

    chain: Subdiagrams F_0 <= F_1 <= ...; each F_k must contain the circle
    vertex and F_{k+1} all products v x circle for v in F_k.  depth bounds
    how many steps are materialized; kernel reports list, per starting
    truncation, the rank of the kernel of the composite to the end of the
    materialized chain (elements dying within the given depth).
    """
    if depth < 0:
        raise InputError("depth must be at least 0, got %d" % depth)
    c = ctx.circle
    if c is None:
        raise InputError("no circle vertex designated")
    maps = []
    nsteps = min(depth, len(chain) - 1)
    for k in range(nsteps):
        F, Fnext = chain[k], chain[k + 1]
        if c not in F.vertices:
            raise InputError("chain member %d misses the circle vertex" % k)
        if not k:       # the circle's subdiagram and sigma are the same at every step
            C = Subdiagram(ctx.diagram, [c])
            coords = sigma_element(ctx, C).coords
            sig, rc = [{j: x for j, x in enumerate(coords) if x}], len(coords)
        mu = product_on_truncations(ctx, F, C, Fnext)
        # column i of mu (1 (x) sigma): mu applied to e_i (x) sigma
        maps.append((_compose(mu.columns, [_tensor_apply(None, sig, rc, 1, {i: 1})
                                           for i in range(ctx.end(F).dim)]), mu.EH.dim))
    # the composite from each start to the end of the chain has as kernel
    # rank its column count less its rank, the pivots of _echelon on its
    # columns taken as rows
    kernels, comp = [], None
    for k in reversed(range(len(maps))):
        comp = maps[k][0] if comp is None else _compose(comp, maps[k][0])
        kernels.insert(0, {"from": k, "kernel_rank":
                           len(comp) - len(_echelon(_integral(comp), ctx.ring)[0])})
    return SigmaSystem(ctx.ring, maps, kernels)


# -- the towers of a corpus, and the commands ---------------------------------

def corpus_tower(corpus, name, ring):
    """Corpus.tower: (context, truncations ordered by inclusion, unit vertex
    or None) of the tower `name`."""
    sec = corpus._tower_decls.get(name)
    if sec is None:
        raise InputError("unknown tower %r" % name)
    dname = sec.require("diagram")
    ctx = corpus.context(dname, ring)
    subs = []
    for sname in _split_entries(sec.require("truncations"), " "):
        _, sub = corpus.subdiagram(sname, ring)
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


def cmd_bialgebra_check(corpus, ring, args):
    """The bialgebra-check command: every check a tower supports."""
    ctx, tower, unit = corpus.tower(args.tower, ring)
    cert = bialgebra_axiom_check(ctx, tower, unit_vertex=unit)
    return {"tower": args.tower, "certificate": cert.as_dict()}, cert.ok


def cmd_sigma_system(corpus, ring, args):
    """The sigma-system command: the multiplication-by-sigma steps along a
    tower, with their kernel reports."""
    ctx, tower, _unit = corpus.tower(args.tower, ring)
    system = sigma_directed_system(ctx, tower, args.depth)
    res = {"tower": args.tower, "depth": args.depth,
           "steps": [jmatrix(m) for m in system.steps],
           "kernels": system.kernels}
    ok = all(k["kernel_rank"] == 0 for k in system.kernels)
    return res, ok
