"""tannakit: exact relative simplicial homology, Basic-Lemma filtrations,
Cech total-complex models and diagram Tannaka duality, with machine-checkable
certificates for everything computed.  `linalg` and `simplicial` load with the
package; every other layer, the cup products and Cech models of `cochains`
and the Smith normal form of `smith` included, loads on first use of one of
its names (PEP 562)."""

__version__ = "0.1.0"

from .linalg import (                                           # noqa: F401
    QQ, ZZ, FgModule, Matrix, ModuleMap, Subquotient, dual_map, kernel,
    subquotient,
)
from .simplicial import (                                       # noqa: F401
    ChainComplex, Filtration, SimplicialComplex, SimplicialMap, SimplicialPair,
    ez_aw_maps, induced_map_on_homology, les_exactness, product_pair,
    relative_chain_complex, relative_homology, triple_boundary,
)

_LAZY = {name: module for module, names in {
    "cochains": "cech_total_complex relative_cup_product",
    "filtration": "compare_filtration_homology filtration_complex "
                  "find_very_good_refinement is_very_good_pair "
                  "product_filtration pushforward_filtration very_good_report",
    "tannaka": "CoalgebraTrunc Diagram DiagramRep EndAlgebra PairsContext "
               "Subdiagram build_pairs_diagram coaction dual_coalgebra "
               "end_algebra factorization_check transition_map",
    "bialgebra": "TauIso bialgebra_axiom_check kunneth_tau "
                 "product_on_truncations sigma_directed_system sigma_element",
    "comodule": "Comodule check_comodule_axioms extended_comodule "
                "tensor_comodules torsionfree_cover",
    "corpus": "Corpus load_corpus",
    "smith": "SmithForm smith_normal_form",
}.items() for name in names.split()}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module
    return getattr(import_module("." + _LAZY[name], __name__), name)
