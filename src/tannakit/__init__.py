"""tannakit: exact relative simplicial homology, Basic-Lemma filtrations,
Cech total-complex models and diagram Tannaka duality, with machine-checkable
certificates for everything computed.  `linalg` and `simplicial`, which
compute homology modules, load with the package; every other layer loads on
first use of one of its names (PEP 562): `maps` (coordinates, module maps,
induced maps, tensors), the long exact sequence of `les`, the cup products
and Cech models of `cochains` and the Smith normal form of `smith` included."""

__version__ = "0.1.0"


# defined before the imports below: linalg and simplicial take it from the
# package while the package is still initialising
def _lazy(module, owners):
    """The module __getattr__ of module: each name in owners {layer: "name
    name ..."} is read from that layer of the package, imported on first
    use; any other name raises AttributeError."""
    layer = {name: mod for mod, names in owners.items() for name in names.split()}

    def __getattr__(name):
        if name not in layer:
            raise AttributeError("module %r has no attribute %r" % (module, name))
        from importlib import import_module
        return getattr(import_module("." + layer[name], __name__), name)
    return __getattr__


from .linalg import QQ, ZZ, FgModule, Matrix, Subquotient     # noqa: F401
from .simplicial import (                                       # noqa: F401
    ChainComplex, Filtration, SimplicialComplex, SimplicialMap, SimplicialPair,
    product_pair, relative_chain_complex, relative_homology,
)

__getattr__ = _lazy(__name__, {
    "maps": "ModuleMap dual_map ez_aw_maps induced_map_on_homology kernel subquotient "
            "triple_boundary",
    "les": "les_exactness",
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
})
