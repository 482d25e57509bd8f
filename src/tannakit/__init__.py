"""tannakit: exact relative simplicial homology, Basic-Lemma filtrations,
Cech total-complex models and diagram Tannaka duality, with machine-checkable
certificates for everything computed.  `linalg` and `simplicial` load with
the package; every other public name is read from the module that owns it,
imported on first use (PEP 562)."""

from importlib import import_module as _import_module

__version__ = "0.1.0"


# defined before the imports below: linalg and simplicial take these from the
# package while the package is still initialising
def _lazy(module, owners):
    """The module __getattr__ of module: each name in owners {layer: "name
    name ..."} is read from that layer of the package, imported on first
    use; any other name raises AttributeError."""
    layer = {name: mod for mod, names in owners.items() for name in names.split()}

    def __getattr__(name):
        if name not in layer:
            raise AttributeError("module %r has no attribute %r" % (module, name))
        return getattr(_import_module("." + layer[name], __name__), name)
    return __getattr__


def _deferred(module, name):
    """A function that calls `name` of the package's layer `module`, imported
    on the first call; as a class attribute it is a method, called with the
    instance first."""
    return lambda *args: getattr(_import_module("." + module, __name__), name)(*args)


from .linalg import QQ, ZZ, FgModule, Subquotient             # noqa: F401
from .simplicial import (                                       # noqa: F401
    ChainComplex, SimplicialComplex, SimplicialPair, product_pair, relative_chain_complex,
    relative_homology,
)

__getattr__ = _lazy(__name__, {
    "matrix": "Matrix",
    "maps": "ModuleMap dual_map induced_map_on_homology kernel subquotient triple_boundary",
    "kunneth": "TauIso ez_aw_maps kunneth_tau",
    "structures": "Filtration SimplicialMap",
    "les": "les_exactness",
    "cochains": "relative_cup_product",
    "cech": "cech_total_complex",
    "filtration": "compare_filtration_homology filtration_complex is_very_good_pair "
                  "very_good_report",
    "filtration_maps": "product_filtration pushforward_filtration",
    "search": "find_very_good_refinement",
    "tannaka": "Diagram DiagramRep EndAlgebra PairsContext Subdiagram build_pairs_diagram "
               "end_algebra",
    "coalgebra": "CoalgebraTrunc Comodule coaction dual_coalgebra",
    "transition": "factorization_check transition_map",
    "bialgebra": "bialgebra_axiom_check product_on_truncations sigma_directed_system",
    "sigma": "sigma_element",
    "comodule": "check_comodule_axioms extended_comodule tensor_comodules torsionfree_cover",
    "corpus": "Corpus load_corpus",
    "smith": "SmithForm smith_normal_form",
})
