"""Exact arithmetic for even integral lattices around K3 moduli computations.

Public names load on first access (PEP 562), so ``import k3lat`` compiles
no submodule and each command loads only the modules it runs.
"""

from importlib import import_module

_SOURCES = {
    "e8": ("OrbitClass", "complement_of", "dominant_representative", "orbits_of_norm"),
    "glue": ("CosetCountTable", "DivisorCell", "DivisorReport", "coset_count_row",
             "divisor_classes", "dual_coset_counts", "hyperplane_multiplicity",
             "nikulin_embeddable", "nikulin_minus2_property", "restricted_weight"),
    "lattice": ("E6", "E7", "E8", "H", "DiscriminantGroup", "Lattice", "determinant",
                "direct_sum", "discriminant_group", "dual_basis", "from_gram", "ii",
                "is_primitive_vector", "load_gram_file", "orthogonal_complement",
                "rank1", "rescale", "signature", "sublattice"),
    "sbad": ("ExtensionWitness", "is_sbad_extension", "normalize_degree",
             "polarized_bad", "possible_extension_norms"),
    "shortvec": ("NormHistogram", "rational_cholesky", "root_count", "short_vectors"),
    "specparse": ("LatticeSpec", "lattice_from_text", "parse_spec", "print_spec"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
