"""Exact arithmetic for even integral lattices around K3 moduli computations."""

from .e8 import OrbitClass, complement_of, dominant_representative, orbits_of_norm
from .glue import (
    CosetCountTable,
    DivisorCell,
    DivisorReport,
    coset_count_row,
    divisor_classes,
    dual_coset_counts,
    hyperplane_multiplicity,
    nikulin_embeddable,
    nikulin_minus2_property,
    restricted_weight,
)
from .lattice import (
    E6,
    E7,
    E8,
    H,
    DiscriminantGroup,
    Lattice,
    determinant,
    direct_sum,
    discriminant_group,
    dual_basis,
    from_gram,
    ii,
    is_primitive_vector,
    load_gram_file,
    orthogonal_complement,
    rank1,
    rescale,
    signature,
    sublattice,
)
from .sbad import (
    ExtensionWitness,
    is_sbad_extension,
    normalize_degree,
    polarized_bad,
    possible_extension_norms,
)
from .shortvec import NormHistogram, rational_cholesky, root_count, short_vectors
from .specparse import LatticeSpec, lattice_from_text, parse_spec, print_spec

__version__ = "0.1.0"
