"""homstruct: exact-arithmetic verification of twisted algebraic structures.

The package represents finite-dimensional algebras, coalgebras,
bialgebras, dialgebras and their twisted relatives by structure
constants over exact fields (rationals or prime fields), checks every
defining identity on basis tuples with counterexample witnesses,
executes the standard constructions (composition twists, unit-adjoining
bialgebra extensions, derived brackets), and exhaustively enumerates
small structures over prime fields.
"""

__version__ = "0.1.0"

from .fields import QQ, PrimeField, RationalField, parse_field
from .linalg import (CoproductTensor, LinearMap, ProductTensor, Tensor2,
                     Tensor3, Vector, apply_bilinear, apply_coproduct,
                     basis_vector, compose, identity_map, kron,
                     tensors_equal, zero_vector)
from .structures import (AffineStructure, DifferentialHomAlgebra, HLSDA,
                         HomAlgebra, HomBialgebra, HomCoalgebra,
                         HomDialgebra, HomLeibniz, HomPreLie, Morphism,
                         TwoHomStructure, counit_map, is_valid,
                         is_unit_extension_eligible, unit_vector, validate)
from .axioms import (CHECK_IDS, Verdict, Witness, check_morphism,
                     classify_two_hom, default_check, run_check)
from .constructions import (affine_from_hlsda, assemble_two,
                            bracket_from_dialgebra, construct,
                            dialgebra_from_differential, hlsda_from_affine,
                            kaplansky_k1, kaplansky_k2,
                            leibniz_from_differential, opposite, coopposite,
                            tensor_product, trivial_dialgebra, yau_twist)
from .search import SearchSpec, enumerate_structures, find_morphisms
