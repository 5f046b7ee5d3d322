"""Exact-arithmetic toolkit for star configurations apolar to generic forms.

Decides, for a triple (d, r, n), whether the generic degree-d form in n+1
variables admits an apolar star configuration of r hyperplanes, and
constructs, verifies, and decomposes explicit examples exactly: annihilator
ideals by catalecticant kernels, configuration ideals two independent ways,
Waring decompositions over supplied point sets, and a randomized Jacobian
rank test over a large prime field for the existence question itself.
"""

from .field import (DEFAULT_PRIME, DEFAULT_SEED, Fp, Jet, is_prime,
                    random_scalar)
from .poly import (DUAL, PRIMAL, Form, HomogeneityError, ParseError, contract,
                   format_form, monomial_basis, parse_form)
from .apolar import (CatalecticantMatrix, PerpGradedPiece, WaringDecomposition,
                     annihilates, catalecticant, ideal_piece_dimension,
                     is_apolar_ideal_contained, perp_piece, solve_waring,
                     verify_perp_generators)
from .starconfig import (GeneralPositionError, HilbertFunctionTable,
                         HyperplaneSet, StarPoint, general_position_violation,
                         hilbert_function, intersection_points,
                         point_ideal_piece, random_hyperplanes,
                         star_ideal_product_generators)
from .existence import (ClassificationVerdict, JacobianTestReport, Verdict,
                        classify, gamma_coefficients, jacobian_rank_test,
                        parameter_count, rho, rho_n2)

__version__ = "0.1.0"
