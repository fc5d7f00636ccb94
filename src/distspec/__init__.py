"""distspec: distance matrices of graphs, exactly and numerically.

Generators for the classical distance-regular and clique-path families,
closed-form distance spectra with exact values, one exact integer kernel
(a multi-modular characteristic polynomial, its modulus sized by a modular
rank, for determinant, inertia and distinct eigenvalues), a self-contained
eigensolver (Householder tridiagonalization and Sturm counts, with a
normwise error bound) used as the numeric oracle, strongly-regular parameter
analysis, and zero-forcing based bounds on the number of distinct distance
eigenvalues.
"""

from .distances import (DisconnectedError, distance_matrix, format_matrix,
                        parse_matrix)
from .exact import Inertia, det_exact, distinct_eigenvalue_count, inertia_exact
from .graphs import (Graph, GraphError, cartesian_product, complement,
                     complete, cocktail_party, cycle, dodecahedron, double_odd,
                     doob, generalized_barbell, halved_cube, hamming,
                     hypercube, hypercube_with_leaf, icosahedron, johnson,
                     kneser, lollipop, make_graph, odd_graph, path, petersen,
                     shrikhande, tensor_product)
from .jacobi import sym_eigenvalues
from .spectra import (QuadraticNumber, Spectrum, cluster_to_spectrum,
                      max_deviation, spectra_match)
from . import bounds, closedforms, srg

__version__ = "0.1.0"
