"""scatlin: exact computational toolkit for scattered linearized polynomials
over F_{q^6}, their linear sets, and the rank-metric codes they generate.

Quick start::

    from scatlin import make_field, family_poly, is_scattered_oracle

    F = make_field(5, 1)                       # F_{5^6} with its tower
    f = family_poly(F, "new_fh", 2)            # h = 2: h^(q^3+1) = -1
    print(is_scattered_oracle(f).scattered)    # True
"""

__version__ = "0.1.0"

from .errors import *  # noqa: F401,F403
from .gf import Field, FieldElem, make_field, parse_field_spec
from .qpoly import QPoly
from .scatter import (WeightSpectrum, is_scattered, is_scattered_dickson,
                      is_scattered_oracle, point_weight, weight_spectrum)
from .family import (enumerate_h, family_poly, lemma1_checks, lemma_roots,
                     u4_deltas)
from .geom import ProjSubspace, gamma_of, intersect, intn, sigma_hat, vertex
from .equiv import (EquivResult, EquivWitness, check_system_L4, gl_equivalent,
                    pgl_linear_sets_equivalent, verify_witness)
from .mrd import RankCode, code_from, idealisers, mrd_report, rank_distribution
