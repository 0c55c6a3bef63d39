"""Exact relations, links and solvers for planar thermoelectric composites.

The package verifies the full catalog of rotation-invariant exact
relations for 2D thermoelectricity and implements the two applications
that follow from it: the unique isotropic-polycrystal effective tensor
and the case analysis for two-phase composites of isotropic materials.
Laminate homogenization provides the in-package oracle for every claim.
"""

from .tensor4 import (KTensor, I2, I4, RPERP, T4, Z0, Z0SYM, phi, psi,
                      kt_to_block, kt_from_block, kt_mul, kt_transpose,
                      kt_inverse, block_inverse, is_positive_definite,
                      rotate, rotate_block, jordan_star)
from .materials import (Material, IsoMaterial, canon_from_physical,
                        physical_from_canon, figure_of_merit, zt_isotropic)
from .algebra import (catalog, algebra_by_id, check_closure, is_subalgebra,
                      check_ideal, is_ideal, find_inversion_key, check_chain,
                      global_automorphism)
from .exactrel import (ER_IDS, er_spec, er_member, er_sample, lm_par,
                       lm_unpar, w_transform, w_inverse, covariance, gamma0)
from .linkgroup import (LinkMap, psi_apply, psi_compose, psi_inverse,
                        psi_normalizer, link13_volume_fraction,
                        link19_family, link19_conductivity, link21_factor)
from .laminate import (Leaf, Mix, laminate2, laminate_tree, RankOneModel,
                       IteratedRank2Model, conduct2)
from .twophase import IsoPhase, IsoPhasePair, classify, effective, reduce_pair
from .polycrystal import solve_isotropic, special_quartic, b_op, b_charpoly

__version__ = "0.1.0"
