"""Exact relations, links and solvers for planar thermoelectric composites.

The package verifies the full catalog of rotation-invariant exact
relations for 2D thermoelectricity and implements the two applications
that follow from it: the unique isotropic-polycrystal effective tensor
and the case analysis for two-phase composites of isotropic materials.
Laminate homogenization provides the in-package oracle for every claim.

``import thermoex`` loads no submodule, so ``python -m thermoex.cli``
compiles only the modules its subcommand uses.  The first lookup of an
exported name or a submodule name on the package (``thermoex.laminate_tree``,
``from thermoex import algebra``, ``from thermoex import *``) loads all
submodules and binds every exported name, after which the package behaves
as if it had imported them eagerly.
"""

__version__ = "0.1.0"

# exported name -> home module
_HOME = {name: home for home, names in {
    "tensor4": ("DomainError", "KTensor", "I2", "I4", "RPERP", "T4", "Z0",
                "Z0SYM", "phi", "psi", "kt_to_block", "kt_from_block", "kt_mul",
                "kt_transpose", "kt_inverse", "block_inverse",
                "is_positive_definite", "rotate", "rotate_block",
                "jordan_star", "gamma0"),
    "materials": ("Material", "canon_from_physical",
                  "physical_from_canon", "figure_of_merit", "zt_isotropic"),
    "algebra": ("catalog", "algebra_by_id", "check_closure", "is_subalgebra",
                "check_ideal", "is_ideal", "find_inversion_key", "check_chain",
                "global_automorphism"),
    "exactrel": ("ER_IDS", "er_spec", "er_member", "er_sample", "lm_par",
                 "lm_unpar", "w_transform", "w_inverse", "covariance"),
    "linkgroup": ("LinkMap", "psi_apply", "psi_compose", "psi_inverse",
                  "psi_normalizer", "link13_volume_fraction", "link19_family",
                  "link19_conductivity", "link21_factor"),
    "laminate": ("Leaf", "Mix", "laminate2", "laminate_tree", "RankOneModel",
                 "IteratedRank2Model", "conduct2"),
    "twophase": ("IsoPhase", "IsoPhasePair", "classify", "effective",
                 "reduce_pair"),
    "polycrystal": ("solve_isotropic", "special_quartic", "b_op",
                    "b_charpoly"),
}.items() for name in names}
_MODULES = tuple(dict.fromkeys(_HOME.values()))

__all__ = [*_HOME, *_MODULES]


def __getattr__(name):
    # Called only for names not yet bound: after the first load every
    # exported name is a plain global.  The load is all-or-nothing so
    # that wrappers installed by identity (bench/tracing.py) see every
    # module and every binding at once.
    if name not in _HOME and name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    for home in _MODULES:
        importlib.import_module(f"{__name__}.{home}")
    g = globals()
    for attr, home in _HOME.items():
        g[attr] = getattr(g[home], attr)
    return g[name]


def __dir__():
    return sorted({*globals(), *__all__})
