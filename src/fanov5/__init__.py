"""Exact-arithmetic toolkit for the degree-5 Fano threefold and Gr(2,5).

Five layers, importable separately:

  * :mod:`fanov5.weights`  -- SL(n) weights, dominantization, Weyl dimensions;
  * :mod:`fanov5.bundles`  -- equivariant bundles on Gr(k,n) and their cohomology;
  * :mod:`fanov5.koszul`   -- restriction to linear sections, Ulrich-style vanishing;
  * :mod:`fanov5.chow`     -- Chow ring, Riemann-Roch, Chern-class bookkeeping;
  * :mod:`fanov5.quiver`   -- the 3-arrow Kronecker quiver and King stability.

Everything is exact (ints and fractions); nothing is floating point.
"""

from .bundles import (
    CATALOG_NAMES,
    CohomologyTable,
    EquivariantBundle,
    bundle_rank,
    catalog,
    cohomology,
    twist,
)
from .chow import (
    BundleClass,
    ChowClass,
    catalog_class,
    ch_dual,
    ch_tensor,
    chi,
    chi_ch,
    coker_class,
    euler_pairing,
    todd_v5,
    twist_class,
    ulrich_class,
)
from .koszul import (
    KoszulPage,
    RestrictionResult,
    RestrictionStatus,
    UlrichStatus,
    UlrichVerdict,
    koszul_page,
    restrict_cohomology,
    ulrich_check,
)
from .linalg import QQ, PrimeField
from .quiver import (
    QuiverRep,
    Stability,
    StabilityVerdict,
    check_stability,
    euler_form,
    hom_ext,
    moduli_dim,
    random_rep,
    theta,
)
from .weights import (
    DominantizationResult,
    Weight,
    apply_simple_reflection,
    dominantize,
    reflection_chain,
    rho,
    weyl_dim,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG_NAMES",
    "BundleClass",
    "ChowClass",
    "CohomologyTable",
    "DominantizationResult",
    "EquivariantBundle",
    "KoszulPage",
    "PrimeField",
    "QQ",
    "QuiverRep",
    "RestrictionResult",
    "RestrictionStatus",
    "Stability",
    "StabilityVerdict",
    "UlrichStatus",
    "UlrichVerdict",
    "Weight",
    "apply_simple_reflection",
    "bundle_rank",
    "catalog",
    "catalog_class",
    "ch_dual",
    "ch_tensor",
    "check_stability",
    "chi",
    "chi_ch",
    "cohomology",
    "coker_class",
    "dominantize",
    "euler_form",
    "euler_pairing",
    "hom_ext",
    "koszul_page",
    "moduli_dim",
    "random_rep",
    "reflection_chain",
    "restrict_cohomology",
    "rho",
    "theta",
    "todd_v5",
    "twist",
    "twist_class",
    "ulrich_check",
    "ulrich_class",
    "weyl_dim",
]
