"""Bifurcation analysis of delay-coupled oscillator networks.

Networks of N identical second-order phase-locked loops with a shared
transmission delay are fully permutation-symmetric, which splits their
characteristic functions into a synchronized block and an (N-1)-fold
symmetry-breaking block.  This package finds where those blocks cross the
imaginary axis (Hopf and steady-state bifurcations), certifies rightmost
roots and unstable-root counts, follows the locked states of the reduced
phase formulations, and integrates all model variants directly to validate
the predicted orbits and their spatio-temporal symmetry.
"""

from .charfun import (
    BlockKind,
    BlockSet,
    QuasiPolynomial,
    block_product,
    blocks_from_gain,
    build_blocks,
    constant_quasi_polynomial,
    full_determinant,
    isotypic_basis,
    linearization_matrices,
)
from .errors import (
    BoundaryRootError,
    BranchDomainError,
    DegenerateCrossingError,
    DegenerateSError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidParamError,
    NoConvergenceError,
    NoEquilibriumError,
    NonFiniteError,
    NotPeriodicError,
    PllbifError,
    UnsupportedKindError,
)
from .model import (
    Branch,
    Equilibrium,
    ModelKind,
    NetworkParams,
    compile_rhs,
    difference_pairs,
    equilibria,
    equilibrium,
    normalize,
    rhs,
    state_dim,
)
from .phasediff import (
    FictitiousRoot,
    determinant_n3,
    fictitious_roots,
)
from .phasemodel import (
    CurveSample,
    PhaseCrossing,
    RelEqBranch,
    ZeroRootEvent,
    equilibrium_case_curves,
    releq_branches,
    releq_solve,
    relative_hopf_scan,
    zero_root_taus,
)
from .orbit import (
    OrbitProfile,
    fit_profile,
    refine_orbit,
)
from .simulator import (
    HistorySpec,
    SymmetryClass,
    SymmetryTag,
    Trajectory,
    equilibrium_state,
    integrate,
    isotypic_direction,
    pair_difference_direction,
    period_estimate,
    symmetry_classify,
    sync_direction,
)
from .snmap import (
    CrossingCandidate,
    CurveRow,
    OmegaCandidate,
    RegionBoundaries,
    RootBranch,
    bifurcation_curves,
    crossing_angle,
    omega_candidates,
    region_boundaries,
    sn_scan,
    tau_candidates,
    transversality,
)
from .spectrum import (
    CensusBox,
    SpectrumEstimate,
    SweepRow,
    lambert_w,
    rightmost_root,
    rightmost_sweep,
    root_census,
    unstable_count,
)

__version__ = "0.1.0"
