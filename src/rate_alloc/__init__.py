"""Measurement-bounds-proportional sampling budgets for block compressed sensing.

The library splits an image into B x B blocks, estimates each block's
sparsity in the DCT domain, converts sparsity to classical measurement
bounds, and apportions an integer measurement budget in proportion to
those bounds.  A multi-stage protocol re-optimizes the allocation
mid-sampling by solving a KL-divergence program with a hybrid
Newton/bisection root-finder.
"""

from .analysis import (
    Analysis,
    BoundsProfile,
    CurveParams,
    DEFAULT_CURVE,
    SparsityProfile,
    analyze,
    bounds_profile,
    measurement_bounds,
    solve_threshold,
    sparsity_profile,
    sparsity_ratio,
    target_sparsity_ratio,
)
from .allocation import (
    AllocationPlan,
    apportion,
    proportional_shares,
    round_half_up,
    single_stage_plan,
    uniform_plan,
)
from .imaging import (
    BlockGrid,
    Image,
    assemble,
    dct2,
    dct2_blocks,
    idct2,
    load_pgm,
    partition,
    save_pgm,
)
from .kl_solver import (
    InfeasibleProblemError,
    KlAllocProblem,
    KlAllocSolution,
    kkt_residual,
    newton_step,
    objective,
    oracle_solve,
    q_of_mu,
    q_total,
    solve,
)
from .multistage import (
    BoundsPredictor,
    EnergyBoundsPredictor,
    MultiStagePlan,
    OracleBoundsPredictor,
    StageState,
    fixed_ratio,
    kl_diagnostic,
    mixing_coeffs,
    run_simulation,
    stage_rate,
    upper_bounds,
)
from .sensing import (
    MeasurementMatrix,
    Measurements,
    adjoint_reconstruct,
    build_matrix,
    psnr,
    reconstruct_plan,
    sample_plan,
    sample_rows,
)
from .synthetic import synthetic_image

__version__ = "0.1.0"
