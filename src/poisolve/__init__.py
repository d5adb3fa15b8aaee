"""Learned-correction iterative solvers for 2D Poisson problems.

Classical Jacobi and multigrid baselines are wrapped with a trained linear
convolutional correction of their own update. The wrapping preserves the
baseline's fixed point for every choice of weights, so a converged answer
is always correct; training only buys speed. That holds exactly in exact
arithmetic; in float64 the fixed point holds to rounding times the gain
of the masked correction, and certification refuses a model whose gain
breaks it. The spectral module turns that guarantee into executable
certification, and the bench module reproduces cost-ratio comparisons
against the classical baselines.
"""

from .grid import (
    CostReport,
    Field,
    FileFormatError,
    Problem,
    laplacian_apply,
    load_field,
    load_problem,
    make_problem,
    relative_error,
    reset,
    residual_norms,
    save_field,
    save_problem,
)
from .iterators import (
    Iterator,
    JacobiIterator,
    MultigridIterator,
    ground_truth,
    jacobi_step,
    solve_to_tol,
)
from .model import (
    CorrectionModel,
    PhiIterator,
    apply_H,
    init_model,
    load_model,
    model_cost,
    quarter_cross_model,
    save_model,
    scale_model,
    zero_model,
)
from .spectral import (
    LinearPart,
    ValidityVerdict,
    certify,
    linear_part,
    materialize_dense,
    spectral_norm,
    spectral_radius,
)
from .training import (
    TrainConfig,
    TrainSample,
    default_config,
    loss,
    sample_square_problem,
    train,
)
from .geometry import GeometrySpec, generate, random_geometry
from .bench import BenchResult, run_benchmark, write_bench_csv

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
