"""Continual memory on Gaussian-mixture protocol grids.

A day's knowledge is a Gaussian mixture; memory is a piecewise-linear
path of mixtures over [0, 1] held at L + 1 nodes. Each day the path is
compressed, the new day appended at t = 1, and the result rebinned back
to L + 1 nodes. Old days are replayed by evaluating the path at their
geometrically contracting readout times, and recall quality is scored
against an amnesia baseline. The dynamics module reconstructs the
drift of the time-dependent mixture so replay can also be run as an SDE.
"""

from .dynamics import (
    PathSlice, Trajectory, drift_with_stats, fp_residual, integrate_sde, movie_frames,
    path_slice, poisson_psi_grad, psi_potential, sample_bulk_points, shape_current,
)
from .errors import ConfigError, NumericalError
from .gm import (
    DENSITY_FLOOR, GaussianMixture, Moments, mixture_moments, stack_mixtures, validate,
    validate_arrays,
)
from .harness import (
    RunConfig, RunResult, SweepResult, build_final_state, capacity_diagnostics, daily_states,
    export, fifo_baseline, restore_state, run_experiment, snapshot_state, stream_targets, sweep,
)
from .metrics import (
    RECORD_DTYPE, AgeCurve, age_curve, channel_shares, day_records, decomposed_forgetting,
    half_life, match_components, moment_gap, score_recall,
)
from .protocol import (
    MemoryState, ProtocolGrid, add, eval_at, incorporate, memory_footprint, new_memory,
    readout_time, rebin_indices, rebin_matrix, replay, replay_block, smooth, stored_pairs,
)
from .streams import (
    StreamConfig, class_prior, default_prior, generate, load_gm_file, make_config, save_gm_file,
    synthetic_class_mixture,
)

__all__ = [
    # gm
    "DENSITY_FLOOR", "GaussianMixture", "Moments", "mixture_moments", "stack_mixtures",
    "validate", "validate_arrays",
    # protocol
    "MemoryState", "ProtocolGrid", "add", "eval_at", "incorporate", "memory_footprint",
    "new_memory", "readout_time", "rebin_indices", "rebin_matrix", "replay", "replay_block",
    "smooth", "stored_pairs",
    # metrics
    "RECORD_DTYPE", "AgeCurve", "age_curve", "channel_shares", "day_records",
    "decomposed_forgetting", "half_life", "match_components", "moment_gap", "score_recall",
    # streams
    "StreamConfig", "class_prior", "default_prior", "generate", "load_gm_file", "make_config",
    "save_gm_file", "synthetic_class_mixture",
    # dynamics
    "PathSlice", "Trajectory", "drift_with_stats", "fp_residual", "integrate_sde",
    "movie_frames", "path_slice", "poisson_psi_grad", "psi_potential", "sample_bulk_points",
    "shape_current",
    # harness
    "RunConfig", "RunResult", "SweepResult", "build_final_state", "capacity_diagnostics",
    "daily_states", "export", "fifo_baseline", "restore_state", "run_experiment",
    "snapshot_state", "stream_targets", "sweep",
    # errors
    "ConfigError", "NumericalError",
]
__version__ = "0.1.0"
