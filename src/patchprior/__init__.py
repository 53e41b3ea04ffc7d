"""Patch-based image denoising with adaptable Gaussian mixture priors.

Set PATCHPRIOR_THREADS to pin the BLAS thread count for reproducible
timings; it must be acted on before numpy is first imported, which is
why this block runs ahead of any submodule import.
"""

import os as _os

# Set from PATCHPRIOR_THREADS here, and recorded in every CLI manifest.
_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
_threads = _os.environ.get("PATCHPRIOR_THREADS")
if _threads is not None:
    for _var in _THREAD_VARIABLES:
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .adapt import (
    AdaptationConfig,
    AdaptationReport,
    adapt,
    adaptation_mstep,
    mstep_covariance_fast,
)
from .denoise import DenoiseResult, HqsSchedule, denoise
from .em import EmConfig, InsufficientDataError, em_fit
from .gmm import (
    DegeneratePatchError,
    Gmm,
    SufficientStats,
    component_log_densities,
    condition_psd,
    log_posterior_objective,
    responsibilities,
    sample_gmm,
    select_modes,
    sufficient_stats,
)
from .model_io import (
    BadMagicError,
    ChecksumError,
    ModelFileError,
    TruncatedFileError,
    UnsupportedVersionError,
    load_model,
    save_model,
)
from .patches import (
    PSNR_CAP,
    ImageBuffer,
    accumulate_patches,
    add_gaussian_noise,
    extract_patches,
    psnr,
)
from .pgm import PgmError, read_pgm, write_pgm
from .sure import SureConfig, estimate_sigma_tilde_sq

__all__ = [
    "__version__",
    "AdaptationConfig",
    "AdaptationReport",
    "BadMagicError",
    "ChecksumError",
    "DegeneratePatchError",
    "DenoiseResult",
    "EmConfig",
    "Gmm",
    "HqsSchedule",
    "ImageBuffer",
    "InsufficientDataError",
    "ModelFileError",
    "PSNR_CAP",
    "PgmError",
    "SufficientStats",
    "SureConfig",
    "TruncatedFileError",
    "UnsupportedVersionError",
    "accumulate_patches",
    "adapt",
    "adaptation_mstep",
    "add_gaussian_noise",
    "component_log_densities",
    "condition_psd",
    "denoise",
    "em_fit",
    "estimate_sigma_tilde_sq",
    "extract_patches",
    "load_model",
    "log_posterior_objective",
    "mstep_covariance_fast",
    "psnr",
    "read_pgm",
    "responsibilities",
    "sample_gmm",
    "save_model",
    "select_modes",
    "sufficient_stats",
    "write_pgm",
]
