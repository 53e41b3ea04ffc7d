import os
import sys
from pathlib import Path

# One BLAS thread: with the default two, a busy CPU beside the suite makes
# the threads wait on each other and the timed criteria slow several-fold.
# patchprior applies it only if it is imported before numpy, and test
# modules import numpy first, so import it here; numpy is not loaded yet.
os.environ.setdefault("PATCHPRIOR_THREADS", "1")
import patchprior  # noqa: E402,F401

from hypothesis import HealthCheck, settings  # noqa: E402

# allow `import synthimages` from any test module
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
