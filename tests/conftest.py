import os
import sys
from importlib.metadata import version

# The reference CPU dispatch the goldens were written under: OpenBLAS's
# Prescott kernels, and numpy's loops without AVX-512. Both libraries read
# these variables when numpy loads, so they are set here, before any test
# module imports numpy, and they override any preset value. The feature
# names are numpy 2's; numpy 1 names its features otherwise and warns on
# these, so it gets the BLAS half only (the goldens are out of scope there).
DISPATCH_PIN = {
    "OPENBLAS_CORETYPE": "Prescott",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR",
}
if int(version("numpy").split(".")[0]) < 2:
    del DISPATCH_PIN["NPY_DISABLE_CPU_FEATURES"]
# If numpy loaded first, it read the environment before the pin.
PIN_TOOK = "numpy" not in sys.modules
os.environ.update(DISPATCH_PIN)

from hypothesis import settings  # noqa: E402

# The default profile is derandomized: every run draws the same examples,
# so a pass or a failure never depends on the random seed. Run with
# --hypothesis-profile=explore to keep searching for new failing inputs;
# add any it finds as @example cases.
settings.register_profile("suite", deadline=None, max_examples=25, derandomize=True)
settings.register_profile("explore", deadline=None, max_examples=500)
settings.load_profile("suite")
