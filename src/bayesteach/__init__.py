"""Explanation engine built on a single selection rule: an explanation
is good exactly when a modelled learner would infer the right thing from
it. Everything here either evaluates that rule (core, learners, spaces),
realizes a known explanation method as an instance of it (explainers),
or measures what simulated explainees actually take away (studies).

Evaluation is single-threaded, numpy's BLAS included: numpy is first
imported here, before any submodule, with ``OMP_NUM_THREADS=1`` unless
the caller set it. OpenBLAS reads the variable once, when it loads, so
it starts no worker thread, and the variable is removed again so child
processes see the environment as the caller left it. A caller's
``OMP_NUM_THREADS`` (or ``OPENBLAS_NUM_THREADS``/``MKL_NUM_THREADS``,
which the BLAS prefers to it) still decides.

The package re-exports nothing, so a command imports only the modules it
runs: import names from the submodules.
"""

import os

if "OMP_NUM_THREADS" in os.environ:
    __import__("numpy")
else:
    os.environ["OMP_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del os.environ["OMP_NUM_THREADS"]
del os

__version__ = "0.1.0"
