"""Kernel backend selection.

Hot loops are compiled with numba when it is installed (the optional
``numba`` extra).  Without it, or with the environment variable
``DESSIN_NUMBA=0``, the pure-numpy/python fallback runs; it is also the
correctness reference.  perfbench/ measures whichever backend is active.
"""

import os

USE_NUMBA = os.environ.get("DESSIN_NUMBA", "1").lower() not in ("0", "false", "no")

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False

if not USE_NUMBA:
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap
