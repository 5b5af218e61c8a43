"""The kernels have one implementation (numpy, and plain Python for the
orbit kernels); perfbench/run.py reports this constant as its backend."""

USE_NUMBA = False
