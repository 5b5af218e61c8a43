"""Host reference loop: the unit that benchmark times are divided by.

Wall seconds on a shared virtual machine move with host contention that the
guest cannot see (steal time stays near 0 and CPU time equals wall time):
on a 2-core VM the same catalog pass took from 9.3 s to 13.5 s between
runs.  The same contention slows this loop, which is timed between
operations in the same process.  It calls nothing in the package, so a
change to the package cannot move it.  Its three parts follow the kinds of
work in the workloads: scalar Python (complex Horner steps, and a
product-form evaluation with complex powers, generators and method calls
like the solver's path lifting), numpy calls on small arrays (Aberth-like
steps on a batch, like the cloud and the per-point root finding) and a
numpy Horner sweep over a raster-sized array, done in place so that the
loop leaves the allocator's state alone (the renderers).
"""

import bisect
import statistics
import time

import numpy as np

_COEFFS = [complex(0.3 * k - 1.1, 0.17 * k * k - 0.4) / (k + 1)
           for k in range(9)]
_SCALAR_POINTS = [complex(0.013 * j - 0.6, 0.007 * j - 0.3)
                  for j in range(150)]
_ROOTS = [(complex(0.9 * k - 2.0, 0.37 * k - 0.8), 1 + k % 4)
          for k in range(7)]


class _Product:
    def __init__(self, roots):
        self.roots = roots

    def value(self, z):
        acc = 1.0 + 0j
        for v, m in self.roots:
            acc *= (z - v) ** m
        return acc

    def deriv(self, z):
        near = min(abs(z - v) for v, _ in self.roots)
        return self.value(z) * sum(m / (z - v) for v, m in self.roots) \
            / (1.0 + near)


class HostRef:
    """Times the reference loop on demand and keeps every sample."""

    def __init__(self):
        self.samples = []
        self.starts = []
        self.parts = []
        rng = np.random.default_rng(12345)
        self._coef = np.array(_COEFFS)
        self._small = (rng.uniform(-1, 1, (64, 6))
                       + 1j * rng.uniform(-1, 1, (64, 6)))
        self._diag = np.arange(6)
        self._large = (rng.uniform(-1, 1, 1 << 17)
                       + 1j * rng.uniform(-1, 1, 1 << 17))
        self._buffer = np.empty_like(self._large)

    def _scalar(self):
        acc = 0j
        for _ in range(10):
            for z in _SCALAR_POINTS:
                v = _COEFFS[-1]
                for a in _COEFFS[-2::-1]:
                    v = v * z + a
                acc += v
        prod = _Product(_ROOTS)
        for _ in range(3):
            for z in _SCALAR_POINTS:
                acc += prod.value(z) / prod.deriv(z)
        return acc

    def _small_arrays(self):
        # Aberth-like steps on a batch of 64 rows of 6 points
        w = self._small
        acc = 0j
        for _ in range(40):
            p = np.full_like(w, self._coef[6])
            for a in self._coef[5::-1]:
                p = p * w + a
            d = w[:, :, None] - w[:, None, :]
            d[:, self._diag, self._diag] = 1.0
            acc += (p / (1.0 / d).sum(axis=2)).sum()
        return acc

    def _large_arrays(self):
        # in place, so that the loop leaves the allocator's state alone
        v = self._buffer
        v.fill(self._coef[-1])
        for a in self._coef[-2::-1]:
            np.multiply(v, self._large, out=v)
            np.add(v, a, out=v)
        return v[::4096].sum()

    def sample(self):
        """Time one pass of the loop: about equal shares of scalar Python,
        small-array numpy and large-array numpy."""
        t0 = time.perf_counter()
        self._scalar()
        t1 = time.perf_counter()
        self._small_arrays()
        t2 = time.perf_counter()
        self._large_arrays()
        t3 = time.perf_counter()
        self.samples.append(t3 - t0)
        self.starts.append(t0)
        self.parts.append((t1 - t0, t2 - t1, t3 - t2))
        return t3 - t0

    def median(self):
        return statistics.median(self.samples)

    def around(self, t0, t1, window=1.0):
        """Mean reference time of the samples started within ``window``
        seconds of the interval [t0, t1]; the run median if there are none."""
        i = bisect.bisect_left(self.starts, t0 - window)
        j = bisect.bisect_right(self.starts, t1 + window)
        return statistics.fmean(self.samples[i:j]) if j > i else self.median()
