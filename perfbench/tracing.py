"""Per-layer tracing from the benchmark's own files.

``Tracer.install()`` wraps each listed public function of the package at
every site that imported it (any module attribute bound to the original
object) and restores the originals on ``uninstall()``, so nothing under
``src/`` changes.  Each call records a span (name, start, end, parent) in
memory; ``write()`` saves them when the run ends.  A layer's self time is
its spans' durations minus the parts their child spans cover.
"""

import json
import sys
import time
from collections import Counter

# metric stem -> (module, attribute); an attribute "Class.method" patches
# the class
TARGETS = {
    "plane_tree.enumerate": ("dessinjulia.plane_tree", "enumerate_trees"),
    "shabat.solve_tree": ("dessinjulia.shabat", "solve_tree"),
    "dynamics.classify": ("dessinjulia.dynamics", "classify"),
    "catalog.store_save": ("dessinjulia.catalog", "Store.save"),
    "catalog.resume": ("workloads", "Catalog.resume"),
    "fractal.julia_cloud": ("dessinjulia.fractal", "julia_cloud"),
    "fractal.box_dim": ("dessinjulia.fractal", "box_dim"),
    "fractal.pressure_dim": ("dessinjulia.fractal", "pressure_dim"),
    "fractal.render_escape": ("dessinjulia.fractal", "render_escape"),
    "fractal.render_basins": ("dessinjulia.fractal", "render_basins"),
    "kernels.aberth_roots": ("dessinjulia._kernels", "aberth_roots"),
    "kernels.newton_periodic": ("dessinjulia._kernels", "newton_periodic"),
    "kernels.cloud_chains": ("dessinjulia._kernels", "cloud_chains"),
    "kernels.render_escape_grid": ("dessinjulia._kernels",
                                   "render_escape_grid"),
    "kernels.render_basin_grid": ("dessinjulia._kernels",
                                  "render_basin_grid"),
    "kernels.orbit_brent": ("dessinjulia._kernels", "orbit_brent"),
}
CALL_COUNTS = ("shabat.solve_tree", "kernels.aberth_roots",
               "kernels.orbit_brent")


def _cloud_points(out):
    return {"fractal.cloud_points": len(out)}


def _periodic_points(out):
    return {"fractal.periodic_points":
            out.diagnostics["points_at_max_period"]}


def _pixels(out):
    return {"fractal.pixels": out.width * out.height}


# work counts read from a traced call's result
WORK = {"fractal.julia_cloud": _cloud_points,
        "fractal.pressure_dim": _periodic_points,
        "fractal.render_escape": _pixels,
        "fractal.render_basins": _pixels}


def _scopes():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name.startswith("dessinjulia")
                                  or name == "workloads")]


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.work = Counter()
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        count = WORK.get(name)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if count:
                self.work.update(count(out))
            return out

        return traced

    def install(self):
        for name, (module, attr) in TARGETS.items():
            owner = sys.modules[module]
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(owner, cls)
                self._patch(owner, meth, self.wrap(name, getattr(owner, meth)))
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig)
            for scope in _scopes():
                for key, value in list(vars(scope).items()):
                    if value is orig:
                        self._patch(scope, key, wrapper)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches = []

    def self_times(self):
        """(self seconds, calls) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs, calls = Counter(), Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            selfs[name] += end - start - inner
            calls[name] += 1
        return selfs, calls

    def metrics(self, passes):
        """Per-pass self times, call counts and work counts."""
        selfs, calls = self.self_times()
        out = {f"{name}_s": selfs[name] / passes for name in TARGETS}
        for name in CALL_COUNTS:
            out[f"{name}_calls"] = calls[name] / passes
        for name in ("fractal.cloud_points", "fractal.periodic_points",
                     "fractal.pixels"):
            out[name] = self.work[name] / passes
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
