"""The three workloads: inputs, one pass of operations, and output checks.

A workload is built from the workload seed.  ``prepare()`` makes the inputs
and warms every code path once; ``run_pass(rec)`` runs one pass, timing each
operation through ``rec``; ``check(output, rng)`` checks one pass's output
with ``checks``, and ``same(a, b)`` tells whether two passes gave the same
output, so that only the first pass's output need be kept.  The program's
own ``rng_seed`` stays at 0: in the solver it decides whether a tree takes
0.5 s or 200 s, so the workload seed only orders the operations, draws the
synthetic clouds and draws the samples the checks use.
"""

import os
import random
import shutil

import numpy as np

import checks
from dessinjulia import catalog, dynamics, fractal, shabat
from dessinjulia.plane_tree import parse_plane_code
from dessinjulia.polynomial import ComplexPoly, parse_poly, poly_from_roots

# the paper's section-4 quintics
QUINTICS = {
    "q1": poly_from_roots([-1 / 3, 4 / 3], [4, 1], 243 / 128) + 1.0,
    "q2": poly_from_roots([-2.0, 3.0], [3, 2], -1 / 54) + 1.0,
    "q3": parse_poly("0,-15/4,0,10,0,-12"),
    "q4": (ComplexPoly((1, 2)) * ComplexPoly((1, 2)) * ComplexPoly((1, 2))
           * ComplexPoly((18, -3, 2)) * (1 / 432.0)) + 1.0,
    "q5": parse_poly("0,5/2,0,-5/2,0,1/2"),
}
ANCHOR_TREE = "W((())())()(())"   # the paper's 7-edge dimension anchor
DOMAIN_ERRORS = (fractal.FractalError, shabat.ShabatError, ValueError)


def coeffs(p):
    return np.asarray(p.coeffs, dtype=np.complex128)


class Workload:
    name = None

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.seed = seed
        self.workdir = workdir

    def timed(self, rec, name, fn, *args, **kwargs):
        """Run one operation; domain errors count as failed operations."""
        rec.start()
        try:
            out = fn(*args, **kwargs)
        except DOMAIN_ERRORS as exc:
            rec.stop(name, error=f"{type(exc).__name__}: {exc}")
            return None
        rec.stop(name)
        return out


# ------------------------------------------------------------------ catalog


class Catalog(Workload):
    """All 34 7-edge pair representatives and the caterpillar series of
    families 1-3 for n = 3..13, analysed into a fresh store, then a resume
    pass that reads every record back."""

    name = "catalog"
    SERIES_N = range(3, 14)

    def prepare(self):
        self.blocks = [("seven", None)] + [("series", f) for f in (1, 2, 3)]
        self.rng.shuffle(self.blocks)
        self.cfg = catalog.CatalogConfig()
        store = self._fresh_store("warmup")
        catalog.run_series(1, range(3, 5), self.cfg, store)
        catalog.run_series(1, range(3, 5), self.cfg, store)
        shutil.rmtree(store)

    def _fresh_store(self, tag):
        path = os.path.join(self.workdir, f"store-{tag}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _block(self, kind, family, store, progress):
        if kind == "seven":
            return catalog.run_catalog(7, self.cfg, store, progress)
        return catalog.run_series(family, self.SERIES_N, self.cfg, store,
                                  progress)

    def run_pass(self, rec):
        store = self._fresh_store("pass")
        out = {}
        for kind, family in self.blocks:
            rec.start()
            out[(kind, family)] = self._block(
                kind, family, store, lambda r: rec.stop(r.tree_code))
            rec.flush()
        resumed = self.timed(rec, "resume", self.resume, store)
        shutil.rmtree(store)
        return self._as_json(out), resumed and self._as_json(resumed)

    def resume(self, store):
        """Run every block again on a full store: each record is read back."""
        return {(kind, family): self._block(kind, family, store, None)
                for kind, family in self.blocks}

    @staticmethod
    def _as_json(blocks):
        return {key: [r.to_json() for r in recs]
                for key, recs in blocks.items()}

    def check(self, output, rng):
        written, resumed = output
        seven = written[("seven", None)]
        series = {(family, n): r
                  for (kind, family), recs in written.items()
                  if kind == "series"
                  for n, r in zip(self.SERIES_N, recs)}
        problems = [f"series <{n},{family}> returned {r['tree_code']}"
                    for (family, n), r in series.items()
                    if r["tree_code"] not in checks.code_variants(
                        checks.series_code(family, n))]
        flat_w = {r["tree_code"]: r for recs in written.values()
                  for r in recs}
        flat_r = {r["tree_code"]: r for recs in resumed.values()
                  for r in recs} if resumed else {}
        return problems + checks.check_catalog(seven, series, flat_w, flat_r)

    @staticmethod
    def same(a, b):
        """Equal records, apart from the stage timings they carry."""
        def strip(output):
            return [[{k: v for k, v in r.items() if k != "timings"}
                     for r in recs]
                    for blocks in output if blocks for recs in blocks.values()]
        return strip(a) == strip(b)


# --------------------------------------------------------------------- dims


class Dims(Workload):
    """Box counting on inverse-iteration clouds and the periodic-orbit
    pressure at a fixed period, on z^2, the section-4 quintics and the 7-edge
    anchor tree, plus box counting on synthetic segment and square clouds."""

    name = "dims"
    CLOUD_POINTS = 50_000   # 30k and 35k leave q5 or q1 with < 3 box scales
    SYNTHETIC_POINTS = 100_000
    # period k with degree^k <= 625, and k = 2 on the degree-7 tree, where
    # k = 3 alone takes 2.2 s; z^2 needs k >= 8 to resolve the circle to
    # 1e-3, since p^k(z) = z has 2^k - 1 repelling solutions
    MAX_PERIOD = {"z2": 9, "q1": 3, "q2": 3, "q3": 3, "q4": 3, "q5": 3,
                  "t7": 2}

    def prepare(self):
        self.polys = {"z2": ComplexPoly((0, 0, 1)), **QUINTICS,
                      "t7": shabat.solve_tree(
                          parse_plane_code(ANCHOR_TREE)).poly}
        nprng = np.random.default_rng(self.seed)
        n = self.SYNTHETIC_POINTS
        self.synthetic = {
            "segment": nprng.uniform(0, 1, n).astype(np.complex128),
            "square": nprng.uniform(0, 1, n) + 1j * nprng.uniform(0, 1, n)}
        self.ops = ([("box", k) for k in self.polys]
                    + [("pressure", k) for k in self.polys]
                    + [("box", k) for k in self.synthetic])
        self.rng.shuffle(self.ops)
        p = self.polys["q3"]
        fractal.box_dim(fractal.julia_cloud(p, 10_000))
        fractal.pressure_dim(p, max_period=2)

    def _cloud_box(self, name):
        cloud = fractal.julia_cloud(self.polys[name], self.CLOUD_POINTS)
        return cloud, fractal.box_dim(cloud)

    def run_pass(self, rec):
        values, clouds = {}, {}
        for kind, name in self.ops:
            label = f"{kind}:{name}"
            if kind == "pressure":
                est = self.timed(rec, label, fractal.pressure_dim,
                                 self.polys[name],
                                 max_period=self.MAX_PERIOD[name])
            elif name in self.synthetic:
                est = self.timed(rec, label, fractal.box_dim,
                                 self.synthetic[name])
            else:
                out = self.timed(rec, label, self._cloud_box, name)
                est = None if out is None else out[1]
                if out is not None:
                    clouds[name] = out[0]
            if est is not None:
                values[label] = est.value
        return values, clouds

    def check(self, output, rng):
        values, clouds = output
        polys = {k: coeffs(p) for k, p in self.polys.items()}
        return checks.check_dims(values, clouds, polys, rng)

    @staticmethod
    def same(a, b):
        return a[0] == b[0] and a[1].keys() == b[1].keys() and all(
            np.array_equal(a[1][k], b[1][k]) for k in a[1])


# ------------------------------------------------------------------- render


class Render(Workload):
    """Escape-time and first-entry basin rasters at the catalog's image
    defaults, on connected and totally disconnected Julia sets."""

    name = "render"
    SIZE = (400, 400)
    ESCAPE_ITER = 500
    BASIN_ITER = 2000
    TRAP_RADIUS = 0.01
    THRESHOLDS = (5, 7, 10)
    TREES = {"t7": ANCHOR_TREE,             # g1, connected
             "ex1": "W((()()))",            # g3, attracting 10-cycle
             "t7g4": "W((()))((()))()",     # g4, totally disconnected
             "t7s3": "W(())((()))(())"}     # s3, infinitely many components
    QUINTICS = ("q1", "q2", "q3", "q5")
    PIXEL_SAMPLES = 60

    def prepare(self):
        self.polys = {k: QUINTICS[k] for k in self.QUINTICS}
        for name, code in self.TREES.items():
            self.polys[name] = shabat.solve_tree(parse_plane_code(code)).poly
        self.classes = {k: dynamics.classify(p) for k, p in self.polys.items()}
        self.viewports = {k: self._viewport(coeffs(p))
                          for k, p in self.polys.items()}
        self.ops = [(kind, k) for k in self.polys
                    for kind in ("escape", "basins")]
        self.rng.shuffle(self.ops)
        p = self.polys["q2"]
        fractal.render_escape(p, self.viewports["q2"], (40, 40), 50)
        fractal.render_basins(p, self.classes["q2"], self.viewports["q2"],
                              (40, 40), max_iter=50)

    @staticmethod
    def _viewport(c):
        """The catalog's framing: 1.5 times the largest vertex modulus."""
        ends = np.concatenate([np.roots((c - d)[::-1]) for d in
                               (np.eye(len(c))[0], -np.eye(len(c))[0])])
        span = 1.5 * max(float(np.max(np.abs(ends))), 1.0)
        return (0.0, 0.0, span, span)

    def run_pass(self, rec):
        out = {}
        for kind, k in self.ops:
            if kind == "escape":
                r = self.timed(rec, f"escape:{k}", fractal.render_escape,
                               self.polys[k], self.viewports[k], self.SIZE,
                               max_iter=self.ESCAPE_ITER)
                out[(kind, k)] = None if r is None else (r.escaped_at,)
            else:
                r = self.timed(rec, f"basins:{k}", fractal.render_basins,
                               self.polys[k], self.classes[k],
                               self.viewports[k], self.SIZE,
                               trap_radius=self.TRAP_RADIUS,
                               thresholds=self.THRESHOLDS,
                               max_iter=self.BASIN_ITER)
                out[(kind, k)] = None if r is None else (r.escaped_at, r.band)
        return out

    def traps(self, k):
        cls = self.classes[k]
        return [z for f in (cls.fate_plus, cls.fate_minus) if f.bounded
                for z in f.cycle_points]

    def check(self, output, rng):
        problems = []
        w, h = self.SIZE
        for (kind, k), raster in sorted(output.items()):
            if raster is None:
                continue
            pixels = [(int(rng.integers(0, h)), int(rng.integers(0, w)))
                      for _ in range(self.PIXEL_SAMPLES)]
            c = coeffs(self.polys[k])
            if kind == "escape":
                problems += checks.check_escape(
                    c, self.viewports[k], self.SIZE, self.ESCAPE_ITER,
                    raster[0], pixels)
            else:
                problems += checks.check_basins(
                    c, self.viewports[k], self.SIZE, self.BASIN_ITER,
                    self.traps(k), self.TRAP_RADIUS, self.THRESHOLDS,
                    raster[0], raster[1], pixels)
        return problems

    @staticmethod
    def same(a, b):
        return a.keys() == b.keys() and all(
            (a[k] is None) == (b[k] is None) and (a[k] is None or all(
                np.array_equal(x, y) for x, y in zip(a[k], b[k])))
            for k in a)


WORKLOADS = {w.name: w for w in (Catalog, Dims, Render)}
