"""Batch pipeline: enumerate trees, solve, classify, estimate dimensions,
render, and persist everything in a resumable on-disk store.

Every record passes through the same stages: solve, classify, dims,
images, validate (``_build_record``).  A tree whose mirror image, or the
colour swap of that, was analysed before it in a run or is in the store is
not solved again: its solve stage is ``derive``, the partner's solution
conjugated exactly, and its dimension estimates are the partner's.  The
polynomial of the mirror is q(z) = conj(p(conj z)), and of the mirrored
colour swap q(z) = -conj(p(-conj z)), so the forms, the critical orbits and
the Hausdorff dimension of the two Julia sets correspond; ``classify`` runs
on the derived polynomial as on any other.

Store layout: ``store/records/<sha1(code)>.json`` (one file per canonical
tree code; the file's presence is the record) and
``store/images/<sha1(code)>-*.ppm``.  Every write is write-temp-then-rename,
so concurrent workers and interrupted runs leave the store consistent.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from importlib import resources
from itertools import repeat
from pathlib import Path

from .dynamics import DynamicsClassification, classify
from .fractal import (DimensionEstimate, FractalError, box_dim, julia_cloud,
                      pressure_dim, render_basins, render_escape)
from .plane_tree import (enumerate_trees, invert_colors, mirror,
                         parse_plane_code, passport_of, plane_code,
                         symmetry_flags)
from .polynomial import ComplexPoly, RootCluster
from .shabat import (ExhaustedError, NoZapponiFormError, SZSolution,
                     solve_tree)


DEFAULT_STORE = os.environ.get("DESSIN_STORE", "store")

CLOUD_POINTS = 200_000  # julia_cloud size behind each record's box_dim
IMAGE_SIZE = (400, 400)  # pixels of each record's escape and basin rasters
_RENDER_ITER = {"escape": 500, "basins": 2000}  # their iteration caps


@dataclass
class CatalogConfig:
    rng_seed: int = 0
    with_dims: bool = False
    with_images: bool = False
    force: bool = False


@dataclass
class CatalogRecord:
    tree_code: str
    passport: str
    symmetry: dict
    sz: SZSolution = None
    sz_absent_reason: str = None  # symmetric | degenerate | exhausted
    classification: DynamicsClassification = None
    dims: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    error: str = None

    def validate(self):
        if (self.sz is None) != (self.sz_absent_reason is not None):
            raise ValueError("sz absent iff a reason is recorded")
        if self.sz_absent_reason not in (None, "symmetric", "degenerate",
                                         "exhausted"):
            raise ValueError(f"bad reason {self.sz_absent_reason!r}")
        if self.classification is not None and self.sz is None:
            raise ValueError("classification requires a solved polynomial")
        if self.sz is not None:
            devs = self.sz.invariant_deviations()
            if max(devs) > 1e-6:
                raise ValueError(f"solution invariants violated: {devs}")
        if self.classification is not None:
            c = self.classification
            bounded = (c.fate_plus.bounded, c.fate_minus.bounded)
            want = {
                (True, True): "connected",
                (False, False): "totally_disconnected",
                (True, False): "infinitely_many_components",
                (False, True): "infinitely_many_components",
            }
            if c.taxonomy != "undetermined" and \
                    c.connectedness != want[bounded]:
                raise ValueError("taxonomy/connectedness mismatch")

    def to_json(self):
        rec = {
            "tree_code": self.tree_code,
            "passport": self.passport,
            "symmetry": self.symmetry,
            "sz": self.sz.to_json() if self.sz else None,
            "sz_absent_reason": self.sz_absent_reason,
            "classification":
                self.classification.to_json() if self.classification else None,
            "dims": [d.to_json() for d in self.dims],
            "artifacts": self.artifacts,
            "timings": self.timings,
        }
        if self.error:
            rec["error"] = self.error
        return rec

    @classmethod
    def from_json(cls, rec):
        sz = SZSolution.from_json(rec["sz"]) if rec["sz"] else None
        cl = (DynamicsClassification.from_json(rec["classification"])
              if rec["classification"] else None)
        dims = [DimensionEstimate.from_json(d) for d in rec["dims"]]
        out = cls(rec["tree_code"], rec["passport"], rec["symmetry"], sz,
                  rec["sz_absent_reason"], cl, dims, rec["artifacts"],
                  rec["timings"], rec.get("error"))
        out.validate()
        return out


def _new_record(tree):
    return CatalogRecord(plane_code(tree), str(passport_of(tree)),
                         symmetry_flags(tree))


@contextmanager
def _stage(rec, name):
    """Time the block as stage ``name`` of the record."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        rec.timings[name] = time.perf_counter() - t0


def analyze_tree(tree, cfg=None, store=None):
    """Full pipeline on one tree; every stage failure is recorded in the
    returned CatalogRecord and later stages are skipped."""
    return _build_record(tree, cfg or CatalogConfig(), store)


def _build_record(tree, cfg, store, partner=None, swap=False):
    """The stages of every record: solve, classify, dims, images, validate.
    With a mirror partner (see ``_mirror_partners``) the solve stage is
    ``derive``: the partner's solution is conjugated, and its dimension
    estimates (and their stage errors) are copied when it has them.  A
    rotational or degenerate partner passes its reason on: conjugation and
    the colour swap keep rotations and the degenerate sums
    t*sum(x) = s*sum(y).  An exhausted partner derives nothing, since a
    failed search says nothing of the tree's."""
    if partner is not None and partner.sz_absent_reason == "exhausted":
        partner = None
    rec = _new_record(tree)
    if partner is None:
        with _stage(rec, "solve"):
            try:
                rec.sz = solve_tree(tree)
            except NoZapponiFormError as exc:
                rec.sz_absent_reason = ("symmetric"
                                        if rec.symmetry["rotational"]
                                        else "degenerate")
                rec.error = str(exc)
            except ExhaustedError as exc:
                rec.sz_absent_reason = "exhausted"
                rec.error = str(exc)
    else:
        with _stage(rec, "derive"):
            if partner.sz is None:
                rec.sz_absent_reason = partner.sz_absent_reason
                rec.error = partner.error
            else:
                rec.sz = _conjugate_solution(partner.sz, swap)
    if rec.sz is None:
        return rec

    with _stage(rec, "classify"):
        rec.classification = classify(rec.sz.poly)
    if cfg.with_dims:
        # a solved record's error comes from the dimension stages only
        if partner is not None and (partner.dims or partner.error):
            rec.dims = [DimensionEstimate.from_json(d.to_json())
                        for d in partner.dims]
            rec.error = partner.error
        else:
            _attach_dims(rec, cfg)
    if cfg.with_images and store is not None:
        _attach_images(rec, store)
    rec.validate()
    return rec


# ------------------------------------------------------------- mirror class


def _mirror_partners(tree):
    """(code, swap) of the two trees whose records give this tree's by
    conjugation (``_build_record``): its mirror image (swap False), then
    the colour swap of that (swap True)."""
    m = mirror(tree)
    return [(plane_code(m), False), (plane_code(invert_colors(m)), True)]


def _conjugate_solution(sz, swap):
    """The SZ solution of q = phi o p o phi, phi(z) = conj z, or -conj z
    with the swap: its coefficients are conj(c_k), or -conj(c_k)(-1)^k
    with the swap, and its vertices are phi of p's, whites and blacks
    trading places with the swap (q = +1 exactly where p = phi(+1) = -1).
    Exact in every bit."""
    phi = ((lambda z: complex(-z.real, z.imag)) if swap
           else complex.conjugate)
    coeffs = [c.conjugate() if k % 2 else phi(c)
              for k, c in enumerate(sz.poly.coeffs)]
    white, black = (sz.black, sz.white) if swap else (sz.white, sz.black)
    return SZSolution(ComplexPoly(tuple(coeffs)),
                      [RootCluster(phi(w.location), w.multiplicity)
                       for w in white],
                      [RootCluster(phi(b.location), b.multiplicity)
                       for b in black])


def _attach_dims(rec, cfg):
    p = rec.sz.poly
    disconnected = rec.classification.connectedness == "totally_disconnected"
    errors = []
    with _stage(rec, "box_dim"):
        try:
            cloud = julia_cloud(p, CLOUD_POINTS, rng_seed=cfg.rng_seed)
            rec.dims.append(box_dim(cloud, disconnected=disconnected))
        except (FractalError, ValueError) as exc:
            errors.append(f"box_dim: {exc}")
    with _stage(rec, "pressure_dim"):
        try:
            rec.dims.append(pressure_dim(p))
        except (FractalError, ValueError) as exc:
            errors.append(f"pressure_dim: {exc}")
    if errors:
        rec.error = "; ".join(errors)


def _attach_images(rec, store):
    p = rec.sz.poly
    span = 1.5 * max(max(abs(w.location) for w in rec.sz.white),
                     max(abs(b.location) for b in rec.sz.black), 1.0)
    viewport = (0.0, 0.0, span, span)
    key = _key(rec.tree_code)
    with _stage(rec, "render"):
        esc = render_escape(p, viewport, IMAGE_SIZE,
                            max_iter=_RENDER_ITER["escape"])
        rec.artifacts["escape"] = store.save_image(esc, f"{key}-escape.ppm")
        try:
            bas = render_basins(p, rec.classification, viewport, IMAGE_SIZE,
                                max_iter=_RENDER_ITER["basins"])
            rec.artifacts["basins"] = store.save_image(bas,
                                                       f"{key}-basins.ppm")
        except FractalError:
            pass


# ------------------------------------------------------------------- store


def _key(code):
    return hashlib.sha1(code.encode()).hexdigest()[:16]


def _atomic_write(path, write):
    """``write(tmp)`` to a temporary file, then rename it over ``path``, so
    readers never see a partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    write(tmp)
    os.replace(tmp, path)


def _read_record(path):
    with open(path) as fh:
        return CatalogRecord.from_json(json.load(fh))


class Store:
    """Directory-backed record store: one atomically written file per
    record, so concurrent writers never lose each other's records."""

    def __init__(self, root=None):
        self.root = root or DEFAULT_STORE
        os.makedirs(os.path.join(self.root, "records"), exist_ok=True)
        os.makedirs(os.path.join(self.root, "images"), exist_ok=True)

    def record_path(self, code):
        return os.path.join(self.root, "records", f"{_key(code)}.json")

    def image_path(self, name):
        return os.path.join(self.root, "images", name)

    def has(self, code):
        return os.path.exists(self.record_path(code))

    def load(self, code):
        return _read_record(self.record_path(code))

    def save(self, rec):
        text = json.dumps(rec.to_json(), indent=1, sort_keys=True)
        _atomic_write(self.record_path(rec.tree_code),
                      lambda tmp: Path(tmp).write_text(text))

    def save_image(self, raster, name):
        """Write a raster as PPM; returns its path relative to the root."""
        path = self.image_path(name)
        _atomic_write(path, raster.write_ppm)
        return os.path.relpath(path, self.root)

    def all_records(self):
        recs = [_read_record(path) for path in
                glob.glob(os.path.join(self.root, "records", "*.json"))]
        return sorted(recs, key=lambda r: r.tree_code)


# --------------------------------------------------------------- pipelines


CATALOG_EDGES = range(2, 9)  # the default catalog cap


def catalog_trees(n_edges):
    """The tree-pair representatives a catalog of ``n_edges`` covers."""
    if n_edges not in CATALOG_EDGES:
        raise ValueError("n_edges must be in 2..8 (the default catalog cap)")
    return enumerate_trees(n_edges)


def _run_trees(trees, cfg=None, store_path=None, progress=None, jobs=1):
    """Analyze the trees, in up to ``jobs`` worker processes, never more
    than there are trees to analyze (none for one); resumable (existing
    records are reused unless cfg.force).  A tree whose mirror partner
    (``_mirror_partners``) comes before it or is in the store is not sent to
    the workers: once the partner's record is there, the tree's is built
    from it in this process (``_build_record``).
    With cfg.force only the partners of this run count.  Records are saved,
    reported and returned in tree order."""
    cfg = cfg or CatalogConfig()
    store = Store(store_path)
    codes = []
    todo = []  # (tree, code, partner (code, swap) or None)
    earlier = set()  # the codes in todo
    for tree in trees:
        code = plane_code(tree)
        codes.append(code)
        if not cfg.force and store.has(code):
            continue
        partner = next(((c, swap) for c, swap in _mirror_partners(tree)
                        if c != code and (c in earlier or not cfg.force
                                          and store.has(c))), None)
        todo.append((tree, code, partner))
        earlier.add(code)
    heads = [tree for tree, _, partner in todo if partner is None]
    fresh = {}
    # a fork-started pool forks all its workers at the first submit
    workers = min(jobs, len(heads))
    with (ProcessPoolExecutor(workers) if workers > 1
          else nullcontext()) as pool:
        analysed = (pool.map if pool else map)(
            analyze_tree, heads, repeat(cfg), repeat(store))
        for tree, code, partner in todo:
            if partner is None:
                rec = next(analysed)
            else:
                other, swap = partner
                src = fresh[other] if other in fresh else store.load(other)
                rec = _build_record(tree, cfg, store, src, swap)
            store.save(rec)
            if progress:
                progress(rec)
            fresh[code] = rec
    return [fresh[c] if c in fresh else store.load(c) for c in codes]


def run_catalog(n_edges, cfg=None, store_path=None, progress=None, jobs=1):
    """Analyze every tree-pair representative with the given edge count."""
    return _run_trees(catalog_trees(n_edges), cfg, store_path, progress, jobs)


_SERIES_STEMS = {1: "W(())", 2: "W((()))", 3: "W((()()))"}


def series_tree(family, n):
    """The caterpillar of passport <n,family|2,1,...,1>: a degree-n vertex
    with one chain of interior degree ``family`` hanging off it."""
    if family not in _SERIES_STEMS:
        raise ValueError("family must be 1, 2 or 3")
    if n < 3:
        raise ValueError("need n >= 3")
    return parse_plane_code(_SERIES_STEMS[family] + "()" * (n - 1))


def run_series(family, n_range, cfg=None, store_path=None, progress=None):
    """The <n,family> series over the given n values; returns records in
    order of n."""
    return _run_trees((series_tree(family, n) for n in n_range), cfg,
                     store_path, progress)


def big_passport_trees():
    """Bundled embeddings of the <13,1,1|2,2,1,...,1> passport."""
    with resources.files("dessinjulia.fixtures") \
            .joinpath("big_passport_trees.json").open() as fh:
        return json.load(fh)


# ----------------------------------------------------------------- report


def _fate_text(fate):
    if fate.kind == "escape":
        return "inf"
    if fate.kind == "attracting_point":
        return "p"
    if fate.kind == "attracting_cycle":
        return f"c({fate.period})"
    return "?"


def report(store_path=None):
    """Markdown summary table of every record in the store."""
    store = Store(store_path)
    lines = ["| tree | passport | taxonomy | +1 | -1 | connectedness | dims |",
             "|---|---|---|---|---|---|---|"]
    for rec in store.all_records():
        if rec.sz is None:
            lines.append(f"| `{rec.tree_code}` | {rec.passport} | "
                         f"no SZ form ({rec.sz_absent_reason}) | | | | |")
            continue
        c = rec.classification
        dims = ", ".join(f"{d.value:.3f} ({d.method}"
                         f"{', low' if d.confidence == 'low' else ''})"
                         for d in rec.dims) or ""
        lines.append(
            f"| `{rec.tree_code}` | {rec.passport} | {c.taxonomy} | "
            f"{_fate_text(c.fate_plus)} | {_fate_text(c.fate_minus)} | "
            f"{c.connectedness} | {dims} |")
    return "\n".join(lines) + "\n"
