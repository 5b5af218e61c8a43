"""Command-line interface.

Subcommands: enumerate, solve, classify, render, dim, catalog, series,
report.  Exit status 0 on success, 1 on a domain failure (no Zapponi form,
search exhausted, not a tree passport, estimator failure, a path that
cannot be read or written, a store file that holds no record), 2 on usage
errors.  ``run_cli`` turns every such failure into one ``error:`` line.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import catalog as cat
from .dynamics import MAX_ITER, classify
from .fractal import (FractalError, box_dim, julia_cloud, pressure_dim,
                      render_basins, render_escape)
from .plane_tree import (ENUMERATE_EDGES, PlaneTreeError, Passport,
                         enumerate_trees, pair_representative,
                         parse_plane_code, passport_of, plane_code,
                         symmetry_flags)
from .polynomial import PolynomialError, format_complex, format_poly, parse_poly
from .shabat import ShabatError, solve_passport, solve_tree


class _CliError(Exception):
    pass


def _positive(kind):
    def parse(text):
        v = kind(text)
        if not (math.isfinite(v) and v > 0):
            raise argparse.ArgumentTypeError(
                f"{text!r} must be positive and finite")
        return v
    return parse


def _viewport(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError('viewport must be "cx,cy,hw,hh"')
    cx, cy, hw, hh = (float(t) for t in parts)
    if not all(map(math.isfinite, (cx, cy, hw, hh))):
        raise argparse.ArgumentTypeError("viewport must be finite")
    if hw <= 0 or hh <= 0:
        raise argparse.ArgumentTypeError("half-extents must be positive")
    return (cx, cy, hw, hh)


def _size(text):
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError('size must be "WxH"')
    if w < 1 or h < 1:
        raise argparse.ArgumentTypeError("size must be at least 1x1")
    return (w, h)


def _build_parser():
    top = argparse.ArgumentParser(prog="dessinjulia")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list plane trees")
    p.add_argument("--edges", type=int, choices=ENUMERATE_EDGES,
                   required=True)
    p.add_argument("--all-colorings", action="store_true",
                   help="keep both members of each color-swap pair")

    p = sub.add_parser("solve", help="SZ polynomial of a tree or passport")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--tree")
    g.add_argument("--passport")

    p = sub.add_parser("classify", help="taxonomy of the critical orbits")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--poly")
    g.add_argument("--tree")
    p.add_argument("--max-iter", type=_positive(int), default=MAX_ITER)

    p = sub.add_parser("render", help="write a PPM image")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--poly")
    g.add_argument("--tree")
    p.add_argument("--mode", choices=("escape", "basins"), default="escape")
    p.add_argument("--out", required=True)
    p.add_argument("--viewport", type=_viewport, default=(0.0, 0.0, 2.0, 2.0))
    p.add_argument("--size", type=_size, default=cat.IMAGE_SIZE)
    p.add_argument("--max-iter", type=_positive(int),
                   help="iteration cap (default {escape} for escape, "
                        "{basins} for basins)".format(**cat._RENDER_ITER))
    p.add_argument("--trap-radius", type=_positive(float), default=0.01)
    p.add_argument("--escape-bound", type=_positive(float),
                   help="escape radius of --mode basins")

    p = sub.add_parser("dim", help="Hausdorff dimension estimate")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--poly")
    g.add_argument("--tree")
    p.add_argument("--method", choices=("box", "pressure"), required=True)
    p.add_argument("--points", type=_positive(int), default=cat.CLOUD_POINTS)
    p.add_argument("--max-period", type=_positive(int))
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("catalog", help="batch-analyze all trees of a size")
    p.add_argument("--edges", type=int, choices=cat.CATALOG_EDGES,
                   required=True)
    p.add_argument("--store", default=None)
    p.add_argument("--dims", action="store_true")
    p.add_argument("--images", action="store_true")
    p.add_argument("--force", action="store_true")
    p.add_argument("--jobs", type=_positive(int), default=1)

    p = sub.add_parser("series", help="caterpillar series <n,k|2,1,...,1>")
    p.add_argument("--family", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--min", type=_positive(int), default=3)
    p.add_argument("--max", type=_positive(int), required=True)
    p.add_argument("--store", default=None)
    p.add_argument("--dims", action="store_true")
    p.set_defaults(images=False, force=False)

    p = sub.add_parser("report", help="Markdown summary of a store")
    p.add_argument("--store", default=None)
    return top


def _tree_arg(text):
    try:
        return parse_plane_code(text)
    except PlaneTreeError as exc:
        raise _CliError(f"bad tree code: {exc}")


def _poly_arg(text):
    try:
        return parse_poly(text)
    except PolynomialError as exc:
        raise _CliError(f"bad polynomial: {exc}")


def _solve_tree_arg(args, out):
    """Solve --tree for the pair representative of the given tree."""
    tree, swapped = pair_representative(_tree_arg(args.tree))
    if swapped:
        print(f"note: colors swapped to pair representative "
              f"{plane_code(tree)}", file=out)
    return solve_tree(tree)


def _poly_or_tree(args, out):
    if args.poly is not None:
        return _poly_arg(args.poly)
    return _solve_tree_arg(args, out).poly


def _cmd_enumerate(args, out):
    trees = enumerate_trees(args.edges,
                            dedup_color_swap=not args.all_colorings)
    for tree in trees:
        flags = symmetry_flags(tree)
        tags = ",".join(k for k in ("rotational", "mirror") if flags[k]) \
            or "-"
        print(f"{plane_code(tree)}\t{passport_of(tree)}\t{tags}", file=out)
    return 0


def _print_solution(sz, out):
    print(f"p(z) = {format_poly(sz.poly)}", file=out)
    for w in sz.white:
        print(f"white {format_complex(w.location)} mult {w.multiplicity}",
              file=out)
    for b in sz.black:
        print(f"black {format_complex(b.location)} mult {b.multiplicity}",
              file=out)
    print(f"residual: {sz.residual:.3e}  max invariant deviation: "
          f"{max(sz.invariant_deviations()):.3e}", file=out)


def _cmd_solve(args, out):
    if args.tree is not None:
        _print_solution(_solve_tree_arg(args, out), out)
        return 0
    try:
        passport = Passport.parse(args.passport)
    except PlaneTreeError as exc:
        raise _CliError(f"bad passport: {exc}")
    sols = solve_passport(passport)
    for i, sz in enumerate(sols):
        print(f"-- solution {i + 1} of {len(sols)}", file=out)
        _print_solution(sz, out)
    return 0


def _cmd_classify(args, out):
    p = _poly_or_tree(args, out)
    cls = classify(p, args.max_iter)
    print(f"{cls.taxonomy} {cls.connectedness}", file=out)
    for name, fate in (("+1", cls.fate_plus), ("-1", cls.fate_minus)):
        if fate.kind == "escape":
            print(f"{name}: escape after {fate.iterations_used} iterations",
                  file=out)
        elif fate.bounded:
            pts = " ".join(format_complex(z) for z in fate.cycle_points)
            print(f"{name}: period {fate.period} |multiplier| "
                  f"{abs(fate.multiplier):.6f} points {pts}", file=out)
        else:
            print(f"{name}: undetermined", file=out)
    return 0


def _cmd_render(args, out):
    p = _poly_or_tree(args, out)
    max_iter = args.max_iter or cat._RENDER_ITER[args.mode]
    if args.mode == "escape":
        raster = render_escape(p, args.viewport, args.size, max_iter)
    else:
        raster = render_basins(p, classify(p), args.viewport, args.size,
                               trap_radius=args.trap_radius,
                               max_iter=max_iter,
                               escape_bound=args.escape_bound)
    raster.write_ppm(args.out)
    print(f"wrote {args.out} ({args.size[0]}x{args.size[1]})", file=out)
    return 0


def _cmd_dim(args, out):
    p = _poly_or_tree(args, out)
    if args.method == "box":
        print(f"seed: {args.seed}", file=out)
        cloud = julia_cloud(p, args.points, rng_seed=args.seed)
        est = box_dim(cloud, disconnected=(
            classify(p).connectedness == "totally_disconnected"))
    else:
        est = pressure_dim(p, max_period=args.max_period)
    print(f"dimension: {est.value:.4f} ({est.method}, "
          f"confidence {est.confidence})", file=out)
    for k, v in sorted(est.diagnostics.items()):
        print(f"  {k}: {v}", file=out)
    return 0


def _run_batch(args, runner, out):
    cfg = cat.CatalogConfig(with_dims=args.dims, with_images=args.images,
                            force=args.force)

    def progress(rec):
        tax = rec.classification.taxonomy if rec.classification \
            else f"no-sz({rec.sz_absent_reason})"
        print(f"{rec.tree_code}\t{rec.passport}\t{tax}", file=out)

    runner(cfg, progress)
    return 0


def _cmd_catalog(args, out):
    return _run_batch(
        args, lambda cfg, prog: cat.run_catalog(
            args.edges, cfg, args.store, progress=prog, jobs=args.jobs), out)


def _cmd_series(args, out):
    if args.min < 3:
        raise _CliError("--min must be >= 3")
    if args.max < args.min:
        raise _CliError("--max must be >= --min")
    return _run_batch(
        args, lambda cfg, prog: cat.run_series(
            args.family, range(args.min, args.max + 1), cfg, args.store,
            progress=prog), out)


def _cmd_report(args, out):
    print(cat.report(args.store), file=out, end="")
    return 0


_DISPATCH = {
    "enumerate": _cmd_enumerate,
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "render": _cmd_render,
    "dim": _cmd_dim,
    "catalog": _cmd_catalog,
    "series": _cmd_series,
    "report": _cmd_report,
}


def run_cli(argv=None, out=None):
    out = out or sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "render" and args.mode == "escape" and \
            args.escape_bound is not None:
        parser.error("render: --escape-bound applies to --mode basins only")
    try:
        return _DISPATCH[args.command](args, out)
    except (_CliError, ShabatError, FractalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
