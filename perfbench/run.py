"""Benchmark of dessinjulia: three closed-loop workloads, one operation at a
time in one process, with checked outputs.

    python3 perfbench/run.py --workload catalog|dims|render --seed N \\
        --seconds S --trace 0|1

Runs whole passes over the workload's operations until S seconds have been
measured, checks the outputs, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run (see README.md).  Exits 1 when an output
is wrong and 2 when the package source is missing.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_CHILDREN = 5     # set-ups timed, each in a fresh interpreter


class Recorder:
    """Times the operations of one pass.  The host reference loop is sampled
    after every operation, outside the operation's time, about once per
    0.15 s of operation time, so that each operation can be expressed in
    the reference time measured around it."""

    def __init__(self, ref):
        self.ref = ref
        self.ops = []          # (name, start, seconds, error or None)
        self.extra = 0.0       # time between operations inside a pass
        self._t = None

    def start(self):
        self._t = time.perf_counter()

    def stop(self, name, error=None):
        dt = time.perf_counter() - self._t
        self.ops.append((name, self._t, dt, error))
        for _ in range(min(8, max(1, round(dt / 0.15)))):
            self.ref.sample()
        self._t = time.perf_counter()

    def flush(self):
        self.extra += time.perf_counter() - self._t
        self._t = None

    @property
    def seconds(self):
        return sum(dt for _, _, dt, _ in self.ops) + self.extra

    def in_ref(self):
        """Each operation's time over the reference time around it."""
        return [dt / self.ref.around(t0, t0 + dt)
                for _, t0, dt, _ in self.ops]

    def pass_ref(self):
        return sum(self.in_ref()) + self.extra / self.ref.median()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("catalog", "dims", "render"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (how set-up is "
                         "timed in a fresh interpreter)")
    return ap.parse_args(argv)


def set_up(args, workdir):
    """Import the package, make the inputs and warm up."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.prepare()
    return wl


def setup_in_child(args):
    """Seconds from starting a fresh interpreter until it is set up and
    ready to run its first operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - t0
        child.stdout.read()
        if child.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed: {line!r}")
    return ready


def run_passes(wl, ref, seconds, tracer):
    """Whole passes until ``seconds`` have gone by; with a tracer, untraced
    and traced passes alternate in whole pairs.  Keeps the first pass's
    output and counts the later passes whose output differs from it, so
    that memory does not grow with the number of passes."""
    plain, traced = [], []
    first, differing = None, 0

    def one_pass(recs, trace):
        nonlocal first, differing
        rec = Recorder(ref)
        if trace is not None:
            trace.install()
        try:
            out = wl.run_pass(rec)
        finally:
            if trace is not None:
                trace.uninstall()
        recs.append(rec)
        if first is None:
            first = out
        elif not wl.same(first, out):
            differing += 1

    t_end = time.perf_counter() + seconds
    while True:
        one_pass(plain, None)
        if tracer is not None:
            one_pass(traced, tracer)
        if time.perf_counter() >= t_end:
            return plain, traced, first, differing


def end_to_end(plain, setup_s, rss_mb):
    return {
        "setup_s": (setup_s, "s"),
        "pass_ref": (statistics.median(r.pass_ref() for r in plain), "ref"),
        "op_p50_ref": (statistics.median(x for r in plain
                                         for x in r.in_ref()), "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "dessinjulia")):
        print(f"perfbench: no package source under {ROOT}/src",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = set_up(args, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        import numpy as np

        from dessinjulia import _backend
        from hostref import HostRef
        from tracing import Tracer
        setups = [setup_in_child(args) for _ in range(SETUP_CHILDREN)]
        setup_s = statistics.median(setups)
        ref = HostRef()
        for _ in range(5):
            ref.sample()

        tracer = Tracer() if args.trace else None
        plain, traced, first, differing = run_passes(wl, ref, args.seconds,
                                                     tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref_s = ref.median()

        problems = wl.check(first, np.random.default_rng(args.seed))
        if differing:
            problems.append(f"{differing} repeated passes gave another "
                            "output than the first")
    finally:
        shutil.rmtree(workdir)

    recs = plain + traced
    attempted = sum(len(r.ops) for r in recs)
    errors = sorted({f"{name}: {err}" for r in recs
                     for name, _, _, err in r.ops if err})
    failed = sum(1 for r in recs for *_, err in r.ops if err)
    if tracer is None:
        metrics = end_to_end(plain, setup_s, rss_mb)
    else:
        layer = tracer.metrics(len(traced))
        layer["host.ref_s"] = ref_s
        layer["trace.overhead_pct"] = 100.0 * (
            statistics.median(r.pass_ref() for r in traced)
            / statistics.median(r.pass_ref() for r in plain) - 1.0)
        units = {k: ("s" if k.endswith("_s") else
                     "%" if k.endswith("_pct") else "count") for k in layer}
        metrics = {k: (v, units[k]) for k, v in layer.items()}
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))

    info = {
        "workload": args.workload, "seed": args.seed,
        "backend": "numba" if _backend.USE_NUMBA else "numpy",
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "passes": len(plain), "traced_passes": len(traced),
        "pass_s": [r.seconds for r in plain],
        "pass_ref": [r.pass_ref() for r in plain],
        "traced_pass_s": [r.seconds for r in traced],
        "traced_pass_ref": [r.pass_ref() for r in traced],
        "ref_s": ref_s, "ref_samples": len(ref.samples),
        "setup_s": setups,
        "errors": errors, "problems": problems[:20],
    }
    with open(os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"info": info, "ref": list(zip(ref.starts, ref.samples,
                                                 ref.parts)),
                   "passes": [r.ops for r in plain],
                   "traced_passes": [r.ops for r in traced]}, fh)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
