"""Benchmark of sdfgrow's refinement and repair pipelines.

    python3 bench/run.py --workload refine-3d --seed 1 --seconds 45 --trace 0

Runs one workload (see workloads.py and README.md) in this process for about
``--seconds`` of timed operations, checks every output with the benchmark's
own code (checks.py) and prints the metrics, ending with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the program's layers (tracer.py) and
reports per-layer metrics instead.  Details go to bench/out/.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# one thread everywhere: the program runs with workers=1, and library thread
# pools would otherwise add scheduling noise on a small machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SDFGROW_WORKERS"] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# set-ups measured in fresh processes after each of the first two rounds, on
# top of this one's: setup_s is the median of five
FRESH_SETUPS_PER_ROUND = 2
# Every input runs at least twice, so that a run spans more than one of the
# speed phases a shared machine goes through.
MIN_ROUNDS = 2


def import_program():
    """Import sdfgrow from this checkout's src/, never from elsewhere."""
    if not (SRC / "sdfgrow" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC}/sdfgrow")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import sdfgrow
    if Path(sdfgrow.__file__).resolve().parent != (SRC / "sdfgrow").resolve():
        sys.exit(f"bench: sdfgrow imported from {sdfgrow.__file__}, "
                 f"not from {SRC}")


def parse_args(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def fresh_setup(args):
    """Set-up time of a new process running this workload and seed."""
    run = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return float(run.stdout.split()[-1])


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def output_digest(inp, res):
    """Hash of the emitted sample values and the mesh, so repeated rounds
    (and later changes) can show bit-identical outputs."""
    if inp.kind == "refine":
        w = res.output.working
        arrays = (w.points, w.values)
    else:
        arrays = (res.output.repaired.values,)
    return digest(*arrays, res.mesh.vertices,
                  res.mesh.elements.astype("int64"))


def yardstick_s():
    """Seconds taken by a fixed piece of work that never calls sdfgrow but
    is made of what its operations are made of: small numpy array
    arithmetic, a kd-tree build and query, and a dict-heavy Python loop.
    Timed next to each operation, it gauges how fast the shared machine is
    at that moment."""
    import numpy as np
    from scipy.spatial import cKDTree

    t0 = time.perf_counter()
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(3000, 3))
    acc = 0.0
    for i in range(0, 3000, 5):
        d = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
        acc += float(d[np.argpartition(d, 8)[:8]].sum())
    acc += float(cKDTree(pts).query(pts[:1500], k=4)[0].sum())
    counts = {}
    for i in range(200000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - t0


def check_output(inp, res):
    """Run every output check; return the mesh error."""
    from checks import (CheckError, ShapeDistance, check_closed,
                        check_refined, check_repaired, mesh_error)

    dim = inp.grid.dim
    dist = ShapeDistance(inp.shape)
    if inp.kind == "refine":
        w = res.output.working
        check_refined(inp, w.points, w.values)
        fine = inp.grid.spacing / 2 ** inp.tau
    else:
        check_repaired(inp, res.output, dist)
        fine = inp.grid.spacing
    band = res.band
    box_lo = band.origin
    box_hi = band.origin + band.spacing * (band.resolution[0] - 1)
    v, e = res.mesh.vertices, res.mesh.elements
    check_closed(v, e, box_lo, box_hi)
    err = mesh_error(v, e, inp.shape, dist, box_lo, box_hi)
    if not err <= 2.0 * fine:
        raise CheckError(f"mesh error {err:.4g} exceeds two {dim}D spacings "
                         f"({2.0 * fine:.4g})")
    return err


def measure(inputs, seconds, log, between_rounds):
    """Whole rounds over ``inputs``: at least MIN_ROUNDS, then more while the
    timed total stays within ``seconds``.  Outputs are checked in the first
    round and must repeat bit for bit in later ones.  ``between_rounds(n)``
    runs untimed after round n."""
    from checks import CheckError
    from sdfgrow.core import InputInvalidError
    from workloads import run_op

    ops = []
    reference = {}
    problems = []
    timed = 0.0
    rounds = 0
    while True:
        round_timed = 0.0
        yard_before = yardstick_s()
        for inp in inputs:
            gc.collect()
            t0 = time.perf_counter()
            try:
                res = run_op(inp)
            except Exception as exc:       # a failed operation, not a crash
                dt = time.perf_counter() - t0
                round_timed += dt
                ops.append({"input": inp.name, "ok": False, "seconds": dt,
                            "error": f"{type(exc).__name__}: {exc}"})
                if rounds == 0:
                    log(f"FAILED {inp.name}: {type(exc).__name__}: {exc}")
                    if not isinstance(exc, InputInvalidError):
                        log(traceback.format_exc())
                yard_before = yardstick_s()
                continue
            yard_after = yardstick_s()
            op_s = res.solve_s + res.mesh_s
            yard_s = 0.5 * (yard_before + yard_after)
            yard_before = yard_after
            round_timed += op_s
            rec = {"input": inp.name, "ok": True, "solve_s": res.solve_s,
                   "mesh_s": res.mesh_s, "op_s": op_s, "yard_s": yard_s,
                   "op_rel": op_s / yard_s}
            dig = output_digest(inp, res)
            if inp.name not in reference:
                err = float("nan")
                try:
                    err = check_output(inp, res)
                except CheckError as exc:
                    problems.append(f"{inp.name}: {exc}")
                    log(f"CHECK FAILED {inp.name}: {exc}")
                reference[inp.name] = (err, dig)
            elif dig != reference[inp.name][1]:
                problems.append(f"{inp.name}: output differs from the "
                                f"first round")
                log(f"CHECK FAILED {inp.name}: output differs from the "
                    f"first round")
            rec["mesh_err"] = reference[inp.name][0]
            ops.append(rec)
        rounds += 1
        timed += round_timed
        between_rounds(rounds)
        if rounds >= MIN_ROUNDS and timed + round_timed > seconds:
            break
    return ops, reference, problems, rounds


def median_over_ok(ops, key):
    """Median of ``key`` over the successful operations."""
    values = [o[key] for o in ops if o["ok"]]
    return statistics.median(values) if values else float("nan")


def end_to_end(ops, setup_s):
    """op_rel is each operation's time over the yardstick's time around it,
    its median over the successful operations.  On a shared machine whole
    runs fall into phases that slow every operation by up to 75%; the
    yardstick slows with them, so the ratio moves less between runs than
    seconds do.  Failed operations are left out; their times, and op_s in
    seconds, are in the details file."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "op_rel": (median_over_ok(ops, "op_rel"), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def per_layer(tracer, ops):
    """Per attempted operation: calls, inclusive and self seconds of every
    traced function, the return-value counters and two ratios; and the
    median mesh error over inputs."""
    from tracer import COUNTERS

    n_ops = len(ops)
    out = {"mesh_err": (median_over_ok(ops, "mesh_err"), "domain_units")}
    for name, span in tracer.spans.items():
        out[f"{name}.calls"] = (span.calls / n_ops, "calls/op")
        out[f"{name}.s"] = (span.total_s / n_ops, "s/op")
        out[f"{name}.self_s"] = (span.self_s / n_ops, "s/op")
    for name in COUNTERS:
        if name != "recon.complete_narrow_band.kept":
            out[name] = (tracer.counts[name] / n_ops, "count/op")
    queries = tracer.spans["interp.interpolate_sdf_to"].calls
    checks = tracer.spans["interp.validity_with_candidate"].calls
    out["interp.checks_per_query"] = (checks / queries if queries else 0.0,
                                      "ratio")
    kept = tracer.counts["recon.complete_narrow_band.kept"]
    computed = tracer.band_computed
    out["recon.band_kept_per_computed"] = (kept / computed if computed
                                           else 0.0, "ratio")
    return out


def trace_identities(tracer, workload):
    """Counts that must agree if every call was caught."""
    inserts = tracer.spans["accel.update_cache_on_insert"].calls
    queries = tracer.spans["interp.interpolate_sdf_to"].calls
    new = tracer.counts["dos.refine.new_samples"]
    if workload.startswith("refine"):
        if not inserts == queries == new:
            return [f"trace: update_cache_on_insert {inserts}, "
                    f"interpolate_sdf_to {queries}, refine new samples {new} "
                    f"differ"]
    elif inserts:
        return [f"trace: {inserts} update_cache_on_insert calls in repair"]
    return []


def main(argv=None):
    import_program()
    args = parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    from workloads import make_inputs, run_op, warmup_input
    t_import = time.perf_counter() - _T_START

    # set-up: imports, input generation and one untimed warm-up operation
    inputs = make_inputs(args.workload, args.seed)
    run_op(warmup_input(args.workload))
    setups = [time.perf_counter() - _T_START]
    if args.setup_only:
        print(setups[0])
        return 0

    # More set-ups in fresh processes, in two pairs a round apart: the
    # host's slow phases last seconds, so set-ups taken all at once would
    # share one.
    def between_rounds(done):
        if not args.trace and done <= 2:
            setups.extend(fresh_setup(args)
                          for _ in range(FRESH_SETUPS_PER_ROUND))

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    try:
        ops, reference, problems, rounds = measure(inputs, args.seconds, log,
                                                   between_rounds)
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed = sum(1 for o in ops if not o["ok"])
    if args.trace:
        problems += trace_identities(tracer, args.workload)
        metrics = per_layer(tracer, ops)
    else:
        metrics = end_to_end(ops, statistics.median(setups))
    correct = not problems and any(o["ok"] for o in ops)

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}")
    print(f"operations: {len(ops)} attempted in {rounds} rounds of "
          f"{len(inputs)}, {failed} failed")
    for o in ops[:len(inputs)]:
        if not o["ok"]:
            times = sum(1 for x in ops if x["input"] == o["input"]
                        and not x["ok"])
            print(f"failed {times} of {rounds} rounds: {o['input']} "
                  f"({o['error']})")
    for p in problems:
        print(f"problem: {p}")

    OUT.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
              "setup_import_s": t_import, "setups_s": setups,
              "digests": {k: v[1] for k, v in reference.items()},
              "problems": problems, "ops": ops,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1))

    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
