"""fewbody benchmark: one workload, a closed loop of operations, checked outputs.

    python3 perfbench/run.py --workload cross-threshold --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process issues one operation at a time with no think time
for about ``--seconds``: it stops after the whole number of operations whose
end lies nearest to that length.  Every output is checked; at the default
seed it is also compared with the stored reference values from
``reference.json``.  The last line of stdout is the result as JSON: end-to-end
metrics with ``--trace 0``, per-module metrics with ``--trace 1``.  The full
record (environment, per-operation times and checks, and with ``--trace 1``
the spans) is written under ``perfbench/results/``.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy is first imported (a fixed count of at
# most nproc; one thread keeps a shared 2-core box steadiest).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

from tracing import MODULES, Tracer, op_profile, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 0
SETUP_REPEATS = 5
RESULTS = HERE / "results"

# Per-module metrics of the traced run: (name, unit).  Counts (``.calls``,
# ``.misses``, ``.distinct_ratio``) are those of operation 0, which repeat
# exactly for a seed; ``self_s`` values are medians over the traced operations.
PER_LAYER = [
    ("twobody.greens_matrix.calls", "count"),
    ("twobody.greens_matrix.self_s", "s"),
    ("twobody.greens_matrix.distinct_ratio", "ratio"),
    ("twobody.assemble_bs.calls", "count"),
    ("twobody.assemble_bs.self_s", "s"),
    ("twobody.shooting_ground_energy.misses", "count"),
    ("twobody.shooting_ground_energy.self_s", "s"),
    ("faddeev.assemble_diagonal_block.self_s", "s"),
    ("faddeev.assemble_offdiagonal_block.self_s", "s"),
    ("faddeev.assemble_block_operator.calls", "count"),
    ("faddeev.assemble_block_operator.self_s", "s"),
    ("faddeev.radius_at_zero.calls", "count"),
    ("faddeev.faddeev_solve.calls", "count"),
    ("faddeev.faddeev_solve.self_s", "s"),
    ("variational.probability_inside.calls", "count"),
    ("variational.probability_inside.self_s", "s"),
    ("variational.ball_overlap.self_s", "s"),
    ("variational.solve_ground.calls", "count"),
    ("variational.solve_ground.self_s", "s"),
    ("variational.hamiltonian_matrices.calls", "count"),
    ("variational.hamiltonian_matrices.self_s", "s"),
    ("variational.hvz_bottom.self_s", "s"),
    ("variational.build_basis.self_s", "s"),
    ("cli.parse_config.self_s", "s"),
    ("cli.emit_csv.self_s", "s"),
    ("model.Quadrature.build.calls", "count"),
    ("model.self_s", "s"),
    ("twobody.self_s", "s"),
    ("faddeev.self_s", "s"),
    ("variational.self_s", "s"),
    ("experiments.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.op_s.p50", "s"),
    ("trace.overhead_s", "s"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import the package, draw operation 0, print the wall clock, exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def import_fewbody():
    src = ROOT / "src"
    if not (src / "fewbody" / "__init__.py").is_file():
        raise SystemExit(f"fewbody sources not found under {src}")
    sys.path.insert(0, str(src))
    fewbody = importlib.import_module("fewbody")
    for mod in MODULES:
        importlib.import_module(f"fewbody.{mod}")
    return fewbody


def measure_setup(args) -> list[float]:
    """Wall time from launching a fresh interpreter to its first operation issued."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def _git_commit():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


def load_reference(args, workload) -> list:
    if args.seed != DEFAULT_SEED:
        return []
    ref = json.loads((HERE / "reference.json").read_text())
    if ref["seed"] != DEFAULT_SEED:
        raise SystemExit("reference.json was made for another seed")
    return ref["workloads"][workload.name]


def run_loop(workload, fewbody, seed, seconds, workdir, reference, tracer=None):
    """Closed loop: prepare (untimed), run (timed), check; for about `seconds`.

    With a tracer, even-numbered operations are traced and odd ones are not,
    so the traced and untraced medians come from the same run.
    """
    cache_info = fewbody.twobody.shooting_ground_energy.cache_info
    if tracer is not None:
        tracer.install({m: getattr(fewbody, m) for m in MODULES})
    records = []
    t_start = time.perf_counter()
    try:
        while True:
            i = len(records)
            op = workload.prepare(seed, i, workdir)
            traced = tracer is not None and i % 2 == 0
            misses0 = cache_info().misses
            if traced:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                output, error = workload.run(op, fewbody), None
            except Exception as err:  # a failing operation is counted, not fatal
                output, error = None, f"{type(err).__name__}: {err}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            ref = reference[i] if i < len(reference) else None
            spec = json.loads(json.dumps(op.spec))
            if error is not None:
                problems = [error]
            elif ref is not None and ref["spec"] != spec:
                problems = [f"input {spec} differs from the reference input {ref['spec']}"]
            else:
                try:
                    problems = workload.check(op, output, ref and ref["output"])
                except (KeyError, ValueError) as err:  # e.g. a blank or missing CSV cell
                    problems = [f"unreadable output: {type(err).__name__}: {err}"]
            records.append({
                "op": i, "seconds": dt, "ok": not problems, "problems": problems,
                "traced": traced, "reference_checked": ref is not None, "spec": spec,
                "shooting_misses": cache_info().misses - misses0,
                "output": output if problems else workload.summary(output),
            })
            elapsed = time.perf_counter() - t_start
            # Stop where the loop ends nearest to `seconds`: one more operation
            # of the median length would end further past it than we are short.
            half_op = statistics.median(r["seconds"] for r in records) / 2.0
            if elapsed + half_op > seconds and (tracer is None or len(records) >= 2):
                return records, elapsed
    finally:
        if tracer is not None:
            tracer.uninstall()


def tail(times):
    """Highest percentile with at least ten operations beyond it, or None."""
    n = len(times)
    if n < 20:
        return None
    return {"value": sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n, "ops": n}


def end_to_end(records, loop_s, setup_samples) -> dict:
    times = [r["seconds"] for r in records]
    n_ok = sum(r["ok"] for r in records)
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "op_s.p50": {"value": statistics.median(times), "unit": "s"},
        "ops_per_min": {"value": 60.0 * n_ok / loop_s, "unit": "1/min"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"
        },
        "ops_ok_ratio": {"value": n_ok / len(records), "unit": "ratio"},
    }


def per_layer(records, tracer) -> dict:
    spans = tracer.spans
    prof = op_profile(spans, self_times(spans), tracer.greens_keys)
    traced = [r["op"] for r in records if r["traced"]]
    first = prof.get(0, {"calls": {}, "self_s": {}, "greens_distinct": 0})
    values = {}
    for name, unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name.endswith(".self_s"):
            key = name[: -len(".self_s")]
            values[name] = statistics.median(prof.get(op, {"self_s": {}})["self_s"].get(key, 0.0)
                                             for op in traced)
        elif name.endswith(".calls"):
            values[name] = first["calls"].get(name[: -len(".calls")], 0)
        elif name.endswith(".distinct_ratio"):
            calls = first["calls"].get(name[: -len(".distinct_ratio")], 0)
            values[name] = first["greens_distinct"] / calls if calls else 0.0
        elif name == "twobody.shooting_ground_energy.misses":
            values[name] = records[0]["shooting_misses"]
    traced_p50 = statistics.median(r["seconds"] for r in records if r["traced"])
    untraced_p50 = statistics.median(r["seconds"] for r in records if not r["traced"])
    values["trace.op_s.p50"] = traced_p50
    values["trace.overhead_s"] = traced_p50 - untraced_p50
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    fewbody = import_fewbody()
    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            workload.prepare(args.seed, 0, workdir)
            print(repr(time.time()))
            return 0
        setup_samples = measure_setup(args)
        reference = load_reference(args, workload)
        tracer = Tracer() if args.trace else None
        records, loop_s = run_loop(workload, fewbody, args.seed, args.seconds, workdir,
                                   reference, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    metrics = per_layer(records, tracer) if args.trace else end_to_end(
        records, loop_s, setup_samples)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment(args),
        "setup_s_samples": setup_samples,
        "loop_s": loop_s,
        "ops_failed_ratio": failed / len(records),
        "op_s.tail": tail([r["seconds"] for r in records]),
        "operations": records,
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}-spans.jsonl")
    for r in records:
        if not r["ok"]:
            print(f"operation {r['op']} failed: {'; '.join(r['problems'])}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("ops_failed_ratio", "op_s.tail")}
                     | {"environment": record["environment"]}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
