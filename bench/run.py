"""hopfwave benchmark: one workload, one seed, one measuring run.

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a source tree (``src/hopfwave``, ``configs``,
``BENCHMARK.json``). The steps are:

1. make the workload's inputs from the seed in a scratch directory under
   ``bench/out``;
2. time set-up (``import hopfwave`` plus ``cli.load_problem`` on the
   inputs) in several fresh interpreters and keep the median;
3. start a fresh worker process that calls ``hopfwave.cli.main`` in a
   closed loop for ``--seconds``, checks every output, and reports per-pass
   wall and CPU time and its peak memory after the first pass;
4. with ``--trace 1``, the worker splits ``--seconds`` between untraced and
   traced passes and reports the per-layer metrics of ``BENCHMARK.json``;
   the spans are written to ``bench/out``.

Metrics are printed one per line with their units, followed by one JSON
line ``{"correct", "attempted", "failed", "metrics"}``. The full record,
with the environment, goes to ``bench/out/<workload>-seed<n>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0   # the whole run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def missing_files(root, workload):
    needed = ["BENCHMARK.json", "src/hopfwave/__init__.py", "src/hopfwave/cli.py"]
    return [f for f in needed + workloads.required_files(workload)
            if not (root / f).is_file()]


def child_env(root, nproc):
    """Environment for child interpreters: the tree's own sources first, and
    BLAS thread counts no higher than the processors available."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def environment(root, seed, env, nproc):
    try:
        # the ceiling keeps git from taking the SHA of an enclosing repository
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "source_sha256": digest.hexdigest(), "seed": seed,
            "cpu_model": cpu, "nproc": nproc,
            "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS}}


def time_setup(inputs, env, root, deadline):
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "setup", *inputs],
            cwd=root, env=env, capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()))
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(spec, env, root, deadline):
    spec_path = Path(spec["result_path"]).with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "run", str(spec_path)],
        cwd=root, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"worker exited with code {out.returncode}")
    return json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))


def end_to_end(passes, setup_samples, peak_rss_mb):
    return {"wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb}


def per_layer(names, traced, untraced):
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = (statistics.median(p["wall_s"] for p in traced)
                            - statistics.median(p["wall_s"] for p in untraced))
        else:
            values[name] = statistics.median(
                tracing.layer_metric(p["layers"], name) for p in traced)
    return values


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    root = Path.cwd().resolve()
    missing = missing_files(root, args.workload)
    if missing:
        print(f"error: not a hopfwave source tree, missing {missing}", file=sys.stderr)
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = config["per_layer"] if args.trace else config["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    nproc = len(os.sched_getaffinity(0))
    env = child_env(root, nproc)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as work:
        ops, inputs = workloads.prepare(args.workload, args.seed, root, work)
        setup_samples = time_setup(inputs, env, root, deadline)
        spec = {"root": str(root), "seconds": args.seconds, "trace": args.trace,
                "ops": [vars(op) for op in ops],
                "result_path": str(Path(work) / "worker.json"),
                "spans_path": f"{stem}-spans.json.gz"}
        worker = run_worker(spec, env, root, deadline)

    passes = worker["untraced"] + worker["traced"]
    failures = [f for p in passes for f in p["failures"]]
    attempted = len(ops) * len(passes)
    failed = len(failures)
    if args.trace:
        values = per_layer(units, worker["traced"], worker["untraced"])
    else:
        values = end_to_end(worker["untraced"], setup_samples, worker["peak_rss_mb"])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": {**environment(root, args.seed, env, nproc),
                              **worker["environment"]},
              "setup_s_samples": setup_samples,
              "passes": [{k: p[k] for k in ("wall_s", "cpu_s")} for p in worker["untraced"]],
              "traced_passes": worker["traced"],
              "failures": failures[:20], "result": summary}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for f in failures[:5]:
        print(f"FAILED op {f['op']}: {'; '.join(f['reasons'])}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(worker['untraced'])}"
          f" untraced, {len(worker['traced'])} traced  ops/pass {len(ops)}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {failed / attempted:.6g} 1")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
