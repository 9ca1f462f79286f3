"""Measuring process, started fresh by run.py for every measurement.

    worker.py setup PROBLEM...   print seconds for import hopfwave + load_problem
    worker.py run SPEC.json      run the workload's operations in a closed loop

``run`` calls ``hopfwave.cli.main`` once per operation, each call after the
previous one returns. A pass is one call of every operation. At least one
pass runs, and another starts while it would end, judged by the length of
the last pass, within the measuring time. With tracing, untraced passes
fill the first half of that time and traced passes the second. The result
goes to the file named in the spec.
"""
import sys
import time

_START = time.perf_counter()


def setup(paths):
    from hopfwave import cli
    for path in paths:
        cli.load_problem(path)
    print(repr(time.perf_counter() - _START))


def _environment():
    import platform
    import numpy
    import scipy
    deps = scipy.show_config(mode="dicts")["Build Dependencies"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: deps["blas"].get(k) for k in ("name", "version")}}


def _run_pass(cli, ops):
    """Call every operation once; return (wall s, cpu s, exit codes)."""
    codes = []
    wall, cpu = time.perf_counter(), time.process_time()
    for op in ops:
        try:
            codes.append(cli.main(op["argv"]))
        except Exception as err:   # a traceback escaping the CLI is a failure
            codes.append(f"{type(err).__name__}: {err}")
    return time.perf_counter() - wall, time.process_time() - cpu, codes


def _verify(ops, codes, first_digests, check):
    """Failure reasons per operation: exit code, output check, and bytes
    against the first pass."""
    import hashlib
    import json
    from pathlib import Path
    failures, digests = [], []
    for i, (op, code) in enumerate(zip(ops, codes)):
        reasons = [] if code == 0 else [f"exit {code}"]
        try:
            blobs = [Path(path).read_bytes() for path in op["outputs"]]
        except OSError as err:
            blobs = []
            reasons.append(f"missing output: {err}")
        digest = [hashlib.sha256(b).hexdigest() for b in blobs]
        digests.append(digest)
        if blobs and code == 0:
            reasons += check[op["check"]](json.loads(blobs[0]))
        if first_digests is not None and digest != first_digests[i]:
            reasons.append("output differs from the first pass")
        if reasons:
            failures.append({"op": i, "argv": op["argv"], "reasons": reasons})
    return failures, digests


def _loop(cli, spec, seconds, check, state, tracer=None):
    """Run passes for the given seconds; returns one record per pass."""
    import resource
    records = []
    begin = time.perf_counter()
    while (not records or time.perf_counter() - begin + records[-1]["wall_s"]
           <= seconds):
        t0 = time.perf_counter()
        wall, cpu, codes = _run_pass(cli, spec["ops"])
        rec = {"wall_s": wall, "cpu_s": cpu}
        if state.get("peak_rss_mb") is None:
            state["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures, digests = _verify(spec["ops"], codes, state.get("digests"), check)
        state.setdefault("digests", digests)
        rec["failures"] = failures
        if tracer is not None:
            rec["spans"] = (t0, tracer.take())
        records.append(rec)
    return records


def run(spec_path):
    import json
    from pathlib import Path
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import hopfwave
    from hopfwave import cli
    src = Path(spec["root"], "src").resolve()
    if not Path(hopfwave.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"hopfwave imported from {hopfwave.__file__}, not {src}")
    import tracing
    from workloads import CHECKS

    state = {}
    seconds = spec["seconds"] / 2 if spec["trace"] else spec["seconds"]
    untraced = _loop(cli, spec, seconds, CHECKS, state)
    result = {"environment": _environment(), "peak_rss_mb": state["peak_rss_mb"],
              "untraced": untraced, "traced": []}
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _loop(cli, spec, seconds, CHECKS, state, tracer)
        finally:
            tracer.uninstall()
        spans = [rec.pop("spans") for rec in traced]
        for rec, (_, pass_spans) in zip(traced, spans):
            rec["layers"] = tracing.layer_stats(pass_spans)
        tracing.write_spans(spec["spans_path"], spans)
        result["traced"] = traced
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2:])
    elif sys.argv[1] == "run":
        run(sys.argv[2])
    else:
        raise SystemExit(f"unknown mode {sys.argv[1]!r}")
