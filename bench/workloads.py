"""Workload inputs, CLI invocations and output checks.

Each workload turns a seed into a list of operations. An operation is one
call of ``hopfwave.cli.main`` with its ``--out`` file in a scratch
directory, the files that call writes, and the check its output must pass.

* ``certify``: a seeded batch of generated problems run through
  ``direction``. The family ``a = 2/pi``,
  ``b = -q*u1^3 - c(x)*u2 - c(x)*u3`` with ``c > 0`` has its Hopf point at
  ``tau0 = pi/2`` for every ``c``, which gives an exact check on inputs
  nobody has seen before.
* ``branch``: ``configs/benchmark_branch.json`` continued over its seven
  amplitudes.
* ``simulate``: ``configs/benchmark_super.json`` time-stepped at
  ``tau = 1.6`` up to ``T = 200``.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("certify", "branch", "simulate")

CERTIFY_BATCH = 8
PROFILE_SHAPES = ("poly", "sin", "exp", "tanh")

TAU0_TOL = 1e-6
RELATIVE_GAP_MAX = 0.05
FIT_SLOPE_MAX = 1e-4
ORBIT_RESIDUAL_MAX = 1e-9
PDE_RESIDUAL_MAX = 1e-6
PERIOD_REL_TOL = 0.02


@dataclass(frozen=True)
class Operation:
    argv: list       # arguments for hopfwave.cli.main
    outputs: list    # files the call writes
    check: str       # key into CHECKS


def _num(v):
    return f"{v:.4f}"


def damping_profile(shape, rng):
    """Expression text of a positive profile c(x) on [0, 1]."""
    if shape == "poly":
        c0, c1, c2 = rng.uniform(0.4, 1.2), rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.6)
        return f"{_num(c0)} + {_num(c1)}*x + {_num(c2)}*x^2"
    if shape == "sin":
        c0 = rng.uniform(0.6, 1.2)
        c1, w, p = rng.uniform(0.1, 0.5) * c0, rng.uniform(1.0, 4.0), rng.uniform(0.0, 3.0)
        return f"{_num(c0)} + {_num(c1)}*sin({_num(w)}*x + {_num(p)})"
    if shape == "exp":
        c0, s = rng.uniform(0.4, 1.0), rng.uniform(-1.0, 1.0)
        return f"{_num(c0)}*exp({_num(s)}*x)"
    if shape == "tanh":
        c0 = rng.uniform(0.6, 1.2)
        c1, s, x0 = rng.uniform(0.1, 0.5) * c0, rng.uniform(2.0, 8.0), rng.uniform(0.2, 0.8)
        return f"{_num(c0)} + {_num(c1)}*tanh({_num(s)}*(x - {_num(x0)}))"
    raise ValueError(f"unknown profile shape {shape!r}")


def certify_problems(seed, count=CERTIFY_BATCH):
    """Problem documents of the constant-speed family, made from the seed.

    Shapes are drawn evenly (``count / 4`` of each) in a seeded order, so
    every batch has the same mix and only the parameters vary.
    """
    rng = random.Random(seed)
    shapes = [PROFILE_SHAPES[i % len(PROFILE_SHAPES)] for i in range(count)]
    rng.shuffle(shapes)
    problems = []
    for shape in shapes:
        c = damping_profile(shape, rng)
        q = rng.uniform(0.05, 0.5)
        problems.append({
            "a": "2/pi",
            "b": f"-{_num(q)}*u1^3 - ({c})*u2 - ({c})*u3",
            "lambda": 0.0,
            "tau_guess": 1.4,
            "solver": {"M": 256, "K_max": 50},
        })
    return problems


def prepare(workload, seed, root, workdir):
    """Write the workload's inputs under workdir.

    Returns (operations, input files). Problem files the workload reads
    from the repository are taken from root/configs.
    """
    root, workdir = Path(root), Path(workdir)
    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    if workload == "certify":
        inputs, ops = [], []
        for i, doc in enumerate(certify_problems(seed)):
            path = workdir / f"problem_{i}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            dest = out / f"direction_{i}.json"
            inputs.append(str(path))
            ops.append(Operation(
                ["direction", str(path), "--seed", str(seed), "--out", str(dest)],
                [str(dest)], "certify"))
        return ops, inputs
    if workload == "branch":
        config = str(root / "configs" / "benchmark_branch.json")
        dest = out / "branch.json"
        return [Operation(
            ["branch", config, "--seed", str(seed), "--out", str(dest)],
            [str(dest), str(out / "branch.csv"), str(out / "branch_orbits.json")],
            "branch")], [config]
    if workload == "simulate":
        config = str(root / "configs" / "benchmark_super.json")
        dest = out / "simulate.json"
        return [Operation(
            ["simulate", config, "--tau", "1.6", "--T", "200", "--seed", str(seed),
             "--out", str(dest)],
            [str(dest), str(out / "simulate.csv")], "simulate")], [config]
    raise ValueError(f"unknown workload {workload!r}")


def required_files(workload):
    """Repository files a workload needs besides the package itself."""
    return {"branch": ["configs/benchmark_branch.json"],
            "simulate": ["configs/benchmark_super.json"]}.get(workload, [])


# ---------------------------------------------------------------------------
# output checks: each returns a list of reasons, empty when the output is right

def _finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def check_certify(doc):
    reasons = []
    if not doc.get("flags", {}).get("pass"):
        reasons.append(f"certificate flags {doc.get('flags')}")
    tau0 = doc.get("tau0")
    if not _finite(tau0) or abs(tau0 - math.pi / 2) > TAU0_TOL:
        reasons.append(f"tau0 = {tau0}, expected pi/2 within {TAU0_TOL}")
    if not _finite(doc.get("rho")):
        reasons.append(f"rho = {doc.get('rho')} not finite")
    d2tau = doc.get("direction", {}).get("d2tau")
    if not _finite(d2tau):
        reasons.append(f"d2tau = {d2tau} not finite")
    return reasons


def check_branch(doc):
    reasons = []
    gap = doc.get("relative_gap")
    if not _finite(gap) or gap > RELATIVE_GAP_MAX:
        reasons.append(f"relative_gap = {gap} above {RELATIVE_GAP_MAX}")
    for key in ("fit_tau_slope", "fit_omega_slope"):
        v = doc.get(key)
        if not _finite(v) or abs(v) > FIT_SLOPE_MAX:
            reasons.append(f"|{key}| = {v} above {FIT_SLOPE_MAX}")
    for key, limit in (("residual_norm", ORBIT_RESIDUAL_MAX),
                       ("pde_residual", PDE_RESIDUAL_MAX)):
        values = doc.get(key) or []
        if not values or not all(_finite(v) and v <= limit for v in values):
            reasons.append(f"{key} {values} not all below {limit}")
    return reasons


def check_simulate(doc):
    period = doc.get("period_estimate")
    if not _finite(period):
        return [f"period_estimate = {period} not finite"]
    rel = abs(period - 2 * math.pi) / (2 * math.pi)
    if rel >= PERIOD_REL_TOL:
        return [f"period {period} off 2*pi by {rel:.3%}"]
    return []


CHECKS = {"certify": check_certify, "branch": check_branch,
          "simulate": check_simulate}
