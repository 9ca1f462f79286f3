"""Command-line front end: config ingestion, dispatch, machine-readable output.

Problem files are single JSON documents:

    {
      "a": "2/pi",
      "b": "u1^3/6 + u2 + u3",          // or "beta": [e1, e2, e3, e4]
      "lambda": 0.0,                     // optional, default 0
      "tau_guess": 1.4,
      "solver": { "N": 8, "M": 256, "M_solve": 64, "K_max": 50,
                  "eps_grid": [...], "max_iter": 30 }
    }

Unknown keys are rejected, and so are values of the wrong type: a, b and
the beta entries are strings; lambda, tau_guess and the eps_grid entries
real numbers; N >= 1, M >= 16, M_solve >= 16 (a divisor of M), K_max >= 2
and max_iter >= 1 integers. The certification and orbit tolerances are
fixed (eigen.TOL_*, periodic.TOL_ORBIT). Outputs are UTF-8 JSON, each
document on one line followed by LF (complex numbers as [re, im] pairs,
numbers never computed as null, floats as their shortest repr), and CSV
with a header row and LF line endings.
Every command is deterministic given the file and the seed, which is
recorded in the output.

Exit codes: 0 ok, 2 input error (including an unreadable problem file or
--out path, a branch or simulate --out ending in .csv, which the CSV
written next to it would overwrite, a negative --seed, an expression
nested too deeply, a grid or horizon too large for memory, a --T of more
steps than an array can count, a wave speed a that depends on u1..u4,
and a or b not evaluable or not differentiable at the trivial state, in
every command), 3 certification failure (for branch also a missing
critical mode or a singular Newton matrix), 4 structure error (including b
not evaluable for the cubic-structure check), 5 continuation failure
(including the PDE residual check), 6 simulation error (including a
solution that leaves the domain of b). A failing run writes its partial
document as a successful one would: to --out, or else to stdout.

Each cmd_* takes (args, spec, settings) and returns (document, exit code,
error or None, companion files); the companion files are (suffix, content)
pairs, a CSV's (header, rows) or a JSON document, returned only by a run
that succeeds with --out. main alone writes: the document and the
companion files, then one `error:` line on stderr for an error, an input
error (exit 2) included.
"""
from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import direction as direction_mod
from . import eigen, periodic, timedomain
from .errors import (ExprError, HopfwaveError, JacobianSingular, ParseError,
                     RhoZero, SpecInvalid)
from .model import ProblemSpec

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CERTIFICATION = 3
EXIT_STRUCTURE = 4
EXIT_CONVERGENCE = 5
EXIT_SIMULATION = 6

_SOLVER_DEFAULTS = {
    "N": 8, "M": 256, "M_solve": 64, "K_max": 50,
    "eps_grid": [0.005, 0.01, 0.015, 0.02, 0.03, 0.04, 0.05], "max_iter": 30,
}
_SOLVER_INT_MIN = {"N": 1, "M": 16, "M_solve": 16, "K_max": 2, "max_iter": 1}
_TOP_KEYS = {"a", "b", "beta", "lambda", "tau_guess", "solver"}


class ConfigError(SpecInvalid):
    pass


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_types(path, doc, solver):
    """Raise ConfigError on the first value of the wrong type or range."""
    strings = [("a", doc["a"])]
    if doc.get("b") is not None:
        strings.append(("b", doc["b"]))
    if doc.get("beta") is not None:
        if not isinstance(doc["beta"], list):
            raise ConfigError(f"{path}: 'beta' must be a list of strings")
        strings += [("beta", e) for e in doc["beta"]]
    for key, value in strings:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: '{key}' must be a string")
    for key in ("tau_guess", "lambda"):
        if key in doc and not _is_real(doc[key]):
            raise ConfigError(f"{path}: '{key}' must be a real number")
    for key, low in _SOLVER_INT_MIN.items():
        if not (_is_int(solver[key]) and solver[key] >= low):
            raise ConfigError(f"{path}: solver '{key}' must be an integer >= {low}")
    if solver["M"] % solver["M_solve"]:
        raise ConfigError(f"{path}: solver 'M_solve' must divide 'M'")
    eps = solver["eps_grid"]
    if (not isinstance(eps, list) or len(eps) < 3
            or not all(_is_real(e) for e in eps)
            or any(e <= 0 for e in eps)
            or any(b <= a for a, b in zip(eps, eps[1:]))):
        raise ConfigError(
            f"{path}: eps_grid must be at least 3 increasing positive values")


def load_problem(path):
    """Parse and validate a problem file into (ProblemSpec, settings)."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    if "a" not in doc or "tau_guess" not in doc:
        raise ConfigError(f"{path}: 'a' and 'tau_guess' are required")
    solver = dict(_SOLVER_DEFAULTS)
    extra = doc.get("solver", {})
    if not isinstance(extra, dict):
        raise ConfigError(f"{path}: 'solver' must be an object")
    unknown = set(extra) - set(_SOLVER_DEFAULTS)
    if unknown:
        raise ConfigError(f"{path}: unknown solver keys {sorted(unknown)}")
    solver.update(extra)
    _check_types(path, doc, solver)
    try:
        spec = ProblemSpec.from_expressions(
            a=doc["a"], b=doc.get("b"), betas=doc.get("beta"),
            lam=doc.get("lambda", 0.0))
    except (ExprError, SpecInvalid) as err:
        raise ConfigError(f"{path}: {err}") from err
    settings = SimpleNamespace(tau_guess=float(doc["tau_guess"]), **solver)
    return spec, settings


# ---------------------------------------------------------------------------
# JSON encoding: complex as [re, im], a value that is not a finite number
# (never computed, or overflowed) as null

def _r(x):
    return x if math.isfinite(x) else None


def _c(z):
    z = complex(z)
    return [z.real, z.imag] if cmath.isfinite(z) else None


def _carr(arr):
    a = np.asarray(arr, complex).ravel()
    return np.stack([a.real, a.imag], -1).tolist()


def _rarr(arr):
    return np.asarray(arr, float).ravel().tolist()


def certificate_document(cert: eigen.HopfCertificate) -> dict:
    doc = {
        "tau0": _r(cert.tau0),
        "sigma": _c(cert.sigma),
        "sigma_raw": _c(cert.sigma_raw),
        "rho": _r(cert.rho),
        "fredholm": cert.fredholm,
        "flags": dict(cert.flags),
        "a2_scan": [[int(k), _r(float(d))] for k, d in cert.a2_scan],
        "low_confidence": bool(cert.low_confidence),
        "seed": cert.seed,
    }
    if cert.u0 is not None:
        doc["grid"] = _rarr(cert.coeffs.x)
    for key in ("u0", "u0_prime", "u_star", "u_star_prime", "U_star"):
        if getattr(cert, key) is not None:
            doc[key] = _carr(getattr(cert, key))
    return doc


def orbit_document(orbit: periodic.PeriodicOrbit) -> dict:
    """Snapshot of one orbit: scalars plus harmonic coefficients as
    [re, im] pairs indexed [harmonic][component][node]."""
    coef = orbit.v
    return {
        "eps": orbit.eps, "omega": orbit.omega, "tau": orbit.tau,
        "lambda": orbit.lam, "residual_norm": orbit.residual_norm,
        "N": coef.shape[0] - 1, "M": coef.shape[2] - 1,
        "coefficients": np.stack([coef.real, coef.imag], -1).tolist(),
    }


def branch_diagnostics(branch: periodic.BranchResult) -> dict:
    """Solver counts of a branch from its orbits' `stats`, per eps where
    they vary: the harmonics Newton carried ("odd" when every orbit's
    stats.ks lacks k = 0), preconditioner builds, Newton iterations,
    tangent products inside GMRES and line-search halvings (each counting
    an odd solve the full residual rejected), the smallest reciprocal
    condition over the blocks of the solves the orbits came from with its
    harmonic k, each such build's rconds paired with its solve's ks, and
    why each solve stopped.
    Counts and labels only, no timings, so the same file and seed give the
    same bytes."""
    builds = [(o.stats.ks, r) for o in branch.orbits for r in o.stats.rconds]
    rcond, harmonic = min((float(x), k) for ks, r in builds for k, x in zip(ks, r))
    return {
        "harmonics": ("odd" if all(0 not in o.stats.ks for o in branch.orbits)
                      else "all"),
        "preconditioner_builds": sum(o.stats.builds for o in branch.orbits),
        "newton_iterations": [o.stats.iterations for o in branch.orbits],
        "gmres_matvecs": [o.stats.matvecs for o in branch.orbits],
        "line_search_halvings": [o.stats.halvings for o in branch.orbits],
        "min_block_rcond": rcond,
        "min_block_rcond_harmonic": harmonic,
        "newton_stop": [o.stats.stop for o in branch.orbits],
    }


def _dumps(doc):
    """One line of JSON: without indent, json runs its C encoder."""
    return json.dumps(doc, ensure_ascii=False)


def _write_json(path, doc):
    text = _dumps(doc) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _companion(out, suffix):
    """Path of a file written next to --out: its extension replaced by
    suffix, e.g. run.json -> run.csv or run_orbits.json."""
    return os.path.splitext(out)[0] + suffix


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# commands

def _certify(spec, settings, seed):
    """eigen.certify with the file's settings."""
    return eigen.certify(spec, settings.tau_guess, M=settings.M,
                         K_max=settings.K_max, seed=seed)


def cmd_certificate(args, spec, settings):
    cert = _certify(spec, settings, args.seed)
    doc = certificate_document(cert)
    if cert.passed:
        return doc, EXIT_OK, None, []
    failed = ", ".join(k for k, ok in cert.flags.items() if not ok and k != "pass")
    return doc, EXIT_CERTIFICATION, f"certificate failed: {failed}", []


def _add_direction(doc, spec, cert):
    """Write "direction", or "direction_error" when the evaluation fails,
    into doc; return the error or None."""
    try:
        result = direction_mod.compute_direction(spec, cert)
    except HopfwaveError as err:
        doc["direction_error"] = str(err)
        return err
    doc["direction"] = dataclasses.asdict(result)
    return None


def cmd_direction(args, spec, settings):
    cert = _certify(spec, settings, args.seed)
    doc = certificate_document(cert)
    err = _add_direction(doc, spec, cert)
    if err is None:
        return doc, EXIT_OK, None, []
    code = EXIT_CERTIFICATION if isinstance(err, RhoZero) else EXIT_STRUCTURE
    return doc, code, err, []


def cmd_branch(args, spec, settings):
    cert = _certify(spec, settings, args.seed)
    summary = {"seed": args.seed, "certificate": certificate_document(cert)}
    if cert.u0 is None or cert.u_star is None:
        summary["error"] = "no certified critical mode; cannot continue a branch"
        return summary, EXIT_CERTIFICATION, summary["error"], []
    ctx = periodic.operator_context(spec, spec.lam, settings.M_solve)
    _add_direction(summary, spec, cert)
    try:
        branch = periodic.continue_branch(cert, settings.eps_grid, ctx,
                                          settings.N, settings.max_iter)
        pde_res = [periodic.pde_residual_check(o, ctx) for o in branch.orbits]
    except HopfwaveError as err:
        # a singular Newton matrix is a resonance or a failed certificate;
        # every other solver error is a continuation failure
        summary["error"] = str(err)
        summary["last_good_eps"] = getattr(err, "last_good", None)
        code = (EXIT_CERTIFICATION if isinstance(err, JacobianSingular)
                else EXIT_CONVERGENCE)
        return summary, code, err, []
    summary.update({
        "eps": [o.eps for o in branch.orbits],
        "omega": [o.omega for o in branch.orbits],
        "tau": [o.tau for o in branch.orbits],
        "residual_norm": [o.residual_norm for o in branch.orbits],
        "pde_residual": pde_res,
        "fit_tau_curvature": branch.fit_tau_curvature,
        "fit_tau_slope": branch.fit_tau_slope,
        "fit_omega_curvature": branch.fit_omega_curvature,
        "fit_omega_slope": branch.fit_omega_slope,
        "diagnostics": branch_diagnostics(branch),
    })
    if "direction" in summary:
        d2 = summary["direction_d2tau"] = summary["direction"]["d2tau"]
        summary["relative_gap"] = (abs(branch.fit_tau_curvature - d2) / abs(d2)
                                   if d2 != 0.0 else None)
    files = []
    if args.out:
        rows = [(o.eps, o.omega, o.tau, o.residual_norm) for o in branch.orbits]
        files = [(".csv", (["eps", "omega", "tau", "residual_norm"], rows)),
                 ("_orbits.json",
                  {"orbits": [orbit_document(o) for o in branch.orbits]})]
    return summary, EXIT_OK, None, files


def cmd_simulate(args, spec, settings):
    if args.tau is None:
        raise ConfigError("simulate needs --tau")
    if not math.isfinite(args.tau):
        raise ConfigError(f"--tau must be a finite number, got {args.tau}")
    if not (math.isfinite(args.T) and args.T > 0.0):
        raise ConfigError(f"--T must be a finite positive number, got {args.T}")
    try:
        sim = timedomain.Simulator(spec, args.tau, M=settings.M)
        if not args.T / sim.dt <= timedomain.MAX_STEPS:
            raise ConfigError(f"--T {args.T:g} needs more than "
                              f"{timedomain.MAX_STEPS} steps")
        # deterministic small kick along the half-sine profile; the
        # transient is discarded by run_to_orbit anyway
        kick = 0.01 * np.sin(np.pi * sim.x / 2.0)
        state = sim.initial_state(v1=kick, v2=kick)
        run = timedomain.run_to_orbit(sim, state, args.T)
    except SpecInvalid:
        raise       # b not linearizable at the file's lambda: an input error
    except HopfwaveError as err:
        doc = {"tau": args.tau, "T_end": args.T, "seed": args.seed,
               "error": str(err)}
        return doc, EXIT_SIMULATION, err, []
    summary = {"tau": args.tau, "T_end": args.T, "period_estimate": run.period,
               "amplitude": float(np.max(np.abs(run.probe))), "seed": args.seed,
               "steps": run.steps, "dt": sim.dt, "lag": sim.lag, "w": sim.w,
               "crossings": run.crossings, "period_spread": run.period_spread,
               "envelope_drift": run.envelope_drift}
    files = [(".csv", (["t", "u_probe"], zip(run.t, run.probe)))] if args.out else []
    return summary, EXIT_OK, None, files


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hopfwave",
        description="Hopf certification, direction, and branch continuation "
                    "for damped delayed 1D wave equations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("certificate", cmd_certificate),
                     ("direction", cmd_direction),
                     ("branch", cmd_branch),
                     ("simulate", cmd_simulate)):
        p = sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)
        if name == "simulate":
            p.add_argument("--tau", type=float, default=None)
            p.add_argument("--T", type=float, default=200.0)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        if (args.fn in (cmd_branch, cmd_simulate)
                and _companion(args.out or "", ".csv") == args.out):
            raise ConfigError(f"--out {args.out} is also the path of the CSV "
                              "written next to it; give --out another extension")
        doc, code, err, files = args.fn(args, *load_problem(args.file))
        if args.out:
            _write_json(args.out, doc)
        else:
            print(_dumps(doc))
        for suffix, content in files:
            path = _companion(args.out, suffix)
            if suffix.endswith(".csv"):
                _write_csv(path, *content)
            else:
                _write_json(path, content)
    except (ConfigError, SpecInvalid, ParseError, OSError, ValueError) as exc:
        code, err = EXIT_INPUT, exc
    except RecursionError:
        code, err = EXIT_INPUT, "an expression nests too deeply"
    except MemoryError as exc:
        code, err = EXIT_INPUT, f"problem too large for memory: {exc}"
    if err is not None:
        print(f"error: {err}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
