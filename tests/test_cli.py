import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hopfwave import cli, periodic, timedomain
from hopfwave.errors import EvalDomainError, JacobianSingular, NoConvergence
from hopfwave.model import ProblemSpec
from oracles import direction_from_document

REPO = Path(__file__).resolve().parents[1]
SUPER = REPO / "configs" / "benchmark_super.json"
BRANCH = REPO / "configs" / "benchmark_branch.json"


def write_config(tmp_path, name="prob.json", **overrides):
    doc = {"a": "2/pi", "b": "-u1^3/6 - u2 - u3", "tau_guess": 1.4,
           "solver": {"M": 128, "K_max": 5}}
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(*args):
    return cli.main(list(args))


def _cli_process(*args):
    """`python -m hopfwave.cli *args` in a fresh process that imports
    hopfwave from the checkout, installed or not."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "hopfwave.cli", *args], cwd=str(REPO),
        env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)


def test_certificate_pass(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cert.json"
    code = run_cli("certificate", cfg, "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["tau0"] == pytest.approx(np.pi / 2, abs=1e-6)
    assert doc["flags"]["pass"] is True
    assert doc["seed"] == 0
    assert isinstance(doc["sigma"], list) and len(doc["sigma"]) == 2


def test_certificate_fredholm_failure(tmp_path):
    cfg = write_config(tmp_path, b="-u2")
    out = tmp_path / "cert.json"
    code = run_cli("certificate", cfg, "--out", str(out))
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["flags"]["fredholm"] is False


def test_certificate_rho_failure(tmp_path):
    # no delay coupling: the crossing speed vanishes identically
    cfg = write_config(tmp_path, b="0*u1")
    out = tmp_path / "cert.json"
    code = run_cli("certificate", cfg, "--out", str(out))
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["flags"]["a3_rho"] is False


def test_certificate_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert run_cli("certificate", cfg, "--out", str(out1)) == 0
    assert run_cli("certificate", cfg, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_certificate_reads_lambda_zero_table(tmp_path):
    # certification linearizes at lambda = 0 whatever the file's lambda,
    # so a lambda-dependent problem certifies identically at 0.01 and 0
    a, b = "2/pi*(1 + lambda*x)", "-u1^3/6 - u2 - u3 + lambda*sin(3*x)*u1"
    solver = {"M": 64, "K_max": 5}
    docs = []
    for lam in (0.01, 0.0):
        cfg = write_config(tmp_path, name=f"lam{lam}.json", a=a, b=b,
                           solver=solver, **{"lambda": lam})
        out = tmp_path / f"cert{lam}.json"
        assert run_cli("certificate", cfg, "--out", str(out)) == 0
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]


def test_direction_command_and_roundtrip(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "dir.json"
    code = run_cli("direction", cfg, "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["direction"]["supercritical"] is True
    assert "caveat" in doc["direction"]
    # re-running the direction evaluation from the serialized certificate
    # reproduces the numbers exactly
    spec = ProblemSpec.from_expressions(a="2/pi", b="-u1^3/6 - u2 - u3")
    redo = direction_from_document(doc, spec)
    assert abs(redo["d2tau"] - doc["direction"]["d2tau"]) <= 1e-12
    assert abs(redo["d2tau_literature"]
               - doc["direction"]["d2tau_literature"]) <= 1e-12


def test_direction_structure_error(tmp_path):
    cfg = write_config(tmp_path, b="u1*u2 - u2 - u3")
    out = tmp_path / "dir.json"
    code = run_cli("direction", cfg, "--out", str(out))
    assert code == 4
    doc = json.loads(out.read_text())
    assert "direction_error" in doc


def test_branch_command(tmp_path):
    cfg = write_config(
        tmp_path,
        solver={"M": 128, "M_solve": 32, "N": 6, "K_max": 4,
                "eps_grid": [0.02, 0.03, 0.04]})
    out = tmp_path / "branch.json"
    code = run_cli("branch", cfg, "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["relative_gap"] <= 0.05
    assert abs(doc["fit_tau_slope"]) <= 1e-4
    assert abs(doc["fit_omega_slope"]) <= 1e-4
    csv_path = out.with_suffix(".csv")
    lines = csv_path.read_text().split("\n")
    assert lines[0] == "eps,omega,tau,residual_norm"
    assert len(lines) == 5  # header + 3 rows + trailing newline
    assert "\r" not in csv_path.read_text()
    # orbit snapshots: harmonic coefficients round-trip
    snaps = json.loads((tmp_path / "branch_orbits.json").read_text())["orbits"]
    assert len(snaps) == 3
    first = snaps[0]
    assert first["N"] == 6 and first["M"] == 32
    c = np.asarray(first["coefficients"])      # (N+1, 2, M+1, 2)
    assert c.shape == (7, 2, 33, 2)
    assert abs(first["eps"]
               - doc["eps"][0]) < 1e-15


def test_branch_without_cubic_terms(tmp_path):
    # d2tau is 0, so the gap to the fitted curvature has no scale: null
    cfg = write_config(
        tmp_path, b="-u2 - u3",
        solver={"M": 128, "M_solve": 32, "N": 4, "K_max": 4,
                "eps_grid": [0.01, 0.02, 0.03]})
    out = tmp_path / "branch.json"
    assert run_cli("branch", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert doc["direction_d2tau"] == 0.0
    assert doc["relative_gap"] is None
    assert (tmp_path / "branch.csv").exists()
    assert (tmp_path / "branch_orbits.json").exists()


@pytest.mark.parametrize("b, harmonics", [("-u1^3/6 - u2 - u3", "odd"),
                                          ("-u2 - u3 + 0.5*u1^2 - u1^3/6", "all")],
                         ids=["odd", "quadratic"])
def test_branch_harmonics(tmp_path, b, harmonics):
    # an odd b is continued on the odd harmonics, so its orbits file holds
    # exact zeros on every even harmonic; a quadratic term needs them all
    cfg = write_config(
        tmp_path, b=b, solver={"M": 128, "M_solve": 32, "N": 6, "K_max": 4,
                               "eps_grid": [0.02, 0.03, 0.04]})
    out = tmp_path / "branch.json"
    assert run_cli("branch", cfg, "--out", str(out)) == 0
    diag = json.loads(out.read_text())["diagnostics"]
    assert diag["harmonics"] == harmonics
    orbits = json.loads((tmp_path / "branch_orbits.json").read_text())["orbits"]
    even = np.array([o["coefficients"] for o in orbits])[:, 0::2]
    if harmonics == "odd":
        assert not np.any(even)
        assert diag["min_block_rcond_harmonic"] % 2 == 1
    else:
        assert np.max(np.abs(even)) > 1e-6


def test_branch_wrong_odd_verdict_diagnostics(tmp_path, monkeypatch):
    # a quadratic b forced onto the odd harmonics falls back to all of them:
    # the diagnostics say "all", and the smallest block condition is taken
    # over the builds on all harmonics, each paired with its harmonic k
    builds, build = [], periodic.block_preconditioner

    def recording(harmonic, omega_tau, ks, M):
        precond = build(harmonic, omega_tau, ks, M)
        builds.append((ks.tolist(), precond.rcond))
        return precond

    monkeypatch.setattr(periodic, "odd_in_u", lambda b, lam: True)
    monkeypatch.setattr(periodic, "block_preconditioner", recording)
    cfg = write_config(
        tmp_path, b="-u2 - u3 + 0.5*u1^2 - u1^3/6",
        solver={"M": 128, "M_solve": 32, "N": 6, "K_max": 4,
                "eps_grid": [0.02, 0.03, 0.04]})
    out = tmp_path / "branch.json"
    assert run_cli("branch", cfg, "--out", str(out)) == 0
    diag = json.loads(out.read_text())["diagnostics"]
    assert diag["harmonics"] == "all"
    assert any(0 not in ks for ks, _ in builds)     # the odd solve was tried
    rcond, k = min((float(x), k) for ks, r in builds if 0 in ks
                   for k, x in zip(ks, r))
    assert (diag["min_block_rcond"], diag["min_block_rcond_harmonic"]) == (rcond, k)
    assert diag["preconditioner_builds"] == len(builds)


@pytest.mark.parametrize("config, iterations", [(BRANCH, 14), (SUPER, 10)],
                         ids=["benchmark_branch", "benchmark_super"])
def test_one_linearization_per_newton_iteration(tmp_path, monkeypatch, config,
                                                iterations):
    # the tangent, the preconditioner build at the guess and its rebuild
    # after a GMRES failure all share their iteration's set-up
    calls, setup = [], periodic._linearization

    def counting(*args):
        calls.append(1)
        return setup(*args)

    monkeypatch.setattr(periodic, "_linearization", counting)
    out = tmp_path / "branch.json"
    assert run_cli("branch", str(config), "--out", str(out)) == 0
    diag = json.loads(out.read_text())["diagnostics"]
    assert len(calls) == sum(diag["newton_iterations"]) == iterations


@pytest.mark.parametrize("config, plans, in_solves",
                         [(BRANCH, 33, 22), (SUPER, 25, 16)],
                         ids=["benchmark_branch", "benchmark_super"])
def test_cumulative_rule_plans_per_branch(tmp_path, monkeypatch, config, plans,
                                          in_solves):
    # each Newton solve plans a cumulative rule at most once per array
    # shape and dtype it meets, where each quadrature once planned its own
    # (about 400 per branch); the rest are the certificate's, the operator
    # context's and one per PDE residual check
    made, current, solves = [], [None], iter(range(1, 1000))
    rule = importlib.import_module("hopfwave.quadrature").cumulative_rule
    newton = periodic._newton

    def counting(shape, h, dtype=np.float64):
        made.append((current[0], tuple(shape), np.dtype(dtype).name))
        return rule(shape, h, dtype)

    def solve(*args):
        current[0] = next(solves)
        try:
            return newton(*args)
        finally:
            current[0] = None

    for name in ("quadrature", "harmonic", "timedomain"):
        module = importlib.import_module(f"hopfwave.{name}")
        if hasattr(module, "cumulative_rule"):
            monkeypatch.setattr(module, "cumulative_rule", counting)
    monkeypatch.setattr(periodic, "_newton", solve)
    out = tmp_path / "branch.json"
    assert run_cli("branch", str(config), "--out", str(out)) == 0
    planned = [m for m in made if m[0] is not None]
    assert len(set(planned)) == len(planned)
    assert (len(made), len(planned)) == (plans, in_solves)


def test_branch_deterministic(tmp_path):
    cfg = write_config(
        tmp_path,
        solver={"M": 128, "M_solve": 32, "N": 6, "K_max": 4,
                "eps_grid": [0.02, 0.03, 0.04]})
    out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
    assert run_cli("branch", cfg, "--seed", "7", "--out", str(out1)) == 0
    assert run_cli("branch", cfg, "--seed", "7", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    diag = json.loads(out1.read_text())["diagnostics"]
    assert diag["preconditioner_builds"] >= 1
    for key in ("newton_iterations", "gmres_matvecs", "line_search_halvings"):
        assert len(diag[key]) == 3
    assert all(n >= 1 for n in diag["newton_iterations"])
    assert diag["min_block_rcond"] >= 1e-12
    assert 0 <= diag["min_block_rcond_harmonic"] <= 6


@pytest.mark.parametrize("args, runs", [
    (("branch", SUPER), 6),
    (("branch", BRANCH), 2),
    (("certificate", SUPER), 2),
    (("certificate", BRANCH), 2),
    (("direction", SUPER), 2),
    (("direction", BRANCH), 2),
    (("simulate", SUPER, "--tau", "1.6", "--T", "100"), 2),
], ids=lambda p: p if isinstance(p, int) else f"{p[0]}-{p[1].stem}")
def test_outputs_identical_across_processes(tmp_path, args, runs):
    # a fresh interpreter per run, two at a time: the exit code, stdout and
    # every file written next to --out must match byte for byte
    results = []
    for first in range(0, runs, 2):
        procs = {}
        for i in range(first, min(first + 2, runs)):
            (tmp_path / str(i)).mkdir()
            out = tmp_path / str(i) / "out.json"
            procs[i] = _cli_process(*map(str, args), "--out", str(out))
        for i, proc in procs.items():
            stdout, _ = proc.communicate(timeout=300)
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in (tmp_path / str(i)).iterdir()}
            results.append({"exit": proc.returncode, "stdout": stdout,
                            **digests})
    assert "out.json" in results[0]
    for result in results[1:]:
        assert result == results[0]


def _strict_json_line(path):
    """The document in path, which must be one line of JSON plus LF with
    no NaN or Infinity token."""
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1, path.name
    return json.loads(text, parse_constant=pytest.fail)


def test_documents_are_one_strict_json_line(tmp_path):
    cfg = write_config(
        tmp_path, solver={"M": 128, "M_solve": 32, "N": 4, "K_max": 4,
                          "eps_grid": [0.02, 0.03, 0.04]})
    for args in (["certificate"], ["direction"], ["branch"],
                 ["simulate", "--tau", "1.6", "--T", "120"]):
        out = tmp_path / f"{args[0]}.json"
        assert run_cli(args[0], cfg, *args[1:], "--out", str(out)) == 0
    docs = {p.name: _strict_json_line(p) for p in tmp_path.glob("*.json")
            if p.name != "prob.json"}
    assert sorted(docs) == ["branch.json", "branch_orbits.json",
                            "certificate.json", "direction.json",
                            "simulate.json"]
    # why each solve stopped, after the existing diagnostics
    diag = docs["branch.json"]["diagnostics"]
    assert list(diag)[-2:] == ["min_block_rcond_harmonic", "newton_stop"]
    assert len(diag["newton_stop"]) == 3
    assert set(diag["newton_stop"]) <= {"roundoff floor", "no decrease"}


def test_branch_rejects_degenerate_grid(tmp_path):
    cfg = write_config(tmp_path, solver={"eps_grid": [0]})
    assert run_cli("branch", cfg) == 2


def test_branch_convergence_failure_exit(tmp_path):
    # a one-iteration budget cannot reach the orbit tolerance at the first
    # amplitude, so the command reports the convergence failure
    cfg = write_config(
        tmp_path,
        solver={"M": 128, "M_solve": 32, "N": 4, "K_max": 4,
                "eps_grid": [0.2, 0.25, 0.3], "max_iter": 1})
    out = tmp_path / "branch.json"
    assert run_cli("branch", cfg, "--out", str(out)) == 5
    doc = json.loads(out.read_text())
    assert doc["last_good_eps"] is None


def test_direction_rho_zero_exit(tmp_path):
    cfg = write_config(tmp_path, b="0*u1")
    out = tmp_path / "dir.json"
    assert run_cli("direction", cfg, "--out", str(out)) == 3
    doc = json.loads(out.read_text())
    assert "direction_error" in doc


def test_simulate_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sim.json"
    code = run_cli("simulate", cfg, "--tau", "1.6", "--T", "120",
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["period_estimate"] > 0
    csv_path = out.with_suffix(".csv")
    assert csv_path.read_text().splitlines()[0] == "t,u_probe"


def test_simulate_diagnostics(tmp_path):
    # the counts behind period_estimate follow the existing keys
    cfg = write_config(tmp_path)
    out = tmp_path / "sim.json"
    assert run_cli("simulate", cfg, "--tau", "1.6", "--T", "120",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["tau", "T_end", "period_estimate", "amplitude", "seed",
                         "steps", "dt", "lag", "w", "crossings",
                         "period_spread", "envelope_drift"]
    assert doc["steps"] == math.ceil(120 / doc["dt"])
    assert doc["lag"] + doc["w"] == pytest.approx(1.6 / doc["dt"], rel=1e-12)
    assert doc["crossings"] >= 2
    assert 0.0 <= doc["period_spread"] < doc["period_estimate"]
    assert doc["envelope_drift"] <= timedomain.SETTLE_TOL


def test_simulate_negative_delay(tmp_path):
    cfg = write_config(tmp_path)
    assert run_cli("simulate", cfg, "--tau", "-0.5") == 6


def test_input_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("certificate", str(bad)) == 2
    assert run_cli("certificate", write_config(tmp_path, frobnicate=1)) == 2
    assert run_cli("certificate",
                   write_config(tmp_path, solver={"Mx": 12})) == 2
    assert run_cli("certificate", write_config(tmp_path, b="u1 +")) == 2
    # a constant power with no value once escaped parsing as a traceback
    assert run_cli("certificate",
                   write_config(tmp_path, b="-u1^3/6 - u2 - u3 + u1*0^-2")) == 2
    assert run_cli("certificate", write_config(tmp_path, tau_guess=None)) == 2
    assert run_cli("certificate", str(tmp_path / "missing.json")) == 2


def test_unreadable_paths_exit_2(tmp_path, capsys):
    # a directory as the problem file or as --out is an input error
    assert run_cli("certificate", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    cfg = write_config(tmp_path)
    assert run_cli("certificate", cfg, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("folder", [".", "d.v2"])
def test_companion_files_written_next_to_out(tmp_path, monkeypatch, folder):
    cfg = write_config(
        tmp_path,
        solver={"M": 128, "M_solve": 32, "N": 6, "K_max": 4,
                "eps_grid": [0.02, 0.03, 0.04]})
    monkeypatch.chdir(tmp_path)
    (tmp_path / folder).mkdir(exist_ok=True)
    assert run_cli("branch", cfg, "--out", f"{folder}/br") == 0
    assert run_cli("simulate", cfg, "--tau", "1.6", "--T", "120",
                   "--out", f"{folder}/sim") == 0
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                     if p.is_file() and p.name != "prob.json")
    names = ["br", "br.csv", "br_orbits.json", "sim", "sim.csv"]
    assert written == sorted(str(Path(folder) / n) for n in names)


@pytest.mark.parametrize("args, solver, code", [
    (["branch"], {"M": 64, "M_solve": 32, "N": 3, "K_max": 8,
                  "eps_grid": [0.01, 0.02, 6.0], "max_iter": 1}, 5),
    (["simulate", "--tau", "1.6", "--T", "0.01"], {"M": 64, "K_max": 5}, 6)],
    ids=["branch-5", "simulate-6"])
def test_failing_run_writes_no_companion_file(tmp_path, args, solver, code):
    # the CSV and orbits files belong to a run that succeeds
    cfg = write_config(tmp_path, solver=solver)
    out = tmp_path / "run.json"
    assert run_cli(args[0], cfg, *args[1:], "--out", str(out)) == code
    assert "error" in json.loads(out.read_text())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["prob.json", "run.json"]


def test_tracer_targets_exist():
    # the benchmark tracer wraps these functions by name: one renamed or
    # removed in the package makes every traced run fail at install
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    main = cli.main
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.main is not main
    finally:
        tracer.uninstall()
    assert cli.main is main


def test_tracer_targets_resolve():
    # read only: each span target, a dotted one a method of its class, is a
    # name in its hopfwave module, so a traced run never meets a rename
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, module, attr in tracing.TARGETS:
        owner = importlib.import_module(f"hopfwave.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize("key, value", [
    ("tau_guess", [1.4]), ("lambda", "0"), ("a", 2), ("b", 5),
    ("beta", ["-u1^3/6", "-u2", "-u3", 0]),
    ("M", "abc"), ("M", 100.5), ("M", 8), ("M_solve", 48), ("N", 0),
    ("N", True), ("K_max", 3.5), ("K_max", 1), ("max_iter", "5"),
    ("eps_grid", ["a", "b", "c"]),
])
def test_config_value_types(tmp_path, key, value):
    # each of these once escaped load_problem as a traceback (or, for a
    # non-dividing M_solve, as a ValueError after certification)
    doc = json.loads(SUPER.read_text())
    if key in cli._SOLVER_DEFAULTS:
        doc["solver"][key] = value
    else:
        doc[key] = value
    if key == "beta":
        del doc["b"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.ConfigError):
        cli.load_problem(str(path))
    assert run_cli("branch", str(path)) == 2


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cert.json"
    proc = _cli_process("certificate", cfg, "--out", str(out))
    _, stderr = proc.communicate()
    assert proc.returncode == 0, stderr.decode()
    assert json.loads(out.read_text())["flags"]["pass"] is True


def test_beta_form_config_equivalent(tmp_path):
    joint = write_config(tmp_path, name="joint.json")
    split = write_config(tmp_path, name="split.json", b=None,
                         beta=["-u1^3/6", "-u2", "-u3", "0*u4"])
    out_j, out_s = tmp_path / "j.json", tmp_path / "s.json"
    assert run_cli("direction", joint, "--out", str(out_j)) == 0
    assert run_cli("direction", split, "--out", str(out_s)) == 0
    dj = json.loads(out_j.read_text())["direction"]
    ds = json.loads(out_s.read_text())["direction"]
    assert abs(dj["d2tau"] - ds["d2tau"]) < 1e-12


def test_repo_benchmark_configs_load():
    spec, settings = cli.load_problem(str(SUPER))
    assert settings.tau_guess == 1.4
    spec2, settings2 = cli.load_problem(str(BRANCH))
    assert settings2.eps_grid[0] == 0.005


def test_branch_survives_domain_error(tmp_path):
    # past eps = 0.03 Newton trial steps leave the domain of the square
    # root; the line search halves them, and the command reports the
    # convergence failure with the partial document instead of a traceback
    cfg = write_config(
        tmp_path, b="-u2 - u3 + 0.01*(sqrt(1 + 50*u1) - 1 - 25*u1)",
        solver={"N": 8, "M": 256, "M_solve": 64,
                "eps_grid": [0.01, 0.02, 0.03, 0.04, 0.05]})
    out = tmp_path / "branch.json"
    assert run_cli("branch", cfg, "--out", str(out)) == 5
    doc = json.loads(out.read_text())
    assert doc["last_good_eps"] == 0.03
    assert "line search" in doc["error"]
    assert "certificate" in doc


@pytest.mark.parametrize("error, code", [
    (JacobianSingular("singular"), 3),
    (EvalDomainError("not finite"), 5),
    (NoConvergence("stalled", last_good=0.02), 5),
])
def test_branch_error_exit_codes(tmp_path, monkeypatch, error, code):
    def failing(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli.periodic, "continue_branch", failing)
    cfg = write_config(
        tmp_path, solver={"M": 128, "M_solve": 32, "N": 4, "K_max": 4,
                          "eps_grid": [0.02, 0.03, 0.04]})
    out = tmp_path / "branch.json"
    assert run_cli("branch", cfg, "--out", str(out)) == code
    doc = json.loads(out.read_text())
    assert doc["error"] == str(error)
    assert doc["last_good_eps"] == getattr(error, "last_good", None)
    assert "certificate" in doc and "direction" in doc


def test_certificate_wave_speed_not_evaluable(tmp_path):
    # a = 1/x is not finite at x = 0: rejected while loading, exit 2
    cfg = write_config(tmp_path, a="1/x")
    assert run_cli("certificate", cfg) == 2


def test_direction_b_not_differentiable_at_zero(tmp_path):
    # u1*sqrt(u1^2) = u1*|u1| has no finite derivative formula at u = 0,
    # so the linearization inside certify fails: an input error
    cfg = write_config(tmp_path, b="-u2 - u3 - u1*sqrt(u1^2)",
                       solver={"M": 64, "K_max": 5})
    out = tmp_path / "dir.json"
    assert run_cli("direction", cfg, "--out", str(out)) == 2
    assert not out.exists()


def test_direction_structure_check_not_evaluable(tmp_path):
    # the certificate passes, but the cubic-structure check evaluates b
    # where sqrt(1 + 5*u1) is undefined: a structure error, exit 4
    cfg = write_config(tmp_path, b="-u2 - u3 + u1^2*u3*sqrt(1 + 5*u1)",
                       solver={"M": 64, "K_max": 5})
    out = tmp_path / "dir.json"
    assert run_cli("direction", cfg, "--out", str(out)) == 4
    doc = json.loads(out.read_text())
    assert "not finite" in doc["direction_error"]
    assert doc["flags"]["pass"] is True


def test_simulate_blow_up_exit(tmp_path):
    # the anti-damped cubic drives the solution past the float range
    cfg = write_config(tmp_path, b="u1^3 + 3*u2 + u3",
                       solver={"M": 64, "K_max": 5})
    out = tmp_path / "sim.json"
    assert run_cli("simulate", cfg, "--tau", "3.0", "--T", "100",
                   "--out", str(out)) == 6
    doc = json.loads(out.read_text())
    assert doc["tau"] == 3.0 and doc["T_end"] == 100.0 and doc["seed"] == 0
    assert "not finite" in doc["error"]


def test_simulate_not_finite_document(tmp_path):
    # b overflows mid-run: exit 6 and the partial document, byte for byte
    cfg = write_config(tmp_path, b="50*u1^3 + u1 - u2 - u3",
                       solver={"M": 64, "K_max": 5})
    out = tmp_path / "sim.json"
    assert run_cli("simulate", cfg, "--tau", "1.6", "--out", str(out)) == 6
    assert out.read_text() == (
        '{"tau": 1.6, "T_end": 200.0, "seed": 0, "error": "expression not '
        'finite at the given point: 50.0*u1^3 + u1 - u2 - u3"}\n')


def test_simulate_b_not_differentiable_at_zero(tmp_path):
    # the stepper linearizes b at u = 0 before any step: an input error,
    # as for the other commands
    cfg = write_config(tmp_path, b="-u2 - u3 - u1*sqrt(u1^2)",
                       solver={"M": 64, "K_max": 5})
    out = tmp_path / "sim.json"
    assert run_cli("simulate", cfg, "--tau", "1.6", "--T", "20",
                   "--out", str(out)) == 2
    assert not out.exists()


def test_b_not_differentiable_at_file_lambda(tmp_path, capsys):
    # 3 u1^2 / (2x - 2 lambda + 1) is singular at x = 1/4 when lambda = 0.75:
    # certification linearizes at lambda = 0 and passes, while branch and
    # simulate linearize at the file's lambda and report an input error
    # (branch once ended in a traceback)
    cfg = write_config(
        tmp_path, b="u1^3/(2*x - 2*lambda + 1) - u2 - u3",
        solver={"N": 4, "M": 64, "M_solve": 32, "eps_grid": [0.01, 0.02, 0.03]},
        **{"lambda": 0.75})
    for command in ("certificate", "direction"):
        assert run_cli(command, cfg, "--out", str(tmp_path / "c.json")) == 0
    for command, flags in (("branch", []), ("simulate", ["--tau", "1.6"])):
        out = tmp_path / f"{command}.json"
        capsys.readouterr()
        assert run_cli(command, cfg, *flags, "--out", str(out)) == 2
        assert "cannot linearize at u = 0" in capsys.readouterr().err
        assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command, code", [
    ("certificate", 3), ("direction", 3), ("branch", 3)])
def test_failure_documents_are_strict_json(tmp_path, command, code):
    # no critical mode: tau0, sigma and rho are never computed and are
    # written as null, not as the NaN token that RFC 8259 lacks
    cfg = write_config(tmp_path, a="1", b="-u3 - u1^3",
                       solver={"M": 64, "K_max": 4}, tau_guess=1.0)
    out = tmp_path / "doc.json"
    assert run_cli(command, cfg, "--out", str(out)) == code
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    cert = doc["certificate"] if command == "branch" else doc
    assert cert["flags"]["pass"] is False
    assert [cert[k] for k in ("tau0", "sigma", "sigma_raw", "rho")] == [None] * 4


def test_resonance_scan_past_grid_resolution_is_strict_json(tmp_path):
    # K_max = 2000 is far past what RK4 resolves on M = 64: the shots
    # overflow, and |D(ik)| that is not a finite number is written as null
    cfg = write_config(tmp_path, solver={"M": 64, "K_max": 2000})
    out = tmp_path / "cert.json"
    assert run_cli("certificate", cfg, "--out", str(out)) == 3
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert len(doc["a2_scan"]) == 3999
    assert None in [d for _, d in doc["a2_scan"]]
    assert doc["flags"]["a2"] is False


NO_MODE = {"a": "1", "b": "-u3 - u1^3", "tau_guess": 1.0,
           "solver": {"M": 64, "K_max": 4}}


@pytest.mark.parametrize("args, config, code, key", [
    (["certificate"], NO_MODE, 3, "flags"),
    (["direction"], NO_MODE, 3, "direction_error"),
    (["branch"], NO_MODE, 3, "error"),
    (["direction"], {"b": "-u1^3/6 - u2 - u3 + u1*u3^2"}, 4, "direction_error"),
    (["simulate", "--tau", "1.6", "--T", "0.01"], {}, 6, "error")],
    ids=["certificate-3", "direction-3", "branch-3", "direction-4", "simulate-6"])
def test_failure_documents_go_to_stdout_without_out(tmp_path, capsys, args,
                                                     config, code, key):
    # the partial document of a failing run once went only to --out
    cfg = write_config(tmp_path, **config)
    assert run_cli(args[0], cfg, *args[1:]) == code
    captured = capsys.readouterr()
    assert key in json.loads(captured.out, parse_constant=_reject_constant)
    assert captured.err.startswith("error: ")
    out = tmp_path / "doc.json"
    assert run_cli(args[0], cfg, *args[1:], "--out", str(out)) == code
    assert capsys.readouterr().out == ""
    assert out.read_text() == captured.out


@pytest.mark.parametrize("args", [
    ["certificate"], ["direction"], ["branch"], ["simulate", "--tau", "1.6"]],
    ids=["certificate", "direction", "branch", "simulate"])
def test_negative_seed_rejected(tmp_path, capsys, args):
    out = tmp_path / "doc.json"
    assert run_cli(args[0], write_config(tmp_path), *args[1:], "--seed", "-1",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: --seed must be a non-negative integer, got -1\n")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["certificate"], ["direction"], ["branch"],
    ["simulate", "--tau", "1.6", "--T", "2"]],
    ids=["certificate", "direction", "branch", "simulate"])
def test_no_command_imports_scipy(tmp_path, args):
    # the package depends on numpy alone; importing scipy would cost each
    # command a few tenths of a second of startup and about 20 MB
    argv = [args[0], write_config(tmp_path), *args[1:], "--out", "o.json"]
    code = (f"import sys; from hopfwave import cli; cli.main({argv!r}); "
            "print('scipy' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path),
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_simulate_needs_tau(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert run_cli("simulate", write_config(tmp_path), "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: simulate needs --tau\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, flag", [
    (["--tau", "1.6", "--T", "inf"], "--T"),
    (["--tau", "1.6", "--T", "0"], "--T"),
    (["--tau", "1.6", "--T", "-5"], "--T"),
    (["--tau", "nan"], "--tau"),
    (["--tau", "inf"], "--tau"),
    (["--tau", "1.6", "--T", "1e20"], "--T"),
    (["--tau", "1.6", "--T", "1e308"], "--T"),
])
def test_simulate_rejects_bad_flag_values(tmp_path, capsys, flags, flag):
    # these once ended in an OverflowError traceback or in numpy-internal
    # messages; each is now an input error naming the flag
    out = tmp_path / "sim.json"
    assert run_cli("simulate", write_config(tmp_path), *flags,
                   "--out", str(out)) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


# 2*5e16 + 1 float64 nodes (711 PiB) and the 0.5 EiB tail record of
# T = 1e15 exceed every 64-bit address space, so the allocation fails at
# once whatever the overcommit setting; both stay below numpy's 8 EiB
# limit, above which numpy raises ValueError instead
HUGE = 5 * 10 ** 16


@pytest.mark.parametrize("huge_grid, args", [
    (True, ["certificate"]), (True, ["direction"]), (True, ["branch"]),
    (True, ["simulate", "--tau", "1.6"]),
    (False, ["simulate", "--tau", "1.6", "--T", "1e15"])],
    ids=["certificate", "direction", "branch", "simulate", "simulate-horizon"])
def test_problem_too_large_for_memory(tmp_path, capsys, huge_grid, args):
    cfg = (write_config(tmp_path, solver={"M": HUGE, "M_solve": HUGE, "K_max": 5})
           if huge_grid else str(SUPER))
    assert run_cli(args[0], cfg, *args[1:]) == 2
    assert capsys.readouterr().err.startswith("error: problem too large for memory")


@pytest.mark.parametrize("b", [
    "-u2 - u3 + " + " + ".join(f"{k}*u1" for k in range(1, 1001)),
    "-u2 - u3 + " + "(" * 3000 + "u1" + ")" * 3000], ids=["sum", "parentheses"])
def test_expression_nested_too_deeply(tmp_path, capsys, b):
    # a 1000-term sum recursed too deeply in compiling b, 3000 nested
    # parentheses in parsing it; both once ended in a RecursionError traceback
    assert run_cli("certificate", write_config(tmp_path, b=b)) == 2
    assert capsys.readouterr().err == "error: an expression nests too deeply\n"


@pytest.mark.parametrize("T, n_steps", [("0.01", 2), ("0.001", 1)])
def test_simulate_horizon_too_short_to_judge(tmp_path, T, n_steps):
    # a run of one or two steps leaves a one-step tail with no halves to
    # compare: once a numpy reduction error with no JSON written
    out = tmp_path / "sim.json"
    assert run_cli("simulate", str(SUPER), "--tau", "1.6", "--T", T,
                   "--out", str(out)) == 6
    doc = json.loads(out.read_text())
    assert doc["T_end"] == float(T)
    assert f"tail holds 1 of {n_steps} steps" in doc["error"]


def test_simulate_delay_beyond_history_ring(tmp_path):
    # a delay of 1e300 time units cannot be held in the history ring: the
    # simulator refuses it before allocating, and the command writes the
    # partial document
    out = tmp_path / "sim.json"
    assert run_cli("simulate", write_config(tmp_path), "--tau", "1e300",
                   "--out", str(out)) == 6
    doc = json.loads(out.read_text())
    assert doc["tau"] == 1e300 and doc["T_end"] == 200.0
    assert "history ring" in doc["error"]


def test_branch_pde_residual_error_exit(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise EvalDomainError("not finite")
    monkeypatch.setattr(cli.periodic, "pde_residual_check", failing)
    cfg = write_config(
        tmp_path, solver={"M": 128, "M_solve": 32, "N": 6, "K_max": 4,
                          "eps_grid": [0.02, 0.03, 0.04]})
    out = tmp_path / "branch.json"
    assert run_cli("branch", cfg, "--out", str(out)) == 5
    doc = json.loads(out.read_text())
    assert doc["error"] == "not finite"
    assert "certificate" in doc


def test_branch_without_critical_mode_writes_summary(tmp_path):
    # no pure-imaginary eigenvalue: nothing to continue, but the summary
    # with the failed certificate is still written
    cfg = write_config(tmp_path, b="-u2", solver={"M": 64, "K_max": 5})
    out = tmp_path / "branch.json"
    assert run_cli("branch", cfg, "--out", str(out)) == 3
    doc = json.loads(out.read_text())
    assert doc["seed"] == 0
    assert "no certified critical mode" in doc["error"]
    assert doc["certificate"]["flags"]["a1"] is False
    assert doc["certificate"]["flags"]["pass"] is False


def test_stdout_matches_out_file(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "cert.json"
    assert run_cli("certificate", cfg, "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("certificate", cfg) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("args", [
    ["certificate"], ["direction"], ["branch"], ["simulate", "--tau", "1.6"]],
    ids=["certificate", "direction", "branch", "simulate"])
def test_wave_speed_depending_on_u_rejected(tmp_path, capsys, args):
    # the problem class has a(x, lambda) only; evaluating a at u = 0 would
    # hide the dependence
    cfg = write_config(tmp_path, a="2/pi + u1^2")
    out = tmp_path / "doc.json"
    assert run_cli(args[0], cfg, *args[1:], "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "['u1']" in err
    assert not out.exists()


@pytest.mark.parametrize("args, name", [
    (["branch"], "b.csv"), (["simulate", "--tau", "1.6", "--T", "100"], "clash.csv")],
    ids=["branch", "simulate"])
def test_out_overwritten_by_companion_rejected(tmp_path, capsys, args, name):
    # the CSV written next to such an --out is --out itself and would
    # replace the summary
    out = tmp_path / name
    assert run_cli(args[0], write_config(tmp_path), *args[1:],
                   "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: --out {out} ")
    assert not out.exists()
