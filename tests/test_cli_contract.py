"""The CLI contract on generated problems: every run ends in a documented
exit code, writes the keys its command promises for that code, reports a
failure on one stderr line, and writes the same bytes when run again.

The problems are the benchmark's certify family, a = 2/pi and
b = -q u1^3 - c(x) u2 - c(x) u3 with c > 0, whose Hopf point is pi/2 for
every c, so every run gets past certification. Perturbations then steer
runs onto the deep paths: a resonance scan to K_max = 120 on M = 64 (it
fails a2 today, exit 3 from certificate, but its code is not pinned), a
quadratic or a mixed cubic term (exit 4 from direction), a term that
leaves its domain, eps grids past the branch's reach or a single Newton
iteration (exit 5), and simulate on either side of pi/2.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hopfwave import cli

EXIT_CODES = {"certificate": {0, 3}, "direction": {0, 3, 4}, "branch": {0, 3, 5},
              "simulate": {0, 6}}
CERTIFICATE_KEYS = {"tau0", "sigma", "sigma_raw", "rho", "fredholm", "flags",
                    "a2_scan", "low_confidence", "seed"}
BRANCH_KEYS = {"seed", "certificate", "eps", "omega", "tau", "residual_norm",
               "pde_residual", "fit_tau_curvature", "fit_tau_slope",
               "fit_omega_curvature", "fit_omega_slope", "diagnostics"}
SIMULATE_KEYS = {"tau", "T_end", "period_estimate", "amplitude", "seed", "steps",
                 "dt", "lag", "w", "crossings", "period_spread", "envelope_drift"}
SOLVER = {"M": 64, "M_solve": 32, "N": 3, "K_max": 8,
          "eps_grid": [0.01, 0.02, 0.03]}
DOMAIN = " + 0.01*(sqrt(1 + 50*u1) - 1 - 25*u1)"     # not finite for u1 < -0.02
# perturbation: (extra term of b, command and flags, solver overrides,
# the exit code it must end in or None); simulate draws its --tau from
# the given side of pi/2
PERTURBATIONS = {
    "certificate": ("", ["certificate"], {}, 0),
    "wide_scan": ("", ["certificate"], {"K_max": 120}, None),
    "direction": ("", ["direction"], {}, 0),
    "branch": ("", ["branch"], {}, 0),
    "quadratic": (" + 0.5*u1^2", ["direction"], {}, 4),
    "mixed": (" + 0.3*u1*u3^2", ["direction"], {}, 4),
    "domain_direction": (DOMAIN, ["direction"], {}, None),
    "domain_branch": (DOMAIN, ["branch"], {}, None),
    "past_reach": ("", ["branch"], {"eps_grid": [0.01, 0.02, 6.0], "max_iter": 5}, 5),
    "one_iteration": ("", ["branch"], {"eps_grid": [0.01, 0.02, 6.0], "max_iter": 1}, 5),
    "simulate_below": ("", ["simulate", (1.3, 1.5)], {}, None),
    "simulate_above": ("", ["simulate", (1.65, 1.85)], {}, None),
}


def _num(v):
    return f"{v:.4f}"


@st.composite
def problems(draw):
    """A problem document of the family: c(x) linear or exponential."""
    floats = st.floats
    if draw(st.booleans()):
        c = f"{_num(draw(floats(0.4, 1.2)))} + {_num(draw(floats(0.0, 0.8)))}*x"
    else:
        c = f"{_num(draw(floats(0.4, 1.0)))}*exp({_num(draw(floats(-1.0, 1.0)))}*x)"
    q = draw(floats(0.05, 0.5))
    return {"a": "2/pi", "b": f"-{_num(q)}*u1^3 - ({c})*u2 - ({c})*u3",
            "tau_guess": 1.4, "solver": dict(SOLVER)}


def _run(folder, doc, args):
    """Run the CLI on doc in folder; return (code, stderr, written bytes)."""
    problem = Path(folder) / "problem.json"
    problem.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([args[0], str(problem), *args[1:],
                         "--out", str(Path(folder) / "doc.json")])
    files = {p.name: p.read_bytes() for p in sorted(Path(folder).iterdir())
             if p.name != "problem.json"}
    return code, err.getvalue(), files


def _promised(command, code, doc):
    """The keys the CLI promises for a document of command ending in code."""
    if command == "certificate":
        return CERTIFICATE_KEYS
    if command == "direction":
        return CERTIFICATE_KEYS | {"direction" if code == 0 else "direction_error"}
    if command == "branch":
        if code == 0:
            return BRANCH_KEYS | {"direction" if "direction" in doc else "direction_error"}
        return {"seed", "certificate", "error"} | ({"last_good_eps"} if code == 5 else set())
    return SIMULATE_KEYS if code == 0 else {"tau", "T_end", "seed", "error"}


@pytest.mark.parametrize("perturbation", PERTURBATIONS)
@settings(max_examples=4, derandomize=True, database=None, deadline=None)
@given(doc=problems(), tau=st.floats(0.0, 1.0))
def test_cli_contract_on_generated_problems(perturbation, doc, tau):
    term, args, solver, expected = PERTURBATIONS[perturbation]
    doc = {**doc, "b": doc["b"] + term, "solver": {**doc["solver"], **solver}}
    if args[0] == "simulate":
        low, high = args[1]
        args = ["simulate", "--tau", _num(low + tau * (high - low)), "--T", "30"]
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as again:
        code, err, files = _run(first, doc, args)
        assert code in EXIT_CODES[args[0]]
        if expected is not None:
            assert code == expected
        out = json.loads(files["doc.json"])
        assert _promised(args[0], code, out) <= set(out)
        if code == 0:
            assert err == ""
        else:
            assert err.count("\n") == 1 and err.startswith("error: ")
        assert _run(again, doc, args) == (code, err, files)
