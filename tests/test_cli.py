"""Command-line contract tests, run in-process through ``cli.main``.

Malformed input must exit 2 and an infeasible request 4, each with a
one-line ``error:`` message and no traceback; a fixed command line must
print the same bytes every time it runs.

Run with:  pytest tests/test_cli.py -v
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqmcm
from seqmcm import cli, optim, qcore


def run(capsys, argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


MALFORMED = [
    pytest.param(["sweep", "--family", "gu", "--eta0", "abc"], id="sweep-gu-eta0"),
    pytest.param(["sweep", "--family", "lifted_gu", "--eta0", "abc"], id="sweep-lifted-eta0"),
    pytest.param(["sweep", "--family", "mirror", "--eta0", "abc"], id="sweep-mirror-eta0"),
    pytest.param(
        ["sweep", "--family", "two_mixed", "--grid", '{"p": ["x"]}'], id="sweep-two-mixed-grid"
    ),
    pytest.param(
        ["sequence", "--family", "two_mixed", "--parties", "2", "--gains", "abc"],
        id="sequence-gains",
    ),
    pytest.param(
        ["sequence", "--family", "gu", "--params", '{"n": 2}', "--parties", "2", "--eta0", "0.5"],
        id="sequence-gu-n2",
    ),
    pytest.param(["sweep", "--family", "lifted_gu", "--params", '{"n": 2}'], id="sweep-lifted-n2"),
    pytest.param(["verify", "--count", "0"], id="verify-count-0"),
    pytest.param(["verify", "--count", "-5"], id="verify-count-negative"),
]


@pytest.mark.parametrize("argv", MALFORMED)
def test_malformed_input_exits_2(argv, capsys):
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "theta, rate",
    [
        pytest.param(1.0, ["--eta0", "0.1"], id="explicit-rate"),
        pytest.param(0.9, [], id="default-rate"),
    ],
)
def test_lifted_gu_rate_below_floor_exits_4(theta, rate, capsys):
    argv = ["sweep", "--family", "lifted_gu", "--params", json.dumps({"theta": theta}), *rate]
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_INFEASIBLE
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert repr(math.cos(theta)) in err  # the floor cos(theta)


RERUN = [
    pytest.param(["mcm", "--family", "mirror"], id="mcm-mirror"),
    pytest.param(
        ["sequence", "--family", "two_mixed", "--params", '{"p": 0.8, "theta": 1.2}',
         "--parties", "3"],
        id="sequence-json",
    ),
    pytest.param(
        ["sequence", "--family", "lifted_gu", "--params", '{"theta": 1.0, "lam": 0.9}',
         "--parties", "3", "--eta0", "0.6", "--format", "csv"],
        id="sequence-csv",
    ),
    pytest.param(["sweep", "--family", "lifted_gu"], id="sweep-lifted"),
    pytest.param(["family", "--family", "mirror"], id="family-mirror"),
    pytest.param(
        ["sequence", "--family", "mirror", "--parties", "4", "--eta0", "0.3,0.5,0.7,0.6"],
        id="sequence-mirror-json",
    ),
    pytest.param(
        ["sequence", "--family", "mirror", "--params", '{"theta": 2.3}', "--parties", "3",
         "--eta0", "0.6", "--format", "csv"],
        id="sequence-mirror-csv",
    ),
    pytest.param(["sweep", "--family", "mirror"], id="sweep-mirror"),
    pytest.param(["verify", "--count", "5"], id="verify"),
]


@pytest.mark.parametrize("argv", RERUN)
def test_reruns_are_byte_identical(argv, capsys):
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first[0] == cli.EXIT_OK
    assert first[1] and first == second


def test_generic_chain_rerun_is_byte_identical(tmp_path, capsys):
    e = qcore.random_ensemble(np.random.default_rng(3), 2, 3)
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(qcore.ensemble_to_json(e)))
    argv = ["sequence", "--ensemble", str(path), "--parties", "3", "--eta0", "0.9"]
    first = run(capsys, argv)
    assert first[0] == cli.EXIT_OK
    assert first == run(capsys, argv)
    assert first == run(capsys, [*argv[:-1], "0.9,0.9,0.9"])


def test_support_leak_exits_2(tmp_path, capsys):
    """A prior below the rank cutoff on a direction no other state covers
    leaves label 2 outside the support of the average: exit 2, naming it."""
    e = qcore.Ensemble(
        priors=(1.0 - 1e-12, 1e-12), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    )
    path = tmp_path / "leak.json"
    path.write_text(json.dumps(qcore.ensemble_to_json(e)))
    code, out, err = run(capsys, ["mcm", "--ensemble", str(path)])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("error: label 2: ") and "Traceback" not in err


def test_unconverged_sdp_exits_3(monkeypatch, capsys):
    """An SDP solve that runs out of Newton steps before its gap bound
    reaches the tolerance is reported, not printed as a solution."""
    monkeypatch.setattr(optim, "MAX_STEPS", 5)
    code, out, err = run(capsys, ["mcm", "--family", "gu", "--params", '{"n": 4}'])
    assert code == cli.EXIT_KKT
    assert out == ""
    assert err.startswith("error: 5 Newton steps left the gap bound at ")
    assert "Traceback" not in err


def test_ill_conditioned_average_is_solved(tmp_path, capsys):
    """Near-parallel states make rho nearly singular, so the rounding
    asymmetry of rho^-1/2 q rho_x rho^-1/2 is far above the Hermiticity
    tolerance for input; the solve still succeeds with a passing KKT check."""
    rng = np.random.default_rng(3)
    common = rng.normal(size=3) + 1j * rng.normal(size=3)
    states = []
    for _ in range(4):
        v = common + 1e-4 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        v = v / np.linalg.norm(v)
        states.append(np.outer(v, v.conj()))
    e = qcore.Ensemble(priors=(0.25,) * 4, states=tuple(states))
    path = tmp_path / "near_parallel.json"
    path.write_text(json.dumps(qcore.ensemble_to_json(e)))
    code, out, err = run(capsys, ["mcm", "--ensemble", str(path)])
    assert code == cli.EXIT_OK
    assert "Traceback" not in err
    assert json.loads(out)["kkt"]["ok"] is True


NUMPY_ONLY = """
import contextlib, io, json, sys
from importlib.metadata import packages_distributions
before = set(sys.modules)
from seqmcm import cli
argvs = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
owners = packages_distributions()
tops = {m.partition(".")[0] for m in set(sys.modules) - before}
dists = sorted({d for top in tops for d in owners.get(top, ())})
print(json.dumps({"codes": codes, "distributions": dists}))
"""


def test_commands_load_numpy_only():
    """One command of each kind, in a fresh interpreter, loads modules of
    no installed distribution but numpy (and seqmcm itself)."""
    argvs = [
        ["mcm", "--family", "gu", "--params", '{"n": 4}'],
        ["sequence", "--family", "mirror", "--parties", "3", "--eta0", "0.5"],
        ["sweep", "--family", "mirror"],
        ["verify", "--count", "2"],
        ["family", "--family", "mirror"],
    ]
    src = str(Path(seqmcm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [cli.EXIT_OK] * len(argvs)
    assert set(report["distributions"]) <= {"numpy", "seqmcm"}
