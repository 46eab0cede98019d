"""Command-line contract tests, run in-process through ``cli.main``.

Malformed input must exit 2 and an infeasible request 4, each with a
one-line ``error:`` message and no traceback; a fixed command line must
print the same bytes every time it runs.

Run with:  pytest tests/test_cli.py -v
"""

import csv
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqmcm
from seqmcm import cli, families, mcm, optim, qcore, seqchan


def run(capsys, argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _digest_tool():
    """``tools/cli_digests.py``, the output-diff harness, as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
    spec = importlib.util.spec_from_file_location("cli_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


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
    pytest.param(["verify", "--seed", "-1"], id="verify-seed-negative"),
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
        pytest.param(1.0, ["--eta0", "0.7,0.1"], id="second-rate"),
    ],
)
def test_lifted_gu_rate_below_floor_exits_4(theta, rate, capsys):
    argv = ["sweep", "--family", "lifted_gu", "--params", json.dumps({"theta": theta}), *rate]
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_INFEASIBLE
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert repr(math.cos(theta)) in err  # the floor cos(theta)


def test_lifted_gu_sweep_below_floor_names_the_party_as_its_chain_does(capsys):
    """A below-floor rate stops the sweep with the message its ``sequence``
    gives, which names the party; two states still exit 2."""
    family = ["--family", "lifted_gu", "--params", '{"theta": 1.0}']
    chain = run(capsys, ["sequence", *family, "--parties", "8", "--eta0", "0.1"])
    sweep = run(capsys, ["sweep", *family, "--eta0", "0.1"])
    assert sweep == chain
    assert sweep[0] == cli.EXIT_INFEASIBLE and sweep[2].startswith("error: infeasible: party 1: ")
    pair = run(capsys, ["sweep", "--family", "lifted_gu", "--params", '{"n": 2}'])
    assert pair[0] == cli.EXIT_INPUT and "require n >= 3" in pair[2]


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
    pytest.param(["family", "--family", "two_mixed"], id="family-two-mixed"),
    pytest.param(["family", "--family", "gu", "--params", '{"n": 5}'], id="family-gu"),
    pytest.param(
        ["family", "--family", "lifted_gu", "--params", '{"theta": 1.0, "lam": 0.9}'],
        id="family-lifted",
    ),
    pytest.param(["sweep", "--family", "two_mixed"], id="sweep-two-mixed"),
    pytest.param(["sweep", "--family", "gu"], id="sweep-gu"),
    pytest.param(
        ["sequence", "--family", "gu", "--params", '{"n": 4}', "--parties", "3",
         "--eta0", "0.2,0.5,0.7"],
        id="sequence-gu-json",
    ),
    pytest.param(
        ["sequence", "--family", "gu", "--parties", "3", "--eta0", "0.4", "--format", "csv"],
        id="sequence-gu-csv",
    ),
    pytest.param(
        ["sequence", "--family", "two_mixed", "--params", '{"p": 0.8, "theta": 1.0}',
         "--parties", "3", "--gains", "0.2,0.1,0.05", "--format", "csv"],
        id="sequence-two-mixed-gains",
    ),
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


@pytest.mark.parametrize("command", [["mcm"], ["sequence", "--parties", "2", "--eta0", "0.5"]])
def test_an_average_that_fails_validation_exits_2(command, tmp_path, capsys, monkeypatch):
    """States that pass their checks but whose average fails the trace check:
    exit 2 at load, with one error line and no traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "offaverage.json").write_text(json.dumps(_digest_tool().FILES["offaverage.json"]))
    code, out, err = run(capsys, [command[0], "--ensemble", "offaverage.json", *command[1:]])
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == ("error: cannot load ensemble offaverage.json: "
                   "density matrix trace = 1.0000000001004898, expected 1\n")


def test_unconverged_sdp_exits_3(monkeypatch, capsys, tmp_path):
    """An SDP solve that runs out of Newton steps before its gap bound
    reaches the tolerance is reported, not printed as a solution.  Qubit
    problems take no Newton step, so a qutrit ensemble runs the barrier,
    and a qubit family is untouched by the cap."""
    monkeypatch.setattr(optim, "MAX_STEPS", 5)
    path = tmp_path / "qutrit4.json"
    e = qcore.random_ensemble(np.random.default_rng(12), 3, 4)
    path.write_text(json.dumps(qcore.ensemble_to_json(e)))
    code, out, err = run(capsys, ["mcm", "--ensemble", str(path)])
    assert code == cli.EXIT_KKT
    assert out == ""
    assert err.startswith("error: 5 Newton steps left the gap bound at ")
    assert "Traceback" not in err
    code, _, _ = run(capsys, ["mcm", "--family", "gu", "--params", '{"n": 4}'])
    assert code == 0


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


def test_module_runs_as_a_script(capsys):
    """``python -m seqmcm.cli`` runs :func:`cli.main` and exits with its
    code, printing what an in-process run prints."""
    argv = ["family", "--family", "gu"]
    src = str(Path(seqmcm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "seqmcm.cli", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
    assert json.loads(proc.stdout) == json.loads(run(capsys, argv)[1])


def test_default_two_mixed_chain_exits_0(capsys):
    """p = 1, theta = pi/2: the projectors are orthogonal to rounding, so
    the party gains must come from the overlaps the parties measure."""
    code, out, err = run(capsys, ["sequence", "--family", "two_mixed", "--parties", "2"])
    assert code == cli.EXIT_OK and err == ""
    assert json.loads(out)["p_joint"] > 0.0


def test_party_after_a_full_gain_exits_4(capsys):
    """Party 1 takes the full gain C (1 - s), so party 2 faces identical
    projectors."""
    argv = ["sequence", "--family", "two_mixed", "--params", '{"p": 0.8, "theta": 1.0}',
            "--parties", "2", "--gains", "0.4957994207161462,0.01"]
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_INFEASIBLE and out == ""
    assert err.startswith("error: infeasible: party 2: projector overlap is 1")


def test_mirror_chain_leaving_its_pattern_exits_4(capsys):
    """An explicit collapse azimuth walks state 1 off the +X axis at party 6."""
    argv = ["sequence", "--family", "mirror", "--params", '{"theta": 1.88}', "--parties", "12",
            "--eta0", "0.5", "--retarget-angle", "2.5"]
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_INFEASIBLE and out == ""
    assert err == "error: infeasible: party 6: state 1 is not on the +X axis\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sequence", "--params", '{"n": 3, "theta": 1e-9}', "--parties", "2",
                      "--eta0", "1"], id="sequence"),
        pytest.param(["sweep", "--params", '{"theta": 1e-9}', "--eta0", "1"], id="sweep"),
        pytest.param(["sweep", "--params", '{"theta": 1e-9}'], id="sweep-default-rate"),
    ],
)
def test_lifted_gu_chain_where_cos_theta_rounds_to_1_exits_2(argv, capsys):
    """At theta = 1e-9, 1 - cos(theta) is 0.0: the chain's closed forms do
    not exist in floats, while the family's static values do."""
    argv = [argv[0], "--family", "lifted_gu", *argv[1:]]
    err = ("error: bad parameters for family lifted_gu: sequential closed forms require "
           "cos(theta) < 1, got 1e-09\n")
    assert run(capsys, argv) == (cli.EXIT_INPUT, "", err)
    for command in ("mcm", "family"):
        assert run(capsys, [command, *argv[1:5]])[0] == cli.EXIT_OK


@pytest.mark.parametrize(
    "flags, party, reason",
    [
        pytest.param(["--parties", "3", "--eta0", "0", "--retarget-angle", "0"], 2,
                     "theta must be in (0, pi) and away from the endpoints, got 0.0",
                     id="collapsed-labels"),
        pytest.param(["--params", '{"theta": 3.14159}', "--parties", "4", "--eta0", "0.5"], 3,
                     "theta must be in (0, pi) and away from the endpoints, got 3.141591990192345",
                     id="drift-past-pi"),
    ],
)
def test_mirror_chain_leaving_the_family_exits_4(flags, party, reason, capsys):
    """A received state outside the mirror description is infeasible for
    the party that receives it."""
    argv = ["sequence", "--family", "mirror", *flags]
    err = f"error: infeasible: party {party}: {reason}\n"
    assert run(capsys, argv) == (cli.EXIT_INFEASIBLE, "", err)


def test_mirror_family_outside_its_closed_form_exits_2(capsys):
    argv = ["family", "--family", "mirror", "--params", '{"theta": 1e-6}']
    err = ("error: bad parameters for family mirror: label 1's projector leaves the +X axis "
           "when r1 <= r2 cos theta; this configuration is outside the mirror chain analysis\n")
    assert run(capsys, argv) == (cli.EXIT_INPUT, "", err)


@pytest.mark.parametrize(
    "source, flag",
    [
        pytest.param(["--family", "two_mixed"], "--eta0", id="two_mixed-eta0"),
        pytest.param(["--family", "gu", "--eta0", "0.5"], "--gains", id="gu-gains"),
        pytest.param(["--family", "lifted_gu", "--eta0", "0.5"], "--gains", id="lifted-gains"),
        pytest.param(["--family", "mirror", "--eta0", "0.5"], "--gains", id="mirror-gains"),
        pytest.param(["--ensemble", "ENSEMBLE", "--eta0", "0.9"], "--gains", id="ensemble-gains"),
    ],
)
def test_sequence_rejects_flags_its_chain_never_reads(source, flag, tmp_path, capsys):
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(qcore.ensemble_to_json(qcore.random_ensemble(
        np.random.default_rng(3), 2, 3))))
    source = [str(path) if tok == "ENSEMBLE" else tok for tok in source]
    code, out, err = run(capsys, ["sequence", *source, "--parties", "2", flag, "0.3"])
    assert code == cli.EXIT_INPUT and out == ""
    name = "--ensemble" if source[0] == "--ensemble" else f"--family {source[1]}"
    assert err == f"error: sequence {name} does not read {flag}\n"


def test_generic_chain_below_floor_exits_4(tmp_path, capsys):
    e = qcore.random_ensemble(np.random.default_rng(3), 2, 3)
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(qcore.ensemble_to_json(e)))
    argv = ["sequence", "--ensemble", str(path), "--parties", "2", "--eta0", "0.0"]
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_INFEASIBLE
    assert out == ""
    assert err.startswith("error: infeasible: party 1: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([cmd, *src, "--seed", "3"], id=f"{cmd}-seed")
        for cmd, src in [
            ("mcm", ["--family", "gu"]),
            ("sequence", ["--family", "gu", "--parties", "2", "--eta0", "0.5"]),
            ("sweep", ["--family", "gu"]),
            ("family", ["--family", "gu"]),
        ]
    ]
    + [
        pytest.param([cmd, "--family", "gu", "--ensemble", "e.json"], id=f"{cmd}-ensemble")
        for cmd in ("sweep", "family")
    ],
)
def test_flags_no_command_reads_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_out_layout(tmp_path, capsys):
    seq = tmp_path / "seq"
    code, out, _ = run(
        capsys,
        ["sequence", "--family", "gu", "--parties", "2", "--eta0", "0.5", "--out", str(seq)],
    )
    assert code == cli.EXIT_OK
    assert out.splitlines() == [str(seq / "trace.json"), str(seq / "trace.csv")]
    assert len(json.loads((seq / "trace.json").read_text())["parties"]) == 2
    assert (seq / "trace.csv").read_text().count("\n") == 3  # header and two parties

    code, out, _ = run(capsys, ["mcm", "--family", "gu", "--out", str(tmp_path / "mcm")])
    assert code == cli.EXIT_OK
    assert out.splitlines() == [str(tmp_path / "mcm" / "mcm.json")]
    assert json.loads((tmp_path / "mcm" / "mcm.json").read_text())["kkt"]["ok"] is True

    argv = ["verify", "--suite", "proposition", "--count", "1"]
    code, out, _ = run(capsys, [*argv, "--out", str(tmp_path / "verify")])
    assert code == cli.EXIT_OK
    assert out == (tmp_path / "verify" / "verify.json").read_text()
    assert out == run(capsys, argv)[1]


@pytest.mark.parametrize(
    "name, params, fam",
    [
        ("two_mixed", {"p": 0.8, "theta": 1.2}, families.two_mixed(0.8, 1.2)),
        ("gu", {"n": 5}, families.gu(5)),
        ("lifted_gu", {"n": 4, "theta": 1.0, "lam": 0.9}, families.lifted_gu(4, 1.0, 0.9)),
        ("mirror", {"theta": 2.2}, families.mirror(2.2)),
        ("gu", {"n": 4}, families.gu(4)),
        ("gu", {"N": 4}, families.gu(4)),
        ("lifted_gu", {"lambda": 0.9}, families.lifted_gu(3, math.pi / 2, 0.9)),
    ],
)
def test_describe_is_the_family_json(name, params, fam, capsys):
    code, out, _ = run(capsys, ["family", "--family", name, "--params", json.dumps(params)])
    assert code == cli.EXIT_OK
    assert out == json.dumps(fam.describe(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("gu", {"n": 3.7}, "bad parameters for family gu: n must be an integer, got 3.7"),
        ("gu", {"m": 5}, "family gu reads no --params key m; its keys are n, N"),
        ("two_mixed", {"P": 0.5}, "family two_mixed reads no --params key P; its keys are p, theta"),
        ("gu", {"n": 4, "theta": 1.0}, "family gu reads no --params key theta; its keys are n, N"),
    ],
    ids=["gu-fractional-n", "gu-m", "two-mixed-P", "gu-theta"],
)
def test_params_a_family_never_reads_exits_2(name, params, message, capsys):
    """A key the family ignores, or a truncated count, must not build a
    default or different family silently."""
    code, out, err = run(capsys, ["family", "--family", name, "--params", json.dumps(params)])
    assert code == cli.EXIT_INPUT and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "name, first, second, value, other",
    [("gu", "n", "N", 4, 5), ("lifted_gu", "lam", "lambda", 0.5, 0.9)],
    ids=["gu-n-N", "lifted-lam-lambda"],
)
def test_two_spellings_of_one_parameter_exit_2(name, first, second, value, other, capsys):
    """Both spellings at once name both keys, whichever value each holds;
    either spelling alone prints the same family."""
    for params in ({first: value, second: other}, {second: value, first: value}):
        code, out, err = run(capsys, ["family", "--family", name, "--params", json.dumps(params)])
        assert code == cli.EXIT_INPUT and out == ""
        assert err == (
            f"error: bad parameters for family {name}: "
            f"{first} and {second} spell one parameter; give one of them\n"
        )
    alone = [run(capsys, ["family", "--family", name, "--params", json.dumps({key: value})])
             for key in (first, second)]
    assert alone[0] == alone[1] and alone[0][0] == cli.EXIT_OK and alone[0][1]


def test_solution_failing_its_complement_check_exits_3(tmp_path, monkeypatch, capsys):
    """The average of this qutrit pair has an eigenvalue of about 1e-11,
    which the rank cut drops, while state 1 keeps about 1e-10 of its weight
    there, which the support check passes; the complement operator of the
    confidence it gets has an eigenvalue of -2.0e-6.  Both commands stop
    with an error line, not a traceback."""
    monkeypatch.chdir(tmp_path)
    Path("illcond.json").write_text(json.dumps(_digest_tool().PAIRS["illcond.json"]))
    with pytest.raises(ArithmeticError, match="complement operator has eigenvalue") as full:
        mcm.solve_mcm(qcore.load_ensemble("illcond.json"))
    # the first stage alone, as a chain party reads it, fails the same check
    with pytest.raises(mcm.ComplementCheckError) as first:
        mcm.confidences(qcore.load_ensemble("illcond.json"))
    assert str(first.value) == str(full.value)
    for argv in (["mcm", "--ensemble", "illcond.json"],
                 ["sequence", "--ensemble", "illcond.json", "--parties", "2", "--eta0", "0.6"]):
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_KKT and out == ""
        assert err == (
            "error: complement operator has eigenvalue -2.049e-06; "
            "the confidence eigenvalue is inconsistent\n"
        )


MONOTONICITY = ["verify", "--suite", "monotonicity", "--count", "3"]


def test_monotonicity_suite_counts_confidence_growth(monkeypatch, capsys):
    """With a negative tolerance every chain "grows", and each draw is one
    violation with the growth check's message as witness."""
    monkeypatch.setattr(seqchan, "MONOTONIC_TOL", -1.0)
    code, out, _ = run(capsys, MONOTONICITY)
    assert code == cli.EXIT_VERIFY
    (check,) = json.loads(out)["checks"]
    assert check["worst"] == 3 and not check["pass"]
    assert check["witness"].startswith("confidence of label 1 grew from ")


def test_monotonicity_suite_infeasible_draw_exits_4(monkeypatch, capsys):
    """An infeasible party is not a violation: it exits 4 naming the party,
    as ``sequence`` does."""
    real = seqchan.weakened_mcm_strategies

    def party_2_infeasible(rates):
        def infeasible(e, j):
            raise qcore.FeasibilityError("rate below this ensemble's floor")

        return [real(rates)[0], infeasible]

    monkeypatch.setattr(seqchan, "weakened_mcm_strategies", party_2_infeasible)
    code, out, err = run(capsys, MONOTONICITY)
    assert (code, out) == (cli.EXIT_INFEASIBLE, "")
    assert err == "error: infeasible: party 2: rate below this ensemble's floor\n"


def test_monotonicity_suite_support_error_is_not_a_violation(monkeypatch, capsys):
    """A support leak in a chain exits 2, as it does for ``sequence``."""

    def leak(chain, parties):
        raise mcm.SupportError("label 1: state has weight outside the support")

    monkeypatch.setattr(seqchan, "_checked_stages", leak)
    code, out, err = run(capsys, MONOTONICITY)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "error: label 1: state has weight outside the support\n"


MIRROR_CHAIN = ["sequence", "--family", "mirror", "--parties", "2", "--eta0", "0.8"]


def test_retarget_angle_selects_the_explicit_collapse(capsys):
    code, out, err = run(capsys, [*MIRROR_CHAIN, "--retarget-angle", "1.5"])
    assert code == cli.EXIT_OK and err == ""
    assert [p["extras"]["retarget"] for p in json.loads(out)["parties"]] == [1.5, 1.5]
    assert out != run(capsys, MIRROR_CHAIN)[1]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([*MIRROR_CHAIN, "--retarget", "explicit"], id="removed-flag"),
        pytest.param(
            [*MIRROR_CHAIN, "--retarget", "explicit", "--retarget-angle", "1.5"],
            id="removed-flag-with-angle",
        ),
    ],
)
def test_retarget_flag_is_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --retarget explicit" in capsys.readouterr().err


def test_gu_reads_the_retarget_angle(capsys):
    """``gu`` is ``lifted_gu`` at the equator: an equatorial retarget is its
    default chain, byte for byte, and a polar one moves the collapse."""
    chain = ["sequence", "--family", "gu", "--parties", "2", "--eta0", "0.5"]
    default = run(capsys, chain)
    assert default[0] == cli.EXIT_OK
    assert run(capsys, [*chain, "--retarget-angle", "90deg"]) == default
    code, out, err = run(capsys, [*chain, "--retarget-angle", "1.0"])
    assert code == cli.EXIT_OK and err == "" and out != default[1]


def test_retarget_angle_rejected_where_no_chain_reads_it(tmp_path, capsys):
    path = tmp_path / "ensemble.json"
    e = qcore.random_ensemble(np.random.default_rng(3), 2, 3)
    path.write_text(json.dumps(qcore.ensemble_to_json(e)))
    for source in (
        ["--family", "two_mixed"],
        ["--ensemble", str(path), "--eta0", "0.9"],
    ):
        argv = ["sequence", *source, "--parties", "2", "--retarget-angle", "1.5"]
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_INPUT and out == "", source
        assert err.startswith("error: ") and "retarget" in err, source


def _flag_case(family, flag, value, code, message=""):
    return pytest.param(family, flag, value, code, message, id=f"{family}-{flag}-{value}")


@pytest.mark.parametrize(
    "family, flag, value, code, message",
    [
        _flag_case("two_mixed", "--params", '{"p": 5}', cli.EXIT_INPUT,
                   "bad parameters for family two_mixed: purity weight p must be in (0, 1]"),
        _flag_case("mirror", "--params", '{"theta": 9}', cli.EXIT_INPUT,
                   "bad parameters for family mirror: theta must be in (0, pi)"),
        _flag_case("gu", "--grid", '{"n": [3]}', cli.EXIT_OK),
        _flag_case("lifted_gu", "--grid", '{"theta": [1.0]}', cli.EXIT_INFEASIBLE,
                   "infeasible: party 1: inconclusive rate 0.5 below the floor"),
        _flag_case("two_mixed", "--eta0", "0.5", cli.EXIT_INPUT,
                   "sweep --family two_mixed does not read --eta0"),
        _flag_case("mirror", "--parties", "3", cli.EXIT_OK),
        _flag_case("two_mixed", "--threshold", "0.5", cli.EXIT_OK),
        _flag_case("gu", "--threshold", "0.5", cli.EXIT_OK),
        _flag_case("mirror", "--threshold", "0.5", cli.EXIT_OK),
        _flag_case("two_mixed", "--grid", '{"q": [0.5]}', cli.EXIT_INPUT,
                   "sweep --family two_mixed reads no --grid key q; its keys are p, theta"),
        _flag_case("mirror", "--grid", '{"p": [0.5]}', cli.EXIT_INPUT,
                   "sweep --family mirror reads no --grid key p; its keys are theta"),
        _flag_case("gu", "--params", '{"theta": 1.0}', cli.EXIT_INPUT,
                   "family gu reads no --params key theta; its keys are n, N"),
    ],
)
def test_sweep_rejects_flags_its_family_never_reads(family, flag, value, code, message, capsys):
    """Every family's sweep reads --params and --grid over its own keys,
    --parties and --threshold; only two_mixed, whose chain is its optimal
    schedule, reads no --eta0.  What a family never reads exits 2 naming
    it; what it reads runs, and exits as its parameters say."""
    got, out, err = run(capsys, ["sweep", "--family", family, flag, value])
    assert got == code
    if code == cli.EXIT_OK:
        assert err == "" and out.startswith(f"{cli.FAMILIES[family].keys[0]},")
    else:
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1


def test_sweep_key_in_params_and_grid_exits_2(capsys):
    argv = ["sweep", "--family", "two_mixed", "--params", '{"p": 0.8, "theta": 1.0}',
            "--grid", '{"theta": [1.0, 2.0], "p": [0.5]}']
    err = "error: --params and --grid both give p, theta\n"
    assert run(capsys, argv) == (cli.EXIT_INPUT, "", err)


@pytest.mark.parametrize(
    "family, point",
    [
        pytest.param("two_mixed", {"p": 1.5, "theta": 1.0}, id="two_mixed-p"),
        pytest.param("mirror", {"theta": 0}, id="mirror-theta"),
    ],
)
def test_failing_sweep_point_exits_as_its_chain_does(family, point, capsys):
    """A point the family cannot be built at stops the sweep with the exit
    code and message its ``sequence`` gives, and prints no rows."""
    rate = ["--eta0", "0.5"] if family == "mirror" else []
    chain = run(capsys, ["sequence", "--family", family, "--params", json.dumps(point),
                         "--parties", "1", *rate])
    grid = json.dumps({k: [v] for k, v in point.items()})
    sweep = run(capsys, ["sweep", "--family", family, "--grid", grid])
    assert sweep == chain
    assert sweep[0] == cli.EXIT_INPUT
    assert sweep[2].startswith(f"error: bad parameters for family {family}: ")


def _sweep_rows(capsys, argv):
    code, out, err = run(capsys, ["sweep", *argv])
    assert code == cli.EXIT_OK and err == ""
    return list(csv.DictReader(io.StringIO(out)))


def test_sweep_counts_parties_at_threshold(capsys):
    """lifted_gu defaults at rate 0.5 keep every confidence at or above 0.4
    for 6 of 8 parties: ``max_parties``, as the oracle and the engine both count."""
    rows = _sweep_rows(capsys, ["--family", "lifted_gu", "--threshold", "0.4"])
    last = rows[-1]
    want = min(8, families.lifted_gu(3, math.pi / 2, 1.0).max_parties(0.4, 0.5))
    assert want == 6
    assert (last["party"], last["quantity"]) == ("8", "parties_at_threshold")
    assert int(last["oracle"]) == int(last["engine"]) == want and last["residual"] == "0"


def test_sweep_mirror_angle_trichotomy(capsys):
    """``family --family mirror`` states sign(theta_next - theta) =
    sign(theta - 2 pi/3): the trine is an unstable fixed angle.  Party 2's
    ``theta`` is theta_next, in closed form and in the engine."""
    rows = _sweep_rows(capsys, ["--family", "mirror", "--eta0", "0.3,0.5,0.9"])
    seen = 0
    for row in rows:
        if (row["party"], row["quantity"]) != ("2", "theta"):
            continue
        seen += 1
        theta = float(row["theta"])
        want = theta - 2 * math.pi / 3
        for key in ("oracle", "engine"):
            drift = float(row[key]) - theta
            if abs(want) < 1e-12:
                assert abs(drift) < 1e-9
            else:
                assert math.copysign(1.0, drift) == math.copysign(1.0, want)
    assert seen == 3 * 13


SYMMETRIC_QUTRIT = qcore.Ensemble(
    priors=(1 / 3, 1 / 3, 1 / 3),
    states=(np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.5, 0.5]), np.diag([0.5, 0.0, 0.5])),
)
DEGENERATE_QUTRIT = qcore.Ensemble(
    priors=(0.5, 0.5), states=(np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.0, 1.0]))
)


@pytest.mark.parametrize(
    "e, rates, confidence",
    [
        pytest.param(SYMMETRIC_QUTRIT, "0.6,0.7", 0.5, id="symmetric-qutrit"),
        pytest.param(DEGENERATE_QUTRIT, "0.5", 1.0, id="degenerate-qutrit"),
    ],
)
def test_generic_chain_measures_rank_two_subspaces(e, rates, confidence, tmp_path, capsys):
    """Every label of the symmetric qutrit, and label 1 of the degenerate
    one, has a two-dimensional optimal subspace; the chain measures it whole
    and keeps every confidence."""
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(qcore.ensemble_to_json(e)))
    argv = ["sequence", "--ensemble", str(path), "--parties", "2", "--eta0", rates]
    code, out, err = run(capsys, [*argv, "--format", "csv"])
    assert code == cli.EXIT_OK and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    for x in e.labels:
        series = [float(row[f"confidence_{x}"]) for row in rows]
        assert all(abs(c - confidence) < 1e-12 for c in series)
        assert series[1] <= series[0] + 1e-15


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sequence", "--family", "two_mixed", "--parties", "2", "--gains", ""], "--gains is empty"),
        (["sweep", "--family", "gu", "--eta0", ""], "--eta0 is empty"),
        (["sweep", "--family", "lifted_gu", "--eta0", ""], "--eta0 is empty"),
        (["sweep", "--family", "mirror", "--eta0", ""], "--eta0 is empty"),
        (["family", "--family", "gu", "--params", ""], "--params is not valid JSON"),
        (["sweep", "--family", "two_mixed", "--grid", ""], "--grid is not valid JSON"),
        (["sequence", "--family", "gu", "--parties", "2", "--eta0", "0.5", "--out", ""],
         "--out is empty"),
        (["verify", "--count", "1", "--out", ""], "--out is empty"),
        (["sweep", "--family", "gu", "--out", ""], "--out is empty"),
        (["mcm", "--ensemble", "", "--family", "gu"], "--ensemble is empty"),
        (["mcm", "--ensemble", ""], "--ensemble is empty"),
        (["sequence", "--ensemble", "", "--parties", "2", "--eta0", "0.5"], "--ensemble is empty"),
        (["mcm", "--ensemble", "qubit.json", "--family", ""], "--family is empty"),
        (["sequence", "--ensemble", "qubit.json", "--family", "", "--parties", "2",
          "--eta0", "0.5"], "--family is empty"),
        (["family", "--family", ""], "--family is empty"),
    ],
    ids=[
        "sequence-gains", "sweep-gu", "sweep-lifted-gu", "sweep-mirror", "params", "grid",
        "sequence-out", "verify-out", "sweep-out", "ensemble-and-family", "mcm-ensemble",
        "sequence-ensemble", "mcm-family", "sequence-family", "family-family",
    ],
)
def test_empty_flag_is_malformed_not_absent(argv, message, capsys):
    """An empty value must not fall back to the default an absent flag gets."""
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_INPUT and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("family", ["two_mixed", "gu", "lifted_gu"])
@pytest.mark.parametrize("parties", ["0", "-3"])
def test_sweep_parties_below_one_exits_2(family, parties, capsys):
    code, out, err = run(capsys, ["sweep", "--family", family, "--parties", parties])
    assert code == cli.EXIT_INPUT and out == ""
    assert err == "error: --parties must be a positive integer\n"


def test_cli_digests_corpus_lines_parse():
    """The output-diff harness prints one JSON digest per command line."""
    tool = _digest_tool()
    assert len(tool.corpus()) >= 60
    for argv in tool.corpus()[:3]:  # the first lines read no ensemble file
        doc = json.loads(json.dumps(tool.digest(cli.main, argv)))
        assert doc["argv"] == argv and doc["exit"] == 0
        assert all(len(doc[k]) == 32 for k in ("stdout_md5", "stderr_md5"))


REJECTED = [
    pytest.param(["family", "--family", "gu", "--params", "[1, 2]"],
                 "error: --params must be a JSON object", id="params-not-object"),
    pytest.param(["sequence", "--family", "gu", "--parties", "3", "--eta0", "0.5,0.6"],
                 "error: --eta0 lists 2 values but --parties is 3", id="eta0-count"),
    pytest.param(["sequence", "--family", "gu", "--parties", "2"],
                 "error: this command needs --eta0", id="gu-without-eta0"),
    pytest.param(["family", "--family", "nope"], "error: unknown family 'nope'; ",
                 id="unknown-family"),
    pytest.param(["mcm", "--ensemble", "x.json", "--family", "gu"],
                 "error: give either --ensemble or --family, not both", id="both-sources"),
    pytest.param(["mcm"], "error: an ensemble source is required", id="no-source"),
    pytest.param(["verify", "--suite", "nope", "--count", "1"], "error: unknown suite 'nope'; ",
                 id="unknown-suite"),
    pytest.param(["family"], "error: family needs --family", id="family-without-family"),
    pytest.param(["sweep"], "error: sweep needs --family", id="sweep-without-family"),
    pytest.param(["sweep", "--family", "gu", "--grid", '{"n": 3}'],
                 "error: --grid must be a JSON object of lists", id="grid-not-lists"),
    pytest.param(["sweep", "--family", "gu", "--grid", '{"n": [3]}', "--eta0", "0.5",
                  "--parties", str(cli.GRID_CAP + 1)],
                 f"error: grid has {cli.GRID_CAP + 1} points; it must have 1 to {cli.GRID_CAP}",
                 id="grid-above-cap"),
]


@pytest.mark.parametrize("argv, prefix", REJECTED)
def test_rejected_command_line_exits_2_with_its_message(argv, prefix, capsys):
    code, out, err = run(capsys, argv)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err.startswith(prefix) and err.count("\n") == 1


def test_unwritable_out_exits_2(tmp_path, capsys):
    """An ``--out`` that names a file cannot hold the output directory."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, ["family", "--family", "gu", "--out", str(blocker)])
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err.startswith(f"error: cannot write family.json under {blocker}: ")


@pytest.mark.parametrize(
    "dim, message",
    [(2.5, "matrix dim must be an integer, got 2.5"),
     (math.inf, "malformed matrix object: cannot convert float infinity to integer")],
    ids=["fractional", "infinity"],
)
def test_non_integral_dim_exits_2(dim, message, tmp_path, capsys):
    """``int()`` would truncate ``2.5`` to a qubit and overflow on
    ``Infinity``: either dim is refused."""
    doc = qcore.ensemble_to_json(qcore.random_ensemble(np.random.default_rng(5), 2, 3))
    doc["states"][1]["dim"] = dim
    spoiled = tmp_path / "dim.json"
    spoiled.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["mcm", "--ensemble", str(spoiled)])
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == f"error: cannot load ensemble {spoiled}: {message}\n"


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("states", 1, "entries", 0, 0), math.nan, "density matrix has a non-finite entry"),
        (("states", 1, "entries", 1, 0), math.inf, "density matrix has a non-finite entry"),
        (("priors", 0), math.nan, "non-finite prior: nan"),
    ],
    ids=["nan-entry", "infinity-entry", "nan-prior"],
)
def test_nonfinite_ensemble_file_exits_2(path, value, message, tmp_path, capsys):
    """``json`` reads NaN and Infinity, and every comparison with NaN is
    false, so the validators must reject them before any check compares."""
    doc = qcore.ensemble_to_json(qcore.random_ensemble(np.random.default_rng(5), 2, 3))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    spoiled = tmp_path / "spoiled.json"
    spoiled.write_text(json.dumps(doc))
    for argv in (["mcm", "--ensemble", str(spoiled)],
                 ["sequence", "--ensemble", str(spoiled), "--parties", "2", "--eta0", "0.6"]):
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_INPUT and out == ""
        assert err == f"error: cannot load ensemble {spoiled}: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["family", "--family", "two_mixed", "--params", '{"p": true}'],
         "p must be a number, got True"),
        (["family", "--family", "mirror", "--params", '{"theta": true}'],
         "theta must be a number, got True"),
        (["family", "--family", "lifted_gu", "--params", '{"n": 4, "lam": true}'],
         "lam must be a number, got True"),
        (["family", "--family", "gu", "--params", '{"n": true}'],
         "bad parameters for family gu: n must be an integer, got True"),
        (["sweep", "--family", "two_mixed", "--grid", '{"p": [true], "theta": [1.0]}'],
         "p must be a number, got True"),
    ],
    ids=["two_mixed-p", "mirror-theta", "lifted_gu-lam", "gu-n", "sweep-grid"],
)
def test_boolean_parameter_exits_2(argv, message, capsys):
    """``float(True)`` is 1.0, but a JSON ``true`` is no number: a family
    parameter or grid value given one is refused, not read as 1."""
    assert run(capsys, argv) == (cli.EXIT_INPUT, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "path, message",
    [
        (("states", 1, "dim"), "matrix dim must be an integer, got True"),
        (("states", 1, "entries", 0, 0), "matrix entries must be numbers, not booleans"),
        (("states", 0, "entries", 3, 1), "matrix entries must be numbers, not booleans"),
        (("priors", 2), "boolean prior: True"),
    ],
    ids=["dim", "entry-real", "entry-imaginary", "prior"],
)
def test_boolean_in_ensemble_file_exits_2(path, message, tmp_path, capsys):
    """A JSON ``true`` where an ensemble file holds a number is refused by the
    loader, wherever it sits."""
    doc = qcore.ensemble_to_json(qcore.random_ensemble(np.random.default_rng(5), 2, 3))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = True
    spoiled = tmp_path / "spoiled.json"
    spoiled.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["mcm", "--ensemble", str(spoiled)])
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == f"error: cannot load ensemble {spoiled}: {message}\n"


def test_boolean_ensemble_file_of_the_corpus_exits_2(tmp_path, monkeypatch, capsys):
    """The corpus file whose prior, ``dim`` and entries are all booleans
    would load as a one-dimensional ensemble; its prior is refused first."""
    monkeypatch.chdir(tmp_path)
    Path("boolean.json").write_text(json.dumps(_digest_tool().BOOLEANS["boolean.json"]))
    code, out, err = run(capsys, ["mcm", "--ensemble", "boolean.json"])
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "error: cannot load ensemble boolean.json: boolean prior: True\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--family", "lifted_gu", "--eta0", "nan"], "--eta0 must be finite, got 'nan'"),
        (["sweep", "--family", "lifted_gu", "--eta0", "5"], "inconclusive rate 5.0 outside [0, 1]"),
        (["sweep", "--family", "gu", "--eta0", "5"], "inconclusive rate 5.0 outside [0, 1]"),
        (["sweep", "--family", "gu", "--eta0", "0.5,nan"], "--eta0 must be finite, got 'nan'"),
        (["sweep", "--family", "mirror", "--eta0", "-0.5"],
         "inconclusive rate -0.5 outside [0, 1]"),
        (["sweep", "--family", "mirror", "--eta0", "nan"], "--eta0 must be finite, got 'nan'"),
        (["sweep", "--family", "lifted_gu", "--threshold", "nan"],
         "--threshold nan outside [0, 1]"),
        (["sweep", "--family", "lifted_gu", "--threshold", "inf"],
         "--threshold inf outside [0, 1]"),
        (["sweep", "--family", "lifted_gu", "--threshold", "-0.1"],
         "--threshold -0.1 outside [0, 1]"),
        (["sequence", "--family", "two_mixed", "--parties", "2", "--gains", "nan"],
         "--gains must be finite, got 'nan'"),
        (["sequence", "--family", "mirror", "--parties", "2", "--eta0", "0.5",
          "--retarget-angle", "inf"], "--retarget-angle must be finite, got 'inf'"),
        (["sweep", "--family", "two_mixed", "--grid", '{"p": [NaN]}'], "p must be finite, got nan"),
        (["family", "--family", "gu", "--params", '{"n": Infinity}'],
         "bad parameters for family gu: cannot convert float infinity to integer"),
    ],
    ids=[
        "lifted-eta0-nan", "lifted-eta0-5", "gu-eta0-5", "gu-eta0-nan", "mirror-eta0-negative",
        "mirror-eta0-nan", "threshold-nan", "threshold-inf", "threshold-negative", "gains-nan",
        "retarget-angle-inf", "grid-nan", "params-count-infinity",
    ],
)
def test_out_of_range_or_nonfinite_number_exits_2(argv, message, capsys):
    """A sweep checks its rates as ``sequence`` does, its threshold is a
    confidence, and no number parsed from the command line may be NaN or
    infinite: each exits 2 before any row is computed."""
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_INPUT and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "family, flags, rates",
    [
        pytest.param("mirror", [], ["0.3", "0.9"], id="mirror"),
        pytest.param(
            "mirror", ["--grid", '{"theta": ["110deg", 2.2]}'], ["0.7", "0.2", "0.7"],
            id="mirror-grid",
        ),
        pytest.param(
            "lifted_gu", ["--params", '{"n": 4, "theta": 1.0, "lam": 0.9}', "--parties", "3"],
            ["0.9", "0.7"], id="lifted-gu",
        ),
        pytest.param("lifted_gu", [], ["0.7", "0.9"], id="lifted-gu-defaults"),
        pytest.param("gu", ["--parties", "2"], ["0.3", "0.6"], id="gu"),
    ],
)
def test_sweep_runs_every_rate_in_order(family, flags, rates, capsys):
    """A sweep over several rates prints the rows of the single-rate
    sweeps one after the other, under one header."""
    argv = ["sweep", "--family", family, *flags, "--eta0"]
    code, out, err = run(capsys, argv + [",".join(rates)])
    assert code == cli.EXIT_OK and err == ""
    header, *rows = out.splitlines(keepends=True)
    expected = []
    for rate in rates:
        code, single, _ = run(capsys, argv + [rate])
        assert code == cli.EXIT_OK and single.splitlines(keepends=True)[0] == header
        expected += single.splitlines(keepends=True)[1:]
    assert rows == expected


@pytest.mark.parametrize("threshold", ["0", "1"])
def test_sweep_threshold_endpoints_are_confidences(threshold, capsys):
    """Every party clears threshold 0 and none clears 1: the count row after
    the 8 parties' four rows (three confidences and the disturbance)."""
    code, out, err = run(capsys, ["sweep", "--family", "lifted_gu", "--threshold", threshold])
    assert code == cli.EXIT_OK and err == ""
    assert out.count("\n") == 1 + 8 * 4 + 1
    want = "8" if threshold == "0" else "0"
    assert out.splitlines()[-1].endswith(f",8,parties_at_threshold,{want},{want},0")


@pytest.mark.parametrize(
    "name, message",
    [
        ("nonhermitian.json", "density matrix is not Hermitian: max |A - A^dag| entry = 1.000e-06"),
        ("negative.json", "density matrix has eigenvalue -1.000e-01 < 0"),
        ("trace11.json", "density matrix trace = 1.1, expected 1"),
    ],
)
def test_state_failing_a_density_check_exits_2(name, message, tmp_path, monkeypatch, capsys):
    """Every matrix read from a file is checked before any solve: a state
    that fails one check stops both commands with the validator's message."""
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(json.dumps(_digest_tool().INVALID[name]))
    for argv in (["mcm", "--ensemble", name],
                 ["sequence", "--ensemble", name, "--parties", "2", "--eta0", "0.6"]):
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_INPUT and out == ""
        assert err == f"error: cannot load ensemble {name}: {message}\n"


@pytest.mark.parametrize(
    "name, message",
    [
        ("negprior.json", "negative prior: -0.2"),
        ("twopriors.json", "need one prior per state, at least one of each"),
        ("nostates.json", "malformed ensemble object: 'states'"),
        ("list.json", "malformed ensemble object: list indices must be integers or slices, not str"),
    ],
)
def test_malformed_ensemble_file_exits_2(name, message, tmp_path, monkeypatch, capsys):
    """An ensemble file with a negative prior, a prior count that is not the
    state count, no ``states``, or no object at all stops ``mcm`` with the
    loader's message."""
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(json.dumps(_digest_tool().MALFORMED[name]))
    code, out, err = run(capsys, ["mcm", "--ensemble", name])
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == f"error: cannot load ensemble {name}: {message}\n"


@pytest.mark.parametrize(
    "family, grid, rates, stacked",
    [
        pytest.param("two_mixed", None, [None], 100, id="two_mixed-defaults"),
        pytest.param(
            "mirror", {"theta": [2.0, 2.1, 2.2]}, ["0.3", "0.9"], 3, id="mirror-two-rates"
        ),
        pytest.param("gu", {"n": [3, 5]}, ["0.1", "0.5", "0.9"], None, id="gu-counts"),
    ],
)
def test_sweep_rows_are_each_point_chain_alone(family, grid, rates, stacked, monkeypatch, capsys):
    """A sweep shares each point's ensemble across its rates and solves the
    first stages of points that share priors and dimension as one stack
    (``stacked`` points, before any chain; none for ``gu``'s counts, whose
    priors differ); its rows are those of each point's chain run alone, a
    one-point sweep on a fresh ensemble, row for row."""
    axes = grid or {k: [float(v) for v in vs] for k, vs in cli.FAMILIES[family].points.items()}
    sizes = []
    real = mcm._first_stage

    def recorded(ensembles):
        sizes.append(len(ensembles))
        return real(ensembles)

    monkeypatch.setattr(mcm, "_first_stage", recorded)
    flags = ["--eta0", ",".join(rates)] if rates != [None] else []
    argv = ["sweep", "--family", family, *(["--grid", json.dumps(grid)] if grid else []), *flags]
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_OK and err == ""
    if stacked is not None:
        assert sizes[0] == stacked
    header, *rows = out.splitlines(keepends=True)
    expected = []
    for rate in rates:
        for values in itertools.product(*axes.values()):
            single = ["sweep", "--family", family, "--params", json.dumps(dict(zip(axes, values)))]
            code, text, _ = run(capsys, single + (["--eta0", rate] if rate else []))
            assert code == cli.EXIT_OK and text.splitlines(keepends=True)[0] == header
            expected += text.splitlines(keepends=True)[1:]
    assert len(rows) == len(expected) > 0
    assert rows == expected


def test_a_failed_first_stage_stack_is_not_reported(monkeypatch, capsys):
    """When the sweep's stacked first stage raises, nothing is cached or
    printed: every chain solves its own, and the output is unchanged."""
    argv = ["sweep", "--family", "mirror", "--eta0", "0.3,0.9"]
    want = run(capsys, argv)
    real = mcm._first_stage
    failed = []

    def failing(ensembles):
        if not failed:
            failed.append(len(ensembles))
            raise mcm.ComplementCheckError("stacked first stage failed")
        return real(ensembles)

    monkeypatch.setattr(mcm, "_first_stage", failing)
    assert run(capsys, argv) == want
    assert failed == [len(cli.FAMILIES["mirror"].points["theta"])]


@pytest.mark.parametrize("parties", ["1", "2"])
def test_two_state_gu_sweep_exits_2_as_its_chain_does(parties, capsys):
    """gu(2) has no sequential closed forms: its sweep exits 2 with the
    message its ``sequence`` gives and prints no rows, whatever ``--parties``."""
    params = ["--params", '{"n": 2}', "--parties", parties]
    chain = run(capsys, ["sequence", "--family", "gu", *params, "--eta0", "0.5"])
    sweep = run(capsys, ["sweep", "--family", "gu", *params])
    reason = "sequential closed forms require n >= 3"
    assert sweep == chain == (cli.EXIT_INPUT, "", f"error: bad parameters for family gu: {reason}\n")


@pytest.mark.parametrize(
    "e",
    [
        pytest.param(qcore.Ensemble(priors=(1.0,), states=(np.eye(2) / 2,)), id="single-state"),
        pytest.param(
            qcore.Ensemble(priors=(0.5, 0.5), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))),
            id="orthogonal-pair",
        ),
    ],
)
def test_certain_guess_prints_positive_zero_entropy(e, tmp_path, capsys):
    """``mcm`` writes H_min = -log2 P_guess as ``0.0``, never ``-0.0``, at P_guess = 1."""
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(qcore.ensemble_to_json(e)))
    code, out, _ = run(capsys, ["mcm", "--ensemble", str(path)])
    assert code == cli.EXIT_OK
    guessing = json.loads(out)["guessing"]
    assert guessing["p_guess"] == 1.0
    assert math.copysign(1.0, guessing["h_min_bits"]) == 1.0
    assert '"h_min_bits": 0.0,' in out
