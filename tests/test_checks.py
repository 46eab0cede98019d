"""The invariant suites of ``seqmcm verify``: their table, the report each
suite's run becomes, and the random stream they draw from.

Run with:  pytest tests/test_checks.py -v
"""

import hashlib
import json

import pytest

from seqmcm import checks, cli, mcm, qcore


def run(capsys, argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", list(checks.SUITES))
def test_verify_reports_the_table_row(name, capsys):
    """``verify --suite`` prints the document :func:`checks.verify` builds,
    and each report carries its suite's row of the table."""
    code, out, _ = run(capsys, ["verify", "--suite", name, "--count", "3", "--seed", "5"])
    assert code == cli.EXIT_OK
    assert out == qcore.json_text(checks.verify([name], 3, 5))
    (report,) = json.loads(out)["checks"]
    row = checks.SUITES[name]
    assert (report["suite"], report["module"], report["invariant"]) == (
        name, row.module, row.invariant
    )
    assert report["tol"] == row.tol and report["pass"]


def test_suite_help_lists_the_table(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    assert f"one of {', '.join(checks.SUITES)} or all" in " ".join(capsys.readouterr().out.split())


def test_report_defaults_and_overrides(monkeypatch):
    """A suite's own ``instances`` and ``pass`` override the defaults, the
    count asked for and ``worst <= tol``; every other key is copied."""
    table = {
        "plain": checks.Suite("mcm", "plain", 1.0, lambda count, rng: {"worst": 0.5}),
        "own": checks.Suite(
            "qcore", "own", 1.0,
            lambda count, rng: {"worst": 2.0, "instances": 9, "pass": True, "witness": "w"},
        ),
    }
    monkeypatch.setattr(checks, "SUITES", table)
    doc = checks.verify(["plain", "own"], 4, 0)
    plain, own = doc["checks"]
    assert (plain["instances"], plain["pass"], "witness" in plain) == (4, True, False)
    assert (own["instances"], own["pass"], own["witness"]) == (9, True, "w")
    assert doc["suites"] == ["plain", "own"] and doc["pass"]


def test_each_suite_draws_from_its_own_seeded_generator():
    """Suites do not share a generator: one suite's report is the same alone
    as after another suite has run."""
    together = checks.verify(["distance", "duality"], 4, 11)["checks"][1]
    assert together == checks.report("duality", 4, 11)


def test_duality_reads_only_the_first_stage(monkeypatch):
    """The duality suite reads confidences, not the full solution."""

    def unused(e):
        raise AssertionError("the duality suite built McmEntry objects")

    monkeypatch.setattr(mcm, "_solve", unused)
    report = checks.report("duality", 20, 7)
    assert report["pass"] and report["worst"] <= 1e-9


# The stdout md5s of the corpus's ``verify`` lines (``tools/cli_digests.py``).
# The suites draw from ``qcore.random_ensemble``, ``qcore.random_density`` and
# the random channels and weights of ``seqmcm.checks``, so a changed draw moves them.
VERIFY_MD5 = [
    (["verify", "--count", "20"], "59cc7f0e8111789ccb6bccd866bae222"),
    (["verify", "--count", "20", "--seed", "3"], "01fb793d1ee55bea8ff6ddd38ddfd488"),
]


@pytest.mark.parametrize("argv, md5", VERIFY_MD5, ids=["seed-7", "seed-3"])
def test_verify_output_is_pinned(argv, md5, capsys):
    code, out, err = run(capsys, argv)
    assert (code, err) == (cli.EXIT_OK, "")
    assert hashlib.md5(out.encode()).hexdigest() == md5
