"""Digest a fixed, seeded corpus of ``seqmcm`` command lines.

Runs every command line of :func:`corpus` in-process through
``seqmcm.cli.main`` and prints one JSON line per command: its argv, its
exit code, and the md5 of its stdout and of its stderr.  Two source trees
print the same lines exactly when their CLI outputs are byte-identical, so

    python tools/cli_digests.py --src old/src > old.jsonl
    python tools/cli_digests.py > new.jsonl
    diff old.jsonl new.jsonl

lists every command line whose output changed.  ``--src`` defaults to the
``src`` directory next to this script.

The corpus covers every family's ``sequence`` in JSON and CSV at several
lengths (full-strength parties, ``gu --eta0 1,0.5``, explicit retargets and
``two_mixed`` gains among them), generic ``--ensemble`` chains of a qubit and
a qutrit ensemble, every default ``sweep`` and some with flags (``mirror``
and ``lifted_gu`` over two rates among them), ``mcm`` and ``family`` for every
family, ``verify --count 20``, and malformed command lines that must exit 2
or 4, the last of them ensemble files holding ``NaN`` or ``Infinity``,
non-finite or out-of-range rates, thresholds, gains, angles and grid values,
ensemble files holding a non-Hermitian state, a state with a negative
eigenvalue and a state of trace 1.1, ``--params`` keys a family never
reads, a fractional state count, and a negative ``verify --seed``; then
``mcm`` and ``sequence`` on two-state ensembles, on a qutrit pair whose
solution fails its own complement check (exit 3), a parameter given
in two spellings (exit 2), a ``gu`` sweep of two states, which has no
sequential closed forms (exit 2), a ``lifted_gu`` sweep at a rate below its
floor (exit 4), and ``mcm`` on two weight problems whose optimal weights
form a face: five qubit states that admit a complete POVM, and an
identical qubit pair; ``mcm`` on two qubit guessing problems with a
known optimum: four tetrahedral states and a dominant prior; and ``sweep``
over a ``gu`` count grid, over a ``two_mixed`` angle grid at a fixed purity
with a threshold, and over a three-party ``mirror`` chain, then a key given
in both ``--params`` and ``--grid`` and a ``two_mixed`` and a ``mirror``
point outside the family (each exit 2); then a two-party generic chain on
a qutrit ensemble whose optimal subspaces are two-dimensional, in JSON and
CSV, and a ``gu`` chain retargeted onto the equator, its default collapse;
then a 16-party ``sequence`` of every family in JSON and CSV, the longest
chains the benchmark runs; then a four-party generic chain in JSON and CSV
on three qutrit states in a plane, one of them at prior 0, whose average
has rank 2; then ``mcm`` and ``sequence`` on two qubit states that pass the
density-matrix checks while their average fails the trace check (each
exit 2); then ``mcm`` on a qutrit pair whose solution fails the KKT report
(exit 3; the earlier exit-3 lines fail the complement check) and on three
states in dimension 5, whose guessing probability no solver here takes
(exit 0, ``"guessing": null``); ``family`` on ``two_mixed`` at angles whose
cosine rounds to 1 and to -1 (exit 0); and ``mcm`` on ensemble files whose
``dim`` is 2.5 or ``Infinity`` (each exit 2); then a ``lifted_gu``
``sequence`` and ``sweep`` at a ``theta`` whose cosine rounds to 1 (each exit
2), two ``mirror`` chains whose state leaves the family (each exit 4), and
``family`` on a ``mirror`` outside its closed form (exit 2).
Then come ``mcm`` on a 40-state ``gu`` and on seeded ensembles of 7 and 13
qubit states, each solved through the exact qubit duals (exit 0).  Last come
two sweeps whose points share priors: a ``two_mixed`` grid whose second point
fails its first party (exit 4, naming it), and a ``mirror`` grid at two rates.
After them, ``mcm`` on four ensemble files the loader rejects: a negative
prior, two priors for one state, an object without ``states`` and a JSON
list (each exit 2).  Then a JSON ``true`` given for a number: ``family`` on a
``two_mixed`` whose ``p`` is ``true``, and ``mcm`` on an ensemble file whose
prior, ``dim`` and entries are booleans (each exit 2).
Every ``sweep`` prints long-format
rows, one per party and quantity: the family's parameters, the rate, the
party, the quantity and its closed-form, engine and residual values.
New lines go at the end, so earlier lines keep their place in a diff.
``--ensemble`` reads files this script writes into a temporary
working directory, under fixed relative names, so no message carries a
machine-specific path.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

TWO_MIXED = '{"p": 0.8, "theta": 1.0}'
LIFTED = '{"n": 4, "theta": 1.0, "lam": 0.9}'
MIRROR = '{"theta": 2.2}'


def _random_ensemble(seed: int, dim: int, n: int) -> dict:
    """Ensemble JSON of ``n`` Wishart states in dimension ``dim`` (numpy only,
    so every tree under comparison reads the same file)."""
    rng = np.random.default_rng(seed)
    raw = rng.random(n) + 0.1
    states = []
    for _ in range(n):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        w = g @ g.conj().T
        w /= np.real(np.trace(w))
        entries = [[float(z.real), float(z.imag)] for z in w.reshape(-1)]
        states.append({"dim": dim, "entries": entries})
    return {"priors": [float(q) for q in raw / raw.sum()], "states": states}


# file name -> ensemble JSON, written into the working directory
ENSEMBLES = {
    "qubit3.json": _random_ensemble(11, 2, 3),
    "qutrit4.json": _random_ensemble(12, 3, 4),
}


def _spoiled(path: tuple, value: float) -> dict:
    """``qubit3.json`` with the number at ``path`` (keys and indices) replaced."""
    doc = json.loads(json.dumps(ENSEMBLES["qubit3.json"]))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


# ensembles with a non-finite number, which json writes and reads as NaN/Infinity
NONFINITE = {
    "nan_entry.json": _spoiled(("states", 1, "entries", 0, 0), float("nan")),
    "inf_entry.json": _spoiled(("states", 1, "entries", 1, 0), float("inf")),
    "nan_prior.json": _spoiled(("priors", 0), float("nan")),
}

_STATE = ENSEMBLES["qubit3.json"]["states"][1]["entries"]

# ensembles whose state 2 is no density matrix: entry [0][1] 1e-6 off the
# conjugate of [1][0], an eigenvalue -0.1, and trace 1.1
INVALID = {
    "nonhermitian.json": _spoiled(("states", 1, "entries", 1, 0), _STATE[1][0] + 1e-6),
    "negative.json": _spoiled(
        ("states", 1), {"dim": 2, "entries": [[1.1, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.1, 0.0]]}
    ),
    "trace11.json": _spoiled(
        ("states", 1, "entries"), [[1.1 * re, 1.1 * im] for re, im in _STATE]
    ),
}


def _pure_against(psi: list[float], diagonal: list[float]) -> dict:
    """A qutrit pair at priors (0.4, 0.6): the pure state along ``psi`` and
    the diagonal state ``diagonal``."""
    psi = np.array(psi)
    states = [np.outer(psi, psi) / (psi @ psi), np.diag(diagonal)]
    return {"priors": [0.4, 0.6],
            "states": [{"dim": 3, "entries": [[float(x), 0.0] for x in m.reshape(-1)]}
                       for m in states]}


# two-state ensembles (a separate dict: ENSEMBLES is looped mid-corpus); in
# illcond.json the average has an eigenvalue of about 1e-11, which the rank
# cut drops, while state 1 keeps about 1e-10 of its weight there, which the
# support check passes
PAIRS = {
    "qubit2.json": _random_ensemble(13, 2, 2),
    "qutrit2.json": _random_ensemble(14, 3, 2),
    "illcond.json": _pure_against([1.0, 0.0, 1e-5], [0.7, 0.3, 0.0]),
}

# weight problems with a segment of optimal weights: five qubit states that
# admit a complete POVM, and qubit2.json's first state twice at priors 0.3
# and 0.7
FACES = {
    "qubit5.json": _random_ensemble(16, 2, 5),
    "twin2.json": {"priors": [0.3, 0.7], "states": [PAIRS["qubit2.json"]["states"][0]] * 2},
}


def _qubits(priors: list[float], blochs: list[list[float]]) -> dict:
    """Ensemble JSON of qubit states ``(1 + r . sigma) / 2`` from their Bloch
    vectors ``r``."""
    states = []
    for x, y, z in blochs:
        entries = [[0.5 + 0.5 * z, 0.0], [0.5 * x, -0.5 * y],
                   [0.5 * x, 0.5 * y], [0.5 - 0.5 * z, 0.0]]
        states.append({"dim": 2, "entries": entries})
    return {"priors": priors, "states": states}


_TETRA = [[s1 * 3**-0.5, s2 * 3**-0.5, s1 * s2 * 3**-0.5] for s1 in (1, -1) for s2 in (1, -1)]

# guessing problems with a known optimum: four equiprobable tetrahedral pure
# states (P_guess = 1/2), and a mixed state at prior 0.7 that dominates three
# pure states at 0.1 (P_guess = 0.7: always guess it)
GUESSES = {
    "tetra4.json": _qubits([0.25] * 4, _TETRA),
    "dominant4.json": _qubits(
        [0.7, 0.1, 0.1, 0.1], [[0.0, 0.0, 0.1], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, 0.0, -1.0]]
    ),
}

# three equiprobable qutrit states, each 1/2 on two of three basis states:
# every optimal subspace is two-dimensional
SUBSPACES = {
    "symqutrit3.json": {
        "priors": [1 / 3] * 3,
        "states": [{"dim": 3, "entries": [[float(m), 0.0] for m in np.diag(v).reshape(-1)]}
                   for v in ([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5])],
    },
}



def _plane_ensemble(seed: int, priors: list[float]) -> dict:
    """Ensemble JSON of qutrit Wishart states supported on the plane of the
    first two basis states, so the average has rank 2."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in priors:
        g = np.zeros((3, 3), dtype=complex)
        g[:2, :2] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w = g @ g.conj().T
        w /= np.real(np.trace(w))
        states.append({"dim": 3, "entries": [[float(z.real), float(z.imag)] for z in w.reshape(-1)]})
    return {"priors": priors, "states": states}


# three qutrit states in a plane, the second at prior 0: a rank-2 average
PLANES = {"plane3.json": _plane_ensemble(17, [0.45, 0.0, 0.55])}

_TRACE = 1.0 + 0.995e-10

# two qubit states that pass validation at trace 1 + 0.995e-10, at priors
# summing to 1 + 0.99e-12: their average's trace, 1 + 1.005e-10, fails it
OFF_AVERAGE = {
    "offaverage.json": {
        "priors": [0.5, 0.5 + 0.99e-12],
        "states": [{"dim": 2, "entries": [[float(m), 0.0] for m in np.diag(v).reshape(-1)]}
                   for v in ([0.7 * _TRACE, 0.3 * _TRACE], [0.2 * _TRACE, 0.8 * _TRACE])],
    },
}

# a qutrit pair whose solution passes its complement check and fails the KKT
# report (exit 3), three states in dimension 5, where no guessing solver runs,
# and state 2's dim spoiled to a fraction or Infinity (exit 2)
LATER = {
    "kkt3.json": _pure_against([1.0, 0.0, 1e-6], [1.0, 0.0, 0.0]),
    "qudit5.json": _random_ensemble(18, 5, 3),
    "dim_fraction.json": _spoiled(("states", 1, "dim"), 2.5),
    "dim_infinity.json": _spoiled(("states", 1, "dim"), float("inf")),
}

# seeded ensembles of 7 and 13 qubit states
UNCAPPED = {
    "qubit7.json": _random_ensemble(19, 2, 7),
    "qubit13.json": _random_ensemble(20, 2, 13),
}

# ensemble files the loader rejects for their priors or their layout (each
# exit 2): a negative prior, two priors for one state, an object without
# states, and a list where an object belongs
MALFORMED = {
    "negprior.json": {"priors": [1.2, -0.2], "states": PAIRS["qubit2.json"]["states"]},
    "twopriors.json": {"priors": [0.5, 0.5], "states": PAIRS["qubit2.json"]["states"][:1]},
    "nostates.json": {"priors": [1.0]},
    "list.json": [1.0],
}

# an ensemble file whose prior, dim and entries are JSON booleans (exit 2)
BOOLEANS = {
    "boolean.json": {"priors": [True], "states": [{"dim": True, "entries": [[True, False]]}]},
}

# every file the corpus reads, by name
FILES = {**ENSEMBLES, **NONFINITE, **INVALID, **PAIRS, **FACES, **GUESSES, **SUBSPACES, **PLANES,
         **OFF_AVERAGE, **LATER, **UNCAPPED, **MALFORMED, **BOOLEANS}


def _sequence(family: str, params: str | None, parties: int, fmt: str, *flags: str) -> list[str]:
    argv = ["sequence", "--family", family]
    if params is not None:
        argv += ["--params", params]
    return argv + ["--parties", str(parties), "--format", fmt, *flags]


def corpus() -> list[list[str]]:
    lines: list[list[str]] = []
    for fmt in ("json", "csv"):
        for parties in (1, 2, 3, 5):
            lines.append(_sequence("two_mixed", None, parties, fmt))
        for parties in (2, 4):
            lines.append(_sequence("two_mixed", TWO_MIXED, parties, fmt))
        lines.append(_sequence("two_mixed", TWO_MIXED, 2, fmt, "--gains", "0.1,0.05"))
        for n, parties, rates in ((3, 2, "0.5"), (4, 3, "0.2,0.5,0.8"), (5, 4, "0"), (3, 6, "0.3")):
            lines.append(_sequence("gu", json.dumps({"n": n}), parties, fmt, "--eta0", rates))
        lines.append(_sequence("gu", None, 2, fmt, "--eta0", "1,0.5"))
        for parties, rates in ((2, "0.6"), (4, "0.6,0.7,0.8,0.9"), (1, "0.5403023058681398")):
            lines.append(_sequence("lifted_gu", LIFTED, parties, fmt, "--eta0", rates))
        lines.append(
            _sequence("lifted_gu", LIFTED, 2, fmt, "--eta0", "0.7", "--retarget-angle", "80deg")
        )
        for parties, rates in ((2, "0.5"), (3, "0.5,0.7,0.9"), (2, "0")):
            lines.append(_sequence("mirror", MIRROR, parties, fmt, "--eta0", rates))
        lines.append(_sequence("mirror", MIRROR, 2, fmt, "--eta0", "0.6", "--retarget-angle", "2.0"))
        lines.append(
            ["sequence", "--ensemble", "qubit3.json", "--parties", "2", "--format", fmt,
             "--eta0", "0.6"]
        )
    for family in ("two_mixed", "gu", "lifted_gu", "mirror"):
        lines.append(["sweep", "--family", family])
    lines += [
        ["sweep", "--family", "two_mixed", "--grid", '{"p": [0.5, 0.9], "theta": [1.0]}',
         "--parties", "3"],
        ["sweep", "--family", "gu", "--params", '{"n": 4}', "--parties", "3", "--eta0", "0.3,0.6"],
        ["sweep", "--family", "lifted_gu", "--params", LIFTED, "--parties", "4",
         "--threshold", "0.3", "--eta0", "0.7"],
        ["sweep", "--family", "mirror", "--grid", '{"theta": ["110deg", 2.2]}', "--eta0", "0.7"],
    ]
    for family, params in (("two_mixed", TWO_MIXED), ("gu", '{"n": 4}'), ("lifted_gu", LIFTED),
                           ("mirror", MIRROR)):
        lines.append(["mcm", "--family", family, "--params", params])
        lines.append(["family", "--family", family, "--params", params])
    lines += [["mcm", "--ensemble", name] for name in ENSEMBLES]
    lines += [["verify", "--count", "20"], ["verify", "--count", "20", "--seed", "3"]]
    # malformed or infeasible: each must exit 2 or 4 with one error line
    lines += [
        ["sequence", "--family", "two_mixed", "--parties", "2", "--gains", ""],
        ["sequence", "--family", "gu", "--parties", "2", "--eta0", ""],
        ["sequence", "--family", "gu", "--parties", "0", "--eta0", "0.5"],
        ["sequence", "--family", "lifted_gu", "--params", LIFTED, "--parties", "2",
         "--eta0", "0.3"],
    ]
    for family in ("gu", "lifted_gu", "mirror"):
        lines.append(["sweep", "--family", family, "--eta0", ""])
    lines += [["family", "--family", "gu", "--params", ""],
              ["sweep", "--family", "two_mixed", "--grid", ""],
              ["family", "--family", "mirror", "--out", ""],
              ["mcm", "--ensemble", "", "--family", "gu"],
              ["mcm", "--ensemble", "qubit3.json", "--family", ""],
              ["sequence", "--ensemble", "", "--parties", "2", "--eta0", "0.5"]]
    for family in ("two_mixed", "gu", "lifted_gu"):
        lines += [["sweep", "--family", family, "--parties", p] for p in ("0", "-3")]
    # non-finite or out-of-range numbers, each exit 2 (appended: keep the lines above first)
    lines += [["mcm", "--ensemble", name] for name in NONFINITE]
    lines.append(["sequence", "--ensemble", "nan_prior.json", "--parties", "2", "--eta0", "0.6"])
    for family, rates in (("lifted_gu", "nan"), ("lifted_gu", "5"), ("gu", "5"), ("gu", "nan"),
                          ("mirror", "-0.5"), ("mirror", "nan")):
        lines.append(["sweep", "--family", family, "--eta0", rates])
    lines += [["sweep", "--family", "lifted_gu", "--threshold", t] for t in ("nan", "inf", "1.5")]
    lines += [
        ["sequence", "--family", "two_mixed", "--parties", "2", "--gains", "nan"],
        ["sequence", "--family", "mirror", "--parties", "2", "--eta0", "0.5",
         "--retarget-angle", "inf"],
        ["sweep", "--family", "two_mixed", "--grid", '{"p": [NaN]}'],
        ["family", "--family", "gu", "--params", '{"n": Infinity}'],
    ]
    # a three-party generic qutrit chain, and sweeps over more than one rate
    for fmt in ("json", "csv"):
        lines.append(["sequence", "--ensemble", "qutrit4.json", "--parties", "3", "--format", fmt,
                      "--eta0", "0.6,0.7,0.8"])
    lines += [["sweep", "--family", "mirror", "--eta0", "0.3,0.9"],
              ["sweep", "--family", "lifted_gu", "--eta0", "0.7,0.9"]]
    # a state that fails each density-matrix check, each exit 2
    for name in INVALID:
        lines += [["mcm", "--ensemble", name],
                  ["sequence", "--ensemble", name, "--parties", "2", "--eta0", "0.6"]]
    # --params keys a family never reads, a fractional count and a negative seed, each exit 2
    lines += [["family", "--family", "gu", "--params", '{"n": 3.7}'],
              ["family", "--family", "gu", "--params", '{"m": 5}'],
              ["family", "--family", "two_mixed", "--params", '{"P": 0.5}'],
              ["family", "--family", "gu", "--params", '{"n": 4, "theta": 1.0}'],
              ["verify", "--seed", "-1"]]
    # two-state ensembles, whose weights are solved in closed form
    lines += [["mcm", "--ensemble", "qubit2.json"], ["mcm", "--ensemble", "qutrit2.json"],
              ["sequence", "--ensemble", "qubit2.json", "--parties", "3", "--eta0", "0.6,0.7,0.8"]]
    # a solution that fails its own complement check, each exit 3
    lines += [["mcm", "--ensemble", "illcond.json"],
              ["sequence", "--ensemble", "illcond.json", "--parties", "2", "--eta0", "0.6"]]
    # two spellings of one parameter, each exit 2
    lines += [["family", "--family", "gu", "--params", '{"n": 4, "N": 5}'],
              ["family", "--family", "lifted_gu", "--params", '{"lam": 0.5, "lambda": 0.9}']]
    # a gu sweep of two states, exit 2
    lines.append(["sweep", "--family", "gu", "--params", '{"n": 2}'])
    # a lifted_gu sweep below its floor, exit 4 naming the party
    lines.append(["sweep", "--family", "lifted_gu", "--params", '{"theta": 1.0}', "--eta0", "0.1"])
    # weight problems on a face of optimal points
    lines += [["mcm", "--ensemble", name] for name in FACES]
    # guessing problems with a known optimum
    lines += [["mcm", "--ensemble", name] for name in GUESSES]
    # sweeps over a parameter grid, a threshold and a longer chain
    lines += [
        ["sweep", "--family", "gu", "--grid", '{"n": [3, 5]}'],
        ["sweep", "--family", "two_mixed", "--params", '{"p": 0.8}', "--grid",
         '{"theta": [1.0, 2.0]}', "--parties", "3", "--threshold", "0.6"],
        ["sweep", "--family", "mirror", "--parties", "3"],
    ]
    # a key in both --params and --grid, and sweep points the family rejects, each exit 2
    lines += [
        ["sweep", "--family", "gu", "--params", '{"n": 4}', "--grid", '{"n": [3, 5]}'],
        ["sweep", "--family", "two_mixed", "--grid", '{"p": [1.5], "theta": [1.0]}'],
        ["sweep", "--family", "mirror", "--grid", '{"theta": [0]}'],
    ]
    # a generic chain on two-dimensional optimal subspaces, and an equatorial gu retarget
    for fmt in ("json", "csv"):
        lines.append(["sequence", "--ensemble", "symqutrit3.json", "--parties", "2", "--format",
                      fmt, "--eta0", "0.6,0.7"])
    lines.append(_sequence("gu", None, 2, "json", "--eta0", "0.5", "--retarget-angle", "90deg"))
    # the longest chains the benchmark runs: 16 parties of every family
    rates = ",".join(f"{0.6 + 0.02 * j:g}" for j in range(16))
    for fmt in ("json", "csv"):
        lines += [_sequence("two_mixed", TWO_MIXED, 16, fmt),
                  _sequence("gu", '{"n": 5}', 16, fmt, "--eta0", rates),
                  _sequence("lifted_gu", LIFTED, 16, fmt, "--eta0", rates),
                  _sequence("mirror", MIRROR, 16, fmt, "--eta0", rates)]
    # a four-party generic chain on a rank-2 qutrit average with a zero prior
    for fmt in ("json", "csv"):
        lines.append(["sequence", "--ensemble", "plane3.json", "--parties", "4", "--format", fmt,
                      "--eta0", "0.6,0.7,0.8,0.9"])
    # states that pass their checks, whose average does not, each exit 2
    lines += [["mcm", "--ensemble", "offaverage.json"],
              ["sequence", "--ensemble", "offaverage.json", "--parties", "2", "--eta0", "0.5"]]
    # a KKT report failure (exit 3), a guessing problem above the solvers' scale
    # (exit 0, guessing null), two_mixed where cos(theta) rounds to 1 and -1 (exit
    # 0), and a non-integral dim (exit 2)
    lines += [["mcm", "--ensemble", name] for name in ("kkt3.json", "qudit5.json")]
    lines += [["family", "--family", "two_mixed", "--params", json.dumps({"theta": theta})]
              for theta in (1e-9, 3.14159265358)]
    lines += [["mcm", "--ensemble", name] for name in ("dim_fraction.json", "dim_infinity.json")]
    # a lifted_gu chain where cos(theta) rounds to 1 (exit 2), mirror chains whose
    # state leaves the family (exit 4), and mirror outside its closed form (exit 2)
    lines += [["sequence", "--family", "lifted_gu", "--params", '{"n": 3, "theta": 1e-9}',
               "--parties", "2", "--eta0", "1"],
              ["sweep", "--family", "lifted_gu", "--params", '{"theta": 1e-9}', "--eta0", "1"],
              ["sequence", "--family", "mirror", "--parties", "3", "--eta0", "0",
               "--retarget-angle", "0"],
              ["sequence", "--family", "mirror", "--params", '{"theta": 3.14159}', "--parties",
               "4", "--eta0", "0.5"],
              ["family", "--family", "mirror", "--params", '{"theta": 1e-6}']]
    # qubit problems of 40, 7 and 13 labels, solved exactly, each exit 0
    lines.append(["mcm", "--family", "gu", "--params", '{"n": 40}'])
    lines += [["mcm", "--ensemble", name] for name in UNCAPPED]
    # sweeps whose points' first stages are solved as one stack: one whose
    # second point fails its first party (exit 4), one sharing each point's
    # ensemble across two rates (exit 0)
    lines += [["sweep", "--family", "two_mixed", "--grid",
               '{"p": [0.5, 1e-300, 0.9], "theta": [1.0]}'],
              ["sweep", "--family", "mirror", "--grid", '{"theta": [2.0, 2.2]}',
               "--eta0", "0.3,0.9"]]
    lines += [["mcm", "--ensemble", name] for name in MALFORMED]
    # a JSON boolean where a number belongs: a family parameter and an
    # ensemble file (each exit 2)
    lines += [["family", "--family", "two_mixed", "--params", '{"p": true}'],
              ["mcm", "--ensemble", "boolean.json"]]
    return lines


def digest(run, argv: list[str]) -> dict:
    """Run one command line through ``run`` (``cli.main``); its exit code and
    output md5s.  An uncaught exception counts as exit 1, with its last
    traceback line (type and message) as stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
        except Exception as exc:  # uncaught: python would print a traceback, exit 1
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return {
        "argv": argv,
        "exit": code,
        "stdout_md5": hashlib.md5(out.getvalue().encode()).hexdigest(),
        "stderr_md5": hashlib.md5(err.getvalue().encode()).hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(SRC), help="source tree to import seqmcm from")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    from seqmcm import cli

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, doc in FILES.items():
                Path(name).write_text(json.dumps(doc))
            for line in corpus():
                print(json.dumps(digest(cli.main, line)), flush=True)
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
