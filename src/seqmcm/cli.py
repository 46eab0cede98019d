"""Command-line front end.

Subcommands::

    seqmcm mcm      solve one maximum-confidence problem, report weights + KKT
    seqmcm sequence run a sequential chain, emit trace JSON + per-party CSV
    seqmcm sweep    evaluate oracle-vs-engine residuals over a parameter grid
    seqmcm verify   run randomized invariant suites, machine-readable report
    seqmcm family   print a family's closed-form values

``mcm`` and ``sequence`` take an ensemble either from ``--ensemble
file.json`` or from ``--family NAME --params JSON``; ``sweep`` and
``family`` take a family only.  Family parameters are radians; a string
value with a ``deg`` suffix (``{"theta": "120deg"}``) is converted.
``mcm``'s ``"guessing"`` holds the guessing probability and min-entropy;
it is ``null`` only for three or more states in dimension 5 or more, or
more than six in dimension 3 or 4, which no solver here takes (qubits of
any count and two states of any dimension are solved).

Exit codes: 0 success; 1 verification failure; 2 malformed input (also a
state outside the support of the ensemble average, message names the label;
an ``--ensemble`` file whose states pass the density-matrix checks but
whose average does not, or whose matrix ``dim`` is not an integer
(``2.5``, ``Infinity``); a non-finite number: ``NaN`` or ``Infinity``
among an ``--ensemble`` file's entries or priors, or ``nan`` or ``inf``
given for a rate, gain, angle, grid value or threshold; a JSON ``true`` or
``false`` where a number belongs, whether a family parameter or grid value
or an ``--ensemble`` file's ``dim``, entry or prior; a ``gu`` or
``lifted_gu`` chain of fewer than 3 states, or a ``lifted_gu`` one whose
``cos theta`` rounds to 1, under ``sequence`` or ``sweep``; and ``family``
on a ``mirror`` outside its closed form, ``theta`` below about 1.4e-6); 3
KKT check failure (also an SDP solve that stops short of its gap bound,
and a maximum-confidence solution whose complement operator fails its
positivity check); 4 infeasible strategy (message names the party; also a
``mirror`` chain whose state leaves the family).

Each family is one row of :data:`FAMILIES`: how ``--params`` builds it and
from which keys (any other key exits 2, as do a non-integral count ``n`` and
two spellings of one parameter, ``n`` and ``N`` or ``lam`` and ``lambda``),
which ``sequence`` flags it reads, the first setting its schedule
(``--eta0``, one rate per party; ``two_mixed``: ``--gains``, one gain per
party, or without it the joint-probability optimum), and its default sweep.
``family`` prints its ``describe()``; ``sequence`` runs its ``strategies``,
where a ``--retarget-angle`` replaces the least-disturbing collapse of a
``gu`` or ``lifted_gu`` (polar angle) or ``mirror`` (azimuth) chain, and
rejects with exit 2 any flag its chain does not read.  An ``--ensemble``
chain is :func:`seqchan.weakened_mcm_strategies`, which measures each
label's whole optimal subspace, of any dimension.

``sweep`` checks the engine against a family's ``oracle``.  It runs each
point of the family's keys (``--params`` gives values, ``--grid`` lists; a
key in both exits 2) with each chain, one per ``--eta0`` rate in order, that
rate for all ``--parties`` (``two_mixed``: its optimal chain).  It prints one
CSV row per party and quantity: the parameters, ``eta0``, ``party``,
``quantity`` (a trace CSV name), ``oracle``, ``engine`` and ``residual``.
``--threshold c`` adds a ``parties_at_threshold`` row per chain: how many
leading parties keep every confidence at least ``c``.  A point fails as its
``sequence`` does, printing no row.

A flag given an empty value is malformed, not absent: ``--ensemble ""``,
``--family ""`` and ``--out ""`` exit 2 before any work is done, and
``--eta0 ""``, ``--gains ""``, ``--params ""`` and ``--grid ""`` exit 2
wherever they are read.  ``--parties`` (for ``sweep`` as for ``sequence``)
and ``verify``'s ``--count`` must be positive integers, ``--seed`` must be
nonnegative, and every ``--eta0`` rate and ``sweep``'s ``--threshold``
confidence must lie in [0, 1] (each exits 2 otherwise).

``verify`` runs the suites of :mod:`seqmcm.checks`, each held to the
tolerance listed there, on instances drawn from ``--seed``.  Outputs are
deterministic for a fixed command line: dictionaries are serialized with
sorted keys and floats with ``repr`` precision, so reruns are byte-identical.
``sweep`` builds each point's ensemble once, for its chains at every rate,
solves the first stages of the points that share priors and dimension as
one stack, and then runs its chains one after another, each rate's chain
at every point before the next rate's.  A sweep point is Python-bound and
holds the interpreter lock, so points run serially: threads would only add
switching cost.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
# read only by perfbench/tracer.py::_wrap_sweep_pool, which ROADMAP item 0
# deletes together with this import
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import checks, qcore, seqchan
from . import families as fam_mod
from . import mcm as mcm_mod
from . import optim as optim_mod

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_KKT = 3
EXIT_INFEASIBLE = 4

GRID_CAP = 100_000


class CliError(Exception):
    """Carries the exit code for a user-facing failure."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _parse_number(value: Any, name: str) -> float:
    if isinstance(value, bool):  # float(True) is 1.0; JSON true is no number
        raise CliError(EXIT_INPUT, f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise CliError(EXIT_INPUT, f"cannot parse {value!r} for {name}")
    if not math.isfinite(number):
        raise CliError(EXIT_INPUT, f"{name} must be finite, got {value!r}")
    return number


def _parse_angle(value: Any, name: str) -> float:
    """Radians by default; strings like '120deg' are degrees."""
    if isinstance(value, str) and value.strip().lower().endswith("deg"):
        return math.radians(_parse_number(value.strip()[:-3], name))
    return _parse_number(value, name)


def _parse_object(text: str | None, flag: str) -> dict[str, Any]:
    if text is None:
        return {}
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_INPUT, f"{flag} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise CliError(EXIT_INPUT, f"{flag} must be a JSON object")
    return obj


def _parse_numbers(text: str, flag: str, parties: int | None = None) -> list[float]:
    """Comma-separated numbers given to ``flag``.  With ``parties``, one
    value broadcasts to every party and any other count must match."""
    values = [_parse_number(tok, flag) for tok in text.split(",") if tok.strip()]
    if not values:
        raise CliError(EXIT_INPUT, f"{flag} is empty")
    if parties is not None:
        if len(values) == 1:
            values = values * parties
        if len(values) != parties:
            raise CliError(
                EXIT_INPUT,
                f"{flag} lists {len(values)} values but --parties is {parties}",
            )
    return values


def _unit_interval(value: float, what: str) -> float:
    """``value`` if it lies in [0, 1]; NaN and the infinities do not."""
    if not (0.0 <= value <= 1.0):
        raise CliError(EXIT_INPUT, f"{what} {value!r} outside [0, 1]")
    return value


def _parse_rates(text: str | None, parties: int | None = None) -> list[float]:
    """Comma-separated inconclusive rates, each in [0, 1]; with ``parties``,
    per party, one value broadcasting to all."""
    if text is None:
        raise CliError(EXIT_INPUT, "this command needs --eta0 (per-party rates)")
    rates = _parse_numbers(text, "--eta0", parties)
    return [_unit_interval(v, "inconclusive rate") for v in rates]


def _spelled(params: dict[str, Any], names: tuple[str, ...], default: Any) -> Any:
    """The value of the one parameter that ``names`` spell; giving more
    than one spelling is an error, not a silent choice."""
    given = [name for name in names if name in params]
    if len(given) > 1:
        raise ValueError(f"{' and '.join(given)} spell one parameter; give one of them")
    return params[given[0]] if given else default


def _count(params: dict[str, Any]) -> int:
    value = _spelled(params, ("n", "N"), 3)
    # JSON true is no count; int(inf) overflows; int(nan) is a ValueError
    if isinstance(value, bool) or int(value) != float(value):
        raise ValueError(f"n must be an integer, got {value!r}")
    return int(value)


def _angle(params: dict[str, Any], name: str, default: float) -> float:
    return _parse_angle(params.get(name, default), name)


def _family_row(name: str) -> _Family:
    if name not in FAMILIES:
        raise CliError(
            EXIT_INPUT, f"unknown family {name!r}; choose one of {', '.join(FAMILIES)}"
        )
    return FAMILIES[name]


def _reject_unread(given: dict[str, Any], known: tuple[str, ...], where: str) -> None:
    """Exit 2 naming each key of ``given`` outside ``known``."""
    unknown = ", ".join(sorted(set(given) - set(known)))
    if unknown:
        raise CliError(EXIT_INPUT, f"{where} key {unknown}; its keys are {', '.join(known)}")


def _build_family(name: str, params: dict[str, Any]) -> Any:
    row = _family_row(name)
    _reject_unread(params, row.keys, f"family {name} reads no --params")
    try:
        return row.build(params)
    except (ValueError, TypeError, OverflowError) as exc:  # int(inf) overflows
        raise CliError(EXIT_INPUT, f"bad parameters for family {name}: {exc}")


def _load_source(args: argparse.Namespace) -> tuple[qcore.Ensemble, Any]:
    """Resolve (ensemble, family-or-None) from --ensemble/--family."""
    if args.ensemble is not None and args.family is not None:
        raise CliError(EXIT_INPUT, "give either --ensemble or --family, not both")
    if args.ensemble is not None:
        try:
            e = qcore.load_ensemble(args.ensemble)
            e.average()  # cached: the solve reads this eigensolve
            return e, None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CliError(EXIT_INPUT, f"cannot load ensemble {args.ensemble}: {exc}")
    if args.family is not None:
        fam = _build_family(args.family, _parse_object(args.params, "--params"))
        return fam.ensemble(), fam
    raise CliError(EXIT_INPUT, "an ensemble source is required: --ensemble or --family")


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _emit(out_dir: str | None, name: str, text: str, quiet_path: bool = False) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
        target = path / name
        target.write_text(text)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot write {name} under {out_dir}: {exc}")
    if not quiet_path:
        print(target)


# ---------------------------------------------------------------------------
# mcm
# ---------------------------------------------------------------------------


def cmd_mcm(args: argparse.Namespace) -> int:
    e, _ = _load_source(args)
    weights = optim_mod.min_inconclusive_rate(e)
    report = mcm_mod.verify_kkt(e, mcm_mod.mcm_povm(e, weights.weights))
    try:
        p_guess = optim_mod.min_error_guessing(e)
        h_min = 0.0 - math.log2(p_guess)  # the min-entropy; +0.0, not -0.0, at P_guess = 1
        guess_doc: dict[str, Any] | None = {"p_guess": p_guess, "h_min_bits": h_min}
    except optim_mod.UnsupportedScaleError:
        guess_doc = None

    doc = {
        "solution": mcm_mod.solution_to_json(e),
        "rate_optimal": {
            "weights": {str(x): w for x, w in sorted(weights.weights.items())},
            "eta0": weights.eta0,
            "psd_margin": weights.psd_margin,
        },
        "kkt": {
            "stability": {str(x): v for x, v in sorted(report.stability.items())},
            "slackness": {str(x): v for x, v in sorted(report.slackness.items())},
            "tol": report.tol,
            "ok": report.ok,
        },
        "guessing": guess_doc,
    }
    _emit(args.out, "mcm.json", qcore.json_text(doc))
    if not report.ok:
        print("KKT verification failed", file=sys.stderr)
        return EXIT_KKT
    return EXIT_OK


# ---------------------------------------------------------------------------
# sequence
# ---------------------------------------------------------------------------


def _run_family(
    name: str, fam: Any, e: qcore.Ensemble, schedule: Any, **retarget: float
) -> seqchan.SequentialTrace:
    """The chain of ``fam`` (ensemble ``e``) at ``schedule``; exit 2 if it has none."""
    try:
        strategies = fam.strategies(schedule, **retarget)
    except ValueError as exc:  # e.g. gu/lifted_gu chains need n >= 3
        raise CliError(EXIT_INPUT, f"bad parameters for family {name}: {exc}")
    return seqchan.run_sequence(e, strategies)


def cmd_sequence(args: argparse.Namespace) -> int:
    e, fam = _load_source(args)
    parties = args.parties
    if parties is None or parties < 1:
        raise CliError(EXIT_INPUT, "--parties must be a positive integer")
    source = "--ensemble" if fam is None else f"--family {args.family}"
    reads = ("eta0",) if fam is None else _family_row(args.family).chain
    for flag in ("eta0", "gains", "retarget_angle"):
        if getattr(args, flag) is not None and flag not in reads:
            name = flag.replace("_", "-")
            raise CliError(EXIT_INPUT, f"sequence {source} does not read --{name}")
    if fam is None:
        strategies = seqchan.weakened_mcm_strategies(_parse_rates(args.eta0, parties))
        trace = seqchan.run_sequence(e, strategies)
    else:
        angle = args.retarget_angle
        retarget = {} if angle is None else {"retarget": _parse_angle(angle, "--retarget-angle")}
        if reads[0] == "eta0":
            schedule = _parse_rates(args.eta0, parties)
        else:  # two_mixed: per-party gains, or the party count for the optimum
            gains = args.gains
            schedule = parties if gains is None else _parse_numbers(gains, "--gains", parties)
        trace = _run_family(args.family, fam, e, schedule, **retarget)

    # serialize only what is written: one format on stdout, both under --out
    for fmt in ("json", "csv") if args.out is not None else (args.format,):
        if fmt == "json":
            text = qcore.json_text(seqchan.trace_to_json(trace))
        else:
            text = seqchan.trace_to_csv(trace)
        _emit(args.out, f"trace.{fmt}", text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parties_at(threshold: float, parties: list[dict[str, float]]) -> int:
    """How many leading parties have every confidence at least ``threshold``."""
    lows = [min(v for k, v in q.items() if k.startswith("confidence_")) for q in parties]
    return next((j for j, c in enumerate(lows) if c < threshold), len(lows))


def _compare(
    name: str, fam: Any, e: qcore.Ensemble, schedule: Any, threshold: float | None
) -> list[list[Any]]:
    """``[party, quantity, oracle, engine, residual]`` rows of one chain of
    ``fam`` (ensemble ``e``)."""
    trace = _run_family(name, fam, e, schedule)  # first: a failure names the party
    engine = [  # each party's values under the trace CSV's names
        {f"confidence_{x}": c for x, c in rec.confidences.items()}
        | {"disturbance": rec.disturbance, "p_joint": trace.p_joint, **rec.extras}
        for rec in trace.records
    ]
    oracle = fam.oracle(schedule)
    rows = [
        [j, k, v, got[k], abs(got[k] - v)]
        for j, (want, got) in enumerate(zip(oracle, engine), start=1)
        for k, v in want.items()
    ]
    if threshold is not None:
        counts = [_parties_at(threshold, side) for side in (oracle, engine)]
        rows.append([len(oracle), "parties_at_threshold", *counts, abs(counts[1] - counts[0])])
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.family is None:
        raise CliError(EXIT_INPUT, "sweep needs --family")
    row = _family_row(args.family)
    if args.eta0 is not None and row.chain[0] != "eta0":
        raise CliError(EXIT_INPUT, f"sweep --family {args.family} does not read --eta0")
    parties = row.parties if args.parties is None else args.parties
    if parties < 1:
        raise CliError(EXIT_INPUT, "--parties must be a positive integer")
    if args.threshold is not None:
        _unit_interval(args.threshold, "--threshold")
    params, grid = _parse_object(args.params, "--params"), _parse_object(args.grid, "--grid")
    if not all(isinstance(v, list) for v in grid.values()):
        raise CliError(EXIT_INPUT, "--grid must be a JSON object of lists")
    _reject_unread(grid, row.keys, f"sweep --family {args.family} reads no --grid")
    both = ", ".join(sorted(set(params) & set(grid)))
    if both:
        raise CliError(EXIT_INPUT, f"--params and --grid both give {both}")
    axes = {**{k: v for k, v in row.points.items() if k not in params}, **grid}
    if row.chain[0] == "eta0":
        rates = row.rates if args.eta0 is None else _parse_rates(args.eta0)
        chains = [(eta0, [eta0] * parties) for eta0 in rates]
    else:  # two_mixed: the optimal chain
        chains = [(None, parties)]
    size = math.prod(len(v) for v in axes.values()) * len(chains) * parties
    if not 0 < size <= GRID_CAP:
        raise CliError(EXIT_INPUT, f"grid has {size} points; it must have 1 to {GRID_CAP}")
    fams = [
        _build_family(args.family, {**params, **dict(zip(axes, values))})
        for values in itertools.product(*axes.values())
    ]
    columns = [k for k in row.keys if hasattr(fams[0], k)]  # one spelling each: the attribute's
    # one ensemble per point, read by its chain at every rate; the first
    # stages of the points that share priors and dimension are solved as one
    # stack, which the chains read from each ensemble's cache
    ensembles = [fam.ensemble() for fam in fams]
    groups: dict[tuple, list[qcore.Ensemble]] = {}
    for e in ensembles:
        groups.setdefault((e.priors, e.dim), []).append(e)
    for group in (g for g in groups.values() if len(g) > 1):
        # a failed stack caches nothing, so each chain solves its own first
        # stage and fails as it alone would, naming its party
        with contextlib.suppress(ValueError, ArithmeticError):
            mcm_mod._first_stage(group)

    rows = []
    for eta0, schedule in chains:
        for fam, e in zip(fams, ensembles):
            cells = [getattr(fam, k) for k in columns] + [eta0]
            rows += [cells + r for r in _compare(args.family, fam, e, schedule, args.threshold)]
    header = columns + ["eta0", "party", "quantity", "oracle", "engine", "residual"]
    _emit(args.out, "sweep.csv", qcore.csv_text(header, rows))
    return EXIT_OK


class _Family(NamedTuple):
    build: Callable[[dict[str, Any]], Any]  # the family from --params
    keys: tuple[str, ...]  # the --params and --grid keys it reads; any other exits 2
    chain: tuple[str, ...] = ("eta0",)  # the sequence flags it reads, its schedule's first
    points: dict[str, Any] = {}  # sweep defaults: values of the keys it sweeps,
    rates: tuple[float, ...] = ()  # the rates (one chain each)
    parties: int = 1  # and the chain length


# every family name lookup goes through _family_row
FAMILIES: dict[str, _Family] = {
    "two_mixed": _Family(
        lambda q: fam_mod.two_mixed(
            p=_parse_number(q.get("p", 1.0), "p"), theta=_angle(q, "theta", math.pi / 2)
        ),
        ("p", "theta"),
        chain=("gains",),
        points={
            "p": np.linspace(0.05, 1.0, 10),
            "theta": np.linspace(0.1 * math.pi, 0.9 * math.pi, 10),
        },
    ),
    "gu": _Family(
        lambda q: fam_mod.gu(n=_count(q)), ("n", "N"), chain=("eta0", "retarget_angle"),
        rates=(0.1, 0.5, 0.9), parties=10,
    ),
    "lifted_gu": _Family(
        lambda q: fam_mod.lifted_gu(
            n=_count(q),
            theta=_angle(q, "theta", math.pi / 2),
            lam=_parse_number(_spelled(q, ("lam", "lambda"), 1.0), "lam"),
        ),
        ("n", "N", "theta", "lam", "lambda"),
        chain=("eta0", "retarget_angle"),
        rates=(0.5,),
        parties=8,
    ),
    "mirror": _Family(
        lambda q: fam_mod.mirror(theta=_angle(q, "theta", 2 * math.pi / 3)),
        ("theta",),
        chain=("eta0", "retarget_angle"),
        # 13 angles about the trine, where the drift of the angle changes sign
        points={
            "theta": sorted({*np.linspace(5 * math.pi / 9, 7 * math.pi / 9, 13), 2 * math.pi / 3})
        },
        rates=(0.5,),
        parties=2,
    ),
}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise CliError(EXIT_INPUT, f"--count must be a positive integer, got {args.count}")
    if args.seed < 0:
        raise CliError(EXIT_INPUT, f"--seed must be a nonnegative integer, got {args.seed}")
    if args.suite not in (*checks.SUITES, "all"):
        known = ", ".join(checks.SUITES)
        raise CliError(EXIT_INPUT, f"unknown suite {args.suite!r}; choose from {known} or all")
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    doc = checks.verify(names, args.count, args.seed)
    text = qcore.json_text(doc)
    if args.out is not None:
        _emit(args.out, "verify.json", text, quiet_path=True)
    sys.stdout.write(text)
    return EXIT_OK if doc["pass"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------


def cmd_family(args: argparse.Namespace) -> int:
    if args.family is None:
        raise CliError(EXIT_INPUT, "family needs --family")
    fam = _build_family(args.family, _parse_object(args.params, "--params"))
    try:
        doc = fam.describe()
    except qcore.FeasibilityError as exc:  # mirror: outside its closed form's range
        raise CliError(EXIT_INPUT, f"bad parameters for family {args.family}: {exc}")
    _emit(args.out, "family.json", qcore.json_text(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_source_flags(p: argparse.ArgumentParser, ensemble: bool = True) -> None:
    if ensemble:
        p.add_argument("--ensemble", help="path to an ensemble JSON file")
    p.add_argument("--family", help=f"one of {', '.join(FAMILIES)}")
    p.add_argument("--params", help='family parameters as JSON, e.g. \'{"n": 3}\'')
    p.add_argument("--out", help="output directory (default: print to stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmcm",
        description="Maximum-confidence discrimination and sequential measurement chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mcm = sub.add_parser("mcm", help="solve one maximum-confidence problem")
    _add_source_flags(p_mcm)

    # no abbreviations: the removed --retarget must not parse as --retarget-angle
    p_seq = sub.add_parser("sequence", help="run a sequential chain", allow_abbrev=False)
    _add_source_flags(p_seq)
    p_seq.add_argument("--parties", type=int, help="number of parties R")
    p_seq.add_argument("--eta0", help="per-party inconclusive rates, comma separated")
    p_seq.add_argument("--gains", help="two_mixed only: per-party gains, comma separated")
    p_seq.add_argument(
        "--retarget-angle",
        help="gu, lifted_gu, mirror: collapse onto this angle (radians, or e.g. '90deg') "
        "instead of the least-disturbing one",
    )
    p_seq.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="stdout format when --out is not given",
    )

    p_sweep = sub.add_parser("sweep", help="oracle-vs-engine residuals over a grid")
    _add_source_flags(p_sweep, ensemble=False)
    p_sweep.add_argument("--grid", help="family parameters as a JSON object of lists")
    p_sweep.add_argument("--parties", type=int, help="chain length (default: the family's)")
    p_sweep.add_argument("--eta0", help="not two_mixed: inconclusive rates, one chain each")
    p_sweep.add_argument(
        "--threshold", type=float, help="count the leading parties whose confidences reach it"
    )

    p_verify = sub.add_parser("verify", help="randomized invariant suites")
    p_verify.add_argument(
        "--suite", default="all", help=f"one of {', '.join(checks.SUITES)} or all (default)"
    )
    p_verify.add_argument(
        "--count", type=int, default=500, help="instances per suite (default 500)"
    )
    p_verify.add_argument("--seed", type=int, default=7, help="RNG seed (default 7)")
    p_verify.add_argument("--out", help="also write verify.json here")

    p_family = sub.add_parser("family", help="print a family's closed-form values")
    _add_source_flags(p_family, ensemble=False)

    return parser


COMMANDS = {
    "mcm": cmd_mcm,
    "sequence": cmd_sequence,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "family": cmd_family,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        for flag in ("ensemble", "family", "out"):
            if getattr(args, flag, None) == "":
                raise CliError(EXIT_INPUT, f"--{flag} is empty")
        return COMMANDS[args.command](args)
    except CliError as exc:
        code, message = exc.code, str(exc)
    except (qcore.DimensionError, mcm_mod.SupportError) as exc:
        code, message = EXIT_INPUT, str(exc)
    except (optim_mod.ConvergenceError, mcm_mod.ComplementCheckError) as exc:
        code, message = EXIT_KKT, str(exc)
    except seqchan.StrategyInfeasibleError as exc:
        code, message = EXIT_INFEASIBLE, f"infeasible: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
