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

Exit codes: 0 success; 1 verification failure; 2 malformed input (also a
state outside the support of the ensemble average, message names the label);
3 KKT check failure (also an SDP solve that stops short of its gap bound);
4 infeasible strategy (message names the party).

Each family is one row of :data:`FAMILIES`: how ``--params`` builds it,
how ``sweep`` runs it, and which ``sweep`` flags and ``--grid`` keys that
sweep reads; ``sweep`` rejects any other with exit 2.  ``family`` prints
the family's ``describe()``; ``sequence`` chains come from its
``strategies`` (``two_mixed``: from its gains instead).  A given
``--retarget-angle`` replaces the least-disturbing collapse of a
``lifted_gu`` (polar angle) or ``mirror`` (azimuth) chain; every other
chain exits 2 on it.  An ``--ensemble`` chain weakens the rate-optimal
measurement, which needs a one-vector optimal subspace for every label it
measures (exit 4, "not rank-one", otherwise).

Outputs are deterministic for a fixed command line (``verify`` draws its
instances from ``--seed``): dictionaries are serialized with sorted keys
and floats with ``repr`` precision, so reruns are byte-identical.
``SEQMCM_THREADS`` caps sweep parallelism.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import families as fam_mod
from . import mcm as mcm_mod
from . import optim as optim_mod
from . import qcore
from . import seqchan
from .qcore import Ensemble, FeasibilityError

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
    try:
        return float(value)
    except (TypeError, ValueError):
        raise CliError(EXIT_INPUT, f"cannot parse {value!r} for {name}")


def _parse_angle(value: Any, name: str) -> float:
    """Radians by default; strings like '120deg' are degrees."""
    if isinstance(value, str) and value.strip().lower().endswith("deg"):
        return math.radians(_parse_number(value.strip()[:-3], name))
    return _parse_number(value, name)


def _parse_params(text: str | None) -> dict[str, Any]:
    if not text:
        return {}
    try:
        params = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_INPUT, f"--params is not valid JSON: {exc}")
    if not isinstance(params, dict):
        raise CliError(EXIT_INPUT, "--params must be a JSON object")
    return params


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


def _parse_rates(text: str | None, parties: int) -> list[float]:
    """Comma-separated per-party rates; one value broadcasts to all."""
    if text is None:
        raise CliError(EXIT_INPUT, "this command needs --eta0 (per-party rates)")
    values = _parse_numbers(text, "--eta0", parties)
    for v in values:
        if not (0.0 <= v <= 1.0):
            raise CliError(EXIT_INPUT, f"inconclusive rate {v!r} outside [0, 1]")
    return values


def _count(params: dict[str, Any]) -> int:
    return int(params.get("n", params.get("N", 3)))


def _angle(params: dict[str, Any], name: str, default: float) -> float:
    return _parse_angle(params.get(name, default), name)


def _family_row(name: str) -> _Family:
    if name not in FAMILIES:
        raise CliError(
            EXIT_INPUT, f"unknown family {name!r}; choose one of {', '.join(FAMILIES)}"
        )
    return FAMILIES[name]


def _build_family(name: str, params: dict[str, Any]) -> Any:
    try:
        return _family_row(name).build(params)
    except (ValueError, TypeError) as exc:
        raise CliError(EXIT_INPUT, f"bad parameters for family {name}: {exc}")


def _load_source(args: argparse.Namespace) -> tuple[Ensemble, Any]:
    """Resolve (ensemble, family-or-None) from --ensemble/--family."""
    if args.ensemble and args.family:
        raise CliError(EXIT_INPUT, "give either --ensemble or --family, not both")
    if args.ensemble:
        try:
            return qcore.load_ensemble(args.ensemble), None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CliError(EXIT_INPUT, f"cannot load ensemble {args.ensemble}: {exc}")
    if args.family:
        fam = _build_family(args.family, _parse_params(args.params))
        return fam.ensemble(), fam
    raise CliError(EXIT_INPUT, "an ensemble source is required: --ensemble or --family")


def _thread_count() -> int:
    raw = os.environ.get("SEQMCM_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise CliError(EXIT_INPUT, f"SEQMCM_THREADS={raw!r} is not an integer")
    return min(8, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def _fmt(value: Any) -> str:
    """Deterministic cell text: empty for None, repr for floats, str otherwise."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # numpy scalars repr differently; unify
    return str(value)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# mcm
# ---------------------------------------------------------------------------


def cmd_mcm(args: argparse.Namespace) -> int:
    e, _ = _load_source(args)
    weights = optim_mod.min_inconclusive_rate(e)
    report = mcm_mod.verify_kkt(e, mcm_mod.mcm_povm(e, weights.weights))
    try:
        p_guess, h_min = mcm_mod.guessing_probability(e)
        guess_doc: dict[str, Any] | None = {"p_guess": p_guess, "h_min_bits": h_min}
    except optim_mod.UnsupportedScaleError:
        guess_doc = None

    doc = {
        "solution": mcm_mod.solution_to_json(mcm_mod.solve_mcm(e)),
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
    _emit(args.out, "mcm.json", _dumps(doc))
    if not report.ok:
        print("KKT verification failed", file=sys.stderr)
        return EXIT_KKT
    return EXIT_OK


# ---------------------------------------------------------------------------
# sequence
# ---------------------------------------------------------------------------


def _mcm_plan(
    e: Ensemble, weights: dict[int, float], extras: dict[str, float] | None = None
) -> seqchan.PartyPlan:
    """The rank-one party measuring each label's optimal vector
    (``solve_mcm``'s ``basis[0]``) at the given weight, collapsing onto it.
    A label of positive weight whose optimal subspace has more than one
    vector has no rank-one element: :class:`seqchan.ChannelConstructionError`."""
    entries = mcm_mod.solve_mcm(e)
    for x, w in weights.items():
        if w > 0.0 and len(entries[x].basis) > 1:
            raise seqchan.ChannelConstructionError(
                f"label {x} is not rank-one (its optimal subspace has dimension "
                f"{len(entries[x].basis)}); the rank-one Kraus construction does not apply"
            )
    vectors = {x: entries[x].basis[0] for x in weights}
    return seqchan.rank_one_plan(weights, vectors, extras=extras)


def _generic_strategies(parties: int, rates: list[float]) -> list[seqchan.Strategy]:
    """Family-free chain policy: each party plays the rate-optimal
    measurement weakened uniformly to its requested inconclusive rate,
    collapsing conclusive outcomes onto the measurement vectors."""

    def strat(e: Ensemble, j: int):
        eta0 = rates[j - 1]
        sol = optim_mod.min_inconclusive_rate(e)
        floor = max(sol.eta0, 0.0)
        if eta0 < floor - 1e-9:
            raise FeasibilityError(
                f"inconclusive rate {eta0!r} below this ensemble's floor {floor!r}"
            )
        denom = 1.0 - floor
        alpha = 1.0 if denom <= 1e-15 else min((1.0 - eta0) / denom, 1.0)
        weights = {x: alpha * w for x, w in sol.weights.items()}
        return _mcm_plan(e, weights, {"eta0_target": eta0, "alpha": alpha})

    return [strat] * parties


def _family_strategies(fam: Any, args: argparse.Namespace, parties: int) -> list:
    angle = args.retarget_angle
    if angle is not None:
        angle = _parse_angle(angle, "--retarget-angle")
    if isinstance(fam, fam_mod.TwoMixedFamily):  # a chain set by gains, not rates
        if angle is not None:
            raise CliError(
                EXIT_INPUT, "two_mixed chains have no retarget angle; use --gains"
            )
        if args.gains:
            return fam.strategies_for_gains(_parse_numbers(args.gains, "--gains", parties))
        return fam.chain_strategies(parties)
    return fam.strategies(_parse_rates(args.eta0, parties), retarget=angle)


def cmd_sequence(args: argparse.Namespace) -> int:
    e, fam = _load_source(args)
    parties = args.parties
    if parties is None or parties < 1:
        raise CliError(EXIT_INPUT, "--parties must be a positive integer")
    if fam is None:
        if args.retarget_angle is not None:
            raise CliError(EXIT_INPUT, "an --ensemble chain has no retarget angle")
        strategies = _generic_strategies(parties, _parse_rates(args.eta0, parties))
    else:
        try:
            strategies = _family_strategies(fam, args, parties)
        except ValueError as exc:  # e.g. gu/lifted_gu chains need n >= 3
            raise CliError(EXIT_INPUT, f"bad parameters for family {args.family}: {exc}")

    try:
        trace = seqchan.run_sequence(e, strategies)
    except seqchan.StrategyInfeasibleError as exc:
        raise CliError(EXIT_INFEASIBLE, f"infeasible: {exc}")

    # serialize only what is written: one format on stdout, both under --out
    for fmt in ("json", "csv") if args.out is not None else (args.format,):
        if fmt == "json":
            text = _dumps(seqchan.trace_to_json(trace))
        else:
            text = seqchan.trace_to_csv(trace)
        _emit(args.out, f"trace.{fmt}", text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


Grid = dict[str, list[Any]]


def _parse_grid(text: str | None) -> Grid:
    if not text:
        return {}
    try:
        grid = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_INPUT, f"--grid is not valid JSON: {exc}")
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise CliError(EXIT_INPUT, "--grid must be a JSON object of lists")
    return grid


def _map_points(points: list, fn: Callable[[Any], list[Any]]) -> list[list[Any]]:
    threads = _thread_count()
    if threads <= 1 or len(points) < 2:
        return [fn(p) for p in points]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, points))


def _guard_grid(n_points: int) -> None:
    if n_points > GRID_CAP:
        raise CliError(EXIT_INPUT, f"grid has {n_points} points; the cap is {GRID_CAP}")
    if n_points == 0:
        raise CliError(EXIT_INPUT, "grid is empty")


def _sweep_two_mixed(args: argparse.Namespace, grid: Grid) -> tuple[list[str], list[list[Any]]]:
    ps = [_parse_number(v, "p") for v in grid.get("p", np.linspace(0.05, 1.0, 10))]
    thetas = [
        _parse_angle(v, "theta")
        for v in grid.get("theta", np.linspace(0.1 * math.pi, 0.9 * math.pi, 10))
    ]
    parties = args.parties
    points = [(p, th) for p in ps for th in thetas]
    _guard_grid(len(points))
    header = (
        "p theta confidence_oracle confidence_engine confidence_residual "
        "p_joint_oracle p_joint_engine p_joint_residual error"
    ).split()

    def one(point: tuple[float, float]) -> list[Any]:
        p, th = point
        try:
            fam = fam_mod.two_mixed(p, th)
            e = fam.ensemble()
            engine = mcm_mod.solve_mcm(e)[1].confidence
            row = [p, th, fam.confidence, engine, abs(engine - fam.confidence)]
            if not parties:
                return row + [None] * 4
            sched = fam.schedule(parties)
            trace = seqchan.run_sequence(e, fam.chain_strategies(parties))
            pj = trace.p_joint if trace.p_joint is not None else math.nan
            return row + [sched.p_joint, pj, abs(pj - sched.p_joint), None]
        except Exception as exc:  # recorded per-point, sweep continues
            return [p, th] + [None] * 6 + [str(exc)]

    return header, _map_points(points, one)


def _sweep_gu(args: argparse.Namespace, grid: Grid) -> tuple[list[str], list[list[Any]]]:
    del grid  # a gu sweep runs over rates, not parameters
    fam = _build_family(args.family, _parse_params(args.params))
    n = fam.n
    parties = args.parties or 10
    rates = _parse_numbers(args.eta0, "--eta0") if args.eta0 else [0.1, 0.5, 0.9]
    _guard_grid(len(rates) * parties)

    def chain(eta0: float) -> list[list[Any]]:
        rows: list[list[Any]] = []
        try:
            schedule = [eta0] * parties
            trace = seqchan.run_sequence(fam.ensemble(), fam.strategies(schedule))
            for j in range(1, parties + 1):
                oracle = fam.confidence_at(j, schedule)
                engine = trace.records[j - 1].confidences[1]
                rows.append([n, eta0, j, oracle, engine, abs(engine - oracle), None])
        except Exception as exc:
            rows.append([n, eta0, None, None, None, None, str(exc)])
        return rows

    header = ["n", "eta0", "party", "confidence_oracle", "confidence_engine", "residual", "error"]
    nested = _map_points(rates, chain)
    return header, [row for rows in nested for row in rows]


def _sweep_lifted(args: argparse.Namespace, grid: Grid) -> tuple[list[str], list[list[Any]]]:
    del grid  # a lifted_gu sweep runs over parties, not parameters
    fam = _build_family(args.family, _parse_params(args.params))
    parties = args.parties or 8
    threshold = args.threshold if args.threshold is not None else 0.4
    eta0 = _parse_numbers(args.eta0, "--eta0")[0] if args.eta0 else 0.5
    _guard_grid(parties)

    try:
        bound = fam.party_bound(threshold, eta0)
    except FeasibilityError as exc:  # rate below the floor cos(theta)
        raise CliError(EXIT_INFEASIBLE, f"infeasible: {exc}")
    except ValueError as exc:  # n < 3: no sequential closed forms
        raise CliError(EXIT_INPUT, f"bad parameters for family {args.family}: {exc}")
    max_r = fam.max_parties(threshold, eta0) if math.isfinite(bound) else None
    schedule = [eta0] * parties
    try:
        trace = seqchan.run_sequence(fam.ensemble(), fam.strategies(schedule))
    except seqchan.StrategyInfeasibleError as exc:
        raise CliError(EXIT_INFEASIBLE, f"infeasible: {exc}")

    header = (
        "parties eta0 threshold bound max_parties confidence_oracle confidence_engine "
        "residual feasible_oracle feasible_engine error"
    ).split()
    rows = []
    for r in range(1, parties + 1):
        oracle = fam.confidence_at(r, schedule)
        engine = trace.records[r - 1].confidences[1]
        row = [r, eta0, threshold, bound, max_r, oracle, engine, abs(engine - oracle)]
        rows.append(row + [int(oracle >= threshold), int(engine >= threshold), None])
    return header, rows


def _sweep_mirror(args: argparse.Namespace, grid: Grid) -> tuple[list[str], list[list[Any]]]:
    if "theta" in grid:
        thetas = [_parse_angle(v, "theta") for v in grid["theta"]]
    else:
        thetas = sorted(set(np.linspace(5 * math.pi / 9, 7 * math.pi / 9, 13)) | {2 * math.pi / 3})
    eta0 = _parse_numbers(args.eta0, "--eta0")[0] if args.eta0 else 0.5
    _guard_grid(len(thetas))
    header = "theta eta0 theta_next_oracle theta_next_engine residual dtheta sign error".split()

    def one(theta: float) -> list[Any]:
        try:
            fam = fam_mod.mirror(theta)
            oracle = fam_mod.mirror_step(fam.initial(), eta0).theta
            trace = seqchan.run_sequence(fam.ensemble(), fam.strategies([eta0]))
            engine = fam_mod.mirror_state_of(trace.final_ensemble).theta
            d = oracle - theta
            sign = "0" if abs(d) < 1e-9 else ("+" if d > 0 else "-")
            return [theta, eta0, oracle, engine, abs(engine - oracle), d, sign, None]
        except Exception as exc:
            return [theta, eta0] + [None] * 5 + [str(exc)]

    return header, _map_points(list(thetas), one)


def cmd_sweep(args: argparse.Namespace) -> int:
    if not args.family:
        raise CliError(EXIT_INPUT, "sweep needs --family")
    row = _family_row(args.family)
    for flag in ("params", "grid", "parties", "eta0", "threshold"):
        if getattr(args, flag) is not None and flag not in row.reads:
            raise CliError(EXIT_INPUT, f"sweep --family {args.family} does not read --{flag}")
    grid = _parse_grid(args.grid)
    unknown = sorted(set(grid) - set(row.grid))
    if unknown:
        raise CliError(
            EXIT_INPUT,
            f"sweep --family {args.family} reads no --grid key {', '.join(unknown)}; "
            f"its keys are {', '.join(row.grid)}",
        )
    header, rows = row.sweep(args, grid)
    _emit(args.out, "sweep.csv", _csv_text(header, rows))
    return EXIT_OK


class _Family(NamedTuple):
    build: Callable[[dict[str, Any]], Any]  # the family from --params
    sweep: Callable[[argparse.Namespace, Grid], tuple[list[str], list[list[Any]]]]
    reads: tuple[str, ...]  # the sweep flags it reads; cmd_sweep rejects the others
    grid: tuple[str, ...] = ()  # the --grid keys it reads


# every family name lookup goes through _family_row
FAMILIES: dict[str, _Family] = {
    "two_mixed": _Family(
        lambda q: fam_mod.two_mixed(
            p=float(q.get("p", 1.0)), theta=_angle(q, "theta", math.pi / 2)
        ),
        _sweep_two_mixed,
        ("grid", "parties"),
        ("p", "theta"),
    ),
    "gu": _Family(lambda q: fam_mod.gu(n=_count(q)), _sweep_gu, ("params", "parties", "eta0")),
    "lifted_gu": _Family(
        lambda q: fam_mod.lifted_gu(
            n=_count(q),
            theta=_angle(q, "theta", math.pi / 2),
            lam=float(q.get("lam", q.get("lambda", 1.0))),
        ),
        _sweep_lifted,
        ("params", "parties", "eta0", "threshold"),
    ),
    "mirror": _Family(
        lambda q: fam_mod.mirror(theta=_angle(q, "theta", 2 * math.pi / 3)),
        _sweep_mirror,
        ("grid", "eta0"),
        ("theta",),
    ),
}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _draw_ensemble(rng: np.random.Generator, n_max: int) -> Ensemble:
    """A random qubit ensemble of 2..n_max states."""
    return qcore.random_ensemble(rng, 2, int(rng.integers(2, n_max + 1)))


def _draw_mcm_weights(rng: np.random.Generator) -> tuple[Ensemble, dict[int, float]]:
    """A random 2..4-state qubit ensemble and random feasible weights for
    its optimal projectors."""
    e = _draw_ensemble(rng, 4)
    projectors = mcm_mod.optimal_projectors(mcm_mod.solve_mcm(e))
    return e, optim_mod.random_feasible_weights(rng, projectors)


def _suite_duality(count: int, rng: np.random.Generator) -> dict[str, Any]:
    worst = 0.0
    for _ in range(count):
        e = _draw_ensemble(rng, 5)
        rho = e.average()
        for x, entry in mcm_mod.solve_mcm(e).items():
            if e.prior(x) == 0.0:
                continue
            dmax = mcm_mod.max_relative_entropy(e.state(x).mat, rho.mat)
            worst = max(worst, abs(entry.confidence - e.prior(x) * 2.0**dmax))
    return {"worst": worst}


def _suite_kkt(count: int, rng: np.random.Generator) -> dict[str, Any]:
    worst = 0.0
    for _ in range(count):
        e = _draw_ensemble(rng, 5)
        sol = optim_mod.min_inconclusive_rate(e)
        report = mcm_mod.verify_kkt(e, mcm_mod.mcm_povm(e, sol.weights))
        worst = max(
            worst,
            max(report.stability.values(), default=0.0),
            max(report.slackness.values(), default=0.0),
        )
    return {"worst": worst}


def _suite_povm(count: int, rng: np.random.Generator) -> dict[str, Any]:
    worst = 0.0
    ok = True
    for _ in range(count):
        report = qcore.validate_povm(mcm_mod.mcm_povm(*_draw_mcm_weights(rng)))
        worst = max(worst, report.completeness_residual, -min(report.psd_margins.values()))
        ok = ok and report.ok
    return {"worst": worst, "pass": ok}


def _suite_trace_preservation(count: int, rng: np.random.Generator) -> dict[str, Any]:
    worst = 0.0
    for _ in range(count):
        if rng.random() < 0.5:
            ch = seqchan.random_channel(rng, 2, int(rng.integers(2, 5)))
        else:
            e, weights = _draw_mcm_weights(rng)
            alpha = float(rng.uniform(0.2, 1.0))
            try:
                ch = _mcm_plan(e, {x: alpha * w for x, w in weights.items()}).channel
            except seqchan.ChannelConstructionError:
                continue  # degenerate (non-rank-one) draw; not this suite's target
        rho = qcore.random_density(rng, 2)
        out = ch.apply(rho)
        worst = max(worst, abs(float(np.real(np.trace(out.mat))) - 1.0))
    return {"worst": worst}


def _suite_monotonicity(count: int, rng: np.random.Generator) -> dict[str, Any]:
    violations = 0
    witness = None
    for _ in range(count):
        e = _draw_ensemble(rng, 4)
        sol = optim_mod.min_inconclusive_rate(e)
        floor = max(sol.eta0, 0.0)
        eta0 = floor + float(rng.uniform(0.1, 0.8)) * (1.0 - floor)
        try:
            seqchan.run_sequence(e, _generic_strategies(2, [eta0, eta0]))
        except seqchan.StrategyInfeasibleError:
            continue  # non-rank-one optimal subspace; outside this policy
        except ValueError as exc:
            violations += 1
            witness = str(exc)
    return {"worst": violations, "witness": witness}


def _suite_distance(count: int, rng: np.random.Generator) -> dict[str, Any]:
    worst = 0.0
    for _ in range(count):
        e = _draw_ensemble(rng, 4)
        ch = seqchan.random_channel(rng, 2, int(rng.integers(2, 5)))
        d, lower = seqchan.ensemble_distance(e, ch.apply_ensemble(e))
        worst = max(worst, lower - d)
    return {"worst": worst}


def _suite_proposition(count: int, rng: np.random.Generator) -> dict[str, Any]:
    del count, rng  # fixed check; randomness adds nothing
    trine = fam_mod.gu(3)
    eye = np.eye(2, dtype=complex)
    trine_ops = [m for _, m in trine.full_povm().all_operators() if np.trace(m).real > 1e-12]
    trine_dependent = not seqchan.linear_independence(trine_ops + [eye])

    two = fam_mod.two_mixed(0.8, math.pi / 3)
    entries = mcm_mod.solve_mcm(two.ensemble())
    two_ops = [np.outer(v, v.conj()) for x in (1, 2) for v in entries[x].basis]
    two_independent = seqchan.linear_independence(two_ops + [eye])

    # operational side: a two-state chain keeps its confidence exactly,
    # the trine family drops strictly under any weakening
    chain = seqchan.run_sequence(two.ensemble(), two.chain_strategies(2))
    c_two = [rec.confidences[1] for rec in chain.records]
    keep = abs(c_two[0] - c_two[1])

    tri = seqchan.run_sequence(trine.ensemble(), trine.strategies([0.5, 0.5]))
    c_tri = [rec.confidences[1] for rec in tri.records]
    drop = c_tri[0] - c_tri[1]

    return {
        "instances": 2,
        "worst": max(keep, 0.0 if drop >= 1e-6 else 1.0),
        "pass": trine_dependent and two_independent and keep <= 1e-10 and drop >= 1e-6,
        "witness": {
            "trine_dependent": trine_dependent,
            "two_state_independent": two_independent,
            "two_state_confidence_change": keep,
            "trine_confidence_drop": drop,
        },
    }


# suite name -> (module, invariant, tolerance on the worst value, suite);
# a suite returns its worst value and, where they differ from the
# defaults of _suite_report, its instance count, verdict and witness
SUITES: dict[str, tuple[str, str, float, Callable[[int, np.random.Generator], dict[str, Any]]]] = {
    "duality": (
        "mcm", "confidence equals prior times 2^(max relative entropy)", 1e-9, _suite_duality
    ),
    "kkt": ("mcm", "KKT stability and complementary slackness", 1e-9, _suite_kkt),
    "povm": (
        "qcore", "feasibly weighted measurements validate as POVMs", qcore.POVM_TOL, _suite_povm
    ),
    "trace-preservation": (
        "seqchan", "channels preserve trace", 1e-10, _suite_trace_preservation
    ),
    "monotonicity": (
        "seqchan", "confidences never increase along a chain", 0, _suite_monotonicity
    ),
    "distance": (
        "seqchan", "average disturbance dominates the mean-state bound", 1e-12, _suite_distance
    ),
    "proposition": (
        "seqchan",
        "equal-confidence chains exist iff the measurement operators with identity "
        "are linearly independent",
        1e-10,
        _suite_proposition,
    ),
}


def _suite_report(name: str, count: int, seed: int) -> dict[str, Any]:
    module, invariant, tol, suite = SUITES[name]
    found = suite(count, np.random.default_rng(seed))
    return {
        "suite": name,
        "module": module,
        "invariant": invariant,
        "instances": count,
        "tol": tol,
        "pass": found["worst"] <= tol,
        **found,
    }


def cmd_verify(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise CliError(EXIT_INPUT, f"--count must be a positive integer, got {args.count}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise CliError(
                EXIT_INPUT,
                f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all",
            )
    checks = [_suite_report(name, args.count, args.seed) for name in names]
    ok = all(c["pass"] for c in checks)
    doc = {"suites": names, "count": args.count, "seed": args.seed, "checks": checks, "pass": ok}
    text = _dumps(doc)
    if args.out is not None:
        _emit(args.out, "verify.json", text, quiet_path=True)
    sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------


def cmd_family(args: argparse.Namespace) -> int:
    if not args.family:
        raise CliError(EXIT_INPUT, "family needs --family")
    fam = _build_family(args.family, _parse_params(args.params))
    _emit(args.out, "family.json", _dumps(fam.describe()))
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
        help="lifted_gu, mirror: collapse onto this angle (radians, or e.g. '90deg') "
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
    p_sweep.add_argument("--grid", help="JSON object of parameter lists")
    p_sweep.add_argument("--parties", type=int, help="chain length (family dependent)")
    p_sweep.add_argument("--eta0", help="inconclusive rates, comma separated")
    p_sweep.add_argument(
        "--threshold", type=float, help="lifted_gu: confidence threshold (default 0.4)"
    )

    p_verify = sub.add_parser("verify", help="randomized invariant suites")
    p_verify.add_argument(
        "--suite", default="all", help=f"one of {', '.join(SUITES)} or all (default)"
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
        return COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (qcore.DimensionError, mcm_mod.SupportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except optim_mod.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_KKT


if __name__ == "__main__":
    sys.exit(main())
