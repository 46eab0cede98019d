"""Outside-in span tracer for the ``seqmcm`` modules.

:meth:`Tracer.install` replaces every public function of ``qcore``, ``mcm``,
``optim``, ``seqchan``, ``families`` and ``cli`` with a timing wrapper, in
every module that holds a reference to it (``mcm`` imports ``eig_hermitian``
by name from ``qcore``, so patching ``qcore`` alone would miss those calls).
It also wraps ``DensityMatrix.__post_init__``, ``Ensemble.average``,
``KrausChannel.apply``, the public methods of the family classes, the strategy
closures the families return, the entries of ``cli.COMMANDS`` and the sweep
thread pool.  The seventh layer, ``kernel``, is the ``numpy.linalg`` and
``scipy.optimize.minimize`` calls; they are counted, not timed, and each count
is credited to the innermost open span of the calling thread.

Spans are kept in memory, one stack per thread, and :meth:`Tracer.uninstall`
puts every original back.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, NamedTuple

LAYERS = ("qcore", "mcm", "optim", "seqchan", "families", "cli")
KERNELS = ("eigh", "eigvalsh", "svd", "solve", "inv", "slogdet", "qr", "lstsq", "minimize")
SERIALIZERS = ("qcore.matrix_to_json", "qcore.ensemble_to_json", "qcore.povm_to_json")
STRATEGY_METHODS = ("strategies", "strategies_for_gains", "chain_strategies")
COMMANDS = ("mcm", "sequence", "sweep", "verify")
SWEEP_WORKER = "cli.sweep.worker"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    error: str | None


class _ThreadState(threading.local):
    """Per-thread span stack and counters; ``sweep`` runs a thread pool, and a
    stack shared between threads would hand one thread's time to another."""

    def __init__(self, registry: list[Counter]) -> None:
        self.stack: list[tuple[int, str]] = []
        self.counts: Counter = Counter()
        self.tid = threading.get_ident()
        registry.append(self.counts)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # Span fields, as plain tuples while recording
        self.op = -1
        self._ids = itertools.count()
        self._counters: list[Counter] = []
        self._local = _ThreadState(self._counters)
        self._restore: list[tuple[Any, str, Any, bool]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, parent_of: Callable[[], int | None] | None = None) -> Callable:
        tracer, local, spans, ids, clock = self, self._local, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = local.stack
            if parent_of is not None:
                parent = parent_of()
            else:
                parent = stack[-1][0] if stack else None
            sid = next(ids)
            stack.append((sid, name))
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, tracer.op, local.tid, error))

        traced.__perfbench__ = True  # type: ignore[attr-defined]
        return traced

    def _count_kernel(self, fn: Callable, kernel: str) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            stack = local.stack
            local.counts[("kernel", stack[-1][1] if stack else "", kernel)] += 1
            return fn(*args, **kwargs)

        return counted

    def _counts(self) -> Counter:
        total: Counter = Counter()
        for counts in self._counters:
            total.update(counts)
        return total

    # -- installation -------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any, is_dict: bool = False) -> None:
        old = owner[attr] if is_dict else getattr(owner, attr)
        self._restore.append((owner, attr, old, is_dict))
        if is_dict:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.linalg
        import scipy.optimize

        import seqmcm
        from seqmcm import cli, families, mcm, optim, qcore, seqchan

        modules = {"qcore": qcore, "mcm": mcm, "optim": optim, "seqchan": seqchan,
                   "families": families, "cli": cli}
        command_names = {fn: cmd for cmd, fn in cli.COMMANDS.items()}
        inner = {id(mcm.max_confidence): self._keyed(mcm.max_confidence)}
        wrapped: dict[int, Callable] = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                label = command_names.get(value, attr)
                wrapped[id(value)] = self.wrap(inner.get(id(value), value), f"{layer}.{label}")
        # patch the name wherever it was imported, including the package
        for mod in [seqmcm, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])
        for cmd, fn in list(cli.COMMANDS.items()):
            self._set(cli.COMMANDS, cmd, wrapped[id(fn)], is_dict=True)

        self._set(qcore.DensityMatrix, "__post_init__",
                  self.wrap(qcore.DensityMatrix.__post_init__, "qcore.density_validate"))
        self._set(qcore.Ensemble, "average", self.wrap(qcore.Ensemble.average, "qcore.average"))
        self._set(seqchan.KrausChannel, "apply",
                  self.wrap(seqchan.KrausChannel.apply, "seqchan.channel_apply"))
        self._wrap_family_classes(families)
        self._wrap_sweep_pool(cli)

        for kernel in KERNELS[:-1]:
            self._set(numpy.linalg, kernel, self._count_kernel(getattr(numpy.linalg, kernel), kernel))
        self._set(scipy.optimize, "minimize", self._count_kernel(scipy.optimize.minimize, "minimize"))

    def _keyed(self, max_confidence: Callable) -> Callable:
        """Record which (ensemble, label) pair each ``max_confidence`` call
        solves, so re-solves of the same pair show in ``resolve_ratio``."""
        tracer = self

        @functools.wraps(max_confidence)
        def keyed(e: Any, x: int, *args: Any, **kwargs: Any) -> Any:
            digest = hashlib.sha1()
            for q, s in zip(e.priors, e.states):
                digest.update(repr(q).encode())
                digest.update(s.mat.tobytes())
            tracer._local.counts[("mcm", digest.hexdigest(), int(x))] += 1
            return max_confidence(e, x, *args, **kwargs)

        return keyed

    def _wrap_family_classes(self, families: Any) -> None:
        def strategy_list(method: Callable) -> Callable:
            @functools.wraps(method)
            def returns_traced(*args: Any, **kwargs: Any) -> list:
                cache: dict[int, Callable] = {}  # strategies come as [strat] * parties
                out = []
                for strat in method(*args, **kwargs):
                    if getattr(strat, "__perfbench__", False):
                        out.append(strat)
                        continue
                    if id(strat) not in cache:
                        cache[id(strat)] = self.wrap(strat, "families.strategy")
                    out.append(cache[id(strat)])
                return out

            return returns_traced

        for cls_name, cls in vars(families).items():
            if not inspect.isclass(cls) or cls.__module__ != families.__name__:
                continue
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                fn = strategy_list(value) if attr in STRATEGY_METHODS else value
                self._set(cls, attr, self.wrap(fn, f"families.{cls_name}.{attr}"))

    def _wrap_sweep_pool(self, cli: Any) -> None:
        """Sweep points run on a thread pool: give each point a span whose
        parent is the span open in the thread that submitted it."""
        tracer = self
        base = cli.ThreadPoolExecutor

        class TracedPool(base):  # type: ignore[misc, valid-type]
            def map(self, fn: Callable, *iterables: Any, **kwargs: Any) -> Any:
                stack = tracer._local.stack
                parent = stack[-1][0] if stack else None
                return super().map(tracer.wrap(fn, SWEEP_WORKER, lambda: parent), *iterables, **kwargs)

        self._set(cli, "ThreadPoolExecutor", TracedPool)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old, is_dict = self._restore.pop()
            if is_dict:
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- reduction ------------------------------------------------------------

    @staticmethod
    def self_times(spans: list[Span]) -> dict[int, float]:
        """Each span's duration minus the part of it that its children cover
        (children on other threads can overlap, so take their union)."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = {}
        for s in spans:
            covered, cursor = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.id] = s.end - s.start - covered
        return out

    def metrics(self) -> dict[str, float]:
        spans = [Span(*t) for t in self.spans]
        self_time = self.self_times(spans)
        counts = self._counts()
        mcm_keys = {key: n for key, n in counts.items() if key[0] == "mcm"}
        calls: Counter[str] = Counter()
        self_s: dict[str, float] = defaultdict(float)
        errors: Counter[tuple[str, str]] = Counter()
        for s in spans:
            calls[s.name] += 1
            self_s[s.name] += self_time[s.id]
            if s.error:
                errors[(s.name, s.error)] += 1
        kernel_by_span: dict[str, Counter[str]] = defaultdict(Counter)
        for key, n in counts.items():
            if key[0] == "kernel":
                kernel_by_span[key[1]][key[2]] += n

        def per_call(total: float, n: int) -> float:
            return total / n if n else 0.0

        m: dict[str, float] = {}
        for name, key in (("qcore.eig_hermitian", "qcore.eig_hermitian"),
                          ("qcore.density_validate", "qcore.density_validate")):
            m[f"{key}.calls"] = calls[name]
            m[f"{key}.self_s"] = self_s[name]
        m["qcore.average.calls"] = calls["qcore.average"]
        m["qcore.serialize.self_s"] = sum(self_s[n] for n in SERIALIZERS)

        m["mcm.max_confidence.calls"] = calls["mcm.max_confidence"]
        m["mcm.max_confidence.self_s"] = self_s["mcm.max_confidence"]
        m["mcm.mcm_povm.self_s"] = self_s["mcm.mcm_povm"]
        m["mcm.verify_kkt.self_s"] = self_s["mcm.verify_kkt"]
        m["mcm.resolve_ratio"] = per_call(sum(mcm_keys.values()), len(mcm_keys))

        rate = "optim.min_inconclusive_rate"
        m[f"{rate}.calls"] = calls[rate]
        m[f"{rate}.self_s"] = self_s[rate]
        m[f"{rate}.newton_steps"] = per_call(kernel_by_span[rate]["solve"], calls[rate])
        m[f"{rate}.linesearch_evals"] = per_call(kernel_by_span[rate]["eigvalsh"], calls[rate])
        guess = "optim.min_error_guessing"
        refused = errors[(guess, "UnsupportedScaleError")]
        solved = calls[guess] - refused
        m[f"{guess}.calls"] = calls[guess]
        m[f"{guess}.self_s"] = self_s[guess]
        m[f"{guess}.bfgs_stages"] = per_call(kernel_by_span[guess]["minimize"], solved)
        m[f"{guess}.eigh_calls"] = per_call(kernel_by_span[guess]["eigh"], solved)
        m[f"{guess}.refused"] = refused

        m["seqchan.run_sequence.self_s"] = self_s["seqchan.run_sequence"]
        for name in ("kraus_from_weak", "channel_apply"):
            m[f"seqchan.{name}.calls"] = calls[f"seqchan.{name}"]
            m[f"seqchan.{name}.self_s"] = self_s[f"seqchan.{name}"]
        for name in ("joint_outcomes", "trace_to_json", "trace_to_csv"):
            m[f"seqchan.{name}.self_s"] = self_s[f"seqchan.{name}"]
        m["seqchan.infeasible"] = errors[("seqchan.run_sequence", "StrategyInfeasibleError")]

        for name in ("strategy", "mirror_mcm"):
            m[f"families.{name}.calls"] = calls[f"families.{name}"]
            m[f"families.{name}.self_s"] = self_s[f"families.{name}"]

        for cmd in COMMANDS:
            m[f"cli.{cmd}.self_s"] = self_s[f"cli.{cmd}"]
        sweep_wall = sum(s.end - s.start for s in spans if s.name == "cli.sweep")
        worker = sum(s.end - s.start for s in spans if s.name == SWEEP_WORKER)
        m["cli.sweep.thread_overlap"] = worker / sweep_wall if sweep_wall else 0.0

        for kernel in KERNELS:
            m[f"kernel.{kernel}.calls"] = sum(c[kernel] for c in kernel_by_span.values())

        for layer in LAYERS:
            names = [n for n in calls if n.split(".")[0] == layer]
            m[f"{layer}.calls"] = sum(calls[n] for n in names)
            m[f"{layer}.self_s"] = sum(self_s[n] for n in names)
        m["trace.spans"] = len(spans)
        return m
