"""Shared test fixtures."""

from collections import Counter

import numpy as np
import pytest


class EigensolveLog:
    """Inputs of the numpy ``eigh`` / ``eigvalsh`` calls made during a test."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, np.ndarray]] = []

    def count(self, kind: str = "eigh") -> int:
        return sum(name == kind for name, _ in self.calls)

    def of(self, matrix: np.ndarray, kind: str = "eigh") -> int:
        """How many ``kind`` calls took ``matrix`` (to 1e-12) as input, alone
        or as one slice of a stacked ``(..., d, d)`` input."""
        return sum(
            1
            for name, a in self.calls
            if name == kind
            and a.shape[-2:] == matrix.shape
            and np.any(
                np.all(np.isclose(a, matrix, rtol=0.0, atol=1e-12), axis=(-2, -1))
            )
        )

    def stacks(self, kind: str = "eigh") -> list[int]:
        """How many matrices each ``kind`` call took, in call order."""
        return [
            int(np.prod(a.shape[:-2], dtype=int)) for name, a in self.calls if name == kind
        ]


@pytest.fixture
def eigensolves(monkeypatch) -> EigensolveLog:
    """Record every numpy eigensolve made for the rest of the test."""
    log = EigensolveLog()
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def recorded(a, *args, _real=real, _name=name, **kwargs):
            log.calls.append((_name, np.array(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return log


@pytest.fixture
def solver_calls(monkeypatch) -> Counter:
    """Count ``numpy.linalg.solve`` calls (one per Newton step of the SDP
    core), keyed ``"solve"``, for the rest of the test; ``clear()`` it
    before the call to measure."""
    counts: Counter = Counter()
    real = np.linalg.solve

    def counted(*args, **kwargs):
        counts["solve"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return counts
