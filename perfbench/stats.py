"""Small statistics used by every workload: the tail rule, medians and the
operation outcome tally behind ``error_rate``."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

#: A tail percentile is only reported with at least this many samples
#: strictly beyond it.
TAIL_BEYOND = 10

#: Percentiles a tail is reported at.
LADDER = (50.0, 90.0, 99.0, 99.9)


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples
    (rounded first, so ``99.9 / 100 * 10000`` is exactly 9990)."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def beyond(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q``-th percentile of ``n``."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> float:
    """The highest percentile of :data:`LADDER` with at least
    :data:`TAIL_BEYOND` of ``n`` samples beyond it (the median if none)."""
    fits = [q for q in LADDER if beyond(n, q) >= TAIL_BEYOND]
    return fits[-1] if fits else LADDER[0]


def tail(samples, q: float) -> tuple[float, int]:
    """``(value, beyond)``: the nearest-rank ``q``-th percentile of
    ``samples`` and how many samples lie beyond it."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("tail of an empty sample")
    rank = _rank(len(xs), q)
    return float(xs[rank - 1]), len(xs) - rank


def median(samples) -> float:
    return float(statistics.median(samples))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` in ``[0, 100]`` (0.0 for no samples)."""
    return tail(samples, q)[0] if len(samples) else 0.0


@dataclass
class Outcomes:
    """Per-operation outcome tally.

    Every operation the workload attempts lands in exactly one bucket.
    ``error_rate`` counts failed, refused (``AdmissionError``) and
    wrong-answer operations against all attempted, writes included.
    """

    ok: int = 0
    failed: int = 0
    refused: int = 0
    wrong: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, status: str, detail: str = "") -> None:
        if status not in ("ok", "failed", "refused", "wrong"):
            raise ValueError(f"unknown outcome {status!r}")
        setattr(self, status, getattr(self, status) + 1)
        if status != "ok" and len(self.errors) < 20:
            self.errors.append(f"{status}: {detail}")

    def mark_wrong(self, detail: str) -> None:
        """Move one operation already recorded ``ok`` to ``wrong`` (answers
        are checked after the operation completed)."""
        if self.ok < 1:
            raise ValueError("no ok operation to mark wrong")
        self.ok -= 1
        self.record("wrong", detail)

    def merge(self, other: "Outcomes") -> None:
        """Fold another tally (e.g. the settle phase's) into this one."""
        for status in ("ok", "failed", "refused", "wrong"):
            setattr(self, status, getattr(self, status) + getattr(other, status))
        self.errors.extend(other.errors[: max(0, 20 - len(self.errors))])

    @property
    def attempted(self) -> int:
        return self.ok + self.failed + self.refused + self.wrong

    @property
    def bad(self) -> int:
        return self.failed + self.refused + self.wrong

    @property
    def error_rate(self) -> float:
        return self.bad / self.attempted if self.attempted else 0.0
