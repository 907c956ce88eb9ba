"""What every workload returns, and small helpers they share."""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.tracing import Tracer

clock = time.perf_counter
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout: spans, results, WAL directories.
OUT_DIR = ROOT / ".perfbench_out"


@dataclass
class Outcome:
    """One workload run: end-to-end values, op counts, collected layer
    values, the human-readable lines printed before the result, and
    spans recorded by other processes (the ``live`` server)."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    collected: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)


def span(tracer: Tracer | None, name: str):
    """A benchmark-level span when tracing, else nothing."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class GateFailed(RuntimeError):
    """The workload's graph is degenerate at this seed; nothing is timed."""
