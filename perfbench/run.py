"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch --seed 7 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
program's public calls in spans and reports the per-layer ledger
instead.  Human-readable detail goes first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Spans and results are kept under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("batch", "live", "failover")


def _bootstrap() -> None:
    """Make ``perfbench`` and the program under ``src/`` importable."""
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit("perfbench: the program (src/repro) is not in this checkout")


def _overhead_lines(out_dir: Path, workload: str, seed: int, traced: dict) -> list[str]:
    """Traced minus untraced value of each end-to-end metric, when an
    untraced run of the same workload and seed left its result here."""
    path = out_dir / f"last-{workload}-{seed}.json"
    if not path.is_file():
        return [f"tracing overhead: no untraced {workload} run at seed {seed} to compare"]
    untraced = json.loads(path.read_text())
    return [
        f"tracing overhead {name}: {traced[name] - untraced[name]:+.4f} "
        f"({(traced[name] / untraced[name] - 1) * 100:+.1f}%)"
        for name in traced
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()

    import importlib

    from perfbench import ledger, tracing
    from perfbench.common import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    module = importlib.import_module(f"perfbench.{args.workload}")
    try:
        outcome = module.run(args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    for line in outcome.lines:
        print(f"[{args.workload}] {line}")

    if tracer is None:
        metrics = outcome.metrics
        (OUT_DIR / f"last-{args.workload}-{args.seed}.json").write_text(
            json.dumps(metrics)
        )
    else:
        spans = tracer.closed_spans() + outcome.spans
        tracer.spans = spans
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        collected = dict(outcome.collected)
        collected.update(
            {f"traced.{name}": value for name, value in outcome.metrics.items()}
        )
        metrics, notes = ledger.per_layer(spans, collected)
        for line in notes + _overhead_lines(OUT_DIR, args.workload, args.seed, outcome.metrics):
            print(f"[{args.workload}] {line}")
    units = {**{name: unit for name, (unit, _) in ledger.END_TO_END.items()}, **ledger.PER_LAYER}
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
