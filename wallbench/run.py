"""Wall-clock benchmark of the CARP reproduction.

Run from the repository root; it imports ``repro`` from ``src/`` of the
same checkout::

    python3 wallbench/run.py --workload range-query --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` runs a fixed amount of work twice, untraced and then
traced, and reports the per-layer ledger plus the tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Workloads, sizes,
options and layers live in ``design.json``; README.md explains them.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Spans files of traced runs and the per-run work areas live here.
OUT = ROOT / ".wallbench"
#: A run that exceeds this is stopped with a traceback (nonzero exit).
WATCHDOG_S = 170


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest-vpic", "range-query", "serve-under-ingest"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_design() -> dict[str, Any]:
    """design.json, cross-checked against BENCHMARK.json when present."""
    design: dict[str, Any] = json.loads((HERE / "design.json").read_text())
    manifest = ROOT / "BENCHMARK.json"
    if manifest.is_file():
        bench = json.loads(manifest.read_text())
        want = {
            "end_to_end": {n: m["unit"] for n, m in gated(design).items()},
            "per_layer": {n: m["unit"] for n, m in per_layer_specs(design).items()},
        }
        for key, units in want.items():
            listed = {m["name"]: m["unit"] for m in bench[key]}
            if listed != units:
                raise SystemExit(
                    f"wallbench: BENCHMARK.json {key} does not match design.json"
                )
    return design


def gated(design: dict[str, Any]) -> dict[str, Any]:
    return {n: m for n, m in design["end_to_end"].items() if m.get("gated", True)}


def per_layer_specs(design: dict[str, Any]) -> dict[str, dict[str, str]]:
    """Every per-layer metric: two per layer, then the extra ones."""
    specs: dict[str, dict[str, str]] = {}
    for layer in design["layers"]:
        specs[f"{layer}.self_s"] = {"unit": "s", "better": "lower"}
        specs[f"{layer}.calls"] = {"unit": "count", "better": "lower"}
    for name, spec in design["per_layer_extra"].items():
        specs[name] = {"unit": spec["unit"], "better": spec["better"]}
    return specs


def run_untraced(workload: Any) -> dict[str, float]:
    from layertrace import NullTracer

    for _ in range(workload.design["setup_reps"]):
        workload.run_setup()
    workload.prepare()
    measures = workload.timed(workload.budget(), NullTracer())
    workload.finish(measures)
    raw, metrics = workload.end_to_end(measures)
    samples = len(measures.latencies_s)
    print(f"{'metric':<24}{'value':>14}{'raw':>14}  unit")
    for name, value in metrics.items():
        unit = workload.design["end_to_end"][name]["unit"]
        note = f"  ({samples} samples)" if name.startswith("read_p") else ""
        print(f"{name:<24}{value:>14.6g}{raw[name]:>14.6g}  {unit}{note}")
    factors = ", ".join(
        f"{phase} {workload.host.factor(phase):.4f}"
        for phase in sorted(workload.host.samples)
    )
    print(f"host factors (probe time / reference): {factors}")
    rate = workload.failed / max(workload.attempted, 1)
    print(f"{'error_rate':<24}{rate:>16.6g}  ratio"
          f"  ({workload.failed} of {workload.attempted} operations)")
    return metrics


def run_traced(workload: Any) -> tuple[dict[str, float], list[str]]:
    from layertrace import LayerTracer, NullTracer, coverage_problems

    design = workload.design
    workload.run_setup()
    workload.prepare()
    untraced = workload.timed(workload.trace_budget(), NullTracer())
    if workload.rerun_needs_setup():
        workload.run_setup()
    tracer = LayerTracer(design["layers"])
    costs: list[Any] = []
    tracer.observers["query.engine.query"] = lambda result: costs.append(result.cost)
    tracer.install()
    try:
        traced = workload.timed(workload.trace_budget(), tracer)
    finally:
        tracer.uninstall()
    workload.finish(traced)
    ledger = tracer.ledger()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload.name}.tsv.gz")

    metrics: dict[str, float] = {}
    for layer in design["layers"]:
        metrics[f"{layer}.self_s"] = ledger.self_s[layer]
        metrics[f"{layer}.calls"] = ledger.calls[layer]
    queries = max(len(costs), 1)
    for field in ("ssts_considered", "ssts_read", "bytes_read",
                  "records_scanned", "records_matched"):
        metrics[f"query.engine.{field}"] = sum(getattr(c, field) for c in costs) / queries
    scanned = sum(c.records_scanned for c in costs)
    metrics["query.engine.scan_efficiency"] = (
        sum(c.records_matched for c in costs) / scanned if scanned else 0.0
    )
    served = traced.cache_hits + traced.cache_misses
    serving = served > 0
    metrics["query.service.engine_busy_s"] = ledger.root_engine_s
    metrics["query.service.wait_s"] = (
        sum(traced.latencies_s) - ledger.root_engine_s if serving else 0.0
    )
    metrics["query.service.cache_hit_ratio"] = (
        traced.cache_hits / served if serving else 0.0
    )
    metrics["query.service.rejected"] = traced.rejected
    for role in ("ingest", "query"):
        metrics[f"{role}.traced_s"] = ledger.traced_s[role]
        metrics[f"{role}.unattributed_s"] = ledger.unattributed_s[role]
    metrics["trace_overhead_ratio"] = traced.wall_s / untraced.wall_s

    problems = coverage_problems(design, workload.name, ledger.calls)
    for role in ("ingest", "query"):
        if ledger.unattributed_s[role] < -1e-6:
            problems.append(f"{role}: layer self times exceed traced time")
    print_ledger(metrics, ledger, problems)
    return metrics, problems


def print_ledger(metrics: dict[str, float], ledger: Any, problems: list[str]) -> None:
    traced = sum(ledger.traced_s.values())
    print(f"{'layer':<26}{'self_s':>10}{'share':>8}{'calls':>10}")
    rows = sorted(ledger.self_s.items(), key=lambda kv: -kv[1])
    for layer, own in rows:
        share = own / traced if traced else 0.0
        print(f"{layer:<26}{own:>10.4f}{share:>8.1%}{ledger.calls[layer]:>10}")
    for role in ("ingest", "query"):
        if ledger.traced_s[role]:
            print(f"{role + ' unattributed':<26}{ledger.unattributed_s[role]:>10.4f}"
                  f"{ledger.unattributed_s[role] / traced:>8.1%}")
    print(f"{'traced thread time':<26}{traced:>10.4f}")
    print(f"trace_overhead_ratio {metrics['trace_overhead_ratio']:.4f}")
    for problem in problems:
        print(f"COVERAGE: {problem}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"wallbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"wallbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    # imported only now: the workloads import repro from SRC
    from workloads import WORKLOADS

    design = load_design()
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](design, args.seed, args.seconds, workdir)
    problems: list[str] = []
    try:
        if args.trace:
            metrics, problems = run_traced(workload)
        else:
            metrics = run_untraced(workload)
    finally:
        workload.close_session()
        shutil.rmtree(workdir, ignore_errors=True)
        faulthandler.cancel_dump_traceback_later()
    for problem in workload.problems:
        print(f"FAILED: {problem}")
    wanted = per_layer_specs(design) if args.trace else gated(design)
    result = {
        "correct": workload.failed == 0 and not problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": spec["unit"]}
            for name, spec in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
