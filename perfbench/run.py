#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload train --seed 1 --seconds 40 --trace 0

Runs one workload (``train``, ``serve-open``, ``http-single``,
``http-bulk``), checks the program's outputs, prints the environment,
per-phase accounting and every metric with its unit, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer ones, measured from spans recorded around
calls into each layer and exported as a Chrome trace under ``.perfbench/``.
A per-layer metric of a layer the workload does not exercise reads 0.
``BENCHMARK.json`` lists ``train`` and ``http-single``; ``serve-open`` and
``http-bulk`` run the same way but their figures swing too far between runs
on a shared 2-core host to hold a regression bound.

Exits 1 when a correctness check fails and 2 when the program's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "serve-open", "http-single", "http-bulk")


def _declared(trace: bool) -> dict:
    """Metric name -> unit from ``BENCHMARK.json`` for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    # A terminated run still stops the servers it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from perfbench import common, serve, train

    trace = bool(args.trace)
    declared = _declared(trace)
    env = common.environment()
    common.log("env " + json.dumps(env, sort_keys=True))
    runner = {"train": train.run, "serve-open": serve.run_open,
              "http-single": serve.run_http_single,
              "http-bulk": serve.run_http_bulk}[args.workload]
    correct, problem = True, None
    try:
        result = runner(args.seed, args.seconds, trace)
    except common.CheckFailed as exc:
        correct, problem = False, str(exc)
        result = {"metrics": {}, "phases": []}
    except Exception:  # noqa: BLE001 - report the failure, exit non-zero
        correct, problem = False, traceback.format_exc()
        result = {"metrics": {}, "phases": []}

    metrics = dict(result["metrics"])
    if correct:
        unknown = sorted(set(metrics) - set(declared))
        missing = sorted(set(declared) - set(metrics))
        if unknown or (missing and not trace):
            correct = False
            problem = f"metrics differ from BENCHMARK.json: unknown {unknown}, missing {missing}"
        for name in missing:
            # A layer this workload never calls spent no time in it.
            metrics[name] = (0, declared[name])
    for phase in result["phases"]:
        common.log("phase " + json.dumps(phase))
    for name in sorted(metrics):
        value, unit = metrics[name]
        common.log(f"metric {name:34s} {value:>16.6f} {unit}")
    if problem:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    recorder = result.get("recorder")
    spans = (recorder.to_obs_spans() if recorder is not None else []) + list(
        result.get("spans", []))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace and spans and correct:
        try:
            events = common.export_chrome(spans, common.OUT_DIR / f"{tag}.trace.json")
            common.log(f"chrome trace: {events} events")
        except common.CheckFailed as exc:
            correct, problem = False, str(exc)
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = sum(phase["attempted"] for phase in result["phases"])
    failed = sum(phase["failed"] for phase in result["phases"])
    common.write_result(tag, {"env": env, "phases": result["phases"],
                              "checks": result.get("checks", {}),
                              "problem": problem,
                              "metrics": {k: {"value": v, "unit": u}
                                          for k, (v, u) in metrics.items()}})
    print(json.dumps({
        "correct": correct,
        "attempted": max(int(attempted), 1),
        "failed": int(failed) if correct else max(int(failed), 1),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
