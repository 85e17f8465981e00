"""Repeatable end-to-end and per-layer benchmark for posit training and serving.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics, ``perfbench/predictions.json`` which layer metric
should move which end-to-end metric on which workload.
"""
