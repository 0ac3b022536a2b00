"""The ISRec benchmark: one command, two workloads, end-to-end and per-layer metrics.

Run ``python3 isrec_bench/run.py --help`` from the repository root; see
``isrec_bench/NOTES.md`` for the metric map and the first baseline.
"""
