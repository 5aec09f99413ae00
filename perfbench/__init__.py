"""Repository benchmark: three serving workloads with a traced per-layer split.

Run ``python3 perfbench/run.py --workload {sparse,saturated,frames}
--seed N --seconds S --trace {0,1}`` from the repository root; see
``perfbench/README.md`` for the workloads and metric definitions.
"""
