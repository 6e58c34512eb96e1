"""The repository benchmark: end-to-end and per-layer metrics.

Run one workload with::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run.  See
``perfbench/README.md`` for the workloads and what each metric measures.
"""
