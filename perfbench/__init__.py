"""The repository benchmark: seeded workloads timed end to end and by layer.

Run it from the repository root::

    python3 perfbench/run.py --workload paper-d1-disk --seed 1 --seconds 10 --trace 0

``README.md`` in this directory explains the workloads and the metrics.
"""
