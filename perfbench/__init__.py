"""The repository benchmark: the paper's codec workload and two wire workloads.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``perfbench/README.md`` documents every metric.
"""
