"""The repository benchmark: continuous-verification workloads, end-to-end
metrics and a traced per-layer breakdown (run ``python3 perfbench/run.py``).
"""
