"""Repository benchmark: batch, stream and fleet capture→verdict workloads.

Run ``python3 perfbench/run.py --workload batch --seed 1 --seconds 15
--trace 0`` from the repository root; see ``perfbench/NOTES.md``.
"""
