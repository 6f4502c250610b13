"""PerfTrack's benchmark: load, open and pr-filter metrics with per-layer attribution.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
