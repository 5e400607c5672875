"""Steady closed-loop serving benchmark for the NACU serving stack.

``python3 servebench/run.py --workload <name> --seed <n>`` drives the
unmodified ``repro.serve`` stack with one pinned client thread, checks
every response bit for bit against the serial ``BatchEngine`` and prints
the end-to-end metrics; ``--trace 1`` wraps each layer's public
functions from this package and prints the per-layer ledger instead.
``NOTES.md`` records why each workload exists and which layer metric
should move which end-to-end metric.
"""
