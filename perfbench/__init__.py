"""Benchmark of the quasishadow CLI: seeded workloads, output checks, traced layers.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``--workload all`` runs every
workload in turn.  ``python3 perfbench/identity.py`` checks the shipped
configs against recorded digests.  ``python3 -m pytest
perfbench/selftest.py`` runs the benchmark's own tests.
"""

DEFAULT_SEED = 0
WORKLOADS = ("stability_grid", "stability_skew", "orbits")
