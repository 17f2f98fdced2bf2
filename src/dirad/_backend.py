"""The kernel implementation's name, for benchmark environment stamps.

The kernel itself is ``distance.distance_matrix``. This module stays only
because the benchmark harness imports ``backend_name`` from here.
"""


def backend_name() -> str:
    """Name of the kernel implementation, as recorded in benchmark stamps."""
    return "python"
