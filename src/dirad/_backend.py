"""The batch distance kernel (NumPy).

Must stay bit-identical to the scalar reference in
``distance.record_distance``: every cell accumulates attribute by attribute in
index order from a ``+0.0`` start.

Each call allocates the result and one scratch buffer of the same shape. Per
attribute, ``out=`` ufuncs write the column difference into the scratch buffer
and add it into the result; training columns are read from a contiguous
transposed copy of ``train``.
"""

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, as recorded in benchmark stamps."""
    return "python"


def pairwise(queries, train, codes):
    """Distance matrix between query rows and training rows.

    codes[j] selects the per-attribute variant: 0 absolute, 1 ramp, 2 signed.
    """
    nq, m = queries.shape
    columns = np.ascontiguousarray(train.T)
    out = np.zeros((nq, columns.shape[1]), dtype=np.float64)
    buf = np.empty_like(out)
    for j in range(m):
        np.subtract(queries[:, j, None], columns[j], out=buf)
        c = codes[j]
        if c == 0:
            np.abs(buf, out=buf)
        elif c == 1:
            np.maximum(buf, 0.0, out=buf)
        np.add(out, buf, out=out)
    return out
