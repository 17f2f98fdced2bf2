"""The batch distance kernel (NumPy).

Must stay bit-identical to the scalar reference in
``distance.record_distance``: every cell accumulates attribute by attribute in
index order from a ``+0.0`` start.

Each call allocates the result and one scratch buffer of the same shape. Per
attribute, ``out=`` ufuncs write the column difference into the scratch buffer
and add it into the result; training columns are read from a contiguous
transposed copy of ``train``.

The loop runs with NumPy's ufunc buffer set to 512 elements. At the default
8,192, a broadcast ufunc whose rows are shorter than the buffer copies its
operands through it. On NumPy 2.4.6 (2-vCPU Xeon), the column subtract of a
65 x 1000 block, the block shape of a 1,000-row training set, took 71-95 us
at the default and 16-27 us at 512; blocks whose rows hold 5,000 or more
elements were within noise either way. Only elementwise ufuncs may run under
the setting: a float reduction's summation order could depend on it.
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
    # Saved and restored by hand, as NumPy 1.x has no context manager for it;
    # on NumPy 2 the size is a context variable, so other threads keep theirs.
    old = np.setbufsize(512)
    try:
        for j in range(m):
            np.subtract(queries[:, j, None], columns[j], out=buf)
            c = codes[j]
            if c == 0:
                np.abs(buf, out=buf)
            elif c == 1:
                np.maximum(buf, 0.0, out=buf)
            np.add(out, buf, out=out)
    finally:
        np.setbufsize(old)
    return out
