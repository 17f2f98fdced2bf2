"""NumPy implementation of the batch distance kernel.

Import-time fallback when the compiled extension is unavailable. Must stay
bit-identical to both the compiled kernel and the scalar reference in
``distance.record_distance``: every cell accumulates attribute by attribute in
index order from a ``+0.0`` start, and Minkowski powers go through libm pow
(np.power is allowed to differ in the last ulp on SIMD builds, so it cannot be
used here).

Each call allocates the result and one scratch buffer of the same shape. Per
attribute, ``out=`` ufuncs write the column difference into the scratch buffer
and add it into the result; training columns are read from a contiguous
transposed copy of ``train``.
"""

import math

import numpy as np

BACKEND = "python"

_libm_pow = np.frompyfunc(math.pow, 2, 1)


def pairwise(queries, train, codes, p):
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
        if p != 1.0:
            _libm_pow(buf, p, out=buf, casting="unsafe")
        np.add(out, buf, out=out)
    if p != 1.0:
        _libm_pow(out, 1.0 / p, out=out, casting="unsafe")
    return out
