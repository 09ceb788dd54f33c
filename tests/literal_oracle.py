"""Entry-by-entry matrix literal parser: the test oracle for
``hpd_core.matrix_from_literal``.

The package reads a literal array-at-a-time: C-level type passes and one
``np.array(..., float64)`` conversion.  The parser here walks the rows and
entries in Python and builds each entry with ``complex(re, im)``, so it
shares none of that code.  Its arrays must match the package's bit for
bit, signs of zeros included, and its errors message for message.
"""

import numpy as np

from tfp.errors import DimensionMismatch

# The exact types of a number in a matrix literal.
_REAL = (int, float)


def matrix_from_literal(obj, name="matrix"):
    """The complex matrix of a literal, or the ``DimensionMismatch``
    naming its first bad row or entry."""
    if not isinstance(obj, list) or not obj or not all(isinstance(row, list) for row in obj):
        raise DimensionMismatch(f"{name} must be a non-empty list of rows")
    n_cols = len(obj[0])
    values = []
    for i, row in enumerate(obj):
        if len(row) != n_cols:
            raise DimensionMismatch(f"{name} row {i} has length {len(row)}, expected {n_cols}")
        for j, entry in enumerate(row):
            re, im = entry if isinstance(entry, list) and len(entry) == 2 else (entry, 0.0)
            if type(re) not in _REAL or type(im) not in _REAL:
                raise DimensionMismatch(
                    f"{name} entry [{i}][{j}] must be a number or an [re, im] pair, got {entry!r}"
                )
            try:
                values.append(complex(re, im))
            except OverflowError:
                raise DimensionMismatch(f"{name} entry [{i}][{j}] is an integer beyond the float range") from None
    return np.array(values, dtype=np.complex128).reshape(len(obj), n_cols)
