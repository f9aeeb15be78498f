"""The only writer of data files: one number format, and atomic replacement.

A reader sees the old file or the new one, never half.
"""

import json
import os
from contextlib import contextmanager

import numpy as np

_INTEGERS = (int, np.integer, np.bool_)


@contextmanager
def atomic_write(path, newline=None):
    """Open ``path`` for writing text through a temporary file beside it.

    The temporary file is moved over ``path`` with ``os.replace`` once the
    block completes.  If the block raises, the temporary file is removed and
    any previous file at ``path`` is left as it was.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _cell(v) -> str:
    """``None`` is an empty cell, a bool or an integer (numpy's included) is the
    integer, and anything else is ``repr(float(v))``, the shortest decimal that
    reads back to the same double."""
    if v is None:
        return ""
    if isinstance(v, _INTEGERS):
        return str(int(v))
    return repr(float(v))


def write_csv(path, header, rows) -> None:
    """Write a header line of column names, then one line per row, consumed lazily.

    An ndarray row is read through ``tolist``; a Python float skips ``_cell``'s dispatch.
    """
    with atomic_write(path, newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if isinstance(row, np.ndarray):
                row = row.tolist()
            fh.write(",".join([repr(v) if type(v) is float else _cell(v) for v in row]) + "\n")


def write_json(path, doc, indent=None) -> None:
    """Write ``doc`` as one JSON document and a final newline."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")
