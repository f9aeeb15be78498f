"""Atomic text-file writes: a reader sees the old file or the new one, never half."""

import os
from contextlib import contextmanager


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
