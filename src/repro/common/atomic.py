"""Atomic replacement of JSON documents the program rewrites.

Clients poll ``cluster.json``, benchmark mergers read the ``BENCH_*``
file they are about to extend, and the explorer's ``.schedule`` files
are replayed by other processes.  Truncating such a file and writing
it again opens a window in which a reader sees an empty or half-written
document.  :func:`atomic_write_json` closes it: the bytes go to a
temporary file in the same directory, which then replaces the target
with :func:`os.replace` — a reader sees the old document or the new
one, never anything in between.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Callable, Optional


def atomic_write_json(
    path: str,
    doc: Any,
    *,
    sort_keys: bool = True,
    default: Optional[Callable[[Any], Any]] = None,
) -> None:
    """Write ``doc`` to ``path`` as 2-space-indented JSON plus a newline."""
    path = os.fspath(path)
    # Unique per writer thread, and in the target's directory so the
    # rename never crosses a filesystem.
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=sort_keys, default=default)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
