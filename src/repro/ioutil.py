"""Durable file writing: atomic replace for whole-file artifacts.

Append-only streams (the campaign result store and its sidecars) get
their durability from append+flush plus torn-tail-tolerant loading
(:mod:`repro.campaign.store`).  Whole-file artifacts — campaign spec
JSON, exported trace documents, report text — have no such recovery
story: an interrupt mid-``write()`` leaves a half-written file that the
next consumer (a spec loader, a trace viewer) chokes on.  The helper
closes that hole: the content lands in a temporary file in the *same
directory* (``os.replace`` is only atomic within one filesystem), is
flushed and fsynced, and then atomically renamed over the destination —
so any reader ever sees either the old complete file or the new
complete file, never a torn one.
"""

from __future__ import annotations

import contextlib
import os
import tempfile


def atomic_write_text(path, text: str, *, encoding: str = "utf-8") -> None:
    """Write *text* to *path* atomically (temp file + ``os.replace``).

    An interrupt at any point leaves either the previous file content or
    the new one — never a partial write.  The temporary file is cleaned
    up on failure.
    """
    target = os.fspath(path)
    parent = os.path.dirname(target)
    if parent:
        os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=parent or ".", prefix=f".{os.path.basename(target)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
