"""Crash-safe file writes shared by checkpoints and bench exports.

The one primitive everything here builds on is *atomic replace*: write the
full payload to a temporary file in the target's directory, flush and fsync
it, then ``os.replace`` it over the destination.  A reader (or a resumed
run) therefore only ever observes either the previous complete file or the
new complete file — never a torn half-write, no matter where the writer was
killed.  The temporary lives in the same directory so the rename can never
cross filesystems.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Atomically replace ``path``'s contents with ``data``.

    Creates parent directories as needed.  On any failure the temporary
    file is removed and the destination is left exactly as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        # ra: RA004 -- this IS the atomic-write primitive: the plain write
        # targets a private temp file, fsynced then os.replace()d into place.
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically replace ``path``'s contents with ``text``, UTF-8 encoded."""
    return atomic_write_bytes(path, text.encode())


def atomic_write_json(path: str | Path, document: Any, *, indent: int | None = None) -> Path:
    """Atomically replace ``path`` with ``document`` serialised as JSON."""
    return atomic_write_text(
        path, json.dumps(document, indent=indent, sort_keys=True) + "\n"
    )
