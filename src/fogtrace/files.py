"""The one way fogtrace writes a file that it, or a later run, reads back."""

from __future__ import annotations

from pathlib import Path


def write_atomic(path: Path, data: bytes, tmp: Path) -> None:
    """Write ``data`` to ``tmp``, then rename it over ``path``; nothing is fsynced.

    ``tmp`` must be on ``path``'s file system. It is deleted only if a step raises.
    """
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
