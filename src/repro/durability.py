"""Crash-safe file primitives shared by the persistence layers.

Every durable artifact the provider writes -- ciphertext-store snapshots
(:meth:`repro.protocol.store.CiphertextStore.save`), session snapshots
(:meth:`repro.service.service.AlertService.snapshot`) and the write-ahead
request journal -- goes through the two primitives here:

* :func:`atomic_write_bytes` / :func:`atomic_write_text` publish a file with
  the classic tmp-file + ``fsync`` + :func:`os.replace` dance, so a reader
  (or a process restarted after a crash) only ever observes either the
  previous complete file or the new complete file, never a torn prefix;
* :func:`checksum_bytes` / :func:`verify_checksum` give every payload a CRC32
  so a file corrupted *after* a successful write (bit rot, a buggy tool, an
  injected fault) is detected at load time instead of being silently parsed
  into wrong state.

CRC32 is an integrity check against accidents, not an authenticity check
against adversaries -- the threat model here is crashes and corruption.
"""

from __future__ import annotations

import os
import pathlib
import zlib
from typing import Union

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "checksum_bytes",
    "checksum_text",
    "verify_checksum",
]

PathLike = Union[str, pathlib.Path]


def checksum_bytes(payload: bytes) -> int:
    """CRC32 of a byte payload (unsigned, stable across platforms)."""
    return zlib.crc32(payload) & 0xFFFFFFFF


def checksum_text(text: str) -> int:
    """CRC32 of a text payload (UTF-8 encoded)."""
    return checksum_bytes(text.encode("utf-8"))


def verify_checksum(payload: bytes, expected: int) -> bool:
    """True when ``payload`` hashes to ``expected`` (see :func:`checksum_bytes`)."""
    return checksum_bytes(payload) == (expected & 0xFFFFFFFF)


def atomic_write_bytes(path: PathLike, payload: bytes, fsync: bool = True) -> None:
    """Write ``payload`` to ``path`` so a crash never leaves a torn file.

    The payload lands in a same-directory temp file first (``os.replace`` is
    only atomic within one filesystem), is flushed and optionally fsynced,
    and is then renamed over the target.  A crash before the rename leaves
    the previous file untouched; a crash after it leaves the new complete
    file.  The temp file is removed on any failure, so interrupted writes do
    not litter the directory.
    """
    target = pathlib.Path(path)
    tmp_path = target.with_name(target.name + ".tmp")
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(payload)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_text(path: PathLike, text: str, fsync: bool = True) -> None:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)
