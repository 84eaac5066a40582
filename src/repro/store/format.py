"""The on-disk container for demonstration stores.

One store is one file::

    ┌──────────┬───────────┬───────────────┬───────────┬──────────────────┬───────┐
    │ magic 8B │ u32 mlen  │ manifest JSON │ u32 plen  │ payload (zlib)   │ crc32 │
    └──────────┴───────────┴───────────────┴───────────┴──────────────────┴───────┘

The manifest is small uncompressed JSON so :func:`read_manifest` can
answer "is this store fresh?" by reading a few hundred bytes; the
payload (demonstration records) is zlib-compressed JSON guarded by a
trailing CRC-32.  Readers map the file into memory (:mod:`mmap`) so a
store shared by many workers occupies one page-cache copy.

All integers are big-endian.  :exc:`CorruptStoreError` covers truncated
files, bad magic, and checksum mismatches; :exc:`StoreVersionError`
covers containers written by a future format revision.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from pathlib import Path

#: First 8 bytes of every store file.
MAGIC = b"PRPLDEM\x01"

#: Container layout revision (bump on any byte-layout change).  v2
#: containers from earlier builds may carry an embedding-index
#: ``retrieval`` payload section and manifest block; this build ignores
#: both.  The byte layout of v1 and v2 is the same.
FORMAT_VERSION = 2

#: Every format version this build can read.  Writers always emit
#: :data:`FORMAT_VERSION`; v1 and v2 containers load alike.
SUPPORTED_FORMAT_VERSIONS = (1, 2)

_U32 = struct.Struct(">I")


class StoreError(Exception):
    """Base class for every demonstration-store failure."""


class CorruptStoreError(StoreError):
    """The file is not a store, is truncated, or fails its checksum."""


class StoreVersionError(StoreError):
    """The store was written by an incompatible format or schema version."""


class StaleStoreError(StoreError):
    """The store does not match the live pool and rebuilds are forbidden."""


def write_store(path, manifest: dict, payload: dict) -> int:
    """Serialize ``manifest`` + ``payload`` to ``path``; return byte size.

    The write goes through a same-directory temporary file followed by
    :func:`os.replace`, so readers never observe a half-written store.
    """
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    payload_bytes = zlib.compress(
        json.dumps(payload, sort_keys=True).encode("utf-8"), level=6
    )
    blob = b"".join([
        MAGIC,
        _U32.pack(len(manifest_bytes)),
        manifest_bytes,
        _U32.pack(len(payload_bytes)),
        payload_bytes,
        _U32.pack(zlib.crc32(payload_bytes) & 0xFFFFFFFF),
    ])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)
    return len(blob)


def _slice(view, start: int, length: int, what: str) -> bytes:
    if start + length > len(view):
        raise CorruptStoreError(
            f"truncated store: {what} needs {length} bytes at offset {start}, "
            f"file has {len(view)}"
        )
    return bytes(view[start:start + length])


def _parse_header(view) -> tuple:
    """Return ``(manifest, payload_offset, payload_length)`` from a buffer."""
    if _slice(view, 0, len(MAGIC), "magic") != MAGIC:
        raise CorruptStoreError("bad magic: not a demonstration store")
    offset = len(MAGIC)
    (mlen,) = _U32.unpack(_slice(view, offset, 4, "manifest length"))
    offset += 4
    try:
        manifest = json.loads(_slice(view, offset, mlen, "manifest"))
    except json.JSONDecodeError as exc:
        raise CorruptStoreError(f"manifest is not valid JSON: {exc}") from exc
    offset += mlen
    (plen,) = _U32.unpack(_slice(view, offset, 4, "payload length"))
    offset += 4
    if manifest.get("format_version") not in SUPPORTED_FORMAT_VERSIONS:
        raise StoreVersionError(
            f"store format_version {manifest.get('format_version')!r}; "
            f"this build reads versions {SUPPORTED_FORMAT_VERSIONS}"
        )
    return manifest, offset, plen


def read_manifest(path) -> dict:
    """Read only the manifest — the cheap freshness/identity probe."""
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + 4)
        if len(head) < len(MAGIC) + 4:
            raise CorruptStoreError("truncated store: header incomplete")
        if head[:len(MAGIC)] != MAGIC:
            raise CorruptStoreError("bad magic: not a demonstration store")
        (mlen,) = _U32.unpack(head[len(MAGIC):])
        manifest_bytes = fh.read(mlen)
    if len(manifest_bytes) < mlen:
        raise CorruptStoreError("truncated store: manifest incomplete")
    try:
        manifest = json.loads(manifest_bytes)
    except json.JSONDecodeError as exc:
        raise CorruptStoreError(f"manifest is not valid JSON: {exc}") from exc
    if manifest.get("format_version") not in SUPPORTED_FORMAT_VERSIONS:
        raise StoreVersionError(
            f"store format_version {manifest.get('format_version')!r}; "
            f"this build reads versions {SUPPORTED_FORMAT_VERSIONS}"
        )
    return manifest


def read_store(path) -> tuple:
    """Read ``(manifest, payload)`` from ``path`` via a read-only mmap."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == 0:
            raise CorruptStoreError("empty store file")
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
            manifest, offset, plen = _parse_header(view)
            compressed = _slice(view, offset, plen, "payload")
            (crc,) = _U32.unpack(
                _slice(view, offset + plen, 4, "payload checksum")
            )
    if zlib.crc32(compressed) & 0xFFFFFFFF != crc:
        raise CorruptStoreError("payload checksum mismatch")
    try:
        payload = json.loads(zlib.decompress(compressed))
    except (zlib.error, json.JSONDecodeError) as exc:
        raise CorruptStoreError(f"payload does not decode: {exc}") from exc
    return manifest, payload
