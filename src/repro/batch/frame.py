"""The binary array frame: raw ``ndarray`` bytes behind a compact header.

One codec serves two tiers.  The sweep service carries every array on
the wire as a frame (:mod:`repro.service.frame` names the media type):
raw bytes, with no text encoding of the numbers and no size blowup.
The sweep cache's disk tier stores each entry as one frame file, so a
disk hit is one ``read()`` and a header parse rather than a zip archive
walk.  The frame is one small JSON header describing the arrays, then
their raw little-endian C-order bytes, concatenated.

Layout::

    magic    8 bytes   b"REPROFR1"
    hdr_len  4 bytes   u32 little-endian, length of the header JSON
    header   hdr_len   UTF-8 JSON: {"arrays": [{"name", "dtype",
                       "shape", "nbytes"}, ...], ...metadata}
    payload  *         each array's bytes, in header order

Both directions avoid re-encoding the numbers entirely:
:func:`encode_frame` yields ``memoryview`` chunks over the arrays'
existing buffers (the server writes them straight to the socket, the
cache straight to its file), and :func:`decode_frame` returns read-only
views into the received body via ``np.frombuffer`` — zero copies on
either side for contiguous little-endian arrays, which is everything
the sweep cache stores.

Every value crosses bit for bit: the payload is the arrays' own bytes,
so a fetched curve is identical down to the sign of ``-0.0``.
Big-endian or non-contiguous *inputs* are normalized (to little-endian,
C-order) before encoding; values are preserved exactly, only the
in-memory layout changes.
"""

from __future__ import annotations

import copy
import functools
import json
import struct
from typing import Any, Mapping

import numpy as np

from repro.errors import ReproError

__all__ = [
    "FrameError",
    "encode_frame",
    "frame_bytes",
    "frame_length",
    "decode_frame",
]

_MAGIC = b"REPROFR1"
_LEN = struct.Struct("<I")

#: A header longer than this is not a header — it is garbage or an
#: attack; real headers are a few hundred bytes.
_MAX_HEADER_BYTES = 16 * 2**20

#: Distinct headers remembered by the encode and decode memos.
_HEADER_MEMO = 256


class FrameError(ReproError, ValueError):
    """A binary frame could not be encoded or decoded."""


def _wire_array(array: np.ndarray) -> np.ndarray:
    """``array`` as the frame stores it: C-contiguous, little-endian.

    Values are untouched; only layout is normalized, so the frame's
    bytes for a native array are exactly ``array.tobytes()``.
    """
    if array.dtype.hasobject:
        raise FrameError(
            f"cannot frame dtype {array.dtype}: object arrays have no "
            "defined wire bytes (and would require pickling)"
        )
    if array.dtype.byteorder == ">":
        array = array.astype(array.dtype.newbyteorder("<"))
    if not array.flags.c_contiguous:
        # ascontiguousarray would also promote 0-d arrays to 1-d, so
        # only invoke it when the layout actually needs fixing.
        array = np.ascontiguousarray(array)
    return array


def encode_frame(
    arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any] | None = None
) -> list[bytes | memoryview]:
    """Frame chunks: ``[magic + length + header, array bytes, ...]``.

    Returned as a chunk list rather than one ``bytes`` so a writer can
    hand each array's existing buffer to the socket without
    concatenating — the memoryview chunks alias the (normalized) arrays.
    ``meta`` keys ride in the header next to ``"arrays"`` (the server
    puts ``status``/``served`` there).
    """
    layout: list[tuple[str, str, tuple[int, ...], int]] = []
    chunks: list[bytes | memoryview] = [b""]
    for name, array in arrays.items():
        wire = _wire_array(np.asarray(array))
        layout.append((str(name), wire.dtype.str, wire.shape, int(wire.nbytes)))
        if wire.ndim == 0 or wire.nbytes == 0:
            # memoryview.cast cannot flatten 0-d or zero-size views;
            # both are at most one element, so the copy is free.
            chunks.append(wire.tobytes())
        else:
            chunks.append(memoryview(wire).cast("B"))
    meta_items = tuple((meta or {}).items())
    if all(type(k) is str and type(v) is str for k, v in meta_items):
        chunks[0] = _head_chunk(meta_items, tuple(layout))
    else:  # the memo keys on equality, which would conflate 1, 1.0 and True
        chunks[0] = _head_chunk.__wrapped__(meta_items, tuple(layout))
    return chunks


@functools.lru_cache(maxsize=_HEADER_MEMO)
def _head_chunk(
    meta_items: tuple[tuple[str, Any], ...],
    layout: tuple[tuple[str, str, tuple[int, ...], int], ...],
) -> bytes:
    """Magic, length and header JSON for one array layout.

    Memoized: a server answering the same entry, or a cache writing
    entries of one shape, encodes the same header again and again.
    """
    header: dict[str, Any] = dict(meta_items)
    header["arrays"] = [
        {"name": name, "dtype": dtype, "shape": list(shape), "nbytes": nbytes}
        for name, dtype, shape, nbytes in layout
    ]
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _MAGIC + _LEN.pack(len(header_bytes)) + header_bytes


def frame_bytes(
    arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any] | None = None
) -> bytes:
    """The whole frame as one ``bytes`` (tests, single-buffer writers)."""
    return b"".join(bytes(c) for c in encode_frame(arrays, meta))


def frame_length(chunks: list[bytes | memoryview]) -> int:
    """Total byte length of a chunk list — the response Content-Length.

    Computed without touching the chunk contents, so a server can write
    the header before concatenating (or instead of concatenating)
    anything.
    """
    return sum(len(chunk) for chunk in chunks)


def _entry_field(entry: Any, field: str, index: int) -> Any:
    if not isinstance(entry, dict) or field not in entry:
        raise FrameError(f"malformed frame: array entry {index} lacks {field!r}")
    return entry[field]


@functools.lru_cache(maxsize=_HEADER_MEMO)
def _read_header(
    header_bytes: bytes,
) -> tuple[
    tuple[tuple[str, Any], ...], tuple[tuple[str, np.dtype, tuple[int, ...], int], ...]
]:
    """Parse and validate one header: ``(meta items, array layout)``.

    Memoized like :func:`_head_chunk`: a client fetching the same entry,
    or a cache reading entries of one shape, sees the same header bytes
    again and again.  A malformed header raises and is not cached.
    """
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed frame: header is not JSON ({exc})") from None
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise FrameError("malformed frame: header lacks an 'arrays' list")
    layout: list[tuple[str, np.dtype, tuple[int, ...], int]] = []
    for index, entry in enumerate(header["arrays"]):
        name = _entry_field(entry, "name", index)
        if not isinstance(name, str):
            raise FrameError(f"malformed frame: array entry {index} name is not a string")
        try:
            dtype = np.dtype(_entry_field(entry, "dtype", index))
        except TypeError as exc:
            raise FrameError(f"malformed frame: bad dtype for {name!r}: {exc}") from None
        if dtype.hasobject:
            raise FrameError(f"malformed frame: object dtype for {name!r} is not allowed")
        shape = _entry_field(entry, "shape", index)
        nbytes = _entry_field(entry, "nbytes", index)
        if (
            not isinstance(shape, list)
            or not all(isinstance(s, int) and s >= 0 for s in shape)
            or not isinstance(nbytes, int)
            or nbytes < 0
        ):
            raise FrameError(f"malformed frame: bad shape/nbytes for {name!r}")
        count = 1
        for side in shape:
            count *= side
        if count * dtype.itemsize != nbytes:
            raise FrameError(
                f"malformed frame: {name!r} declares {nbytes} bytes but "
                f"shape {tuple(shape)} x {dtype} needs {count * dtype.itemsize}"
            )
        layout.append((name, dtype, tuple(shape), nbytes))
    meta = tuple((key, value) for key, value in header.items() if key != "arrays")
    return meta, tuple(layout)


def decode_frame(body: bytes | memoryview) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """``(arrays, meta)`` from one frame; rejects malformed input cleanly.

    The returned arrays are read-only views over ``body`` (zero-copy);
    callers that need to mutate must copy.  ``meta`` is the header
    minus its ``"arrays"`` key.  Anything structurally wrong — bad
    magic, truncated header, a byte count that disagrees with
    dtype × shape, trailing garbage — raises :class:`FrameError` naming
    the problem; nothing is ever silently mis-sliced.
    """
    view = memoryview(body).cast("B")
    if len(view) < len(_MAGIC) + _LEN.size or bytes(view[: len(_MAGIC)]) != _MAGIC:
        raise FrameError("malformed frame: missing REPROFR1 magic")
    offset = len(_MAGIC)
    (header_len,) = _LEN.unpack_from(view, offset)
    offset += _LEN.size
    if header_len > _MAX_HEADER_BYTES or offset + header_len > len(view):
        raise FrameError("malformed frame: header length exceeds the body")
    meta, layout = _read_header(bytes(view[offset : offset + header_len]))
    offset += header_len

    arrays: dict[str, np.ndarray] = {}
    for name, dtype, shape, nbytes in layout:
        if offset + nbytes > len(view):
            raise FrameError(f"malformed frame: payload truncated at {name!r}")
        arrays[name] = np.frombuffer(
            view[offset : offset + nbytes], dtype=dtype
        ).reshape(shape)
        offset += nbytes
    if offset != len(view):
        raise FrameError(
            f"malformed frame: {len(view) - offset} trailing bytes after the last array"
        )
    # The memo shares parsed values between calls; copy nested ones.
    return arrays, {
        key: copy.deepcopy(value) if isinstance(value, (dict, list)) else value
        for key, value in meta
    }
