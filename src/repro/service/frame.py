"""The binary frame as the service's wire format.

The codec itself lives in :mod:`repro.batch.frame`, where the sweep
cache's disk tier also uses it; this module adds the media type the
client and server label frames with and keeps the codec's names importable
from the service package.
"""

from __future__ import annotations

from repro.batch.frame import FrameError, decode_frame, encode_frame, frame_bytes, frame_length

__all__ = [
    "FRAME_CONTENT_TYPE",
    "FrameError",
    "encode_frame",
    "frame_bytes",
    "frame_length",
    "decode_frame",
]

#: The frame's media type: the ``Content-Type`` of every array-bearing
#: response.
FRAME_CONTENT_TYPE = "application/x-repro-frame"
