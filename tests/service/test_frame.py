"""The binary array frame: round trips, the service's use of it, rejection.

The frame is the service's only array encoding, so every array the
service can serve must cross it bit for bit.  Property tests drive the
codec over the dtype zoo (including layouts the cache never produces —
Fortran order, big-endian, strided views); the payload test pins the
frame's bytes to the arrays' raw bytes; the malformed-input tests pin
clean :class:`FrameError` rejections, never a mis-sliced array.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import AsyncSweepServer, ServiceClient
from repro.service.frame import (
    FRAME_CONTENT_TYPE,
    FrameError,
    decode_frame,
    encode_frame,
    frame_bytes,
)
from repro.service.schema import allocation_payload

#: Every dtype the service actually serves (floats, counts, regime and
#: stencil-name strings, flags) plus spares in both widths.
SERVED_DTYPES = ["<f8", "<f4", "<i8", "<i4", "<u2", "|b1", "<c16", "<U8", "|S6"]


def roundtrip(arrays):
    decoded, meta = decode_frame(frame_bytes(arrays))
    assert list(decoded) == list(arrays)
    return decoded, meta


@st.composite
def served_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(SERVED_DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=0, max_size=3)))
    count = int(np.prod(shape)) if shape else 1
    if dtype.kind == "f":
        elems = st.floats(allow_nan=False, width=32 if dtype.itemsize == 4 else 64)
    elif dtype.kind == "c":
        elems = st.complex_numbers(allow_nan=False)
    elif dtype.kind in "iu":
        info = np.iinfo(dtype)
        elems = st.integers(info.min, info.max)
    elif dtype.kind == "b":
        elems = st.booleans()
    elif dtype.kind == "U":
        elems = st.text(max_size=8)
    else:
        elems = st.binary(max_size=6)
    values = draw(st.lists(elems, min_size=count, max_size=count))
    return np.array(values, dtype=dtype).reshape(shape)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(array=served_arrays())
    def test_property_all_served_dtypes_round_trip(self, array):
        decoded, _ = roundtrip({"x": array})
        assert decoded["x"].dtype == array.dtype
        assert decoded["x"].shape == array.shape
        np.testing.assert_array_equal(decoded["x"], array)
        # Bit-for-bit, not just value-equal.
        assert decoded["x"].tobytes() == array.tobytes()

    def test_multiple_arrays_keep_order_and_bits(self):
        arrays = {
            "speedup": np.array([1.0, -0.0, 1e-300, np.pi]),
            "processors": np.arange(7, dtype=np.int64),
            "regime": np.asarray(["one", "interior", "all"]),
            "surface": np.arange(6.0).reshape(2, 3),
            "empty": np.zeros((0, 4)),
        }
        decoded, _ = roundtrip(arrays)
        for name in arrays:
            assert decoded[name].dtype == arrays[name].dtype
            np.testing.assert_array_equal(decoded[name], arrays[name])
        assert np.signbit(decoded["speedup"][1])  # -0.0 keeps its sign bit

    def test_every_served_kind_keeps_every_bit(self):
        # Floats keep the sign of zero and subnormals, ints and strings
        # keep their dtypes, matrices keep their shape.
        arrays = {
            "floats": np.array([1.0, -0.0, 1e-300, 5e-324, np.pi]),
            "ints": np.arange(7, dtype=np.int64),
            "strings": np.asarray(["one", "interior", "all"]),
            "matrix": np.arange(6.0).reshape(2, 3),
        }
        back, _ = roundtrip(arrays)
        for name, value in arrays.items():
            assert back[name].dtype == value.dtype
            assert back[name].shape == value.shape
            assert back[name].tobytes() == value.tobytes()
        assert np.signbit(back["floats"][1])

    def test_meta_rides_the_header(self):
        decoded, meta = decode_frame(
            frame_bytes({"x": np.arange(3.0)}, {"status": "ok", "served": "memory"})
        )
        assert meta == {"status": "ok", "served": "memory"}
        np.testing.assert_array_equal(decoded["x"], np.arange(3.0))

    def test_fortran_order_input(self):
        array = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        decoded, _ = roundtrip({"x": array})
        np.testing.assert_array_equal(decoded["x"], array)
        assert decoded["x"].flags["C_CONTIGUOUS"]

    def test_non_contiguous_input(self):
        base = np.arange(40.0)
        array = base[::4]
        decoded, _ = roundtrip({"x": array})
        np.testing.assert_array_equal(decoded["x"], array)

    def test_big_endian_input_values_preserved(self):
        array = np.array([1.5, -2.25, 3e10], dtype=">f8")
        decoded, _ = roundtrip({"x": array})
        # Layout is normalized to little-endian; values are exact.
        assert decoded["x"].dtype == np.dtype("<f8")
        np.testing.assert_array_equal(decoded["x"], array.astype("<f8"))

    def test_zero_length_array(self):
        decoded, _ = roundtrip({"x": np.zeros(0, dtype=np.float64)})
        assert decoded["x"].shape == (0,)

    def test_scalar_zero_dim_array(self):
        decoded, _ = roundtrip({"x": np.float64(3.5)[...]})
        assert decoded["x"].shape == ()
        assert decoded["x"].item() == 3.5

    def test_decoded_arrays_are_zero_copy_views(self):
        body = frame_bytes({"x": np.arange(5.0)})
        decoded, _ = decode_frame(body)
        assert not decoded["x"].flags.writeable  # views over the body


class TestHeaderMemo:
    """Headers are memoized on both sides; the memo must be invisible."""

    def test_repeat_encode_and_decode_hit_the_memo(self):
        from repro.batch import frame

        arrays = {"x": np.arange(7.0), "regime": np.asarray(["one", "all"])}
        first = frame_bytes(arrays, {"status": "ok", "served": "memory"})
        encoded = frame._head_chunk.cache_info().hits
        decoded = frame._read_header.cache_info().hits
        again = {"x": np.arange(7.0) + 1, "regime": np.asarray(["all", "one"])}
        second = frame_bytes(again, {"status": "ok", "served": "memory"})
        assert frame._head_chunk.cache_info().hits == encoded + 1
        payload = 7 * 8 + 2 * 3 * 4  # x, then two <U3 strings
        assert first[:-payload] == second[:-payload]  # the same header
        for body, source in ((first, arrays), (second, again)):
            out, meta = decode_frame(body)
            assert meta == {"status": "ok", "served": "memory"}
            for name, value in source.items():
                np.testing.assert_array_equal(out[name], value)
        assert frame._read_header.cache_info().hits == decoded + 1

    def test_same_layout_with_other_meta_or_dtype_is_a_new_header(self):
        x = np.arange(3.0)
        _, meta = decode_frame(frame_bytes({"x": x}, {"served": "disk"}))
        assert meta == {"served": "disk"}
        out, _ = decode_frame(frame_bytes({"x": x.astype("<f4")}, {"served": "disk"}))
        assert out["x"].dtype == np.dtype("<f4")

    def test_equal_but_differently_typed_meta_is_not_conflated(self):
        x = {"x": np.zeros(1)}
        for value in (True, 1, 1.0, "1"):
            _, meta = decode_frame(frame_bytes(x, {"v": value}))
            assert type(meta["v"]) is type(value) and meta["v"] == value

    def test_nested_meta_is_not_shared_between_decodes(self):
        body = frame_bytes({"x": np.zeros(2)}, {"tags": ["a", "b"], "n": {"k": 1}})
        _, meta = decode_frame(body)
        meta["tags"].append("mutated")
        meta["n"]["k"] = 2
        _, again = decode_frame(body)
        assert again == {"tags": ["a", "b"], "n": {"k": 1}}


class TestPayload:
    def test_payload_bytes_are_exactly_the_array_bytes(self):
        array = np.linspace(-1, 1, 257)
        chunks = encode_frame({"x": array})
        assert b"".join(bytes(c) for c in chunks[1:]) == array.tobytes()


class TestMalformed:
    def test_object_dtype_is_rejected_on_encode(self):
        with pytest.raises(FrameError, match="object"):
            frame_bytes({"x": np.array([object()])})

    def test_bad_magic(self):
        with pytest.raises(FrameError, match="magic"):
            decode_frame(b"NOTFRAME" + b"\x00" * 16)

    def test_truncated_body(self):
        body = frame_bytes({"x": np.arange(9.0)})
        with pytest.raises(FrameError):
            decode_frame(body[: len(body) - 5])

    def test_header_length_beyond_body(self):
        import struct

        with pytest.raises(FrameError, match="header length"):
            decode_frame(b"REPROFR1" + struct.pack("<I", 10_000) + b"{}")

    def test_header_not_json(self):
        import struct

        with pytest.raises(FrameError, match="not JSON"):
            decode_frame(b"REPROFR1" + struct.pack("<I", 4) + b"@@@@")

    def test_header_missing_arrays_list(self):
        import struct

        header = b'{"status":"ok"}'
        with pytest.raises(FrameError, match="'arrays' list"):
            decode_frame(b"REPROFR1" + struct.pack("<I", len(header)) + header)

    def _tampered(self, mutate):
        import json as jsonlib
        import struct

        body = bytes(frame_bytes({"x": np.arange(4.0)}))
        (hlen,) = struct.unpack_from("<I", body, 8)
        header = jsonlib.loads(body[12 : 12 + hlen])
        mutate(header["arrays"][0])
        new_header = jsonlib.dumps(header, separators=(",", ":")).encode()
        return b"REPROFR1" + struct.pack("<I", len(new_header)) + new_header + body[12 + hlen :]

    def test_nbytes_disagrees_with_shape(self):
        with pytest.raises(FrameError, match="declares"):
            decode_frame(self._tampered(lambda e: e.update(nbytes=16)))

    def test_negative_shape_rejected(self):
        with pytest.raises(FrameError, match="shape"):
            decode_frame(self._tampered(lambda e: e.update(shape=[-4])))

    def test_garbage_dtype_rejected(self):
        with pytest.raises(FrameError, match="dtype"):
            decode_frame(self._tampered(lambda e: e.update(dtype=[">weird"])))

    def test_object_dtype_header_rejected_on_decode(self):
        with pytest.raises(FrameError, match="object"):
            decode_frame(self._tampered(lambda e: e.update(dtype="O", nbytes=32)))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FrameError, match="trailing"):
            decode_frame(bytes(frame_bytes({"x": np.arange(4.0)})) + b"xx")

    @pytest.mark.parametrize(
        "body",
        [
            b'{"x": [0.0, 1.0, 2.0]}',
            b"",
            b"REPROFR1garbage",
            bytes(frame_bytes({"x": np.arange(8.0)}))[:-5],
            bytes(frame_bytes({"x": np.arange(8.0)})) + b"xx",
        ],
        ids=["json", "empty", "garbage-after-magic", "truncated-frame", "trailing-bytes"],
    )
    def test_non_frame_bodies_are_malformed_frames(self, body):
        with pytest.raises(FrameError, match="malformed frame"):
            decode_frame(body)

    def test_npz_body_is_a_malformed_frame(self):
        import io

        buffer = io.BytesIO()
        np.savez(buffer, x=np.arange(3.0))
        with pytest.raises(FrameError, match="malformed frame"):
            decode_frame(buffer.getvalue())

class TestEndToEnd:
    @pytest.fixture()
    def server(self):
        with AsyncSweepServer(port=0) as srv:
            yield srv

    @pytest.mark.parametrize(
        "accept", [None, "application/json", "*/*", FRAME_CONTENT_TYPE]
    )
    def test_compute_answers_a_frame_whatever_the_accept(self, server, accept):
        import json

        payload = allocation_payload("paper-bus", "5-point", "square", [64, 128, 256])
        client = ServiceClient(server.url)
        expected = client.compute(payload)
        status, ctype, body = client._request(
            "/v1/compute",
            json.dumps(payload).encode(),
            method="POST",
            content_type="application/json",
            accept=accept,
        )
        assert (status, ctype) == (200, FRAME_CONTENT_TYPE)
        arrays, meta = decode_frame(body)
        assert meta == {"status": "ok", "served": "memory"}
        for name, value in expected.items():
            assert arrays[name].tobytes() == value.tobytes()

    def test_compute_answers_in_frames_without_negotiation(self, server):
        # Frames are the only array encoding, so /healthz names none.
        client = ServiceClient(server.url)
        assert "protocols" not in client.health()
        status, ctype, _body = client._request(
            "/v1/compute",
            json.dumps(allocation_payload("paper-bus", "5-point", "square", [64])).encode(),
            method="POST",
        )
        assert (status, ctype) == (200, FRAME_CONTENT_TYPE)
