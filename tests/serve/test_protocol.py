"""Wire-format tests: framing, canonical encoding, error shapes."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
)


def test_encode_is_one_canonical_line():
    line = encode_message({"b": 1, "a": {"z": 2, "y": 3}})
    assert line.endswith(b"\n")
    assert line.count(b"\n") == 1
    assert line == b'{"a":{"y":3,"z":2},"b":1}\n'


def test_encode_rejects_nan():
    with pytest.raises(ValueError):
        encode_message({"x": float("nan")})


def test_round_trip():
    message = {"op": "submit", "kind": "nap", "params": {"duration": 0.5}}
    assert decode_message(encode_message(message)) == message


def test_decode_rejects_bad_json():
    with pytest.raises(ProtocolError, match="invalid JSON"):
        decode_message(b"{nope\n")


def test_decode_rejects_non_object():
    with pytest.raises(ProtocolError, match="JSON object"):
        decode_message(b"[1, 2]\n")


def test_decode_rejects_oversized_line():
    huge = json.dumps({"x": "a" * (MAX_LINE_BYTES + 1)}).encode()
    with pytest.raises(ProtocolError, match="exceeds"):
        decode_message(huge)


#: Lines a client can send that ``encode_message`` could not send back.
MALFORMED = {
    "nan": b'{"op":"health","seq":NaN}\n',
    "infinity": b'{"op":"health","seq":Infinity}',
    "minus_infinity": b'{"op":"health","seq":-Infinity}',
    "overflowing_float": b'{"op":"submit","params":{"rate":1e999}}',
    "overflowing_digits": b'{"x":' + b"9" * 400 + b'.5}',
    "non_utf8": b'{"op":"health","x":"\xff"}',
    "utf8_surrogate": b'{"x":"\xed\xa0\x80"}',
    "deep_nesting": b"[" * 5000,
    "deep_objects": b'{"x":' * 5000,
    "long_integer": b'{"seq":' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("line", MALFORMED.values(), ids=MALFORMED.keys())
def test_decode_rejects_what_encode_cannot_send(line):
    with pytest.raises(ProtocolError):
        decode_message(line)


def test_decode_keeps_finite_extremes():
    message = decode_message(b'{"big":1.5e308,"tiny":5e-324,"n":-0.0}')
    assert message == {"big": 1.5e308, "tiny": 5e-324, "n": -0.0}
    assert decode_message(encode_message(message)) == message


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda value: b'{"x":' + value + b"}",
        st.binary(max_size=32)
        | st.sampled_from([b"NaN", b"Infinity", b"-Infinity", b"1e400"]),
    ),
))
def test_decode_returns_an_encodable_dict_or_raises_protocol_error(line):
    try:
        message = decode_message(line)
    except ProtocolError:
        return
    assert isinstance(message, dict)
    assert decode_message(encode_message(message)) == message


def test_response_helpers():
    assert ok_response(job="j")["ok"] is True
    error = error_response("overloaded", "queue full", queued=5)
    assert error == {
        "ok": False,
        "error": "overloaded",
        "detail": "queue full",
        "queued": 5,
    }
