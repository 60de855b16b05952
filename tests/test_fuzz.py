"""Fuzzed bytes through the two binary readers.

``parse_pcap`` and ``read_portable`` may only fail with the documented
error types: a ``CsiBioError`` subclass, ``ValueError`` or ``OSError``
(the CLI maps each to exit code 1 and one JSON line). The inputs mix
raw bytes with well-formed containers whose fields, lengths and
payloads are drawn at random, so most examples reach the frame and
payload decoders rather than stopping at the magic check.
"""

import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from csibio.errors import CsiBioError
from csibio.ingest import PORTABLE_MAGIC, PcapSource, parse_pcap, read_portable, write_portable
from csibio.model import CsiMatrix, SubjectLabel, validate_matrix
from oracles import parse_pcap_per_frame
from pcap_util import csi_payload, udp_packet

DOCUMENTED = (CsiBioError, ValueError, OSError)
FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _read_or_documented_error(read, *args):
    try:
        return read(*args)
    except DOCUMENTED:
        return None


def _rarely(draw) -> bool:
    return draw(st.booleans()) and draw(st.booleans())


@st.composite
def _frame(draw, subcarriers):
    if draw(st.booleans()):  # a CSI payload, mostly of the expected width
        k = draw(st.sampled_from([0, 1, 63, 65, 128])) if _rarely(draw) else subcarriers
        base = draw(st.integers(0, 0xFFFF))  # samples differ by frame, subcarrier and part
        pairs = [((base + i) % 0x10000 - 0x8000, (base - 3 * i) % 0x10000 - 0x8000)
                 for i in range(k)]
        payload = csi_payload(pairs, chanspec=draw(st.integers(0, 0xFFFF)))
        if _rarely(draw):
            payload = payload[: draw(st.integers(0, len(payload)))] + draw(st.binary(max_size=6))
    elif draw(st.booleans()):
        payload = draw(st.binary(max_size=60))
    else:
        return draw(st.binary(max_size=80))
    frame = udp_packet(payload, dst_port=5501 if _rarely(draw) else 5500)
    if _rarely(draw):  # corrupt a byte of the Ethernet/IP/UDP headers
        at = draw(st.integers(0, 41))
        frame = frame[:at] + bytes([draw(st.integers(0, 255))]) + frame[at + 1:]
    return frame


@st.composite
def _pcap_bytes(draw, subcarriers):
    if _rarely(draw):
        return draw(st.binary(max_size=120))
    endian = draw(st.sampled_from("<>"))
    linktype = draw(st.sampled_from([0, 105])) if _rarely(draw) else 1
    out = struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, linktype)
    for frame in draw(st.lists(_frame(subcarriers), min_size=1, max_size=6)):
        incl = len(frame)
        if _rarely(draw):
            incl = draw(st.integers(0, 2**32 - 1))
        out += struct.pack(endian + "IIII", 0, 0, incl, len(frame)) + frame
    if _rarely(draw):
        out = out[: draw(st.integers(0, len(out)))]
    return out


@given(data=st.data(), subcarriers=st.sampled_from([64, 128]))
@FUZZ
def test_parse_pcap_raises_only_documented_errors(tmp_path, data, subcarriers):
    path = tmp_path / "fuzz.pcap"
    path.write_bytes(data.draw(_pcap_bytes(subcarriers)))
    src = PcapSource(str(path), 5500, subcarriers)
    m = _read_or_documented_error(parse_pcap, src)
    if m is not None:
        assert m.values.shape[0] == subcarriers and m.n_samples >= 1
        values, skipped = parse_pcap_per_frame(src)
        assert m.values.tobytes() == values.tobytes()
        assert {key: m.meta[key] for key in skipped} == skipped


def _valid_portable(tmp_path) -> bytes:
    path = tmp_path / "valid.csi"
    values = np.arange(12.0).reshape(3, 4) + 1j
    write_portable(CsiMatrix(values, 5.0e9 + 312_500.0 * np.arange(3)), SubjectLabel("p1", 2), path)
    return path.read_bytes()


@st.composite
def _portable_bytes(draw, valid: bytes):
    kind = draw(st.sampled_from(["raw", "mutated", "header"]))
    if kind == "raw":
        return draw(st.sampled_from([b"", PORTABLE_MAGIC])) + draw(st.binary(max_size=120))
    if kind == "mutated":
        data = bytearray(valid)
        for at, value in draw(st.lists(st.tuples(st.integers(0, len(data) - 1),
                                                 st.integers(0, 255)), max_size=4)):
            data[at] = value
        if draw(st.booleans()):
            data = data[: draw(st.integers(0, len(data)))] + draw(st.binary(max_size=20))
        return bytes(data)
    k, t = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    header = struct.pack(
        "<HBBIIIddH", draw(st.sampled_from([1, 1, 1, 0, 2])), draw(st.integers(0, 255)), 0,
        draw(st.integers(0, 2**32 - 1)), k, t, draw(st.floats()), draw(st.floats()),
        draw(st.integers(0, 8)))
    subject = draw(st.binary(max_size=8))
    payload = draw(st.sampled_from([b"\x00" * (16 * k * t), b"\x7f\xf8" * (8 * k * t)]))
    if draw(st.booleans()):
        payload = payload[: draw(st.integers(0, len(payload)))]
    return PORTABLE_MAGIC + header + subject + payload


@given(data=st.data())
@FUZZ
def test_read_portable_raises_only_documented_errors(tmp_path, data):
    path = tmp_path / "fuzz.csi"
    path.write_bytes(data.draw(_portable_bytes(_valid_portable(tmp_path))))
    read = _read_or_documented_error(read_portable, path)
    if read is not None:
        assert validate_matrix(read[0]) == []
