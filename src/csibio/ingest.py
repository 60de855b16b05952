"""Capture ingestion: classic-libpcap CSI captures and a portable CSI format.

The pcap path walks Ethernet/IPv4/UDP frames, filters on destination
port, and decodes CSI payloads with this frame layout (the de-facto
community layout for bcm43455c0 extractors):

    2B magic 0x1111 | 1B RSSI | 1B frame ctl | 6B source MAC |
    2B sequence | 2B core/spatial | 2B chanspec | 2B chip version |
    K x (int16 real, int16 imag), all little-endian

The portable format is this package's own interchange file: an 8-byte
magic ``CSIPORT1``, a fixed little-endian header (version, hand,
sample index, K, T, uniform frequency grid, subject id), then K*T
interleaved float64 (real, imag) pairs, row-major by subcarrier.
Writing is deterministic and reading reproduces values bit-exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (BadMagic, CorruptHeader, LengthMismatch, ManifestMismatch, NoCsiFrames,
                     UnsupportedVersion)
from .model import CsiMatrix, Dataset, Hand, SubjectLabel, validate_matrix

DEFAULT_CENTER_HZ = 5.18e9
DEFAULT_BANDWIDTH_HZ = 40e6

CSI_MAGIC = b"\x11\x11"  # the fields of one CSI payload read by parse_pcap
CSI_CHANSPEC_OFFSET = 14
CSI_HEADER_LEN = 18


@dataclass(frozen=True)
class PcapSource:
    path: str
    udp_port: int = 5500
    expected_subcarriers: int = 128

    def __post_init__(self):
        if not 1 <= self.udp_port <= 65535:
            raise ValueError(f"udp_port must be in [1, 65535], got {self.udp_port}")
        if self.expected_subcarriers not in (64, 128, 256, 512):
            raise ValueError(
                f"expected_subcarriers must be one of 64/128/256/512, "
                f"got {self.expected_subcarriers}"
            )


def decode_chanspec(chanspec: int) -> tuple[float, float] | None:
    """Best-effort (center Hz, bandwidth Hz) from a D11-style chanspec."""
    channel = chanspec & 0x00FF
    band = chanspec & 0xC000
    bw_bits = chanspec & 0x3800
    bw = {0x1000: 20e6, 0x1800: 40e6, 0x2000: 80e6, 0x2800: 160e6}.get(bw_bits)
    if bw is None or channel == 0:
        return None
    if band == 0xC000:
        center = (5000 + 5 * channel) * 1e6
    elif band == 0x0000 and channel <= 13:
        center = (2407 + 5 * channel) * 1e6
    else:
        return None
    return center, bw


def subcarrier_freqs(n_subcarriers: int, center_hz: float, bandwidth_hz: float) -> np.ndarray:
    """FFT-style uniform grid: bin k sits at center + (k - K/2) * bw/K."""
    spacing = bandwidth_hz / n_subcarriers
    k = np.arange(n_subcarriers, dtype=np.float64)
    return center_hz + (k - n_subcarriers / 2) * spacing


def _iter_udp_payloads(data: bytes, port: int):
    """Yield UDP payloads addressed to ``port`` from a classic pcap buffer."""
    if len(data) < 24:
        raise BadMagic("file too short for a pcap global header")
    magic = data[:4]
    if magic in (b"\xd4\xc3\xb2\xa1", b"\x4d\x3c\xb2\xa1"):
        endian = "<"
    elif magic in (b"\xa1\xb2\xc3\xd4", b"\xa1\xb2\x3c\x4d"):
        endian = ">"
    else:
        raise BadMagic(f"not a classic pcap file (magic {magic.hex()})")
    (linktype,) = struct.unpack(endian + "I", data[20:24])
    if linktype != 1:  # Ethernet
        raise BadMagic(f"unsupported linktype {linktype}, only Ethernet captures")

    offset = 24
    while offset + 16 <= len(data):
        _, _, incl_len, _ = struct.unpack(endian + "IIII", data[offset : offset + 16])
        offset += 16
        frame = data[offset : offset + incl_len]
        offset += incl_len
        if len(frame) < 14 + 20 + 8:
            continue
        if frame[12:14] != b"\x08\x00":  # IPv4 only
            continue
        ihl = (frame[14] & 0x0F) * 4
        if frame[14 + 9] != 17:  # UDP
            continue
        udp = frame[14 + ihl :]
        if len(udp) < 8:
            continue
        dst_port = struct.unpack(">H", udp[2:4])[0]
        if dst_port != port:
            continue
        udp_len = struct.unpack(">H", udp[4:6])[0]
        yield udp[8 : max(8, udp_len)]


def parse_pcap(src: PcapSource) -> CsiMatrix:
    """Decode every accepted CSI frame of a capture into a K x T matrix.

    Frames are accepted in capture order. Payloads with a wrong magic,
    a different subcarrier count, or truncated sample data are skipped
    and counted in the matrix metadata. Raises NoCsiFrames when nothing
    survives.
    """
    path = Path(src.path)
    data = path.read_bytes()

    columns: list[np.ndarray] = []
    chanspec: int | None = None
    truncated = 0
    wrong_k = 0
    non_csi = 0
    expected_bytes = 4 * src.expected_subcarriers

    try:
        payloads = list(_iter_udp_payloads(data, src.udp_port))
    except BadMagic as exc:
        raise BadMagic(f"{path}: {exc}") from exc

    for payload in payloads:
        if not payload.startswith(CSI_MAGIC):
            non_csi += 1
            continue
        if len(payload) < CSI_HEADER_LEN:
            truncated += 1
            continue
        data_len = len(payload) - CSI_HEADER_LEN
        if data_len == expected_bytes:
            raw = np.frombuffer(payload, dtype="<i2", offset=CSI_HEADER_LEN)
            pairs = raw.astype(np.float64).reshape(-1, 2)
            columns.append(pairs[:, 0] + 1j * pairs[:, 1])
            if chanspec is None:
                chanspec = struct.unpack_from("<H", payload, CSI_CHANSPEC_OFFSET)[0]
        elif data_len % 4 == 0 and data_len > 0:
            wrong_k += 1
        else:
            truncated += 1

    if not columns:
        raise NoCsiFrames(
            f"{path}: no accepted CSI frames "
            f"(truncated={truncated}, wrong_subcarriers={wrong_k}, non_csi={non_csi})"
        )

    decoded = decode_chanspec(chanspec) if chanspec is not None else None
    center, bw = decoded if decoded else (DEFAULT_CENTER_HZ, DEFAULT_BANDWIDTH_HZ)
    freqs = subcarrier_freqs(src.expected_subcarriers, center, bw)
    return CsiMatrix(
        values=np.column_stack(columns),
        freqs=freqs,
        meta={
            "source": str(path),
            "chanspec": chanspec,
            "skipped_truncated": truncated,
            "skipped_wrong_subcarriers": wrong_k,
            "skipped_non_csi": non_csi,
        },
    )


# --- portable CSI format -----------------------------------------------------

PORTABLE_MAGIC = b"CSIPORT1"
PORTABLE_VERSION = 1
_HAND_CODES = {Hand.UNSPECIFIED: 0, Hand.LEFT: 1, Hand.RIGHT: 2}
_HAND_FROM_CODE = {v: k for k, v in _HAND_CODES.items()}
_HEADER_STRUCT = struct.Struct("<HBBIIIddH")  # version, hand, pad, sample, K, T, f0, df, id len


def write_portable(m: CsiMatrix, label: SubjectLabel, path) -> None:
    """Serialize one labeled acquisition; bytes are deterministic."""
    problems = validate_matrix(m)
    if problems:
        raise ValueError(f"refusing to write invalid matrix: {problems}")
    k = m.n_subcarriers
    step = (m.freqs[-1] - m.freqs[0]) / (k - 1)
    grid = m.freqs[0] + step * np.arange(k)
    if np.max(np.abs(grid - m.freqs)) > 1e-6 * step:
        raise ValueError("portable format requires a uniform frequency grid")
    subject = label.subject_id.encode()
    header = _HEADER_STRUCT.pack(
        PORTABLE_VERSION,
        _HAND_CODES[label.hand],
        0,
        label.sample_index,
        k,
        m.n_samples,
        float(m.freqs[0]),
        float(step),
        len(subject),
    )
    payload = np.ascontiguousarray(m.values, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(PORTABLE_MAGIC)
        fh.write(header)
        fh.write(subject)
        fh.write(payload)


def read_portable(path) -> tuple[CsiMatrix, SubjectLabel]:
    """Exact inverse of write_portable."""
    data = Path(path).read_bytes()
    if data[: len(PORTABLE_MAGIC)] != PORTABLE_MAGIC:
        raise BadMagic(f"{path}: magic {data[:8]!r} is not {PORTABLE_MAGIC!r}")
    offset = len(PORTABLE_MAGIC)
    try:
        version, hand_code, _, sample_index, k, t, f0, df, id_len = _HEADER_STRUCT.unpack_from(
            data, offset
        )
    except struct.error as exc:
        raise LengthMismatch(f"{path}: header truncated") from exc
    if version != PORTABLE_VERSION:
        raise UnsupportedVersion(f"{path}: version {version} > {PORTABLE_VERSION}")
    offset += _HEADER_STRUCT.size
    subject = data[offset : offset + id_len]
    offset += id_len
    expected = k * t * 16
    if len(data) - offset != expected:
        raise LengthMismatch(
            f"{path}: payload is {len(data) - offset} bytes, header promises {expected}"
        )
    try:
        subject = subject.decode()
    except UnicodeDecodeError as exc:
        raise CorruptHeader(f"{path}: subject id is not UTF-8") from exc
    if not subject:
        raise CorruptHeader(f"{path}: subject id is empty")
    values = np.frombuffer(data, dtype="<c16", offset=offset).reshape(k, t)
    matrix = CsiMatrix(values=values, freqs=f0 + df * np.arange(k), meta={"source": str(path)})
    problems = validate_matrix(matrix, allow_nan=True)  # the shape and grid write_portable checks
    if problems:
        raise CorruptHeader(f"{path}: {'; '.join(problems)}")
    label = SubjectLabel(subject, sample_index, _HAND_FROM_CODE.get(hand_code, Hand.UNSPECIFIED))
    return matrix, label


# --- dataset directories -------------------------------------------------------

def _record_filename(label: SubjectLabel, ordinal: int) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in label.subject_id)
    return f"{ordinal:04d}_{safe}_{label.sample_index:02d}.csi"


def write_dataset_dir(dataset: Dataset, out_dir) -> dict:
    """Write one portable file per record plus a manifest; returns the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for ordinal, (matrix, label) in enumerate(dataset):
        name = _record_filename(label, ordinal)
        write_portable(matrix, label, out / name)
        files.append(
            {
                "file": name,
                "subject_id": label.subject_id,
                "sample_index": label.sample_index,
                "hand": label.hand.value,
                "subcarriers": matrix.n_subcarriers,
                "samples": matrix.n_samples,
            }
        )
    from . import __version__

    manifest = {"format": "csibio-dataset", "version": 1,
                "tool": f"csibio {__version__}",
                "digest": dataset.digest(), "records": files}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def _manifest_records(path: Path) -> list[dict]:
    """The record entries of a dataset manifest, each an object naming its file."""
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestMismatch(f"{path}: not valid JSON ({exc})") from exc
    records = manifest.get("records") if isinstance(manifest, dict) else None
    if not isinstance(records, list):
        raise ManifestMismatch(f"{path}: expected an object with a 'records' list")
    for i, entry in enumerate(records):
        if not isinstance(entry, dict) or not isinstance(entry.get("file"), str):
            raise ManifestMismatch(f"{path}: record {i} must be an object with a string 'file'")
    return records


def read_dataset_dir(path) -> Dataset:
    """Load a dataset directory written by write_dataset_dir.

    A malformed manifest raises ManifestMismatch. The labels and shape a
    manifest entry records must match its file's header.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if manifest_path.exists():
        entries = _manifest_records(manifest_path)
    else:
        entries = [{"file": p.name} for p in sorted(root.glob("*.csi"))]
    if not entries:
        raise FileNotFoundError(f"no portable CSI files under {root}")
    records = []
    for entry in entries:
        file = root / entry["file"]
        matrix, label = read_portable(file)
        header = {"subject_id": label.subject_id, "sample_index": label.sample_index,
                  "hand": label.hand.value, "subcarriers": matrix.n_subcarriers,
                  "samples": matrix.n_samples}
        wrong = [f"{k}={entry[k]!r} (header {v!r})" for k, v in header.items()
                 if k in entry and entry[k] != v]
        if wrong:
            raise ManifestMismatch(f"{file}: manifest says {', '.join(wrong)}")
        records.append((matrix, label))
    return Dataset(tuple(records))
