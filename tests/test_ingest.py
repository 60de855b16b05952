import json
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from csibio.errors import (
    BadMagic,
    CorruptHeader,
    LengthMismatch,
    ManifestMismatch,
    NoCsiFrames,
    NonFiniteSample,
    UnsupportedVersion,
)
from csibio.ingest import (
    PORTABLE_MAGIC,
    PcapSource,
    decode_chanspec,
    parse_pcap,
    read_dataset_dir,
    read_portable,
    subcarrier_freqs,
    write_dataset_dir,
    write_portable,
)
from csibio.model import CsiMatrix, Dataset, Hand, SubjectLabel
from csibio.synth import bundled_scenario, generate_dataset
from pcap_util import udp_packet, write_csi_capture


def _frames(rng, n_frames, k=128, lo=-2000, hi=2000):
    return [
        [(int(a), int(b)) for a, b in rng.integers(lo, hi, (k, 2))]
        for _ in range(n_frames)
    ]


CHANSPEC_CH36_40MHZ = 0xD824  # 5 GHz band bits, 40 MHz bw bits, channel 36


class TestParsePcap:
    def test_fixture_round_trip_values(self, rng, tmp_path):
        frames = _frames(rng, 10)
        path = tmp_path / "cap.pcap"
        write_csi_capture(path, frames, chanspec=CHANSPEC_CH36_40MHZ)
        m = parse_pcap(PcapSource(str(path)))
        assert m.values.shape == (128, 10)
        for t, frame in enumerate(frames):
            expected = np.array([re + 1j * im for re, im in frame])
            assert np.array_equal(m.values[:, t], expected)

    def test_frame_order_preserved(self, rng, tmp_path):
        frames = [[(t, 0)] * 128 for t in range(7)]
        path = tmp_path / "cap.pcap"
        write_csi_capture(path, frames)
        m = parse_pcap(PcapSource(str(path)))
        assert np.array_equal(m.values.real[0], np.arange(7))

    def test_no_matching_packets(self, rng, tmp_path):
        frames = _frames(rng, 3)
        path = tmp_path / "cap.pcap"
        write_csi_capture(path, frames, dst_port=9000)  # wrong port
        with pytest.raises(NoCsiFrames):
            parse_pcap(PcapSource(str(path), udp_port=5500))

    def test_truncated_frames_skipped_and_counted(self, rng, tmp_path):
        frames = _frames(rng, 7)
        path = tmp_path / "cap.pcap"
        write_csi_capture(path, frames, truncate_last_bytes=5)
        m = parse_pcap(PcapSource(str(path)))
        assert m.values.shape == (128, 6)
        assert m.meta["skipped_truncated"] == 1

    def test_wrong_subcarrier_count_skipped(self, rng, tmp_path):
        frames = _frames(rng, 4) + _frames(rng, 2, k=64)
        path = tmp_path / "cap.pcap"
        write_csi_capture(path, frames)
        m = parse_pcap(PcapSource(str(path), expected_subcarriers=128))
        assert m.values.shape == (128, 4)
        assert m.meta["skipped_wrong_subcarriers"] == 2

    def test_non_csi_udp_traffic_ignored(self, rng, tmp_path):
        frames = _frames(rng, 3)
        noise = [udp_packet(b"\xde\xad" + b"x" * 50, dst_port=5500)]
        path = tmp_path / "cap.pcap"
        write_csi_capture(path, frames, extra_packets=noise)
        m = parse_pcap(PcapSource(str(path)))
        assert m.values.shape == (128, 3)
        assert m.meta["skipped_non_csi"] == 1

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            parse_pcap(PcapSource("/nonexistent/cap.pcap"))

    def test_not_a_pcap(self, tmp_path):
        path = tmp_path / "junk.pcap"
        path.write_bytes(b"this is not a capture at all......")
        with pytest.raises(BadMagic):
            parse_pcap(PcapSource(str(path)))

    def test_source_validation(self):
        with pytest.raises(ValueError):
            PcapSource("x.pcap", udp_port=0)
        with pytest.raises(ValueError):
            PcapSource("x.pcap", expected_subcarriers=100)

    def test_freq_axis_from_chanspec(self, rng, tmp_path):
        path = tmp_path / "cap.pcap"
        write_csi_capture(path, _frames(rng, 2), chanspec=CHANSPEC_CH36_40MHZ)
        m = parse_pcap(PcapSource(str(path)))
        center, bw = decode_chanspec(CHANSPEC_CH36_40MHZ)
        assert center == 5.18e9 and bw == 40e6
        assert np.array_equal(m.freqs, subcarrier_freqs(128, 5.18e9, 40e6))
        assert np.all(np.diff(m.freqs) == 312_500.0)

    def test_undecodable_chanspec_falls_back(self, rng, tmp_path):
        path = tmp_path / "cap.pcap"
        write_csi_capture(path, _frames(rng, 2), chanspec=0x0000)
        m = parse_pcap(PcapSource(str(path)))
        assert np.array_equal(m.freqs, subcarrier_freqs(128, 5.18e9, 40e6))


class TestPortableFormat:
    def _sample(self, rng, k=4, t=3):
        values = rng.normal(0, 1, (k, t)) + 1j * rng.normal(0, 1, (k, t))
        freqs = 5.18e9 + 312_500.0 * np.arange(k)
        return CsiMatrix(values=values, freqs=freqs)

    def test_round_trip_bit_exact(self, rng, tmp_path):
        m = self._sample(rng)
        label = SubjectLabel("subj-7", 2, Hand.RIGHT)
        path = tmp_path / "m.csi"
        write_portable(m, label, path)
        m2, label2 = read_portable(path)
        assert np.array_equal(m.values, m2.values)
        assert np.array_equal(m.freqs, m2.freqs)
        assert label2 == label

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.csi"
        path.write_bytes(b"CSIPORTX" + b"\x00" * 64)
        with pytest.raises(BadMagic):
            read_portable(path)

    def test_short_payload(self, rng, tmp_path):
        m = self._sample(rng)
        path = tmp_path / "m.csi"
        write_portable(m, SubjectLabel("a"), path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(LengthMismatch):
            read_portable(path)

    def test_unsupported_version(self, rng, tmp_path):
        m = self._sample(rng)
        path = tmp_path / "m.csi"
        write_portable(m, SubjectLabel("a"), path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version field
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersion):
            read_portable(path)

    @pytest.mark.parametrize("k,t,step", [(0, 3, 1.0), (1, 3, 1.0), (4, 1, 1.0),
                                          (4, 3, 0.0), (4, 3, float("nan"))])
    def test_degenerate_header_rejected(self, tmp_path, k, t, step):
        # Shapes and grids write_portable refuses; K = 0 used to crash calibration.
        header = struct.pack("<HBBIIIddH", 1, 0, 0, 0, k, t, 5.18e9, step, 1)
        path = tmp_path / "m.csi"
        path.write_bytes(PORTABLE_MAGIC + header + b"a" + b"\x00" * (16 * k * t))
        with pytest.raises(CorruptHeader):
            read_portable(path)

    @pytest.mark.parametrize("subject, reason", [(b"\xff\xfe", "not UTF-8"), (b"", "empty")])
    def test_bad_subject_id_names_file(self, tmp_path, subject, reason):
        k, t = 4, 3
        header = struct.pack("<HBBIIIddH", 1, 0, 0, 0, k, t, 5.18e9, 1e6, len(subject))
        path = tmp_path / "m.csi"
        path.write_bytes(PORTABLE_MAGIC + header + subject + b"\x00" * (16 * k * t))
        with pytest.raises(CorruptHeader, match=f"^{path}: subject id is {reason}$"):
            read_portable(path)

    def test_deterministic_bytes(self, rng, tmp_path):
        m = self._sample(rng)
        write_portable(m, SubjectLabel("a", 1), tmp_path / "a.csi")
        write_portable(m, SubjectLabel("a", 1), tmp_path / "b.csi")
        assert (tmp_path / "a.csi").read_bytes() == (tmp_path / "b.csi").read_bytes()

    def test_nonuniform_grid_rejected(self, rng, tmp_path):
        values = rng.normal(0, 1, (4, 3)).astype(complex)
        freqs = np.array([1.0e9, 2.0e9, 2.5e9, 4.0e9])
        m = CsiMatrix(values=values, freqs=freqs)
        with pytest.raises(ValueError):
            write_portable(m, SubjectLabel("a"), tmp_path / "m.csi")

    def test_invalid_matrix_rejected(self, tmp_path):
        values = np.ones((2, 2), dtype=complex)
        values[0, 0] = np.nan
        m = CsiMatrix(values=values, freqs=np.array([1e9, 2e9]))
        with pytest.raises(ValueError):
            write_portable(m, SubjectLabel("a"), tmp_path / "m.csi")


class TestDatasetDir:
    def test_round_trip_digest(self, tmp_path):
        scenario = bundled_scenario(
            n_subjects=3, samples_per_subject=2, n_samples=20, n_subcarriers=8
        )
        d = generate_dataset(scenario)
        write_dataset_dir(d, tmp_path / "ds")
        d2 = read_dataset_dir(tmp_path / "ds")
        assert d2.digest() == d.digest()
        assert [lab.subject_id for _, lab in d2] == [lab.subject_id for _, lab in d]

    def test_write_hashes_one_record_at_a_time(self, tmp_path):
        """Fed a generator, the writer holds fewer than two records and digests as it writes."""
        freqs = subcarrier_freqs(64, 5.18e9, 40e6)
        record_bytes = 64 * 500 * 16

        def records():
            for i in range(16):
                yield CsiMatrix(np.full((64, 500), complex(i + 1, 1)), freqs), SubjectLabel("a", i)

        tracemalloc.start()
        try:
            manifest = write_dataset_dir(records(), tmp_path / "ds")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * record_bytes, peak
        assert len(manifest["records"]) == 16
        assert manifest["digest"] == Dataset(tuple(records())).digest()
        assert read_dataset_dir(tmp_path / "ds").digest() == manifest["digest"]

    def test_failed_write_leaves_directory_as_it_was(self, tmp_path):
        scenario = bundled_scenario(n_subjects=2, samples_per_subject=2, n_samples=20,
                                    n_subcarriers=8)
        write_dataset_dir(generate_dataset(scenario), tmp_path / "ds")
        before = {p.name: p.read_bytes() for p in (tmp_path / "ds").iterdir()}

        def failing():
            for i, record in enumerate(generate_dataset(replace(scenario, seed=7))):
                if i == 2:
                    raise NoCsiFrames("third capture")
                yield record

        for out in (tmp_path / "ds", tmp_path / "fresh"):
            with pytest.raises(NoCsiFrames):
                write_dataset_dir(failing(), out)
        assert {p.name: p.read_bytes() for p in (tmp_path / "ds").iterdir()} == before
        assert not (tmp_path / "fresh").exists()

    def test_non_finite_payload_raises_on_load(self, tmp_path):
        scenario = bundled_scenario(n_subjects=2, samples_per_subject=4, n_samples=20,
                                    n_subcarriers=8)
        manifest = write_dataset_dir(generate_dataset(scenario), tmp_path / "ds")
        path = tmp_path / "ds" / manifest["records"][5]["file"]
        path.write_bytes(path.read_bytes()[:-16] + np.array([np.nan], dtype="<c16").tobytes())
        dataset = read_dataset_dir(tmp_path / "ds")  # headers only
        loaded = iter(dataset)
        for _ in range(5):
            next(loaded)
        with pytest.raises(NonFiniteSample, match=re.escape(str(path))):
            next(loaded)
        with pytest.raises(NonFiniteSample, match=re.escape(str(path))):
            dataset.digest()

    def test_empty_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            read_dataset_dir(tmp_path / "empty")

    @pytest.mark.parametrize("key,value", [
        ("subject_id", "someone-else"), ("sample_index", 7), ("hand", "left"),
        ("subcarriers", 16), ("samples", 21),
    ])
    def test_manifest_label_mismatch_names_file(self, tmp_path, key, value):
        scenario = bundled_scenario(
            n_subjects=2, samples_per_subject=2, n_samples=20, n_subcarriers=8
        )
        write_dataset_dir(generate_dataset(scenario), tmp_path / "ds")
        path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["records"][2][key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestMismatch) as err:
            read_dataset_dir(tmp_path / "ds")
        assert manifest["records"][2]["file"] in str(err.value)
        assert f"{key}={value!r}" in str(err.value)
