import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rate_alloc import imaging
from rate_alloc.imaging import (
    BlockGrid,
    Image,
    MalformedHeaderError,
    PgmError,
    TruncatedPayloadError,
    UnsupportedMagicError,
    dct2_blocks,
    dct_matrix,
    encode_pgm,
    load_pgm,
    partition,
)
from rate_alloc.synthetic import synthetic_image

BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]


def brute_force_dct2(block):
    """Independent O(B^4) orthonormal DCT-II, straight from the definition."""
    b = block.shape[0]
    out = np.zeros((b, b))
    for u in range(b):
        for v in range(b):
            cu = math.sqrt(1.0 / b) if u == 0 else math.sqrt(2.0 / b)
            cv = math.sqrt(1.0 / b) if v == 0 else math.sqrt(2.0 / b)
            acc = 0.0
            for i in range(b):
                for j in range(b):
                    acc += (
                        block[i, j]
                        * math.cos(math.pi * (2 * i + 1) * u / (2 * b))
                        * math.cos(math.pi * (2 * j + 1) * v / (2 * b))
                    )
            out[u, v] = cu * cv * acc
    return out


class TestImageType:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Image(np.array([[0.0, 1.5]]))
        with pytest.raises(ValueError):
            Image(np.array([[-0.1, 0.5]]))
        with pytest.raises(ValueError, match="non-empty 2-D array"):
            Image(np.empty((0, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        for pixels in ([[bad]], [[0.5, bad]], [[bad, 0.0], [1.0, 0.5]]):
            with pytest.raises(ValueError, match="finite"):
                Image(np.array(pixels))

    def test_immutable(self):
        img = Image(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0
        assert (img.height, img.width) == (2, 3)

    def test_unknown_synthetic_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown synthetic kind 'x'"):
            synthetic_image("x")


@pytest.fixture(scope="module")
def pgm_dir(tmp_path_factory):
    """One folder that a property test's examples overwrite in turn, not one folder per example."""
    return tmp_path_factory.mktemp("pgm")


SEPARATORS = st.lists(
    st.one_of(
        st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]),
        st.binary(max_size=6).map(lambda text: b"#" + text.replace(b"\n", b"") + b"\n"),
    ),
    min_size=1,
    max_size=3,
).map(b"".join)


class TestPgm:
    def test_p2_ascii_scaling(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 255\n128 255\n")
        img = load_pgm(path)
        assert img.pixels.tolist() == [[0.0, 1.0], [128 / 255, 1.0]]

    def test_p5_all_zero(self, tmp_path):
        path = tmp_path / "z.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes(6))
        assert not load_pgm(path).pixels.any()

    def test_p5_sixteen_bit(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + (32768).to_bytes(2, "big"))
        assert load_pgm(path).pixels[0, 0] == 32768 / 65535

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2 # a comment\n# another\n2 1\n255\n7 9\n")
        assert np.allclose(load_pgm(path).pixels, [[7 / 255, 9 / 255]])

    @pytest.mark.parametrize(
        "data, samples, maxval",
        [
            (b"P2\n2 2\n255\n0 # c\n255 #x\n128\n# y\n255\n", [[0, 255], [128, 255]], 255),
            (b"P2\t3\r2\x0b255\x0c1\t2\r3\x0b4\x0c5 6", [[1, 2, 3], [4, 5, 6]], 255),
            (b"P2 2 1 255 7 9 # comment at EOF, no newline", [[7, 9]], 255),
            (b"P2\n2 1\n65535\n0 65535\n", [[0, 65535]], 65535),
            (b"P2 2 1 255 1 2x", [[1, 2]], 255),
            (b"P2 2 1 255 1 2 3 4 junk", [[1, 2]], 255),
            (b"P2 2 1 3 0001 0", [[1, 0]], 3),
        ],
        ids=["comments", "separators", "eof-comment", "16-bit", "trailing", "extra", "zeros"],
    )
    def test_p2_accepted(self, tmp_path, data, samples, maxval):
        path = tmp_path / "ok.pgm"
        path.write_bytes(data)
        assert np.array_equal(load_pgm(path).pixels, np.array(samples) / maxval)

    @pytest.mark.parametrize(
        "data, error, message",
        [
            (b"P2 2 1 255 1 x", MalformedHeaderError, "expected sample at byte 13, found b'x'"),
            (b"P2 2 1 255 1 +2", MalformedHeaderError, "expected sample at byte 13, found b'+2'"),
            (b"P2 2 1 255 -1 2", MalformedHeaderError, "expected sample at byte 11, found b'-1 2'"),
            (
                b"P2\n2 2\n255\n0 1 2 # c",
                TruncatedPayloadError,
                "payload truncated at byte 20: expected 4 samples, found 3",
            ),
            (b"P2\n2 \n", MalformedHeaderError, "expected height at byte 6, found b''"),
            (b"P2 2 1 255 1 256", PgmError, "sample exceeds maxval 255 in payload of "),
            (b"P2 1 1 255 " + b"9" * 400, PgmError, "sample exceeds maxval 255 in payload of "),
            # 8 TB of float64 if preallocated: must fail on the payload, not on memory
            (
                b"P2 1000000 1000000 255 1 2",
                TruncatedPayloadError,
                "payload truncated at byte 26: expected 1000000000000 samples, found 2",
            ),
            # past int()'s 4,300-digit conversion limit
            (b"P2 1 1 255 " + b"9" * 5000, PgmError, "sample exceeds maxval 255 in payload of "),
            (
                b"P2 " + b"9" * 5000 + b" 1 255 0",
                MalformedHeaderError,
                "width at byte 3 is 5000 digits long, too long to read",
            ),
            (b"P2 1 1 " + b"0" * 4400 + b"1 0", MalformedHeaderError, "maxval at byte 7 is 4401 digits"),
            # at the limit the header still reads and the payload is what fails
            (
                b"P2 " + b"9" * 4300 + b" 1 255 0",
                TruncatedPayloadError,
                "payload truncated at byte 4311: expected 9999",
            ),
            # numpy's text parser reads a separator-only payload as one 0
            (
                b"P2 1 1 255 \n \t",
                TruncatedPayloadError,
                "payload truncated at byte 14: expected 1 samples, found 0",
            ),
            # the header checks are shared by P5
            (b"P5\n0 3\n255\n", MalformedHeaderError, "invalid dimensions or maxval (0x3, maxval 255)"),
            (b"P2 1 1 70000 0", MalformedHeaderError, "invalid dimensions or maxval (1x1, maxval 70000)"),
            (b"P5\n2 2\n255x\x00\x00\x00\x00", MalformedHeaderError,
             "expected single whitespace after maxval at byte 10"),
        ],
        ids=["letter", "plus", "minus", "truncated", "header-eof", "above-maxval", "huge-sample",
             "huge-header", "long-sample", "long-header", "long-maxval", "limit-header",
             "separators-only", "p5-zero-width", "maxval-70000", "p5-no-whitespace"],
    )
    def test_p2_rejected(self, tmp_path, data, error, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(PgmError) as info:
            load_pgm(path)
        assert type(info.value) is error
        assert str(info.value).startswith(message)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), h=st.integers(1, 5), w=st.integers(1, 5), maxval=st.integers(1, 65535))
    def test_p2_and_p5_load_identically(self, pgm_dir, data, h, w, maxval):
        samples = data.draw(st.lists(st.integers(0, maxval), min_size=h * w, max_size=h * w))
        fields = [b"P2", *(str(v).encode() for v in (w, h, maxval, *samples))]
        ascii_pgm = b"".join(field + data.draw(SEPARATORS) for field in fields)
        dtype = np.uint8 if maxval <= 255 else np.dtype(">u2")
        binary_pgm = f"P5 {w} {h} {maxval}\n".encode() + np.array(samples, dtype=dtype).tobytes()
        (pgm_dir / "a.pgm").write_bytes(ascii_pgm)
        (pgm_dir / "b.pgm").write_bytes(binary_pgm)
        expected = np.array(samples, dtype=np.float64).reshape(h, w) / maxval
        assert np.array_equal(load_pgm(pgm_dir / "a.pgm").pixels, expected)
        assert np.array_equal(load_pgm(pgm_dir / "b.pgm").pixels, expected)

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "p6.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(UnsupportedMagicError, match="byte 0"):
            load_pgm(path)

    def test_malformed_header_names_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 X\n255\n0 0\n")
        with pytest.raises(MalformedHeaderError, match="byte 5"):
            load_pgm(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x01\x02")
        with pytest.raises(TruncatedPayloadError, match="need 4 bytes, found 2"):
            load_pgm(path)

    def test_truncated_ascii(self, tmp_path):
        path = tmp_path / "short2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2\n")
        with pytest.raises(TruncatedPayloadError):
            load_pgm(path)

    def test_save_zero_payload(self, tmp_path):
        path = tmp_path / "out.pgm"
        path.write_bytes(encode_pgm(Image(np.zeros((4, 4)))))
        data = path.read_bytes()
        assert data.startswith(b"P5\n4 4\n255\n")
        assert data[-16:] == bytes(16)

    def test_save_rounds_half_up(self, tmp_path):
        path = tmp_path / "half.pgm"
        path.write_bytes(encode_pgm(Image(np.array([[0.5]]))))
        assert path.read_bytes()[-1] == 128  # 127.5 rounds up

    def test_round_trip_within_half_step(self, tmp_path):
        rng = np.random.default_rng(7)
        img = Image(rng.random((8, 8)))
        path = tmp_path / "rt.pgm"
        path.write_bytes(encode_pgm(img))
        back = load_pgm(path)
        assert np.abs(back.pixels - img.pixels).max() <= 1 / 510 + 1e-15


SIX_SEPARATORS = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]


@pytest.fixture(scope="module")
def large_p2():
    """A 512x512 maxval-65535 P2 payload and its samples.

    Runs are 1-5 digits, one in eight zero-padded to five (``00042``), each
    after exactly one separator cycling through all six.
    """
    rng = np.random.default_rng(5)
    count = 512 * 512
    samples = rng.integers(0, np.minimum(10 ** rng.integers(1, 6, size=count), 65536))
    padded = rng.random(count) < 0.125
    fields = [f"{v:05d}" if pad else str(v) for v, pad in zip(samples.tolist(), padded)]
    separators = [SIX_SEPARATORS[i % 6].decode() for i in range(count)]
    payload = "".join(sep + field for sep, field in zip(separators, fields)).encode()
    return payload, samples.reshape(512, 512)


def outcome(path):
    """What load_pgm does with a file: its pixel bytes, or its error class and message."""
    try:
        return load_pgm(path).pixels.tobytes()
    except PgmError as error:
        return type(error), str(error)


def load_pgm_bytes(folder, data):
    path = folder / "f.pgm"
    path.write_bytes(data)
    return load_pgm(path)


def fail_field_reader(*args):
    raise AssertionError("a clean P2 payload reached the field reader")


NOISE = st.sampled_from(
    [b"#", b"# c\n", b"#1 2", b"a", b"Z", b"+", b"-", b"+1", b"-2", b"\x00", b"\x1c", b"\xff", b"1e3",
     b" 65536", b" 123456789"]
)


@st.composite
def small_p2_files(draw):
    """Small P2 bytes: samples after separators, now and then noise, comments, junk or a cut."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.sampled_from([1, 9, 255, 65535]))
    parts = [b"P2 ", b"%d %d %d" % (w, h, maxval)]
    for _ in range(draw(st.just(w * h) | st.integers(0, w * h + 2))):
        one_byte = draw(st.integers(0, 9)) > 0
        parts.append(draw(st.sampled_from(SIX_SEPARATORS) if one_byte else SEPARATORS))
        # a run of 4,300 digits is decoded in bulk, a longer one by the field reader
        zeros = b"0" * draw(st.sampled_from([0, 0, 1, 4, 7, 4299, 4300, 4301]))
        parts.append(zeros + b"%d" % draw(st.integers(0, maxval)))
        if draw(st.integers(0, 29)) == 0:
            parts.append(draw(NOISE))
    parts.append(draw(st.sampled_from([b"", b"\n", b" ", b" x", b"\n# end"])))
    return b"".join(parts)


class TestBulkP2:
    def test_bulk_matches_p5(self, tmp_path, monkeypatch, large_p2):
        payload, samples = large_p2
        expected = load_pgm_bytes(tmp_path, b"P5 512 512 65535\n" + samples.astype(">u2").tobytes())
        assert np.array_equal(expected.pixels, samples / 65535)
        monkeypatch.setattr(imaging, "_ascii_samples", fail_field_reader)
        got = load_pgm_bytes(tmp_path, b"P2 512 512 65535" + payload)
        assert got.pixels.tobytes() == expected.pixels.tobytes()

    def test_clean_p2_never_reaches_field_reader(self, tmp_path, monkeypatch):
        monkeypatch.setattr(imaging, "_ascii_samples", fail_field_reader)
        img = load_pgm_bytes(tmp_path, b"P2\n3 2\n255\n0 17 255\n0001\t00000\r\n9\n")
        assert np.array_equal(img.pixels, np.array([[0, 17, 255], [1, 0, 9]]) / 255)
        # zero-padded runs of 6 and of 4,300 digits, int()'s default limit
        img = load_pgm_bytes(tmp_path, b"P2 3 1 255 1 000002 " + b"0" * 4297 + b"255")
        assert np.array_equal(img.pixels, np.array([[1, 2, 255]]) / 255)

    @pytest.mark.parametrize(
        "data, want",
        [
            (b"P2 3 1 255 # c\n1 2 3", np.array([[1, 2, 3]]) / 255),
            (b"P2 3 1 255 1 2 3 junk", np.array([[1, 2, 3]]) / 255),
            # past imaging._MAX_DIGITS the field reader counts the run as above maxval, zeros or not
            (b"P2 3 1 255 1 2 " + b"0" * 4298 + b"003", (PgmError, "sample exceeds maxval 255")),
        ],
        ids=["comment", "trailing-junk", "4301-digit-run"],
    )
    def test_other_payloads_go_through_field_reader(self, tmp_path, data, want):
        calls, field_reader = [], imaging._ascii_samples

        def spy(*args):
            calls.append(args)
            return field_reader(*args)

        path = tmp_path / "f.pgm"
        path.write_bytes(data)
        with mock.patch.object(imaging, "_ascii_samples", spy):
            got = outcome(path)
        assert len(calls) == 1
        if isinstance(want, tuple):
            assert got[0] is want[0] and got[1].startswith(want[1])
        else:
            assert got == want.tobytes()

    def test_every_other_byte_left_to_field_reader(self, tmp_path):
        path = tmp_path / "f.pgm"
        for byte in set(range(256)) - set(b"0123456789 \t\n\r\x0b\x0c"):
            path.write_bytes(b"P2 2 1 255 1 " + bytes([byte]) + b" 2")
            got = outcome(path)
            with mock.patch.object(imaging, "_bulk_samples", return_value=None):
                assert got == outcome(path), byte

    @settings(max_examples=300, deadline=None)
    @given(data=small_p2_files())
    def test_bulk_and_field_reader_agree(self, pgm_dir, data):
        # the reference is load_pgm with the bulk decoder off: the field reader alone
        path = pgm_dir / "f.pgm"
        path.write_bytes(data)
        got = outcome(path)
        with mock.patch.object(imaging, "_bulk_samples", return_value=None):
            want = outcome(path)
        assert got == want


class TestDigitLimit:
    FILES = {
        "sample-5001": b"P2 1 1 255\n# c\n" + b"0" * 5000 + b"7\n",
        "width-5001": b"P2 " + b"0" * 5000 + b"1 1 255 7\n",
        "sample-1000": b"P2 1 1 255\n# c\n" + b"0" * 999 + b"7\n",
        "width-1000": b"P2 " + b"0" * 999 + b"1 1 255 7\n",
    }
    LOADER = (
        "import sys\n"
        "from rate_alloc.imaging import load_pgm\n"
        "for path in sys.argv[1:]:\n"
        "    try:\n"
        "        print((load_pgm(path).pixels * 255).tolist())\n"
        "    except ValueError as error:\n"
        "        print(str(error).replace(path, 'PATH'))\n"
    )

    @pytest.mark.parametrize("limit, width_1000", [
        # 0 lifts int()'s limit; 640, the least it takes, makes int() refuse a 1,000-digit field
        ("0", "[[7.0]]"),
        pytest.param("640", "width at byte 3 is 1000 digits long, too long to read",
                     marks=pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                              reason="int() has no digit limit before Python 3.10.7")),
    ])
    def test_runs_past_4300_digits_fail_under_any_int_limit(self, tmp_path, limit, width_1000):
        paths = []
        for name, data in self.FILES.items():
            paths.append(tmp_path / f"{name}.pgm")
            paths[-1].write_bytes(data)
        env = dict(os.environ, PYTHONPATH=str(Path(imaging.__file__).parents[1]), PYTHONINTMAXSTRDIGITS=limit)
        result = subprocess.run([sys.executable, "-c", self.LOADER, *map(str, paths)],
                                env=env, capture_output=True, text=True, check=True, timeout=60)
        assert result.stdout.splitlines() == [
            "sample exceeds maxval 255 in payload of PATH",
            "width at byte 3 is 5001 digits long, too long to read",
            "[[7.0]]",
            width_1000,
        ]


class TestPartition:
    def test_default_geometry(self):
        grid = partition(Image(np.full((96, 96), 0.25)), 32)
        assert (grid.rows, grid.cols) == (3, 3)
        assert (grid.pad_bottom, grid.pad_right) == (0, 0)
        assert grid.block_count == 9

    def test_padding_is_zero(self):
        img = Image(np.full((5, 5), 0.5))
        grid = partition(img, 4)
        assert (grid.rows, grid.cols) == (2, 2)
        assert (grid.pad_bottom, grid.pad_right) == (3, 3)
        # bottom-right block is entirely padding except its top-left pixel
        assert grid.blocks[1, 1][0, 0] == 0.5
        assert grid.blocks[1, 1].sum() == 0.5

    def test_round_trip_all_residues(self):
        # the grid holds the image at its top left and zeros past it; that depends only
        # on (H mod B, W mod B), so cover every residue with one and two block rows/cols,
        # plus larger spot checks
        rng = np.random.default_rng(1)
        shapes = [(h, w, b) for b in range(2, 17) for h in range(1, 2 * b + 2) for w in range(1, 2 * b + 2)]
        for h, w, b in shapes + [(99, 100, 16), (100, 97, 7), (64, 64, 16)]:
            img = Image(rng.random((h, w)))
            pixels = partition(img, b).pixels
            assert np.array_equal(pixels[:h, :w], img.pixels)
            assert not pixels[h:].any() and not pixels[:, w:].any()

    def test_small_block_size_rejected(self):
        with pytest.raises(ValueError):
            partition(Image(np.zeros((4, 4))), 1)
        # a grid built directly checks its padding and its pixel array
        with pytest.raises(ValueError, match="padding must be smaller than the block size"):
            BlockGrid(2, 1, 1, 2, 0, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="pixel array shape inconsistent with grid"):
            BlockGrid(2, 1, 2, 0, 0, np.zeros((2, 2)))

    def test_whole_blocks_share_the_image(self):
        img = Image(np.random.default_rng(2).random((8, 12)))
        grid = partition(img, 4)
        assert grid.pixels is img.pixels
        assert grid.blocks.shape == (2, 3, 4, 4) and not grid.blocks.flags.writeable
        assert np.array_equal(grid.blocks[1, 2], img.pixels[4:8, 8:12])


class TestDct:
    def test_zero_block(self):
        assert not dct2_blocks(np.zeros((1, 4, 4))).any()

    def test_constant_block_is_dc_only(self):
        for b in (4, 8):
            coeffs = dct2_blocks(np.full((1, b, b), 0.3))[0]
            assert coeffs[0, 0] == pytest.approx(0.3 * b, abs=1e-12)
            coeffs_ac = coeffs.copy()
            coeffs_ac[0, 0] = 0.0
            assert np.abs(coeffs_ac).max() < 1e-13

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        block = rng.random((4, 4))
        assert np.abs(dct2_blocks(block[None])[0] - brute_force_dct2(block)).max() < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(4)
        for b in (4, 8, 32):
            blocks = rng.standard_normal((10, b, b))
            coeffs = dct2_blocks(blocks)
            assert (coeffs**2).sum(axis=(1, 2)) == pytest.approx((blocks**2).sum(axis=(1, 2)), rel=1e-9)

    def test_orthogonality(self):
        for b in (4, 8, 16, 32):
            m = dct_matrix(b)
            assert np.abs(m.T @ m - np.eye(b)).max() <= 1e-12

    def test_inverse_round_trip(self):
        # the matrix is orthonormal, so its transpose undoes the transform
        rng = np.random.default_rng(5)
        for b in (4, 8, 32):
            blocks = rng.standard_normal((3, b, b))
            m = dct_matrix(b)
            assert np.abs(m.T @ dct2_blocks(blocks) @ m - blocks).max() <= 1e-10

    def test_dc_only_inverse_is_constant(self):
        coeffs = np.zeros((8, 8))
        coeffs[0, 0] = 0.7 * 8
        m = dct_matrix(8)
        assert np.allclose(m.T @ coeffs @ m, 0.7)

    def test_stack_matches_single(self):
        rng = np.random.default_rng(6)
        blocks = rng.random((5, 8, 8))
        stacked = dct2_blocks(blocks)
        for i in range(5):
            assert np.array_equal(stacked[i], dct2_blocks(blocks[i : i + 1])[0])

    def test_non_square_rejected(self):
        for shape in ((1, 2, 3), (1, 3, 2)):
            with pytest.raises(ValueError):
                dct2_blocks(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(4, 4), (), (4,)])
    def test_only_a_stack_of_blocks(self, shape):
        with pytest.raises(ValueError, match="stack"):
            dct2_blocks(np.zeros(shape))

    def test_leading_axes_flatten_in_c_order(self):
        blocks = np.random.default_rng(7).random((2, 3, 4, 4))
        assert np.array_equal(dct2_blocks(blocks), dct2_blocks(blocks.reshape(6, 4, 4)))
        assert dct2_blocks(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    # prints each block size whose DCT differs in any bit from one product over a copy of the blocks
    KERNEL_CHECK = (
        "import numpy as np\n"
        "from rate_alloc.imaging import Image, dct2_blocks, dct_matrix, partition\n"
        "for b in range(2, 41):\n"
        "    grid = partition(Image(np.random.default_rng(b).random((2 * b + 1, 3 * b))), b)\n"
        "    m = dct_matrix(b)\n"
        "    if not np.array_equal(dct2_blocks(grid.blocks), m @ grid.blocks.reshape(-1, b, b) @ m.T):\n"
        "        print(b)\n"
    )
    # each OpenBLAS kernel, with the CPU feature (as numpy names it) it cannot run without
    KERNELS = {"SkylakeX": "AVX512_SKX", "Haswell": "AVX2", "Sandybridge": "AVX"}

    @pytest.mark.skipif("DYNAMIC_ARCH" not in BLAS.get("openblas configuration", ""),
                        reason="numpy's BLAS is not OpenBLAS built for several kernels")
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_same_bits_under_each_blas_kernel(self, kernel):
        # the second product's operand is chosen by what the kernel in use does, so check each
        if not np._core._multiarray_umath.__cpu_features__.get(self.KERNELS[kernel]):
            pytest.skip(f"this CPU cannot run the {kernel} kernel")
        env = dict(os.environ, PYTHONPATH=str(Path(imaging.__file__).parents[1]), OPENBLAS_CORETYPE=kernel)
        result = subprocess.run([sys.executable, "-c", self.KERNEL_CHECK],
                                env=env, capture_output=True, text=True, check=True, timeout=60)
        assert result.stdout == ""
