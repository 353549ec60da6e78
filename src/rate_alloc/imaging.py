"""Grayscale image I/O, block partitioning, and the orthonormal 2-D DCT.

Pixel intensities live in [0, 1].  Images are split into non-overlapping
B x B blocks, zero-padding the bottom/right edges when the dimensions are
not multiples of B; the blocks are views of the (padded) image.  All types
are immutable after construction and every function here is pure, so
everything is safe to share across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np


class PgmError(ValueError):
    """Base class for PGM parse failures."""


class UnsupportedMagicError(PgmError):
    pass


class MalformedHeaderError(PgmError):
    pass


class TruncatedPayloadError(PgmError):
    pass


def _frozen(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


# Bytes per numpy pass over a large array: chunk-sized temporaries stay in
# cache and are reused, where image-sized ones must be faulted in page by page.
_CHUNK = 1 << 18


def _chunks(count: int, item_bytes: int):
    """Slices covering range(count), each about _CHUNK bytes of items (at least one)."""
    step = max(1, _CHUNK // item_bytes)
    return (slice(start, start + step) for start in range(0, count, step))


@dataclass(frozen=True)
class Image:
    """A grayscale image: 2-D row-major intensities in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.size == 0:
            raise ValueError("image pixels must be a non-empty 2-D array")
        # NaN fails both comparisons and an infinity one of them
        if not (px.min() >= 0.0 and px.max() <= 1.0):
            raise ValueError("image intensities must be finite and in [0, 1]")
        object.__setattr__(self, "pixels", _frozen(px))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class BlockGrid:
    """An image cut into B x B blocks, row-major over the grid.

    `pixels` is the image zero-padded to whole blocks; the blocks are views of it.
    """

    block_size: int
    rows: int
    cols: int
    pad_bottom: int
    pad_right: int
    pixels: np.ndarray  # shape (rows * B, cols * B)

    def __post_init__(self):
        b = self.block_size
        if not (0 <= self.pad_bottom < b and 0 <= self.pad_right < b):
            raise ValueError("padding must be smaller than the block size")
        pixels = np.asarray(self.pixels, dtype=np.float64)
        if pixels.shape != (self.rows * b, self.cols * b):
            raise ValueError("pixel array shape inconsistent with grid")
        object.__setattr__(self, "pixels", _frozen(pixels))

    @property
    def blocks(self) -> np.ndarray:
        """The read-only (rows, cols, B, B) view of the pixels, block by block."""
        b = self.block_size
        return self.pixels.reshape(self.rows, b, self.cols, b).swapaxes(1, 2)

    @property
    def block_count(self) -> int:
        return self.rows * self.cols

    @property
    def padded_height(self) -> int:
        return self.rows * self.block_size

    @property
    def padded_width(self) -> int:
        return self.cols * self.block_size

    @property
    def padded_pixel_count(self) -> int:
        return self.block_count * self.block_size * self.block_size


MAX_BLOCK_SIZE = 1024  # checked before allocating: a 3x3-block synthetic image takes 72 MiB


def _check_block_size(block_size: int) -> None:
    """Reject a block size above MAX_BLOCK_SIZE."""
    if block_size > MAX_BLOCK_SIZE:
        raise ValueError(f"block size {block_size} is above the limit of {MAX_BLOCK_SIZE}")


def partition(image: Image, block_size: int) -> BlockGrid:
    """Cut an image into B x B blocks, zero-padding the bottom/right edges.

    An image of whole blocks is not copied: the grid holds its pixels.
    """
    if block_size < 2:
        raise ValueError("block size must be at least 2")
    _check_block_size(block_size)
    b = block_size
    h, w = image.height, image.width
    rows, cols = -(-h // b), -(-w // b)
    pixels = image.pixels
    if rows * b > h or cols * b > w:
        pixels = np.zeros((rows * b, cols * b))
        pixels[:h, :w] = image.pixels
    return BlockGrid(b, rows, cols, rows * b - h, cols * b - w, pixels)


def _clamped(pixels: np.ndarray) -> Image:
    """Freeze a 2-D float64 array already clamped to [0, 1] as an Image, without reading it again."""
    pixels.setflags(write=False)
    image = object.__new__(Image)
    object.__setattr__(image, "pixels", pixels)
    return image


# ---------------------------------------------------------------------------
# Orthonormal 2-D DCT
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def dct_matrix(size: int) -> np.ndarray:
    """Orthonormal DCT-II matrix M with M @ M.T = I."""
    k = np.arange(size)[:, None]
    i = np.arange(size)[None, :]
    m = np.cos(np.pi * (2 * i + 1) * k / (2 * size)) * math.sqrt(2.0 / size)
    m[0] *= math.sqrt(0.5)
    return _frozen(m)


@lru_cache(maxsize=None)
def _dct_right(size: int) -> np.ndarray:
    """dct_matrix(size).T as a C-contiguous copy, which some BLAS kernels multiply faster,
    where a fixed probe stack shows the copy gives the view's bits; else the view."""
    m = dct_matrix(size)
    probe = np.sin(np.arange(2.0 * size * size)).reshape(2, size, size)  # no numpy.random import
    copy = _frozen(m.T)
    return copy if np.array_equal(probe @ m.T, probe @ copy) else m.T


def dct2_blocks(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II, M @ X @ M.T with M = dct_matrix(B), of each X of a (..., B, B) stack.

    Returns the (n, B, B) coefficients, blocks in C order of the leading axes.
    Each block is one product of its own, so a strided view such as
    `BlockGrid.blocks` is read in place, with the bits of a contiguous copy.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim < 3 or blocks.shape[-1] != blocks.shape[-2]:
        raise ValueError(f"blocks of shape {blocks.shape} are not a (..., B, B) stack")
    b = blocks.shape[-1]
    m, right = dct_matrix(b), _dct_right(b)
    # whole block rows, (rows, cols, B, B); a plain (n, B, B) stack is n rows of one block
    rows = blocks if blocks.ndim == 3 else blocks.reshape(math.prod(blocks.shape[:-3]), *blocks.shape[-3:])
    out = np.empty(rows.shape)
    # whole rows per chunk, the same per-block products as one m @ blocks @ m.T
    for part in _chunks(len(rows), math.prod(rows.shape[1:]) * rows.itemsize or 1):
        np.matmul(m @ rows[part], right, out=out[part])
    return out.reshape(-1, b, b)


# ---------------------------------------------------------------------------
# PGM I/O (P2 ASCII and P5 binary, maxval <= 65535; written as P5 maxval 255)
# ---------------------------------------------------------------------------

# Separators (ASCII whitespace, or a '#' comment through its newline or EOF),
# then the digit run of one field; the run may be empty, so it always matches.
_FIELD = re.compile(rb"(?:\s|#[^\n]*\n?)*(\d*)")
_MAX_DIGITS = 4300  # the longest digit run read, whatever the interpreter's int() limit


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """Skip separators at ``pos``; return the next unsigned decimal and the offset past it."""
    match = _FIELD.match(data, pos)
    start, end = match.span(1)
    if start == end:
        raise MalformedHeaderError(f"expected {what} at byte {start}, found {data[start:start + 8]!r}")
    if end - start <= _MAX_DIGITS:
        try:
            return int(match[1]), end
        except ValueError:  # an interpreter whose int() limit is below _MAX_DIGITS
            pass
    raise MalformedHeaderError(f"{what} at byte {start} is {end - start} digits long, too long to read")


def _ascii_samples(data: bytes, pos: int, count: int, maxval: int):
    """Yield ``count`` P2 samples from ``pos``; int() reads at most five digits of each.

    A run past _MAX_DIGITS or five significant digits, above any maxval, yields ``maxval + 1``.
    """
    for found in range(count):
        start, pos = _FIELD.match(data, pos).span(1)
        if start == pos < len(data):
            raise MalformedHeaderError(f"expected sample at byte {start}, found {data[start:start + 8]!r}")
        if start == pos:
            raise TruncatedPayloadError(
                f"payload truncated at byte {pos}: expected {count} samples, found {found}")
        run = data[start:pos]
        yield maxval + 1 if pos - start > _MAX_DIGITS or run[:-5].strip(b"0") else int(run[-5:])


# Each byte's class: b"d" a digit, b" " one of the six bytes \s matches, b"x" anything else
_BYTE_KIND = bytes(100 if 48 <= c <= 57 else 32 if c in b" \t\n\r\x0b\x0c" else 120 for c in range(256))
_LONG_RUN = b"d" * (_MAX_DIGITS + 1)  # the field reader reads such a run as above maxval


def _bulk_samples(data: bytes, pos: int, count: int) -> np.ndarray | None:
    """Decode ``count`` P2 samples from ``pos`` in bulk, as int64.

    Returns None, leaving the payload to the field reader, unless it holds
    only digits and separators, no digit run is longer than _MAX_DIGITS and there
    are at least ``count`` runs.  A value past int64 saturates, still above maxval.
    """
    payload = data[pos:]
    kinds = payload.translate(_BYTE_KIND)
    if b"x" in kinds or _LONG_RUN in kinds:
        return None
    kind = np.frombuffer(kinds, np.uint8)  # a run starts at a digit after a separator or at 0
    # numpy leaves the samples a short payload lacks uninitialised: demand count runs
    if np.count_nonzero(kind[1:] > kind[:-1]) + kinds.startswith(b"d") < count:
        return None
    return np.fromstring(payload, dtype=np.int64, count=count, sep=" ")


def load_pgm(path) -> Image:
    """Read a P2 (ASCII) or P5 (binary) PGM file, scaling intensities by maxval."""
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise UnsupportedMagicError(f"unsupported magic {magic!r} at byte 0 (want P2 or P5)")
    width, pos = _read_int(data, 2, "width")
    height, pos = _read_int(data, pos, "height")
    maxval, pos = _read_int(data, pos, "maxval")
    if width <= 0 or height <= 0 or not (1 <= maxval <= 65535):
        raise MalformedHeaderError(
            f"invalid dimensions or maxval ({width}x{height}, maxval {maxval}) "
            f"in header ending at byte {pos}"
        )
    count = width * height

    if magic == b"P5":
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise MalformedHeaderError(f"expected single whitespace after maxval at byte {pos}")
        start = pos + 1
        sample_bytes = 1 if maxval <= 255 else 2
        need = count * sample_bytes
        payload = data[start : start + need]
        if len(payload) < need:
            raise TruncatedPayloadError(
                f"payload truncated at byte {start + len(payload)}: "
                f"need {need} bytes, found {len(payload)}"
            )
        dtype = np.uint8 if sample_bytes == 1 else np.dtype(">u2")
        samples = np.frombuffer(payload, dtype=dtype)
    else:
        samples = _bulk_samples(data, pos, count)
        if samples is None:
            # The field reader handles comments and words every error.  No count:
            # fromiter would allocate the header's width * height up front.
            samples = np.fromiter(_ascii_samples(data, pos, count, maxval), dtype=np.float64)

    if samples.max(initial=0.0) > maxval:
        raise PgmError(f"sample exceeds maxval {maxval} in payload of {path}")
    samples = samples.astype(np.float64, copy=False)
    samples /= maxval
    return Image(samples.reshape(height, width))


def encode_pgm(image: Image) -> bytes:
    """Binary P5 bytes with maxval 255, intensities rounded half-up."""
    scaled = image.pixels * 255.0
    scaled += 0.5
    quantized = np.floor(scaled, out=scaled).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + quantized.tobytes()
