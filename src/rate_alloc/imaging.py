"""Grayscale image I/O, block partitioning, and the orthonormal 2-D DCT.

Pixel intensities live in [0, 1].  Images are split into non-overlapping
B x B blocks, zero-padding the bottom/right edges when the dimensions are
not multiples of B.  All types are immutable after construction and every
function here is pure, so everything is safe to share across threads.
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
    """An image chopped into B x B blocks, row-major over the grid."""

    block_size: int
    rows: int
    cols: int
    pad_bottom: int
    pad_right: int
    blocks: np.ndarray  # shape (rows * cols, B, B)

    def __post_init__(self):
        b = self.block_size
        if not (0 <= self.pad_bottom < b and 0 <= self.pad_right < b):
            raise ValueError("padding must be smaller than the block size")
        blocks = np.asarray(self.blocks, dtype=np.float64)
        if blocks.shape != (self.rows * self.cols, b, b):
            raise ValueError("block array shape inconsistent with grid")
        object.__setattr__(self, "blocks", _frozen(blocks))

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


def _spans(size: int, b: int) -> list:
    """Split `size` pixels along one axis into the whole blocks and the partial last one.

    Each span pairs an index into a (blocks, B) axis pair, (block, offset in
    block), with the pixel slice it covers.
    """
    whole, rest = divmod(size, b)
    spans = [((slice(0, whole), slice(None)), slice(0, whole * b))]
    if rest:
        spans.append(((whole, slice(0, rest)), slice(whole * b, size)))
    return spans


def partition(image: Image, block_size: int) -> BlockGrid:
    """Split an image into B x B blocks, zero-padding the bottom/right edges."""
    if block_size < 2:
        raise ValueError("block size must be at least 2")
    _check_block_size(block_size)
    b = block_size
    h, w = image.height, image.width
    rows, cols = -(-h // b), -(-w // b)
    # one copy into block order; only a padded grid needs the zeros
    blocks = (np.zeros if rows * b > h or cols * b > w else np.empty)((rows * cols, b, b))
    by_row = blocks.reshape(rows, cols, b, b).swapaxes(1, 2)  # (rows, B, cols, B) view
    for (row, dy), ys in _spans(h, b):
        for (col, dx), xs in _spans(w, b):
            part = by_row[row, dy, col, dx]
            part[...] = image.pixels[ys, xs].reshape(part.shape)
    return BlockGrid(b, rows, cols, rows * b - h, cols * b - w, blocks)


def _stitch(block_rows, b: int, height: int, width: int) -> Image:
    """Clamp rows of blocks to [0, 1] straight into one height x width image.

    `block_rows` yields each (cols, B, B) row of the grid, top to bottom;
    the grid's padding is cropped as each row is written.
    """
    out = np.empty((height, width))
    for top, row in zip(range(0, height, b), block_rows):
        strip = out[top : top + b]
        by_row = row.swapaxes(0, 1)[: len(strip)]  # (pixel rows, cols, B) view
        for (col, dx), xs in _spans(width, b):
            part = by_row[:, col, dx]
            np.clip(part, 0.0, 1.0, out=strip[:, xs].reshape(part.shape))
    return Image(out)


def assemble(grid: BlockGrid) -> Image:
    """Inverse of :func:`partition`: stitch blocks, crop the grid's padding, clamp to [0, 1]."""
    b = grid.block_size
    return _stitch(grid.blocks.reshape(grid.rows, grid.cols, b, b), b,
                   grid.padded_height - grid.pad_bottom, grid.padded_width - grid.pad_right)


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


def dct2_blocks(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II, M @ X @ M.T with M = dct_matrix(B), of each block X of (n, B, B)."""
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ValueError(f"blocks of shape {blocks.shape} are not an (n, B, B) stack")
    b = blocks.shape[-1]
    m = dct_matrix(b)
    out = np.empty(blocks.shape)
    # chunk by chunk, the same per-block products as one m @ blocks @ m.T
    for part in _chunks(len(blocks), b * b * blocks.itemsize):
        np.matmul(m @ blocks[part], m.T, out=out[part])
    return out


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
        samples = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    else:
        samples = _bulk_samples(data, pos, count)
        if samples is None:
            # The field reader handles comments and words every error.  No count:
            # fromiter would allocate the header's width * height up front.
            samples = np.fromiter(_ascii_samples(data, pos, count, maxval), dtype=np.float64)

    if samples.max(initial=0.0) > maxval:
        raise PgmError(f"sample exceeds maxval {maxval} in payload of {path}")
    return Image((samples / maxval).reshape(height, width))


def encode_pgm(image: Image) -> bytes:
    """Binary P5 bytes with maxval 255, intensities rounded half-up."""
    quantized = np.floor(image.pixels * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + quantized.tobytes()
