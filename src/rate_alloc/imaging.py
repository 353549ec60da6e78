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


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
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


def partition(image: Image, block_size: int) -> BlockGrid:
    """Split an image into B x B blocks, zero-padding the bottom/right edges."""
    if block_size < 2:
        raise ValueError("block size must be at least 2")
    h, w = image.height, image.width
    rows = -(-h // block_size)
    cols = -(-w // block_size)
    pad_bottom = rows * block_size - h
    pad_right = cols * block_size - w
    padded = image.pixels
    if pad_bottom or pad_right:
        padded = np.pad(padded, ((0, pad_bottom), (0, pad_right)))
    # the last reshape copies the swapped view: the one block-order copy
    blocks = (
        padded.reshape(rows, block_size, cols, block_size)
        .swapaxes(1, 2)
        .reshape(rows * cols, block_size, block_size)
    )
    return BlockGrid(block_size, rows, cols, pad_bottom, pad_right, blocks)


def assemble(grid: BlockGrid) -> Image:
    """Inverse of :func:`partition`: stitch blocks, crop the grid's padding, clamp to [0, 1]."""
    b = grid.block_size
    # one clamped copy from block order straight into row order
    padded = np.empty((grid.rows, b, grid.cols, b))
    np.clip(grid.blocks.reshape(grid.rows, grid.cols, b, b).swapaxes(1, 2), 0.0, 1.0, out=padded)
    padded = padded.reshape(grid.padded_height, grid.padded_width)
    return Image(padded[: grid.padded_height - grid.pad_bottom, : grid.padded_width - grid.pad_right])


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


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """Skip separators at ``pos``; return the next unsigned decimal and the offset past it."""
    match = _FIELD.match(data, pos)
    start, end = match.span(1)
    if start == end:
        raise MalformedHeaderError(
            f"expected {what} at byte {start}, found {data[start:start + 8]!r}"
        )
    try:
        return int(match[1]), end
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise MalformedHeaderError(
            f"{what} at byte {start} is {end - start} digits long, too long to read"
        ) from None


def _ascii_samples(data: bytes, pos: int, count: int, maxval: int):
    """Yield ``count`` P2 samples from ``pos``, each capped at ``maxval + 1``."""
    for found in range(count):
        try:
            value, pos = _read_int(data, pos, "sample")
        except MalformedHeaderError:
            field = _FIELD.match(data, pos)
            if field.end(1) > field.start(1):
                # a digit run too long to convert is far above any maxval
                value, pos = maxval + 1, field.end()
            elif field.end() < len(data):
                raise
            else:
                raise TruncatedPayloadError(
                    f"payload truncated at byte {len(data)}: expected {count} samples, found {found}"
                ) from None
        # the cap keeps a huge sample finite in float64; it still fails the maxval check
        yield min(value, maxval + 1)


# P2 decoding reads _CHUNK payload bytes per pass (more than 5); temporaries take ~20x
# that. At 256 KiB a 4 MB file decodes faster than at 1 MiB, with under half the peak memory.
# 0: a byte \s matches (9-13 and 32), 1: a digit, 2: anything else
_BYTE_KIND = np.full(256, 2, np.int8)
_BYTE_KIND[[9, 10, 11, 12, 13, 32]] = 0
_BYTE_KIND[ord("0") : ord("9") + 1] = 1


def _bulk_samples(data: bytes, pos: int, count: int) -> np.ndarray | None:
    """Decode ``count`` P2 samples from ``pos`` in bulk, as float64.

    Returns None, leaving the payload to the field reader, unless it holds
    only digits and separators, no digit run is longer than 5 and there
    are at least ``count`` runs.
    """
    # a sample takes a digit and a separator: check before allocating for the header's count
    if count > (len(data) - pos + 1) // 2:
        return None
    out = np.empty(count)
    found = 0
    while found < count and pos < len(data):
        chunk = np.frombuffer(data, np.uint8, min(_CHUNK, len(data) - pos), pos)
        kind = _BYTE_KIND.take(chunk)
        if kind.max() > 1:
            return None
        if pos + chunk.size < len(data) and kind[-1]:
            # end the chunk at its last separator, so no digit run spans two chunks
            chunk = chunk[: chunk.size - int(np.argmin(kind[::-1]))]
            kind = kind[: chunk.size]
        # digit runs start and end where the mask flips; runs alternate with gaps
        edges = np.flatnonzero(np.diff(kind.view(bool), prepend=False, append=False))
        starts, ends = edges[::2], edges[1::2]
        lengths = ends - starts
        if lengths.max(initial=0) > 5:
            return None
        take = min(count - found, ends.size)
        last, lengths = ends[:take] - 1, lengths[:take]
        values = np.zeros(take, np.int64)
        for back in range(int(lengths.max(initial=0)) - 1, -1, -1):
            # Horner over the digits, right-aligned; a shorter run reads '0' above its start
            digits = np.where(lengths > back, chunk[last - back], ord("0"))
            values = values * 10 + (digits - ord("0"))
        out[found : found + take] = values
        found += take
        pos += chunk.size
    return out if found == count else None


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
