"""Built-in test images so runs need no external data."""

from __future__ import annotations

import numpy as np

from .imaging import Image, _check_block_size

KINDS = ("flat", "checkerboard", "gradient")


def synthetic_image(kind: str, block_size: int = 32) -> Image:
    """A 3x3-block image of the requested kind.

    flat: constant 0.5.  checkerboard: flat except the center block,
    which alternates 0/1 per pixel (a dense-spectrum block among nearly
    empty ones).  gradient: horizontal ramp from 0 to 1.
    """
    _check_block_size(block_size)
    side = 3 * block_size
    if kind == "flat":
        pixels = np.full((side, side), 0.5)
    elif kind == "checkerboard":
        pixels = np.full((side, side), 0.5)
        checker = (np.add.outer(np.arange(block_size), np.arange(block_size)) % 2).astype(float)
        pixels[block_size : 2 * block_size, block_size : 2 * block_size] = checker
    elif kind == "gradient":
        ramp = np.linspace(0.0, 1.0, side)
        pixels = np.tile(ramp, (side, 1))
    else:
        raise ValueError(f"unknown synthetic kind {kind!r} (want one of {KINDS})")
    return Image(pixels)
