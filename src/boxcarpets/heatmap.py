"""Deterministic heatmap rendering to binary P6 pixmaps.

A ramp is a tuple of stops ``(position, (r, g, b))`` whose positions rise
strictly from 0 to 1.  Each channel is interpolated on the ramp and rounded
straight into the 8-bit image, with no clip: ``np.interp`` gives the end
colors to any value beyond the anchors (infinities too), while a value
between two 8-bit stops rounds into 0..255.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .spectral import _check_real

SEQUENTIAL = (
    (0.00, (0, 0, 140)),
    (0.12, (0, 60, 255)),
    (0.38, (0, 220, 255)),
    (0.62, (255, 230, 0)),
    (0.88, (255, 60, 0)),
    (1.00, (150, 0, 0)),
)

DIVERGING = (
    (0.00, (0, 40, 255)),
    (0.50, (245, 245, 245)),
    (1.00, (255, 30, 0)),
)

# image rows rendered per block
_BLOCK_ROWS = 64


def render_heatmap(values: np.ndarray, stops, lo: float, hi: float) -> bytes:
    """Render a 2-D field as a binary pixmap (P6, 8-bit), bottom row first.

    ``lo`` and ``hi`` take the first and last colors of the ramp ``stops``,
    and values beyond them are clipped to those colors; equal anchors paint
    every pixel the middle of the ramp.  Identical inputs produce
    byte-identical output.  Non-finite values are rejected with their
    indices listed.
    """
    pos = [p for p, _ in stops]
    if len(pos) < 2 or pos[0] != 0.0 or pos[-1] != 1.0 or np.any(np.diff(pos) <= 0.0):
        raise DomainError("colormap stops must increase strictly from 0 to 1")
    for _, rgb in stops:
        if len(rgb) != 3 or any(ch < 0 or ch > 255 for ch in rgb):
            raise DomainError("colormap colors must be 8-bit RGB triples")
    lo, hi = _check_real(lo, "heatmap lo"), _check_real(hi, "heatmap hi")
    if lo > hi:
        raise DomainError(f"heatmap lo {lo!r} exceeds hi {hi!r}")
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.size == 0:
        raise DomainError("heatmap needs a non-empty 2-D array")
    finite = np.isfinite(v)
    if not finite.all():
        where = [(int(i), int(j)) for i, j in zip(*np.nonzero(~finite))][:8]
        raise DomainError(f"non-finite heatmap values at indices {where}")

    rgb = np.array([c for _, c in stops], dtype=float)
    height, width = v.shape
    flipped = v[::-1]  # first data row at the bottom
    pixels = np.empty((height, width, 3), dtype=np.uint8)
    # every step is elementwise, so a block of rows gets the bits of the whole
    # field while its float temporaries stay O(_BLOCK_ROWS x width)
    for start in range(0, height, _BLOCK_ROWS):
        rows = flipped[start:start + _BLOCK_ROWS]
        u = (rows - lo) / (hi - lo) if hi > lo else np.full_like(rows, 0.5)
        for i in range(3):
            pixels[start:start + _BLOCK_ROWS, :, i] = np.rint(np.interp(u, pos, rgb[:, i]))
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return b"".join((header, pixels.data))  # one copy of the pixmap, not two
