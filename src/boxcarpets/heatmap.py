"""Deterministic heatmap rendering to binary P6 pixmaps.

Each channel is interpolated on the unit ramp and rounded straight into the
8-bit image, with no clip: ``ColorMap`` pins its stops to 0 and 1, and
``np.interp`` gives the end colors to any value beyond them (infinities
too), while a value between two 8-bit stops rounds into 0..255.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import _check_real


@dataclass(frozen=True)
class ColorMap:
    """Piecewise-linear RGB ramp with optional value anchors.

    ``kind`` 'sequential' anchors at the data range; 'diverging' centers the
    ramp on zero with symmetric anchors.  Explicit ``vmin``/``vmax`` override
    the automatic anchors; values outside are clipped to the end colors.  A
    diverging map takes both anchors or neither, and ``vmin`` may not exceed
    ``vmax``.
    """

    kind: str
    stops: tuple[tuple[float, tuple[int, int, int]], ...]
    vmin: float | None = None
    vmax: float | None = None

    def __post_init__(self):
        if self.kind not in ("sequential", "diverging"):
            raise DomainError(f"colormap kind must be 'sequential' or 'diverging', got {self.kind!r}")
        pos = [p for p, _ in self.stops]
        if len(pos) < 2 or pos[0] != 0.0 or pos[-1] != 1.0 or np.any(np.diff(pos) <= 0.0):
            raise DomainError("colormap stops must increase strictly from 0 to 1")
        for _, rgb in self.stops:
            if len(rgb) != 3 or any(ch < 0 or ch > 255 for ch in rgb):
                raise DomainError("colormap colors must be 8-bit RGB triples")
        for name in ("vmin", "vmax"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _check_real(getattr(self, name), f"colormap {name}"))
        if self.vmin is not None and self.vmax is not None and self.vmin > self.vmax:
            raise DomainError(f"colormap vmin {self.vmin!r} exceeds vmax {self.vmax!r}")
        if self.kind == "diverging" and (self.vmin is None) != (self.vmax is None):
            raise DomainError("a diverging colormap takes both anchors vmin and vmax, or neither")

    def anchors(self, values: np.ndarray) -> tuple[float, float]:
        lo = float(values.min()) if self.vmin is None else self.vmin
        hi = float(values.max()) if self.vmax is None else self.vmax
        if self.kind == "diverging" and self.vmin is None:
            a = max(abs(lo), abs(hi))
            lo, hi = -a, a
        if lo > hi:
            # only one anchor was given, and the data lie wholly on its far side
            raise DomainError(f"colormap anchors ({lo!r}, {hi!r}) are inverted: the data lie beyond the given one")
        return lo, hi


SEQUENTIAL = ColorMap(
    kind="sequential",
    stops=(
        (0.00, (0, 0, 140)),
        (0.12, (0, 60, 255)),
        (0.38, (0, 220, 255)),
        (0.62, (255, 230, 0)),
        (0.88, (255, 60, 0)),
        (1.00, (150, 0, 0)),
    ),
)

DIVERGING = ColorMap(
    kind="diverging",
    stops=(
        (0.00, (0, 40, 255)),
        (0.50, (245, 245, 245)),
        (1.00, (255, 30, 0)),
    ),
)


def render_heatmap(values: np.ndarray, cmap: ColorMap = SEQUENTIAL) -> bytes:
    """Render a 2-D field as a binary pixmap (P6, 8-bit), bottom row first.

    Identical inputs produce byte-identical output.  Non-finite values are
    rejected with their indices listed.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.size == 0:
        raise DomainError("heatmap needs a non-empty 2-D array")
    finite = np.isfinite(v)
    if not finite.all():
        where = [(int(i), int(j)) for i, j in zip(*np.nonzero(~finite))][:8]
        raise DomainError(f"non-finite heatmap values at indices {where}")

    lo, hi = cmap.anchors(v)
    u = (v[::-1] - lo) / (hi - lo) if hi > lo else np.full_like(v, 0.5)  # first data row at the bottom
    pos = np.array([p for p, _ in cmap.stops])
    rgb = np.array([c for _, c in cmap.stops], dtype=float)
    height, width = v.shape
    pixels = np.empty((height, width, 3), dtype=np.uint8)
    for i in range(3):
        pixels[..., i] = np.rint(np.interp(u, pos, rgb[:, i]))
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + pixels.tobytes()
