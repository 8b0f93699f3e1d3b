import tracemalloc

import numpy as np
import pytest

import boxcarpets as bc
from boxcarpets import products
from boxcarpets.config import apply_overrides, parse_config
from boxcarpets.errors import DomainError
from boxcarpets.heatmap import DIVERGING, SEQUENTIAL, render_heatmap


def _pixels(data: bytes, width: int, height: int) -> np.ndarray:
    head = f"P6\n{width} {height}\n255\n".encode("ascii")
    assert data.startswith(head)
    body = np.frombuffer(data[len(head):], dtype=np.uint8)
    return body.reshape(height, width, 3)


def test_constant_field_renders_mid_color():
    img = _pixels(bc.render_heatmap(np.full((4, 5), 3.7), SEQUENTIAL), 5, 4)
    assert (img == img[0, 0]).all()
    # midpoint of the ramp, not an end color
    assert not np.array_equal(img[0, 0], np.array(SEQUENTIAL.stops[0][1]))
    assert not np.array_equal(img[0, 0], np.array(SEQUENTIAL.stops[-1][1]))


def test_two_by_two_hits_anchor_colors():
    field = np.array([[0.0, 2.0], [2.0, 0.0]])
    img = _pixels(bc.render_heatmap(field, SEQUENTIAL), 2, 2)
    lo = np.array(SEQUENTIAL.stops[0][1])
    hi = np.array(SEQUENTIAL.stops[-1][1])
    # row 0 of the data is the bottom image row
    assert np.array_equal(img[1, 0], lo) and np.array_equal(img[1, 1], hi)
    assert np.array_equal(img[0, 0], hi) and np.array_equal(img[0, 1], lo)


def test_rendering_is_deterministic(state0, cfg, rev):
    grid = bc.SpaceTimeGrid.regular(cfg, 64, 32, rev.tau)
    values = bc.carpet(state0, grid).values
    assert bc.render_heatmap(values) == bc.render_heatmap(values)


def test_diverging_map_centers_on_zero():
    field = np.array([[-1.0, 0.0, 4.0]])
    img = _pixels(bc.render_heatmap(field, DIVERGING), 3, 1)
    mid = np.array(DIVERGING.stops[1][1])
    assert np.array_equal(img[0, 1], mid)  # zero maps to the center color
    assert np.array_equal(img[0, 2], np.array(DIVERGING.stops[-1][1]))


def test_nonfinite_values_rejected_with_indices():
    field = np.zeros((3, 3))
    field[1, 2] = np.nan
    with pytest.raises(DomainError) as err:
        bc.render_heatmap(field)
    assert "(1, 2)" in str(err.value)


def test_explicit_anchors_clip_out_of_range_values():
    cmap = bc.ColorMap(kind="sequential", stops=SEQUENTIAL.stops, vmin=0.0, vmax=1.0)
    img = _pixels(bc.render_heatmap(np.array([[-5.0, 0.5, 7.0]]), cmap), 3, 1)
    assert np.array_equal(img[0, 0], np.array(SEQUENTIAL.stops[0][1]))
    assert np.array_equal(img[0, 2], np.array(SEQUENTIAL.stops[-1][1]))


def test_colormap_validation():
    with pytest.raises(DomainError):
        bc.ColorMap(kind="linear", stops=SEQUENTIAL.stops)
    with pytest.raises(DomainError):
        bc.ColorMap(kind="sequential", stops=((0.0, (0, 0, 0)), (0.5, (1, 1, 1))))
    with pytest.raises(DomainError):
        bc.ColorMap(kind="sequential", stops=((0.0, (0, 0, 300)), (1.0, (1, 1, 1))))


def test_colormap_rejects_inconsistent_anchors():
    # vmin > vmax used to paint every pixel the middle color, and a lone
    # diverging anchor used to be dropped for the automatic symmetric pair
    for kind, stops in (("sequential", SEQUENTIAL.stops), ("diverging", DIVERGING.stops)):
        with pytest.raises(DomainError, match="exceeds vmax"):
            bc.ColorMap(kind, stops, vmin=1.0, vmax=0.0)
        # equal anchors stay allowed: a zero velocity carpet gives them
        assert bc.ColorMap(kind, stops, vmin=0.0, vmax=0.0).anchors(np.zeros((2, 2))) == (0.0, 0.0)
    for anchor in ("vmin", "vmax"):
        with pytest.raises(DomainError, match="both anchors"):
            bc.ColorMap("diverging", DIVERGING.stops, **{anchor: 0.5})
    # a lone sequential anchor beyond the data used to paint every pixel the
    # middle color: the anchor taken from the data ends on its wrong side
    data = np.array([[1.0, 2.0]])
    for anchor, value in (("vmin", 5.0), ("vmax", 0.5)):
        cmap = bc.ColorMap("sequential", SEQUENTIAL.stops, **{anchor: value})
        with pytest.raises(DomainError, match="inverted"):
            bc.render_heatmap(data, cmap)
    assert bc.ColorMap("sequential", SEQUENTIAL.stops, vmin=1.5).anchors(data) == (1.5, 2.0)
    assert bc.ColorMap("sequential", SEQUENTIAL.stops, vmin=2.0).anchors(data) == (2.0, 2.0)


def _render_whole_array(values, cmap):
    """Reference renderer: a clipped ramp position, a stacked float image
    flipped afterwards, and a clipped rint, each over the whole field."""
    v = np.asarray(values, dtype=float)
    lo, hi = cmap.anchors(v)
    u = np.clip((v - lo) / (hi - lo), 0.0, 1.0) if hi > lo else np.full_like(v, 0.5)
    pos = np.array([p for p, _ in cmap.stops])
    rgb = np.array([c for _, c in cmap.stops], dtype=float)
    img = np.stack([np.interp(u, pos, rgb[:, i]) for i in range(3)], axis=-1)[::-1]
    pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    height, width = v.shape
    return f"P6\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"products": ("carpet",)}, id="carpet-density"),
        pytest.param({"products": ("carpet",), "quantity": "velocity"}, id="carpet-velocity"),
        pytest.param({"products": ("carpet",), "gamma": 0.0, "x0": 20.0}, id="carpet-coherent-x0-20"),
        pytest.param({"products": ("densmat",)}, id="densmat"),
        pytest.param({"products": ("decaymap",)}, id="decaymap-log"),
    ],
)
def test_default_product_images_match_the_whole_array_renderer(tmp_path, monkeypatch, overrides):
    rendered = []

    def checked(values, cmap):
        out = render_heatmap(values, cmap)
        assert out == _render_whole_array(values, cmap)
        rendered.append(values.shape)
        return out

    monkeypatch.setattr(products, "render_heatmap", checked)
    manifest = products.run(apply_overrides(parse_config(""), out_dir=str(tmp_path), **overrides))
    assert not manifest["failures"]
    assert rendered


_FIELD = np.random.default_rng(7).normal(size=(37, 53))


@pytest.mark.parametrize("base", [SEQUENTIAL, DIVERGING], ids=["sequential", "diverging"])
@pytest.mark.parametrize(
    "values, anchors",
    [
        pytest.param(_FIELD, (None, None), id="automatic-anchors"),
        pytest.param(np.full((6, 4), -2.5), (None, None), id="constant"),
        pytest.param(_FIELD, (-0.5, 0.8), id="outside-explicit-anchors"),
        # the ramp position overflows to +-inf
        pytest.param(np.array([[-1e300, 0.0, 1e300], [1e300, 1e-300, -1e300]]), (-1e-300, 1e-300), id="overflow"),
    ],
)
def test_renderer_matches_the_whole_array_renderer(base, values, anchors):
    cmap = bc.ColorMap(kind=base.kind, stops=base.stops, vmin=anchors[0], vmax=anchors[1])
    with np.errstate(over="ignore"):
        assert render_heatmap(values, cmap) == _render_whole_array(values, cmap)


def test_render_peak_memory_is_a_few_field_copies():
    values = np.random.default_rng(3).random((1001, 1001))
    tracemalloc.start()
    try:
        render_heatmap(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the field is 8 MB and the pixmap 3 MB; whole-array float images took 105 MB
    assert peak <= 40e6
