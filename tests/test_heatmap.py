import tracemalloc

import numpy as np
import pytest

import boxcarpets as bc
from boxcarpets import heatmap, products
from boxcarpets.config import apply_overrides, parse_config
from boxcarpets.errors import DomainError
from boxcarpets.heatmap import DIVERGING, SEQUENTIAL, render_heatmap


def _pixels(data: bytes, width: int, height: int) -> np.ndarray:
    head = f"P6\n{width} {height}\n255\n".encode("ascii")
    assert data.startswith(head)
    body = np.frombuffer(data[len(head):], dtype=np.uint8)
    return body.reshape(height, width, 3)


def _assert_mid_color(img):
    assert (img == img[0, 0]).all()
    # midpoint of the ramp, not an end color
    assert not np.array_equal(img[0, 0], np.array(SEQUENTIAL[0][1]))
    assert not np.array_equal(img[0, 0], np.array(SEQUENTIAL[-1][1]))


def test_constant_field_renders_mid_color():
    # a zero velocity carpet is constant, and its data range gives equal anchors
    _assert_mid_color(_pixels(bc.render_heatmap(np.full((4, 5), 3.7), SEQUENTIAL, 3.7, 3.7), 5, 4))


def test_equal_anchors_render_mid_color():
    # equal anchors paint the middle color over a field that is not constant too
    field = np.arange(20.0).reshape(4, 5)
    _assert_mid_color(_pixels(bc.render_heatmap(field, SEQUENTIAL, 3.7, 3.7), 5, 4))


def test_two_by_two_hits_anchor_colors():
    field = np.array([[0.0, 2.0], [2.0, 0.0]])
    img = _pixels(bc.render_heatmap(field, SEQUENTIAL, 0.0, 2.0), 2, 2)
    lo = np.array(SEQUENTIAL[0][1])
    hi = np.array(SEQUENTIAL[-1][1])
    # row 0 of the data is the bottom image row
    assert np.array_equal(img[1, 0], lo) and np.array_equal(img[1, 1], hi)
    assert np.array_equal(img[0, 0], hi) and np.array_equal(img[0, 1], lo)


def test_rendering_is_deterministic(state0, cfg, rev):
    grid = bc.SpaceTimeGrid.regular(cfg, 64, 32, rev.tau)
    values = bc.carpet(state0, grid).values
    top = float(values.max())
    assert bc.render_heatmap(values, SEQUENTIAL, 0.0, top) == bc.render_heatmap(values, SEQUENTIAL, 0.0, top)


def test_diverging_map_centers_on_zero():
    field = np.array([[-1.0, 0.0, 4.0]])
    img = _pixels(bc.render_heatmap(field, DIVERGING, -4.0, 4.0), 3, 1)
    mid = np.array(DIVERGING[1][1])
    assert np.array_equal(img[0, 1], mid)  # zero maps to the center color
    assert np.array_equal(img[0, 2], np.array(DIVERGING[-1][1]))


def test_nonfinite_values_rejected_with_indices():
    field = np.zeros((3, 3))
    field[1, 2] = np.nan
    with pytest.raises(DomainError) as err:
        bc.render_heatmap(field, SEQUENTIAL, 0.0, 1.0)
    assert "(1, 2)" in str(err.value)


def test_explicit_anchors_clip_out_of_range_values():
    img = _pixels(bc.render_heatmap(np.array([[-5.0, 0.5, 7.0]]), SEQUENTIAL, 0.0, 1.0), 3, 1)
    assert np.array_equal(img[0, 0], np.array(SEQUENTIAL[0][1]))
    assert np.array_equal(img[0, 2], np.array(SEQUENTIAL[-1][1]))


def test_colormap_validation():
    field = np.zeros((2, 2))
    for stops in (
        ((0.0, (0, 0, 0)), (0.5, (1, 1, 1))),  # does not end at 1
        ((0.0, (0, 0, 0)), (0.5, (1, 1, 1)), (0.5, (2, 2, 2)), (1.0, (3, 3, 3))),  # not strictly increasing
        ((0.0, (0, 0, 0)),),
    ):
        with pytest.raises(DomainError, match="increase strictly"):
            bc.render_heatmap(field, stops, 0.0, 1.0)
    for stops in (((0.0, (0, 0, 300)), (1.0, (1, 1, 1))), ((0.0, (0, 0)), (1.0, (1, 1, 1)))):
        with pytest.raises(DomainError, match="8-bit RGB"):
            bc.render_heatmap(field, stops, 0.0, 1.0)


_NOT_REAL = {
    "bool": True,
    "numpy-bool": np.bool_(False),
    "str": "2",
    "None": None,  # used to ask for an automatic anchor
    "complex": 2j,
    "array": np.array([2.0]),
    "0-d-array": np.array(2.0),
}


@pytest.mark.parametrize("anchor", ["lo", "hi"])
@pytest.mark.parametrize("bad", list(_NOT_REAL.values()), ids=list(_NOT_REAL))
def test_anchors_must_be_real_numbers(anchor, bad):
    anchors = {"lo": 0.0, "hi": 1.0} | {anchor: bad}
    with pytest.raises(DomainError, match=f"heatmap {anchor} must be a real number"):
        bc.render_heatmap(np.zeros((2, 2)), SEQUENTIAL, **anchors)


def test_anchors_must_be_ordered():
    # lo > hi used to paint every pixel the middle color
    for stops in (SEQUENTIAL, DIVERGING):
        with pytest.raises(DomainError, match="exceeds hi"):
            bc.render_heatmap(np.zeros((2, 2)), stops, 1.0, 0.0)


@pytest.mark.parametrize("anchor", ["lo", "hi"])
@pytest.mark.parametrize("good", [np.float32(2.5), np.int64(2), 2], ids=["float32", "int64", "int"])
def test_real_anchors_of_any_type_render_as_floats(anchor, good):
    field = np.array([[-1.0, 0.0, 1.0, 2.0, 2.25, 3.5]])
    anchors = {"lo": -1.0, "hi": 3.5} | {anchor: good}
    as_float = {k: float(v) for k, v in anchors.items()}
    assert bc.render_heatmap(field, SEQUENTIAL, **anchors) == bc.render_heatmap(field, SEQUENTIAL, **as_float)


def _render_whole_array(values, stops, lo, hi):
    """Reference renderer: a clipped ramp position, a stacked float image
    flipped afterwards, and a clipped rint, each over the whole field."""
    v = np.asarray(values, dtype=float)
    u = np.clip((v - lo) / (hi - lo), 0.0, 1.0) if hi > lo else np.full_like(v, 0.5)
    pos = np.array([p for p, _ in stops])
    rgb = np.array([c for _, c in stops], dtype=float)
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

    def checked(values, stops, lo, hi):
        out = render_heatmap(values, stops, lo, hi)
        assert out == _render_whole_array(values, stops, lo, hi)
        rendered.append(values.shape)
        return out

    monkeypatch.setattr(products, "render_heatmap", checked)
    manifest = products.run(apply_overrides(parse_config(""), out_dir=str(tmp_path), **overrides))
    assert not manifest["failures"]
    assert rendered


_FIELD = np.random.default_rng(7).normal(size=(37, 53))
_TALL = np.random.default_rng(8).normal(size=(2 * heatmap._BLOCK_ROWS + 13, 29))


@pytest.mark.parametrize("stops", [SEQUENTIAL, DIVERGING], ids=["sequential", "diverging"])
@pytest.mark.parametrize(
    "values, anchors",
    [
        pytest.param(_FIELD, (_FIELD.min(), _FIELD.max()), id="data-range-anchors"),
        pytest.param(np.full((6, 4), -2.5), (-2.5, -2.5), id="equal-anchors"),
        pytest.param(_FIELD, (-0.5, 0.8), id="outside-explicit-anchors"),
        # more rows than one block, and a last block that is not full
        pytest.param(_TALL, (-0.5, 0.8), id="row-blocks"),
        # the ramp position overflows to +-inf
        pytest.param(np.array([[-1e300, 0.0, 1e300], [1e300, 1e-300, -1e300]]), (-1e-300, 1e-300), id="overflow"),
    ],
)
def test_renderer_matches_the_whole_array_renderer(stops, values, anchors):
    with np.errstate(over="ignore"):
        assert render_heatmap(values, stops, *anchors) == _render_whole_array(values, stops, *anchors)


def test_render_peak_memory_is_a_few_field_copies():
    values = np.random.default_rng(3).random((1001, 1001))
    tracemalloc.start()
    try:
        render_heatmap(values, SEQUENTIAL, 0.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the field is 8 MB and the pixmap 3 MB; whole-array float images took
    # 105 MB, and whole-field temporaries 28 MB before rows went in blocks
    assert peak <= 12e6
