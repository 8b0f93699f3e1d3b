"""The bulk CSV formatter against ``fmt`` ('%.17g'), byte for byte."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxcarpets as bc
from boxcarpets import csvio, products


def fmt_rows(first, rows):
    """The reference: every value through ``fmt``, joined by commas, one line per row."""
    return "".join(",".join(csvio.fmt(v) for v in [lead, *row]) + "\n" for lead, row in zip(first, rows)).encode()


def assert_rows_match(values, width=10):
    values = np.asarray(values, dtype=float).ravel()
    values = values[: values.size // width * width].reshape(-1, width)
    got = csvio._format_rows(values[:, 0], values[:, 1:])
    want = fmt_rows(values[:, 0], values[:, 1:])
    if got != want:
        for got_line, want_line in zip(got.split(b"\n"), want.split(b"\n")):
            assert got_line.split(b",") == want_line.split(b",")
    assert got == want


def edge_values():
    """Every power of two and of ten with both 1-ulp neighbours, and the special values."""
    centers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    centers = np.array(centers)
    out = np.concatenate([centers, np.nextafter(centers, 0.0), np.nextafter(centers, np.inf)])
    special = [0.0, -0.0, 5e-324, np.nextafter(2.2250738585072014e-308, 0.0), 2.0**-25,
               np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), np.nextafter(1e17, 0.0),
               np.nextafter(1e17, np.inf), 1e16, 1e17, np.nan, np.inf, -np.inf]
    out = np.concatenate([out, special])
    return np.concatenate([out, -out])


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 4).flatmap(
        lambda rows: st.integers(0, 6).flatmap(
            lambda cols: st.lists(
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=rows * (cols + 1),
                max_size=rows * (cols + 1),
            ).map(lambda vals: np.array(vals, dtype=float).reshape(rows, cols + 1))
        )
    )
)
def test_format_rows_matches_fmt_property(block):
    assert csvio._format_rows(block[:, 0], block[:, 1:]) == fmt_rows(block[:, 0], block[:, 1:])


def test_format_rows_matches_fmt_on_random_bit_patterns():
    rng = np.random.default_rng(20240611)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
    assert_rows_match(bits.view(np.float64), width=100)


def test_format_rows_matches_fmt_on_edge_values():
    values = edge_values()
    assert_rows_match(values)
    # 2**-25 = 2.98023223876953125e-08 is an exact tie, rounded half to even
    assert csvio._format_rows([2.0**-25], np.empty((1, 0))) == b"2.9802322387695312e-08\n"
    assert csvio._format_rows([-0.0], [[0.0, 5e-324]]) == b"-0,0,4.9406564584124654e-324\n"


def test_power_table_is_within_2_pow_minus_104():
    bound = Fraction(1, 2**104)
    for i, p in enumerate(range(csvio._P_MIN, csvio._P_MAX + 1)):
        exact = Fraction(10) ** p
        approx = (Fraction(float(csvio._HI[i])) + Fraction(float(csvio._LO[i]))) * Fraction(2) ** int(csvio._EXP[i])
        assert 1.0 <= csvio._HI[i] < 2.0
        assert abs(approx - exact) <= bound * exact, p
        assert csvio._HI_HI[i] + csvio._HI_LO[i] == csvio._HI[i]


def test_fallback_route_gives_the_same_bytes(monkeypatch):
    # with the tie tolerance above 1/2 every finite nonzero value goes to fmt
    values = np.concatenate([edge_values()[::7], np.random.default_rng(3).standard_normal(500)])
    values = values[: values.size // 10 * 10].reshape(-1, 10)
    fast = csvio._format_rows(values[:, 0], values[:, 1:])
    calls = []
    fmt = csvio.fmt
    monkeypatch.setattr(csvio, "_TIE_TOL", 1.0)
    monkeypatch.setattr(csvio, "fmt", lambda v: calls.append(v) or fmt(v))
    assert csvio._format_rows(values[:, 0], values[:, 1:]) == fast
    assert len(calls) == np.count_nonzero(values != 0.0)


def test_default_density_carpet_rarely_needs_fmt(monkeypatch, tmp_path):
    config = bc.parse_config("")
    tau = bc.revival_times(config.cavity).tau
    grid = bc.SpaceTimeGrid.regular(config.cavity, 1001, 1001, 8.0 * tau)
    cp = bc.carpet(products.build_state(config), grid, params=config.deco)
    assert np.count_nonzero(cp.values == 0.0) > 1000  # the walls: zeros stay on the fast route
    calls = []
    fmt = csvio.fmt
    monkeypatch.setattr(csvio, "fmt", lambda v: calls.append(v) or fmt(v))
    csvio.write_carpet(cp, tmp_path / "c.csv")
    assert len(calls) <= 100  # of 1,003,002 values
    lines = (tmp_path / "c.csv").read_bytes().split(b"\n")
    assert lines[1] == ("t," + ",".join(fmt(x) for x in grid.x)).encode()
    assert lines[2 + 500] == fmt_rows(grid.t[500:501], cp.values[500:501]).rstrip(b"\n")


@pytest.mark.parametrize("columns, block", [(1, 512), (20, 48), (50, 20), (401, 8), (1001, 8)])
def test_grid_blocks_hold_about_1024_values_and_at_least_8_rows(monkeypatch, tmp_path, columns, block):
    # a purity curve, a trajectory ensemble, a mode matrix, a densmat plane and a carpet
    rows = np.random.default_rng(columns).standard_normal((600, columns))
    first = np.arange(600.0)
    sizes = []
    format_rows = csvio._format_rows
    monkeypatch.setattr(csvio, "_format_rows", lambda f, r: sizes.append(len(f)) or format_rows(f, r))
    csvio._write_grid(tmp_path / "g.csv", b"head\n", first, rows)
    assert sizes == [block] * (600 // block) + ([600 % block] if 600 % block else [])
    assert (tmp_path / "g.csv").read_bytes() == b"head\n" + fmt_rows(first, rows)


def test_mode_matrix_keeps_the_sign_of_infinity(tmp_path):
    csvio.write_mode_matrix([[1.0, -np.inf], [np.inf, 0.0]], tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_text().splitlines()[1:] == ["alpha,1,2", "1,1,-inf", "2,inf,0"]


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (5 << 19) + 3])
def test_manifest_checksum_is_the_whole_file_digest(tmp_path, size):
    path = tmp_path / "f.bin"
    path.write_bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes())
    assert products._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()
