import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwv3.imageio import (
    FormatError,
    ImagePlanes,
    crop,
    pad_symmetric,
    padded_size,
    read_ppm,
    rgb_to_ycocgr,
    write_ppm,
    ycocgr_to_rgb,
)


class TestPpm:
    def test_smallest_legal_file(self):
        img = read_ppm(b"P6\n1 1\n255\n\x00\x00\x00")
        assert img.shape == (1, 1, 3)
        assert img[0, 0].tolist() == [0, 0, 0]

    def test_two_pixels_in_order(self):
        img = read_ppm(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
        assert img[0, 0].tolist() == [255, 0, 0]
        assert img[0, 1].tolist() == [0, 255, 0]

    def test_header_comments_and_whitespace(self):
        img = read_ppm(b"P6 # comment\n# another\n 2\t1 \n255\n" + bytes(6))
        assert img.shape == (1, 2, 3)

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            read_ppm(b"P5\n1 1\n255\n\x00")

    def test_truncated_payload(self):
        with pytest.raises(FormatError, match="truncated"):
            read_ppm(b"P6\n2 2\n255\n\x00\x00\x00")

    def test_bad_maxval(self):
        with pytest.raises(FormatError, match="maxval"):
            read_ppm(b"P6\n1 1\n65535\n\x00\x00")

    def test_writer_layout_1x1_black(self):
        data = write_ppm(np.zeros((1, 1, 3), dtype=np.uint8))
        assert data == b"P6\n1 1\n255\n" + b"\x00\x00\x00"
        assert len(data) == 14

    def test_empty_image_rejected(self):
        with pytest.raises(FormatError, match="empty"):
            write_ppm(np.zeros((0, 0, 3), dtype=np.uint8))

    def test_round_trip_random_images(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h, w = rng.integers(1, 40, 2)
            img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            assert np.array_equal(read_ppm(write_ppm(img)), img)


class TestColorTransform:
    def test_zero_fixed_point(self):
        assert _fwd1(0, 0, 0) == (0, 0, 0)

    def test_white(self):
        assert _fwd1(255, 255, 255) == (255, 0, 0)

    def test_red(self):
        assert _fwd1(255, 0, 0) == (63, 255, -127)

    def test_inverse_of_red(self):
        rgb = ycocgr_to_rgb(np.array(63), np.array(255), np.array(-127))
        assert rgb.reshape(3).tolist() == [255, 0, 0]

    def test_exhaustive_single_channel_sweeps(self):
        for fixed in (0, 128, 255):
            v = np.arange(256, dtype=np.uint8)
            for axis in range(3):
                rgb = np.full((256, 1, 3), fixed, dtype=np.uint8)
                rgb[:, 0, axis] = v
                back = ycocgr_to_rgb(*rgb_to_ycocgr(rgb))
                assert np.array_equal(back, rgb.astype(np.int32))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_bijection_random_triples(self, r, g, b):
        rgb = np.array([[[r, g, b]]], dtype=np.uint8)
        back = ycocgr_to_rgb(*rgb_to_ycocgr(rgb))
        assert np.array_equal(back, rgb.astype(np.int32))

    def test_bijection_bulk_fuzz(self):
        rng = np.random.default_rng(7)
        rgb = rng.integers(0, 256, (1000, 1000, 3), dtype=np.uint8)
        back = ycocgr_to_rgb(*rgb_to_ycocgr(rgb))
        assert np.array_equal(back, rgb.astype(np.int32))

    def test_output_ranges(self):
        rng = np.random.default_rng(8)
        rgb = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
        y, co, cg = rgb_to_ycocgr(rgb)
        assert y.min() >= 0 and y.max() <= 255
        assert co.min() >= -255 and co.max() <= 255
        assert cg.min() >= -255 and cg.max() <= 255


def _fwd1(r, g, b):
    y, co, cg = rgb_to_ycocgr(np.array([[[r, g, b]]], dtype=np.uint8))
    return int(y[0, 0]), int(co[0, 0]), int(cg[0, 0])


class TestPadding:
    def test_already_divisible_unchanged(self):
        plane = np.arange(64).reshape(8, 8)
        out = pad_symmetric(plane, 3)
        assert out is plane

    def test_mirror_rule_1d(self):
        plane = np.array([[1, 2, 3]])
        out = pad_symmetric(np.vstack([plane, plane]), 1)
        assert out.shape == (2, 4)
        assert out[0].tolist() == [1, 2, 3, 2]

    def test_pad_then_crop_identity_5x5(self):
        rng = np.random.default_rng(1)
        plane = rng.integers(-100, 100, (5, 5))
        out = pad_symmetric(plane, 2)
        assert out.shape == (8, 8)
        assert np.array_equal(crop(out, 5, 5), plane)

    def test_pad_crop_identity_all_sizes(self):
        rng = np.random.default_rng(2)
        for h in range(1, 66, 7):
            for w in range(1, 66, 5):
                plane = rng.integers(-255, 256, (h, w)).astype(np.int16)
                for levels in (1, 3):
                    padded = pad_symmetric(plane, levels)
                    assert padded.shape[0] % (1 << levels) == 0
                    assert padded.shape[1] % (1 << levels) == 0
                    assert np.array_equal(crop(padded, h, w), plane)
        # a 1-wide axis repeats its lone sample, at every level
        for shape in ((1, 1), (1, 7), (7, 1), (1, 16), (16, 1)):
            plane = rng.integers(-255, 256, shape).astype(np.int16)
            for levels in (1, 2, 3, 4):
                padded = pad_symmetric(plane, levels)
                assert padded.dtype == np.int16
                assert padded.shape == (padded_size(shape[0], levels),
                                        padded_size(shape[1], levels))
                assert np.array_equal(crop(padded, *shape), plane)
                if shape[0] == 1:
                    assert np.all(padded == padded[:1])
                if shape[1] == 1:
                    assert np.all(padded == padded[:, :1])

    def test_empty_plane_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pad_symmetric(np.zeros((0, 3)), 1)

    def test_padded_size(self):
        assert padded_size(5, 2) == 8
        assert padded_size(8, 3) == 8
        assert padded_size(9, 3) == 16


class TestImagePlanes:
    def test_from_rgb_round_trip(self):
        rng = np.random.default_rng(3)
        rgb = rng.integers(0, 256, (13, 21, 3), dtype=np.uint8)
        planes = ImagePlanes.from_rgb(rgb, levels=3)
        assert planes.y.shape == (16, 24)
        assert np.array_equal(planes.to_rgb(), rgb)

    def test_geometry_fields(self):
        rgb = np.zeros((5, 6, 3), dtype=np.uint8)
        planes = ImagePlanes.from_rgb(rgb, levels=2)
        assert (planes.true_width, planes.true_height) == (6, 5)
        assert all(p.shape == (8, 8) for p in planes.planes)
