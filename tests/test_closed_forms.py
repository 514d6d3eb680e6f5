import numpy as np
import pytest

from tgeom import (
    Multivector,
    TubeSpec,
    case1_asymptotic_slope,
    case1_closed_residual,
    case1_radii,
    case1_waist,
    case2_asymptotic_radius,
    sample_axisymmetric_tube,
    tube_residual,
)
from conftest import world

MINK = np.diag([1.0, -1.0, -1.0, -1.0])


def test_waist_golden_values():
    # frozen from the waist equation directly (the commonly quoted 7-digit
    # decimals 0.0755712 / 9.9244288 are off by ~1e-7 in the last digit)
    want = (0.07557109910194759, 9.924428900898052)
    assert case1_radii(0.5, 0.1) == pytest.approx(list(want), rel=1e-12)
    waist = case1_waist(0.1)
    assert waist == pytest.approx(want, rel=1e-12)
    assert waist == pytest.approx((0.0755712, 9.9244288), abs=1.5e-7)


def test_waist_emptiness():
    assert case1_waist(0.6) is None  # above the critical strength 1/sqrt(3)
    assert case1_radii(0.5, 0.8) == []


def test_waist_small_g_asymptotics():
    r1, r2 = case1_waist(0.01)
    assert r1 / (0.75 * 0.01) == pytest.approx(1.0, abs=2e-3)
    assert r2 * 0.01 == pytest.approx(1.0, abs=2e-3)


@pytest.mark.parametrize("g", [1e-5, 1e-8, 1e-9, 1e-300])
def test_waist_tiny_g_keeps_both_radii(g):
    # 1 - sqrt(1 - 3 g^2) cancels to nothing here: the waist still exists,
    # with inner 3g/4 and outer 1/g - 3g/4 to the next order in g
    r1, r2 = case1_waist(g)
    assert r1 == pytest.approx(0.75 * g, rel=1e-9)
    assert r2 == pytest.approx(1.0 / g - 0.75 * g, rel=1e-14)
    assert r2 == case1_radii(0.5, g)[-1]


def test_radii_at_crossings():
    # the two profile sheets cross at the skeleton parameters, where the
    # inner radius vanishes; the outer sheet stays at 1/g there
    for tau in (0.0, 1.0):
        radii = case1_radii(tau, 0.1)
        assert radii[0] == 0.0
        assert radii[1] == pytest.approx(10.0, rel=1e-12)


def test_radii_reflection_symmetry():
    for g in (0.1, 0.3, 0.5):
        for tau in np.linspace(-1, 2, 31):
            a = case1_radii(tau, g)
            b = case1_radii(1.0 - tau, g)
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert x == pytest.approx(y, rel=1e-14, abs=1e-14)


def test_radii_and_waist_agree():
    for g in np.linspace(0.02, 0.55, 20):
        waist = case1_waist(g)
        radii = case1_radii(0.5, g)
        assert waist is not None
        assert radii[0] == pytest.approx(waist[0], rel=1e-12)
        assert radii[-1] == pytest.approx(waist[1], rel=1e-12)


def test_asymptotic_slope_value():
    assert case1_asymptotic_slope() == pytest.approx(1.7320508, abs=1e-7)


def test_asymptotic_band_at_moderate_parameter():
    # the outer branch sits within 1% of the limiting slope at tau = 100 for
    # moderate-to-strong asymmetry (the offset scales like 1/(2 g tau))
    slope = case1_asymptotic_slope()
    for g in (0.3, 0.5):
        r = case1_radii(100.0, g)[-1]
        assert abs(r / 100.0 - slope) / slope < 0.01


def test_asymptotic_slope_consistency():
    # outer branch over tau approaches the slope like 1/(2 g tau); document
    # the measured first-order approach rate
    g = 0.1
    slope = case1_asymptotic_slope()
    for tau in (1e3, 1e4, 1e5):
        r = case1_radii(tau, g)[-1]
        expected_offset = (1.0 / (2 * g) - slope / 2.0) / tau
        assert r / tau - slope == pytest.approx(expected_offset, rel=1e-2)
    # reflection symmetry transfers the limit to large negative tau
    r_neg = case1_radii(-1e5 , g)[-1]
    r_pos = case1_radii(1.0 + 1e5, g)[-1]
    assert r_neg == pytest.approx(r_pos, rel=1e-14)


def test_case2_asymptotic_radius():
    assert case2_asymptotic_radius(0.2, 1.0, 1.0) == pytest.approx(0.1)
    assert case2_asymptotic_radius(0.0, 1.0, 1.0) == 0.0
    assert case2_asymptotic_radius(0.2, 0.0, 2.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        case2_asymptotic_radius(0.2, 1.0, -1.0)


def test_case1_closed_residual_zero_on_line_when_symmetric():
    y = np.array([1.0, 0, 0, 0])
    for tau in (0.3, 0.7, 2.0):
        assert case1_closed_residual(tau * y, y, 0.0, [1, 0, 0, 0]) == pytest.approx(0.0, abs=1e-14)


def test_case1_closed_residual_nonzero_on_axis_when_asymmetric():
    y = np.array([1.0, 0, 0, 0])
    for tau in (0.3, 0.7, 2.0):
        val = case1_closed_residual(tau * y, y, 0.2, [1, 0, 0, 0])
        assert abs(val) > 1e-6


def test_case1_closed_residual_matches_gram_zero_set(case1):
    # points sampled on the tube satisfy the closed-form residual; the two
    # residuals are exact negatives of each other
    y = np.array([1.0, 0, 0, 0])
    w = world("case1", b=[1, 0, 0, 0], alpha=0.1)
    spec = TubeSpec(Multivector(np.array([np.zeros(4), y])))
    for tau, radii in sample_axisymmetric_tube(w, y, "n", [0.3, 0.5, 0.8]):
        for r in radii:
            point = np.array([tau, r, 0.0, 0.0])
            closed = case1_closed_residual(point, y, 0.1, [1, 0, 0, 0])
            gramres = tube_residual(w, spec, point)
            scale = (1.0 + tau * tau + r * r) ** 2
            assert abs(closed) < 1e-8 * scale
            assert closed == pytest.approx(-gramres, rel=1e-9, abs=1e-10 * scale)


def test_case1_closed_residual_validates():
    with pytest.raises(ValueError):
        case1_closed_residual(np.zeros(3), np.zeros(4), 0.1, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        case1_radii(0.5, 0.0)
