import math

import numpy as np
import pytest

from kinematica.affine import (
    AffineElement,
    Event,
    WorldLine,
    act,
    compose,
    inverse,
    transform_worldline,
)
from kinematica.classify import CaseLabel
from kinematica.groups import boost_closed_form, k_element, membership


def galilei_map(v, translation=None):
    n = len(v)
    linear = boost_closed_form(np.asarray(v, dtype=float), 0.0)
    if translation is None:
        translation = np.zeros(n + 1)
    return AffineElement(linear, translation)


def test_event_round_trip():
    x = Event([1.0, 2.0], 3.0)
    assert x.n == 2
    np.testing.assert_array_equal(x.vector(), [1.0, 2.0, 3.0])
    y = Event.from_vector([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(y.r, x.r)
    assert y.t == x.t


def test_event_validation():
    with pytest.raises(ValueError):
        Event(np.eye(2), 0.0)


def test_worldline_needs_exactly_one_parametrization():
    origin = Event([0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        WorldLine(origin)
    with pytest.raises(ValueError):
        WorldLine(origin, velocity=np.zeros(2), direction=np.zeros(3))
    with pytest.raises(ValueError):
        WorldLine(origin, velocity=np.zeros(3))
    with pytest.raises(ValueError):
        WorldLine(origin, direction=np.zeros(2))
    with pytest.raises(ValueError):
        WorldLine(origin, direction=np.zeros(3))


def test_worldline_kinds_and_points():
    origin = Event([1.0, 0.0], 2.0)
    timelike = WorldLine(origin, velocity=[0.5, 0.0])
    assert timelike.kind == "timelike"
    p = timelike.point(2.0)
    np.testing.assert_allclose(p.r, [2.0, 0.0])
    assert p.t == 4.0
    assert timelike.speed() == 0.5

    general = WorldLine(origin, direction=[1.0, 0.0, 0.0])
    assert general.kind == "general"
    q = general.point(3.0)
    np.testing.assert_allclose(q.r, [4.0, 0.0])
    assert q.t == 2.0
    with pytest.raises(ValueError):
        general.speed()


def test_worldline_speed_of_general_direction():
    line = WorldLine(Event([0.0, 0.0], 0.0), direction=[3.0, 0.0, 2.0])
    assert line.speed() == 1.5


def test_affine_element_validation():
    with pytest.raises(ValueError):
        AffineElement(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        AffineElement(np.eye(3), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        AffineElement(np.full((2, 2), np.nan), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        AffineElement(np.eye(2), np.array([0.0, np.inf]))
    g = AffineElement.identity(3)
    assert g.dim == 3
    np.testing.assert_array_equal(g.linear, np.eye(3))


def test_as_matrix_is_multiplicative():
    # oracle: the (dim+1) embedding turns composition into a single matmul
    rng = np.random.default_rng(40)
    for _ in range(10):
        g = AffineElement(rng.standard_normal((3, 3)), rng.standard_normal(3))
        h = AffineElement(rng.standard_normal((3, 3)), rng.standard_normal(3))
        lhs = compose(g, h).as_matrix()
        rhs = g.as_matrix() @ h.as_matrix()
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(AffineElement.identity(3), AffineElement.identity(4))


def test_inverse_round_trip():
    rng = np.random.default_rng(41)
    g = AffineElement(rng.standard_normal((3, 3)) + 2.0 * np.eye(3),
                      rng.standard_normal(3))
    gi = inverse(g)
    round_trip = compose(g, gi)
    np.testing.assert_allclose(round_trip.linear, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(round_trip.translation, np.zeros(3), atol=1e-12)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse(AffineElement(np.zeros((3, 3)), np.zeros(3)))


def test_act_matches_direct_formula():
    g = galilei_map([0.3, -0.2], translation=np.array([1.0, 2.0, 0.5]))
    x = Event([1.0, 1.0], 2.0)
    y = act(g, x)
    np.testing.assert_allclose(y.r, [1.0 + 0.3 * 2.0 + 1.0,
                                     1.0 - 0.2 * 2.0 + 2.0], atol=1e-14)
    assert y.t == pytest.approx(2.5, abs=1e-15)


def test_act_dimension_check():
    with pytest.raises(ValueError):
        act(AffineElement.identity(3), Event([0.0, 0.0, 0.0], 0.0))


def test_act_is_equivariant_with_compose():
    rng = np.random.default_rng(42)
    g = AffineElement(rng.standard_normal((3, 3)), rng.standard_normal(3))
    h = AffineElement(rng.standard_normal((3, 3)), rng.standard_normal(3))
    x = Event(rng.standard_normal(2), 0.7)
    lhs = act(compose(g, h), x).vector()
    rhs = act(g, act(h, x)).vector()
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_transform_worldline_identity():
    line = WorldLine(Event([1.0, 2.0], 0.5), velocity=[0.1, -0.2])
    image = transform_worldline(AffineElement.identity(3), line)
    assert image.kind == "timelike"
    np.testing.assert_allclose(image.velocity, line.velocity, atol=1e-15)
    np.testing.assert_allclose(image.origin.vector(), line.origin.vector(),
                               atol=1e-15)


def test_galilei_boost_adds_velocities():
    v = np.array([0.4, -0.1])
    u = np.array([0.25, 0.5])
    line = WorldLine(Event([0.0, 0.0], 0.0), velocity=u)
    image = transform_worldline(galilei_map(v), line)
    assert image.kind == "timelike"
    np.testing.assert_allclose(image.velocity, u + v, atol=1e-12)


def test_lorentz_boost_composes_velocities_relativistically():
    # oracle: the rapidity form of the velocity composition law
    w = 0.8
    u = 0.3
    linear = boost_closed_form(np.array([w, 0.0]), 1.0)
    gmap = AffineElement(linear, np.zeros(3))
    line = WorldLine(Event([0.0, 0.0], 0.0), velocity=[u, 0.0])
    image = transform_worldline(gmap, line)
    expected = (u + math.tanh(w)) / (1.0 + u * math.tanh(w))
    np.testing.assert_allclose(image.velocity, [expected, 0.0], atol=1e-12)


def test_carroll_map_can_remove_the_time_advance():
    # a Carroll boost tuned against the line's velocity produces an image
    # with no time advance at all
    w = np.array([-0.5, 0.0])
    linear = boost_closed_form(w, math.inf)
    gmap = AffineElement(linear, np.zeros(3))
    line = WorldLine(Event([0.0, 0.0], 0.0), velocity=[2.0, 0.0])
    image = transform_worldline(gmap, line)
    assert image.kind == "general"
    np.testing.assert_allclose(image.direction, [2.0, 0.0, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        image.speed()


def test_transform_worldline_rejects_point_images():
    squash = AffineElement(np.zeros((3, 3)), np.ones(3))
    line = WorldLine(Event([0.0, 0.0], 0.0), velocity=[1.0, 0.0])
    with pytest.raises(ValueError):
        transform_worldline(squash, line)


def test_membership_affine_translations():
    g = AffineElement(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert membership(g.linear, CaseLabel.LORENTZ, 1.0)
    assert membership(g.linear, CaseLabel.GALILEI)
    assert membership(g.linear, CaseLabel.ORTHOGONAL, -1.0)
    assert membership(g.linear, CaseLabel.CARROLL)
    assert membership(g.linear, CaseLabel.ARISTOTLE)


def test_membership_affine_uses_the_linear_part():
    boost = boost_closed_form(np.array([0.6, 0.0]), 1.0)
    g = AffineElement(boost, np.array([0.0, 1.0, 2.0]))
    assert membership(g.linear, CaseLabel.LORENTZ, 1.0)
    assert not membership(g.linear, CaseLabel.GALILEI)
    shear = np.eye(3)
    shear[0, 1] = 0.3
    assert not membership(shear, CaseLabel.LORENTZ, 1.0)


def test_membership_affine_rotation_with_offset():
    k = k_element(np.array([[0.0, -1.0], [1.0, 0.0]]), -1)
    g = AffineElement(k, np.array([5.0, 0.0, -1.0]))
    assert membership(g.linear, CaseLabel.ARISTOTLE)
    assert membership(g.linear, CaseLabel.LORENTZ, 2.0)
