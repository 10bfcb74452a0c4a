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


def identity_map(dim):
    return AffineElement(np.eye(dim), np.zeros(dim))


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
    assert timelike.speed() == 0.5

    general = WorldLine(origin, direction=[1.0, 0.0, 0.0])
    assert general.kind == "general"
    with pytest.raises(ValueError):
        general.speed()


def test_worldline_speed_of_general_direction():
    line = WorldLine(Event([0.0, 0.0], 0.0), direction=[3.0, 0.0, 2.0])
    assert line.speed() == 1.5


def test_worldline_kinds_where_the_squared_direction_leaves_the_float_range():
    # The squares of entries near 1e160 overflow and those near 1e-200 vanish; the zero and
    # time-advance tests are judged on the direction over a power of two, so a line at
    # speed 1 stays timelike and one of relative time advance 1e-13 stays general.
    origin = Event([0.0, 0.0], 0.0)
    for scale in (1e160, 1e300, 8e307, 1e-200, 1e-310):
        line = WorldLine(origin, direction=[scale, 0.0, scale])
        assert line.kind == "timelike" and line.speed() == 1.0
        assert WorldLine(origin, direction=[scale, 0.0, scale * 1e-13]).kind == "general"
    assert WorldLine(origin, velocity=[1e200, 0.0]).kind == "general"
    directions = [[1e160, 0.0, 1e160], [1.0, 0.0, 1e-13], [3.0, 0.0, 2.0], [1e-200, 0.0, 1e-213]]
    lines = WorldLine(Event(np.zeros((4, 2)), np.zeros(4)), direction=directions)
    assert lines.kind.tolist() == ["timelike", "general", "timelike", "general"]
    assert lines.speed()[[0, 2]].tolist() == [1.0, 1.5]


def test_non_finite_events_and_lines_are_refused():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Event([bad, 0.0], 0.0)
        with pytest.raises(ValueError, match="finite"):
            Event([0.0, 0.0], bad)
        origin = Event([0.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="finite"):
            WorldLine(origin, velocity=[bad, 0.0])
        with pytest.raises(ValueError, match="finite"):
            WorldLine(origin, direction=[1.0, 0.0, bad])


def test_affine_element_validation():
    with pytest.raises(ValueError):
        AffineElement(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        AffineElement(np.eye(3), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        AffineElement(np.full((2, 2), np.nan), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        AffineElement(np.eye(2), np.array([0.0, np.inf]))
    assert AffineElement(np.eye(3), np.zeros(3)).dim == 3


def test_as_matrix_is_multiplicative():
    # oracle: the (dim+1) embedding turns composition into a single matmul
    def as_matrix(g):
        out = np.eye(g.dim + 1)  # bottom row (0, ..., 1)
        out[:-1, :-1], out[:-1, -1] = g.linear, g.translation
        return out

    rng = np.random.default_rng(40)
    for _ in range(10):
        g = AffineElement(rng.standard_normal((3, 3)), rng.standard_normal(3))
        h = AffineElement(rng.standard_normal((3, 3)), rng.standard_normal(3))
        lhs = as_matrix(compose(g, h))
        rhs = as_matrix(g) @ as_matrix(h)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(identity_map(3), identity_map(4))


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
        act(identity_map(3), Event([0.0, 0.0, 0.0], 0.0))


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
    image = transform_worldline(identity_map(3), line)
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


def test_far_origins_and_translations_leave_the_image_velocity_exact():
    # The direction is mapped by the linear part alone: subtracting the
    # images of two points 1e12 away from the origin would cancel 12 digits.
    w, u = 0.8, 0.3
    expected = (u + math.tanh(w)) / (1.0 + u * math.tanh(w))
    gmap = AffineElement(boost_closed_form(np.array([w, 0.0]), 1.0), np.full(3, 1e12))
    line = WorldLine(Event([1e12, -1e12], 1e12), velocity=[u, 0.0])
    image = transform_worldline(gmap, line)
    np.testing.assert_allclose(image.velocity, [expected, 0.0], rtol=1e-14, atol=1e-15)
    np.testing.assert_array_equal(image.origin.vector(), act(gmap, line.origin).vector())


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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def one_map(g, i):
    return AffineElement(g.linear[i], g.translation[i])


def one_event(x, i):
    return Event.from_vector(x.vector()[i])


def one_line(line, i):
    return WorldLine(one_event(line.origin, i), direction=line.direction[i])


def test_a_carroll_stack_can_remove_the_time_advance_of_some_lines_only():
    # A Carroll boost b maps the direction (v, 1) to (v, 1 + b.v): b = -v / |v|^2
    # removes the time advance, so the even images are general, the odd timelike.
    rng = np.random.default_rng(46)
    v = rng.standard_normal((6, 2))
    b = 0.3 * rng.standard_normal((6, 2))
    b[::2] = -v[::2] / np.vecdot(v[::2], v[::2])[:, None]
    g = AffineElement(boost_closed_form(b, math.inf), rng.standard_normal((6, 3)))
    lines = WorldLine(Event(rng.standard_normal((6, 2)), rng.standard_normal(6)), velocity=v)
    images = transform_worldline(g, lines)
    assert list(images.kind) == ["general", "timelike"] * 3
    speeds, velocities = images.speed(), images.velocity
    for i in range(6):
        image = transform_worldline(one_map(g, i), one_line(lines, i))
        assert same_bits(images.origin.vector()[i], image.origin.vector())
        assert same_bits(images.direction[i], image.direction)
        assert images.kind[i] == image.kind
        if image.kind == "general":
            assert math.isnan(speeds[i]) and np.isnan(velocities[i]).all()
            with pytest.raises(ValueError, match="no time advance"):
                image.speed()
        else:
            assert same_bits(speeds[i], image.speed())
            assert same_bits(velocities[i], image.velocity)
