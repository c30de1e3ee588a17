"""Bit-identity of the closed-form frustum planes against the array form.

``Frustum._build_planes`` takes its axes from :meth:`Quaternion.axes`, a
scalar closed form of :meth:`Quaternion.rotate`, and writes the side-plane
normals as scalar arithmetic.  The functions below are the array bodies
that ``_build_planes`` and ``rotate`` had before that change, kept
verbatim as the reference.  Every property asserts exact ``==`` equality
against them, never a tolerance, over random unit quaternions, positions,
fields of view and near/far distances.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.geometry import Frustum, Quaternion


# -- references (the pre-change bodies) ---------------------------------------


def ref_rotate(self: Quaternion, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) ``v`` (shape ``(..., 3)``) by this quaternion."""
    v = np.asarray(v, dtype=np.float64)
    q = np.array([self.x, self.y, self.z])
    t = 2.0 * np.cross(q, v)
    return v + self.w * t + np.cross(q, t)


def ref_build_planes(self: Frustum) -> tuple[np.ndarray, np.ndarray]:
    q = self.orientation
    fwd = ref_rotate(q, np.array([1.0, 0.0, 0.0]))
    left = ref_rotate(q, np.array([0.0, 1.0, 0.0]))
    up = ref_rotate(q, np.array([0.0, 0.0, 1.0]))

    hh = 0.5 * self.h_fov
    hv = 0.5 * self.v_fov
    # Inward normals of the four side planes: rotate the forward vector
    # outward by half the FoV, then tilt 90 degrees toward the axis.
    n_left = np.cos(hh) * -left + np.sin(hh) * fwd
    n_right = np.cos(hh) * left + np.sin(hh) * fwd
    n_top = np.cos(hv) * -up + np.sin(hv) * fwd
    n_bottom = np.cos(hv) * up + np.sin(hv) * fwd

    normals = np.array(
        [fwd, -fwd, n_left, n_right, n_top, n_bottom], dtype=np.float64
    )
    p = self.position
    offsets = np.array(
        [
            -np.dot(fwd, p + self.near * fwd),
            np.dot(fwd, p + self.far * fwd),
            -np.dot(n_left, p),
            -np.dot(n_right, p),
            -np.dot(n_top, p),
            -np.dot(n_bottom, p),
        ],
        dtype=np.float64,
    )
    return normals, offsets


# -- strategies ---------------------------------------------------------------

_coord = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def unit_quaternions(draw) -> Quaternion:
    a = np.array([draw(_coord) for _ in range(4)])
    n = float(np.linalg.norm(a))
    assume(n > 1e-3)
    return Quaternion(*(float(c) for c in a / n))


positions = st.tuples(*[st.floats(-50.0, 50.0, allow_nan=False)] * 3).map(
    np.array
)
fovs = st.floats(0.01, np.pi - 0.01)
near_far = st.tuples(st.floats(1e-3, 5.0), st.floats(1e-3, 100.0)).map(
    lambda nf: (nf[0], nf[0] + nf[1])
)
_BASIS = np.eye(3)


def _frustum(q, position, h_fov, v_fov, nf) -> Frustum:
    near, far = nf
    return Frustum(position, q, h_fov=h_fov, v_fov=v_fov, near=near, far=far)


# -- properties ---------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(unit_quaternions(), positions, fovs, fovs, near_far)
def test_normals_equal_reference(q, position, h_fov, v_fov, nf):
    f = _frustum(q, position, h_fov, v_fov, nf)
    normals, _ = ref_build_planes(f)
    assert f._normals.dtype == normals.dtype
    assert f._normals.shape == normals.shape
    assert (f._normals == normals).all()


@settings(max_examples=400, deadline=None)
@given(unit_quaternions(), positions, fovs, fovs, near_far)
def test_offsets_equal_reference(q, position, h_fov, v_fov, nf):
    f = _frustum(q, position, h_fov, v_fov, nf)
    _, offsets = ref_build_planes(f)
    assert f._offsets.dtype == offsets.dtype
    assert (f._offsets == offsets).all()


@settings(max_examples=400, deadline=None)
@given(unit_quaternions())
def test_axes_equal_rotate_of_each_basis_vector(q):
    axes = q.axes()
    assert len(axes) == 3
    for axis, basis in zip(axes, _BASIS):
        expected = ref_rotate(q, basis)
        assert axis.dtype == expected.dtype and axis.shape == (3,)
        assert (axis == expected).all()
    assert (q.forward() == ref_rotate(q, _BASIS[0])).all()
    assert (q.up() == ref_rotate(q, _BASIS[2])).all()


@settings(max_examples=100, deadline=None)
@given(unit_quaternions(), st.floats(0.0, 1.0), unit_quaternions())
def test_axes_equal_rotate_for_numpy_scalar_components(a, t, b):
    # slerp and from_axis_angle build quaternions from numpy float64s.
    q = a.slerp(b, t)
    for axis, basis in zip(q.axes(), _BASIS):
        assert (axis == ref_rotate(q, basis)).all()


def test_identity_with_integer_components():
    q = Quaternion(1, 0, 0, 0)
    for axis, basis in zip(q.axes(), _BASIS):
        assert (axis == ref_rotate(q, basis)).all()
    f = Frustum(np.zeros(3), q)
    normals, offsets = ref_build_planes(f)
    assert (f._normals == normals).all() and (f._offsets == offsets).all()


def test_rotate_still_accepts_stacks():
    q = Quaternion.from_euler(0.3, -0.2, 0.1)
    v = np.arange(12.0).reshape(4, 3)
    assert (q.rotate(v) == ref_rotate(q, v)).all()
