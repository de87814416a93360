import math
import random

import pytest
from hypothesis import example, given, strategies as st

from maxsurf.minkowski import (
    CausalClass,
    LVector,
    Plane,
    causal_class,
    causal_class_tol,
    lnorm,
    lorentz_cross,
    lorentz_inner,
    plane_class,
)


def test_inner_product_signature():
    assert lorentz_inner(LVector(1, 0, 0), LVector(1, 0, 0)) == 1
    assert lorentz_inner(LVector(0, 0, 1), LVector(0, 0, 1)) == -1
    assert lorentz_inner(LVector(1, 0, 1), LVector(1, 0, 1)) == 0


def test_inner_product_bilinear_symmetric():
    rng = random.Random(3)
    for _ in range(50):
        a = LVector(*(rng.uniform(-2, 2) for _ in range(3)))
        b = LVector(*(rng.uniform(-2, 2) for _ in range(3)))
        s = rng.uniform(-3, 3)
        assert lorentz_inner(a, b) == lorentz_inner(b, a)
        assert abs(lorentz_inner(s * a, b) - s * lorentz_inner(a, b)) < 1e-12


def test_cross_product_basis():
    e1, e2 = LVector(1, 0, 0), LVector(0, 1, 0)
    assert lorentz_cross(e1, e2) == LVector(0, 0, -1)


def test_cross_product_antisymmetry():
    a = LVector(1.5, -2.0, 0.7)
    assert lorentz_cross(a, a) == LVector(0, 0, 0)


def test_cross_product_orthogonality():
    # the cross product is orthogonal to both factors in the Lorentz metric
    rng = random.Random(11)
    for _ in range(200):
        a = LVector(*(rng.uniform(-5, 5) for _ in range(3)))
        b = LVector(*(rng.uniform(-5, 5) for _ in range(3)))
        c = lorentz_cross(a, b)
        scale = 1 + lnorm(a) * lnorm(b)
        assert abs(lorentz_inner(c, a)) <= 1e-12 * scale * 10
        assert abs(lorentz_inner(c, b)) <= 1e-12 * scale * 10


def test_causal_classes():
    assert causal_class(LVector(1, 0, 0)) is CausalClass.SPACELIKE
    assert causal_class(LVector(1, 0, 1)) is CausalClass.LIGHTLIKE
    assert causal_class(LVector(0, 0, 1)) is CausalClass.TIMELIKE
    assert causal_class(LVector(0, 0, 0)) is CausalClass.SPACELIKE


def test_causal_class_scale_invariant():
    # powers of two scale float components exactly, so even the lightlike
    # case stays on the cone; arbitrary scales would need causal_class_tol
    vecs = [LVector(1, 2, 0.5), LVector(0.3, 0, 2), LVector(3, 4, 5)]
    for v in vecs:
        cls = causal_class(v)
        for s in (-8, -0.5, -0.25, 0.25, 2, 4, 16):
            assert causal_class(s * v) is cls


_COMPONENT = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0, 3.0, 4.0, 5.0]))


@given(st.tuples(_COMPONENT, _COMPONENT, _COMPONENT))
@example((3.0, 4.0, 5.0))
@example((-0.0, 0.0, -0.0))
@example((1e200, 0.0, 1e200))
@example((1e200, 1e200, 1e200))
def test_causal_class_is_the_tolerant_rule_at_zero(xs):
    v = LVector(*xs)
    assert causal_class(v) is causal_class_tol(v, 0.0)


def test_an_inner_product_that_overflows_to_nan_is_lightlike():
    # 1e400 - 1e400 is inf - inf: the sign of <x, x> is unknown, and the vector stays on the cone
    v = LVector(1e200, 0, 1e200)
    assert math.isnan(lorentz_inner(v, v))
    assert causal_class(v) is CausalClass.LIGHTLIKE
    assert causal_class_tol(v, 1e-12) is CausalClass.LIGHTLIKE


def test_causal_class_tol_near_lightcone():
    v = LVector(1, 0, 1 + 1e-15)
    assert causal_class(v) is CausalClass.TIMELIKE
    assert causal_class_tol(v, 1e-12) is CausalClass.LIGHTLIKE
    assert causal_class_tol(LVector(0, 0, 0), 1e-12) is CausalClass.SPACELIKE


def test_plane_classification():
    assert plane_class(Plane(LVector(0, 0, 1), 2.0)) is CausalClass.SPACELIKE
    assert plane_class(Plane(LVector(0, 1, 0), 2.0)) is CausalClass.TIMELIKE
    assert plane_class(Plane(LVector(1, 0, 1), 2.0)) is CausalClass.LIGHTLIKE


def test_plane_class_independent_of_offset():
    for d in (-3.0, 0.0, 0.25, 7.0):
        assert plane_class(Plane(LVector(0, 0, 2), d)) is CausalClass.SPACELIKE


def test_zero_normal_rejected():
    with pytest.raises(ValueError):
        Plane(LVector(0, 0, 0), 1.0)


def test_norm():
    assert lnorm(LVector(0, 0, 2)) == 2
    assert lnorm(LVector(3, 4, 0)) == 5
    assert lnorm(LVector(1, 0, 1)) == 0


def test_vector_arithmetic():
    a = LVector(1, 2, 3)
    b = LVector(0.5, -1, 2)
    assert a + b == LVector(1.5, 1, 5)
    assert a - b == LVector(0.5, 3, 1)
    assert 2 * a == LVector(2, 4, 6)
    assert -a == LVector(-1, -2, -3)


def test_non_finite_components_rejected():
    with pytest.raises(ValueError):
        LVector(math.inf, 0, 0)
