"""Linear algebra of Lorentz-Minkowski 3-space with the (2,1) inner product."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from math import isfinite

from .expr import _Slotted

__all__ = [
    "CausalClass",
    "LVector",
    "Plane",
    "causal_class",
    "causal_class_tol",
    "lnorm",
    "lorentz_cross",
    "lorentz_inner",
    "plane_class",
]


class LVector(_Slotted):
    """Point or vector of L^3; the metric is x1*y1 + x2*y2 - x3*y3."""

    __slots__ = __match_args__ = ("x1", "x2", "x3")

    def __init__(self, x1: float, x2: float, x3: float):
        x1, x2, x3 = float(x1), float(x2), float(x3)
        if not (isfinite(x1) and isfinite(x2) and isfinite(x3)):
            name, v = next((name, v) for name, v in zip(self.__match_args__, (x1, x2, x3)) if not isfinite(v))
            raise ValueError(f"non-finite component {name}={v}")
        _set_x1(self, x1)
        _set_x2(self, x2)
        _set_x3(self, x3)

    def __add__(self, other: "LVector") -> "LVector":
        return LVector(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "LVector") -> "LVector":
        return LVector(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "LVector":
        return LVector(-self.x1, -self.x2, -self.x3)

    def __mul__(self, s: float) -> "LVector":
        return LVector(self.x1 * s, self.x2 * s, self.x3 * s)

    __rmul__ = __mul__

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)


_set_x1, _set_x2, _set_x3 = LVector.x1.__set__, LVector.x2.__set__, LVector.x3.__set__


class CausalClass(Enum):
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"
    TIMELIKE = "timelike"


@dataclass(frozen=True)
class Plane:
    """Plane {x : <x, n> = d} with nonzero pseudo-normal n.

    Note the Lorentz inner product: the plane x3 = b has n = (0, 0, 1) and
    d = -b, since <x, (0,0,1)> = -x3.
    """

    n: LVector
    d: float

    def __post_init__(self):
        if self.n.x1 == 0 and self.n.x2 == 0 and self.n.x3 == 0:
            raise ValueError("plane normal must be nonzero")
        object.__setattr__(self, "d", float(self.d))


def lorentz_inner(x: LVector, y: LVector) -> float:
    return x.x1 * y.x1 + x.x2 * y.x2 - x.x3 * y.x3


def lorentz_cross(a: LVector, b: LVector) -> LVector:
    """Cross product adapted to the metric; <a^b, a> = <a^b, b> = 0."""
    return LVector(
        a.x2 * b.x3 - a.x3 * b.x2,
        a.x3 * b.x1 - a.x1 * b.x3,
        a.x2 * b.x1 - a.x1 * b.x2,
    )


def lnorm(x: LVector) -> float:
    return math.sqrt(abs(lorentz_inner(x, x)))


def causal_class(x: LVector) -> CausalClass:
    """Sign of <x, x>; the zero vector counts as spacelike."""
    return causal_class_tol(x, 0.0)


def causal_class_tol(x: LVector, eps: float) -> CausalClass:
    """Tolerant variant for computed vectors that are never exactly lightlike; a NaN <x, x>
    (inf - inf, where both squares overflow) counts as lightlike."""
    if abs(x.x1) <= eps and abs(x.x2) <= eps and abs(x.x3) <= eps:
        return CausalClass.SPACELIKE
    q = lorentz_inner(x, x)
    if not abs(q) > eps:
        return CausalClass.LIGHTLIKE
    return CausalClass.SPACELIKE if q > 0 else CausalClass.TIMELIKE


_PLANE_DUAL = {
    CausalClass.TIMELIKE: CausalClass.SPACELIKE,
    CausalClass.LIGHTLIKE: CausalClass.LIGHTLIKE,
    CausalClass.SPACELIKE: CausalClass.TIMELIKE,
}


def plane_class(p: Plane) -> CausalClass:
    """A plane is spacelike/lightlike/timelike as its normal is timelike/lightlike/spacelike."""
    return _PLANE_DUAL[causal_class(p.n)]
