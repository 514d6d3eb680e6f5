import numpy as np
import pytest

from tgeom import WorldSpec, make_world, world_from_callable

MINKOWSKI = [1, -1, -1, -1]


def symmetrize3(a):
    """Full symmetrization of a rank-3 array."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    return sum(np.transpose(a, p) for p in perms) / 6.0


def random_a3(dim=4, scale=0.05, seed=0):
    rng = np.random.default_rng(seed)
    return symmetrize3(rng.normal(size=(dim,) * 3) * scale)


def world(kind, dim=4, metric=None, **kw):
    doc = {"kind": kind, "dim": dim,
           "metric": MINKOWSKI if metric is None else metric}
    doc.update(kw)
    return make_world(WorldSpec.from_dict(doc))


@pytest.fixture(scope="session")
def euclid2():
    return world("euclidean", dim=2, metric=[1, 1])


@pytest.fixture(scope="session")
def euclid3():
    return world("euclidean", dim=3, metric=[1, 1, 1])


@pytest.fixture(scope="session")
def minkowski():
    return world("euclidean")


@pytest.fixture(scope="session")
def const_a2():
    return world("constant_a", dim=2, metric=[1, 1], b=[0.3, 0.0])


@pytest.fixture(scope="session")
def const_a4():
    return world("constant_a", b=[0.3, 0.1, 0.0, 0.0])


@pytest.fixture(scope="session")
def case1():
    return world("case1", b=[1, 0, 0, 0], alpha=0.2)


@pytest.fixture(scope="session")
def case2():
    return world("case2", b=[1, 0, 0, 0], alpha=0.2, beta=1.0)


@pytest.fixture(scope="session")
def cubic():
    return world("cubic_a", a3=random_a3(seed=0).ravel().tolist())


@pytest.fixture(scope="session")
def all_worlds(minkowski, const_a4, case1, case2, cubic):
    return {
        "euclidean": minkowski,
        "constant_a": const_a4,
        "case1": case1,
        "case2": case2,
        "cubic_a": cubic,
    }


# Test-only fixture: a flat symmetric world written in a warped (quadratic,
# invertible near the origin) coordinate chart, exercising nonzero
# Christoffel symbols with a known-flat curvature target.
_WARP = np.array([
    [0.10, 0.03, -0.02],
    [0.05, -0.04, 0.06],
    [0.02, 0.07, 0.01],
])


def warp_map(x):
    x = np.asarray(x, dtype=float)
    quad = np.stack(
        [x[..., 0] * x[..., 1], x[..., 1] * x[..., 2], x[..., 0] * x[..., 2]],
        axis=-1,
    )
    # an elementwise sum, not quad @ _WARP.T, whose rounding depends on the
    # batch shape: world_from_callable worlds must evaluate pointwise
    return x + sum(quad[..., k, None] * _WARP[:, k] for k in range(3))


@pytest.fixture(scope="session")
def warped_chart():
    flat = world("euclidean", dim=3, metric=[1, 1, 1])
    return world_from_callable(
        lambda a, b: flat(warp_map(a), warp_map(b)), 3, label="warped_chart"
    )
