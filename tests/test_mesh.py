import math

import numpy as np
import pytest

from coexist import ConfigError, DomainSpec, Laplacian

from conftest import FullGrid, weighted_norm

PI = math.pi


def n_nodes(L) -> int:
    """The full grid's node count."""
    return math.prod(L.shape)


def test_interval_resolution_3_nodes_and_weights():
    L = Laplacian.of(DomainSpec("interval", ((0.0, PI),), (3,)))
    # 3 nodes, the outer two mirror images of each other
    assert L.shape == (3,) and L.grid == (2,) and L.n == 2
    assert L.h == (PI / 4,)
    np.testing.assert_allclose(L.weight, PI / 4, rtol=1e-15)
    np.testing.assert_allclose(L.sqrt_multiplicity, [math.sqrt(2.0), 1.0], rtol=0)


def test_rectangle_3x3_nodes_and_weights():
    L = Laplacian.of(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (3, 3)))
    assert n_nodes(L) == 9 and L.n == 4
    np.testing.assert_allclose(L.weight, (PI / 4) ** 2, rtol=1e-15)


def test_weight_sum_interval_399():
    # closed form: h*n = pi*399/400
    L = Laplacian.of(DomainSpec("interval", ((0.0, PI),), (399,)))
    assert L.weight * n_nodes(L) == pytest.approx(PI * 399 / 400, rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "spec, field",
    [
        (DomainSpec("interval", ((0.0, 0.0),), (10,)), "bounds[0]"),
        (DomainSpec("interval", ((1.0, 0.5),), (10,)), "bounds[0]"),
        (DomainSpec("interval", ((0.0, 1.0),), (2,)), "resolution[0]"),
        (DomainSpec("rectangle", ((0.0, 1.0), (0.0, 1.0)), (5, 2)), "resolution[1]"),
        (DomainSpec("interval", ((0.0, 1.0), (0.0, 1.0)), (5, 5)), "1 axis"),
        (DomainSpec("rectangle", ((0.0, 1.0), (0.0, float("inf"))), (5, 5)), "bounds[1]"),
        (DomainSpec("interval", ((0.0, 1.0, 2.0),), (10,)), "bounds[0]"),
        (DomainSpec("interval", ((0.0,),), (10,)), "bounds[0]"),
    ],
)
def test_invalid_specs_name_the_field(spec, field):
    with pytest.raises(ConfigError, match=field.replace("[", r"\[").replace("]", r"\]")):
        Laplacian.of(spec)


def test_bad_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        Laplacian.of(DomainSpec("disk", ((0.0, 1.0),), (5,)))


def test_node_ordering_lexicographic():
    # a full-grid vector runs through the nodes with the first axis slowest:
    # the unfolded product of per-axis factors is their lexicographic outer product
    L = Laplacian.of(DomainSpec("rectangle", ((0.0, 1.0), (0.0, 2.0)), (3, 4)))
    f0, f1 = np.array([1.0, 2.0, 1.0]), np.array([3.0, 5.0, 5.0, 3.0])
    # folded per axis: the first ceil(n/2) nodes, times sqrt(m)
    y = np.multiply.outer(f0[:2] * [math.sqrt(2.0), 1.0], f1[:2] * math.sqrt(2.0)).ravel()
    u = L.unfold(y)
    assert u.shape == (12,)
    np.testing.assert_allclose(u, np.multiply.outer(f0, f1).ravel(), rtol=1e-15)


def test_mesh_holds_no_node_sized_array():
    # the grid object holds the spacing, one scalar weight and half-grid
    # arrays: no node table, no weight vector and no full-grid array
    L = Laplacian.of(DomainSpec("rectangle", ((0.0, 1.0), (0.0, 2.0)), (30, 40)))
    assert n_nodes(L) == 1200
    assert L.weight == L.h[0] * L.h[1]
    _ = (L.eigenvalues, L.axis_eigenvalues, L.sqrt_multiplicity, L.principal_nodes, L.grid, L.inv_h2)
    for value in vars(L).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                assert item.size < n_nodes(L)


def folded(n: int, u) -> np.ndarray:
    """The half-grid coordinates of a mirror-symmetric vector on (0, pi) at n nodes."""
    return FullGrid(DomainSpec("interval", ((0.0, PI),), (n,))).fold(u)


def test_inner_product_zero_vectors(lap400):
    z = np.zeros(lap400.n)
    assert lap400.weight * float(z @ z) == 0.0


def test_inner_product_sin_squared(lap400):
    # integral of sin^2 over (0, pi) is pi/2; the half grid's pairing is
    # the full grid's
    y = folded(400, np.sin(PI * np.arange(1, 401) / 401))
    assert lap400.weight * float(y @ y) == pytest.approx(PI / 2, abs=1e-3)


def test_l2_norm_constant_one():
    L = Laplacian.of(DomainSpec("interval", ((0.0, PI),), (399,)))
    ones = folded(399, np.ones(399))
    assert weighted_norm(L, ones) == pytest.approx(math.sqrt(PI * 399 / 400), rel=1e-13, abs=0)
    assert weighted_norm(L, np.zeros(L.n)) == 0.0


@pytest.mark.parametrize("n", [100, 200, 400])
def test_weight_sum_close_to_measure(n):
    # sum = L*n/(n+1) per axis: within 1% of the measure once n >= 99
    # in 1D and n >= 199 in 2D
    L = Laplacian.of(DomainSpec("interval", ((0.0, PI),), (n,)))
    assert L.weight * n_nodes(L) == pytest.approx(PI, rel=0.01)
    if n >= 200:
        L2 = Laplacian.of(DomainSpec("rectangle", ((0.0, 2.0), (0.0, 3.0)), (n, n)))
        assert L2.weight * n_nodes(L2) == pytest.approx(6.0, rel=0.01)


def test_refinement_consistency_order():
    # f = x(pi-x), g = exp(x): exact integral (pi-2)e^pi + pi + 2, by the
    # rectangle rule with the one weight L.weight
    exact = (PI - 2.0) * math.exp(PI) + PI + 2.0
    errs = []
    for n in (50, 100, 200):
        L = Laplacian.of(DomainSpec("interval", ((0.0, PI),), (n,)))
        x = L.h[0] * np.arange(1, n + 1)
        val = L.weight * float((x * (PI - x)) @ np.exp(x))
        errs.append(abs(val - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9
