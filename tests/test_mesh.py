import math

import numpy as np
import pytest

from coexist import ConfigError, DomainSpec, build_mesh, inner_product, l2_norm

PI = math.pi


def test_interval_resolution_3_nodes_and_weights():
    mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (3,)))
    assert mesh.n_nodes == 3
    np.testing.assert_allclose(mesh.axis_coords[0], [PI / 4, PI / 2, 3 * PI / 4], rtol=1e-15)
    assert mesh.h == (PI / 4,)
    np.testing.assert_allclose(mesh.weight, PI / 4, rtol=1e-15)


def test_rectangle_3x3_nodes_and_weights():
    mesh = build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (3, 3)))
    assert mesh.n_nodes == 9
    np.testing.assert_allclose(mesh.weight, (PI / 4) ** 2, rtol=1e-15)


def test_weight_sum_interval_399():
    # closed form: h*n = pi*399/400
    mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (399,)))
    assert mesh.weight * mesh.n_nodes == pytest.approx(PI * 399 / 400, rel=1e-13)


@pytest.mark.parametrize(
    "spec, field",
    [
        (DomainSpec("interval", ((0.0, 0.0),), (10,)), "bounds[0]"),
        (DomainSpec("interval", ((1.0, 0.5),), (10,)), "bounds[0]"),
        (DomainSpec("interval", ((0.0, 1.0),), (2,)), "resolution[0]"),
        (DomainSpec("rectangle", ((0.0, 1.0), (0.0, 1.0)), (5, 2)), "resolution[1]"),
        (DomainSpec("interval", ((0.0, 1.0), (0.0, 1.0)), (5, 5)), "1 axis"),
        (DomainSpec("rectangle", ((0.0, 1.0), (0.0, float("inf"))), (5, 5)), "bounds[1]"),
    ],
)
def test_invalid_specs_name_the_field(spec, field):
    with pytest.raises(ConfigError, match=field.replace("[", r"\[").replace("]", r"\]")):
        build_mesh(spec)


def test_bad_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        build_mesh(DomainSpec("disk", ((0.0, 1.0),), (5,)))


def test_node_ordering_lexicographic():
    mesh = build_mesh(DomainSpec("rectangle", ((0.0, 1.0), (0.0, 2.0)), (3, 4)))
    grids = np.meshgrid(*mesh.axis_coords, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    # first axis varies slowest
    assert nodes.shape == (12, 2)
    x_major = nodes[:, 0].reshape(3, 4)
    assert np.all(x_major == x_major[:, :1])
    y_minor = nodes[:, 1].reshape(3, 4)
    np.testing.assert_allclose(y_minor, np.tile(y_minor[0], (3, 1)), rtol=1e-15)


def test_mesh_holds_no_node_sized_array():
    # the grid is its per-axis coordinates and one scalar weight: no node
    # table and no weight vector
    mesh = build_mesh(DomainSpec("rectangle", ((0.0, 1.0), (0.0, 2.0)), (30, 40)))
    assert mesh.n_nodes == 1200
    assert mesh.weight == mesh.h[0] * mesh.h[1]
    for value in vars(mesh).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                assert item.size < mesh.n_nodes


def test_inner_product_zero_vectors(mesh400):
    z = np.zeros(mesh400.n_nodes)
    assert inner_product(mesh400, z, z) == 0.0


def test_inner_product_sin_squared(mesh400):
    # integral of sin^2 over (0, pi) is pi/2
    f = np.sin(mesh400.axis_coords[0])
    assert inner_product(mesh400, f, f) == pytest.approx(PI / 2, abs=1e-3)


def test_inner_product_exact_symmetry(mesh400):
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = rng.standard_normal(mesh400.n_nodes)
        g = rng.standard_normal(mesh400.n_nodes)
        assert inner_product(mesh400, f, g) == inner_product(mesh400, g, f)


def test_inner_product_bilinear(mesh400):
    rng = np.random.default_rng(11)
    f = rng.standard_normal(mesh400.n_nodes)
    g = rng.standard_normal(mesh400.n_nodes)
    h = rng.standard_normal(mesh400.n_nodes)
    alpha = 1.7
    lhs = inner_product(mesh400, alpha * f + g, h)
    rhs = alpha * inner_product(mesh400, f, h) + inner_product(mesh400, g, h)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_inner_product_length_mismatch(mesh400):
    with pytest.raises(ValueError, match="shape"):
        inner_product(mesh400, np.zeros(3), np.zeros(mesh400.n_nodes))
    with pytest.raises(ValueError, match="shape"):
        l2_norm(mesh400, np.zeros(3))


def test_l2_norm_constant_one():
    mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (399,)))
    ones = np.ones(mesh.n_nodes)
    assert l2_norm(mesh, ones) == pytest.approx(math.sqrt(PI * 399 / 400), rel=1e-13)
    assert l2_norm(mesh, np.zeros(mesh.n_nodes)) == 0.0


@pytest.mark.parametrize("n", [100, 200, 400])
def test_weight_sum_close_to_measure(n):
    # sum = L*n/(n+1) per axis: within 1% of the measure once n >= 99
    # in 1D and n >= 199 in 2D
    mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (n,)))
    assert mesh.weight * mesh.n_nodes == pytest.approx(PI, rel=0.01)
    if n >= 200:
        mesh2 = build_mesh(DomainSpec("rectangle", ((0.0, 2.0), (0.0, 3.0)), (n, n)))
        assert mesh2.weight * mesh2.n_nodes == pytest.approx(6.0, rel=0.01)


def test_refinement_consistency_order():
    # f = x(pi-x), g = exp(x): exact integral (pi-2)e^pi + pi + 2
    exact = (PI - 2.0) * math.exp(PI) + PI + 2.0
    errs = []
    for n in (50, 100, 200):
        mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (n,)))
        x = mesh.axis_coords[0]
        val = inner_product(mesh, x * (PI - x), np.exp(x))
        errs.append(abs(val - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9
