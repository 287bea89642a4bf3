import numpy as np
import pytest

from coexist import ConfigError, NonlinearityModel, apply, apply_derivative, derivative_at_zero

from conftest import BENCHMARK_POLY


class TestDerivativeLadder:
    def test_cubic_interaction(self):
        m = NonlinearityModel.psi_k(3, 1.0)
        assert derivative_at_zero(m, 1) == 0.0
        assert derivative_at_zero(m, 2) == -2.0
        assert derivative_at_zero(m, 3) == 0.0

    def test_quartic_interaction(self):
        m = NonlinearityModel.psi_k(4, 1.0)
        assert derivative_at_zero(m, 1) == 0.0
        assert derivative_at_zero(m, 2) == 0.0
        assert derivative_at_zero(m, 3) == -6.0

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_higher_powers_all_vanish(self, k):
        m = NonlinearityModel.psi_k(k, 1.0)
        assert [derivative_at_zero(m, o) for o in (1, 2, 3)] == [0.0, 0.0, 0.0]

    def test_quadratic_is_linear_in_disguise(self):
        m = NonlinearityModel.psi_k(2, 0.7)
        assert m.V_L == -0.7
        assert derivative_at_zero(m, 1) == -0.7
        assert derivative_at_zero(m, 2) == 0.0

    def test_linear_and_free(self):
        lin = NonlinearityModel.linear(3.5)
        assert [derivative_at_zero(lin, o) for o in (1, 2, 3)] == [3.5, 0.0, 0.0]
        assert lin.V_L == 3.5
        free = NonlinearityModel.free()
        assert [derivative_at_zero(free, o) for o in (1, 2, 3)] == [0.0, 0.0, 0.0]

    def test_polynomial(self):
        m = NonlinearityModel.polynomial([1.5, -0.25, 2.0])
        assert derivative_at_zero(m, 1) == 1.5
        assert derivative_at_zero(m, 2) == -0.5
        assert derivative_at_zero(m, 3) == 12.0
        assert m.V_L == 1.5

    def test_first_derivative_is_always_v_l(self):
        for m in (
            NonlinearityModel.free(),
            NonlinearityModel.linear(-2.0),
            NonlinearityModel.psi_k(2, 1.3),
            NonlinearityModel.psi_k(5, -4.0),
            NonlinearityModel.polynomial([0.3, 1.0]),
        ):
            assert derivative_at_zero(m, 1) == m.V_L

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="order"):
            derivative_at_zero(NonlinearityModel.free(), 4)


class TestApply:
    def test_zero_maps_to_zero(self):
        U = np.zeros(10)
        for m in (
            NonlinearityModel.free(),
            NonlinearityModel.linear(2.0),
            NonlinearityModel.psi_k(4, 1.0),
            NonlinearityModel.polynomial([1.0, 2.0, 3.0]),
        ):
            assert np.all(apply(m, U) == 0.0)

    def test_quartic_pointwise(self):
        m = NonlinearityModel.psi_k(4, 2.0)
        out = apply(m, np.array([0.5]))
        assert out[0] == pytest.approx(-0.25, rel=1e-15, abs=0)

    def test_linear_pointwise(self):
        m = NonlinearityModel.linear(3.0)
        assert apply(m, np.array([2.0]))[0] == 6.0

    def test_polynomial_horner(self):
        m = NonlinearityModel.polynomial([1.0, -2.0, 0.5])
        u = np.array([0.3, -1.2])
        expected = u - 2 * u**2 + 0.5 * u**3
        np.testing.assert_allclose(apply(m, u), expected, rtol=1e-14)

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_even_k_gives_odd_g(self, k):
        m = NonlinearityModel.psi_k(k, 1.7)
        rng = np.random.default_rng(3)
        u = rng.uniform(-1, 1, size=50)
        np.testing.assert_array_equal(apply(m, -u), -apply(m, u))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_psi_k_powers_match_pow(self, k):
        # eta = -1 makes g(u) = u**(k-1) and g'(u) = (k-1)*u**(k-2)
        m = NonlinearityModel.psi_k(k, -1.0)
        u = np.random.default_rng(k).uniform(-2, 2, size=1000)
        np.testing.assert_allclose(apply(m, u), u ** (k - 1), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(apply_derivative(m, u), (k - 1) * u ** (k - 2), rtol=1e-15, atol=0.0)


class TestCoefficients:
    @pytest.mark.parametrize(
        "model, coeffs",
        [
            (NonlinearityModel.free(), ()),
            (NonlinearityModel.linear(-2.5), (-2.5,)),
            *[
                (NonlinearityModel.psi_k(k, eta), (0.0,) * (k - 2) + (-eta,))
                for k in range(2, 9)
                for eta in (1.5, -1.5)
            ],
            (NonlinearityModel.polynomial(BENCHMARK_POLY), BENCHMARK_POLY),
        ],
    )
    def test_model_is_its_taylor_coefficients(self, model, coeffs):
        # g(u) = sum_j c_j u^j and g^(r)(0) = r! c_r, with c_r = 0 past the degree
        assert model.coeffs == coeffs
        u = np.random.default_rng(5).uniform(-2.0, 2.0, size=1000)
        terms = [c * u**j for j, c in enumerate(coeffs, 1)]
        expected = sum(terms, np.zeros_like(u))
        scale = sum((np.abs(t) for t in terms), np.zeros_like(u))
        assert np.all(np.abs(apply(model, u) - expected) <= 1e-14 * scale)
        for r, factorial in ((1, 1.0), (2, 2.0), (3, 6.0)):
            c_r = coeffs[r - 1] if r <= len(coeffs) else 0.0
            assert derivative_at_zero(model, r) == factorial * c_r

    def test_rejects_k_beyond_cap(self):
        # psi_k stores k - 1 coefficients, so k is bounded
        assert len(NonlinearityModel.psi_k(1000, 1.0).coeffs) == 999
        with pytest.raises(ConfigError, match="k >= 2 and <= 1000"):
            NonlinearityModel.psi_k(1001, 1.0)


class TestApplyDerivative:
    def test_quartic_at_zero(self):
        m = NonlinearityModel.psi_k(4, 1.0)
        assert np.all(apply_derivative(m, np.zeros(5)) == 0.0)

    def test_cubic_slope(self):
        m = NonlinearityModel.psi_k(3, 1.0)
        assert apply_derivative(m, np.array([2.0]))[0] == -4.0

    @pytest.mark.parametrize(
        "model",
        [
            NonlinearityModel.psi_k(3, 1.0),
            NonlinearityModel.psi_k(4, -2.0),
            NonlinearityModel.psi_k(6, 0.5),
            NonlinearityModel.linear(1.2),
            NonlinearityModel.polynomial([0.5, -1.0, 2.0, 0.0, 0.1]),
        ],
    )
    def test_matches_central_differences(self, model):
        rng = np.random.default_rng(12)
        u = rng.uniform(-1, 1, size=200)
        eps = 1e-5
        fd = (apply(model, u + eps) - apply(model, u - eps)) / (2 * eps)
        assert np.max(np.abs(apply_derivative(model, u) - fd)) < 1e-6

    def test_consistent_with_ladder_at_zero(self):
        for m in (NonlinearityModel.psi_k(2, 1.5), NonlinearityModel.polynomial([2.0, 1.0])):
            assert apply_derivative(m, np.zeros(3))[0] == derivative_at_zero(m, 1)


class TestConstruction:
    def test_dict_roundtrip(self):
        for m in (
            NonlinearityModel.free(),
            NonlinearityModel.linear(-0.5),
            NonlinearityModel.psi_k(4, 1.0),
            NonlinearityModel.polynomial([1.0, 0.0, -3.0]),
        ):
            assert NonlinearityModel.from_dict(m.to_dict()) == m

    def test_rejects_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            NonlinearityModel.from_dict({"kind": "saturable"})

    def test_rejects_small_k(self):
        with pytest.raises(ConfigError, match="k >= 2"):
            NonlinearityModel.psi_k(1, 1.0)

    def test_rejects_degree_above_six(self):
        with pytest.raises(ConfigError, match="coefficients"):
            NonlinearityModel.polynomial([1.0] * 7)

    @pytest.mark.parametrize(
        "descriptor",
        [
            {"kind": "psi_k", "k": 3, "eta": float("nan")},
            {"kind": "linear", "V_L": float("inf")},
            {"kind": "polynomial", "coeffs": [1.0, float("-inf")]},
        ],
    )
    def test_rejects_non_finite_coefficients(self, descriptor):
        with pytest.raises(ConfigError, match="finite"):
            NonlinearityModel.from_dict(descriptor)

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "psi_k", "k": 3.9, "eta": 1.0},
            {"kind": "psi_k", "k": 3, "eta": True},
            {"kind": "linear", "V_L": "2"},
        ],
    )
    def test_direct_construction_checks_numbers(self, fields):
        with pytest.raises(ConfigError, match="must be"):
            NonlinearityModel(**fields)

    @pytest.mark.parametrize(
        "descriptor, field",
        [
            ({"kind": "psi_k", "k": 3, "eta": 1.0, "V_L": 2.0}, "V_L"),
            ({"kind": "free", "eta": 1.0}, "eta"),
            ({"kind": "linear", "V_L": 1.0, "coeffs": [1.0]}, "coeffs"),
            ({"kind": "polynomial", "coeffs": [1.0], "foo": 1}, "foo"),
        ],
    )
    def test_rejects_unknown_field(self, descriptor, field):
        kind = descriptor["kind"]
        with pytest.raises(ConfigError, match=rf"unknown model fields for kind '{kind}': \['{field}'\]"):
            NonlinearityModel.from_dict(descriptor)

    def test_missing_field_reported(self):
        with pytest.raises(ConfigError, match="eta"):
            NonlinearityModel.from_dict({"kind": "psi_k", "k": 3})
