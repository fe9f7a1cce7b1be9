import numpy as np
import pytest

from expgrad.errors import DomainError, InvalidInput
from expgrad.linalg import (
    DensityState,
    HermitianOperator,
    eigen_extremes,
    logsumexp,
    matrix_function,
    schatten_norm,
    spectral_decompose,
    trace_inner_product,
)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator(a)


class TestHermitianOperator:
    def test_constructor_symmetrizes(self):
        a = np.array([[1.0, 2.0 + 1j], [2.0 - 1j + 3e-13, 0.0]])
        h = HermitianOperator(a)
        assert np.max(np.abs(h.mat - h.mat.conj().T)) <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            HermitianOperator([[np.nan, 0.0], [0.0, 1.0]])

    def test_accepts_transposed_complex_input(self):
        a = np.arange(9).reshape(3, 3) + 1j * np.ones((3, 3))
        h = HermitianOperator(a.conj().T)  # a non-contiguous view
        assert np.array_equal(h.mat, HermitianOperator(a).mat)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInput):
            HermitianOperator(np.ones((2, 3)))

    def test_immutable(self):
        h = HermitianOperator.identity(2)
        with pytest.raises(ValueError):
            h.mat[0, 0] = 5.0


class TestSpectralDecompose:
    def test_identity(self):
        dec = spectral_decompose(HermitianOperator.identity(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])

    def test_diagonal_ascending(self):
        dec = spectral_decompose(HermitianOperator.diag([3.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [-1.0, 3.0])

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 5)
        dec = spectral_decompose(a)
        scale = max(1.0, np.linalg.norm(a.mat))
        assert np.linalg.norm(dec.reconstruct() - a.mat) <= 1e-10 * scale
        v = dec.eigenvectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(5)) <= 1e-10

    def test_rejects_non_finite(self):
        bad = np.eye(2)
        bad[0, 0] = np.inf
        with pytest.raises(InvalidInput):
            spectral_decompose(HermitianOperator(bad))


class TestMatrixFunction:
    def test_exp_of_zero(self):
        out = matrix_function(HermitianOperator.diag([0.0, 0.0]), np.exp)
        assert np.allclose(out.mat, np.eye(2))

    def test_log_exp_round_trip(self):
        a = HermitianOperator.diag([1.0, 2.0])
        out = matrix_function(matrix_function(a, np.exp), np.log)
        assert np.max(np.abs(out.mat - a.mat)) <= 1e-10

    def test_sqrt(self):
        out = matrix_function(HermitianOperator.diag([4.0, 9.0]), np.sqrt)
        assert np.allclose(out.mat, np.diag([2.0, 3.0]))

    def test_log_of_nonpositive_raises(self):
        with pytest.raises(DomainError):
            matrix_function(HermitianOperator.diag([1.0, -2.0]), np.log)

    def test_identity_function_reproduces(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 4)
        out = matrix_function(a, lambda x: x)
        assert np.linalg.norm(out.mat - a.mat) <= 1e-10

    def test_exp_log_round_trip_positive_definite(self):
        rng = np.random.default_rng(7)
        b = random_hermitian(rng, 4)
        a = HermitianOperator(b.mat @ b.mat + np.eye(4))
        out = matrix_function(matrix_function(a, np.log), np.exp)
        assert np.linalg.norm(out.mat - a.mat) <= 1e-9 * np.linalg.norm(a.mat)


class TestTraceInnerProduct:
    def test_identity_pair(self):
        eye = HermitianOperator.identity(2)
        assert trace_inner_product(eye, eye) == pytest.approx(2.0)

    def test_diagonal(self):
        a = HermitianOperator.diag([1.0, 2.0])
        b = HermitianOperator.diag([3.0, 4.0])
        assert trace_inner_product(a, b) == pytest.approx(11.0)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        assert trace_inner_product(a, b) == pytest.approx(trace_inner_product(b, a), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(InvalidInput):
            trace_inner_product(HermitianOperator.identity(2), HermitianOperator.identity(3))

    def test_self_inner_product_is_squared_frobenius(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(rng, 4)
        ip = trace_inner_product(a, a)
        assert ip >= 0.0
        assert ip == pytest.approx(schatten_norm(a, 2) ** 2, rel=1e-12)


class TestSchattenNorm:
    def test_trace_norm(self):
        assert schatten_norm(HermitianOperator.diag([1.0, -1.0]), 1) == pytest.approx(2.0)

    def test_zero(self):
        z = HermitianOperator(np.zeros((3, 3)))
        for p in (1, 2, np.inf):
            assert schatten_norm(z, p) == 0.0

    def test_operator_norm(self):
        assert schatten_norm(HermitianOperator.diag([3.0, -4.0]), np.inf) == pytest.approx(4.0)

    def test_norm_ordering(self):
        rng = np.random.default_rng(10)
        for d in (2, 4, 6):
            a = random_hermitian(rng, d)
            n1, n2, ninf = (schatten_norm(a, p) for p in (1, 2, np.inf))
            assert n1 >= n2 >= ninf


class TestEigenExtremes:
    def test_multiple_of_identity(self):
        lo, hi = eigen_extremes(HermitianOperator.identity(2))
        assert (lo, hi) == (1.0, 1.0)

    def test_diagonal(self):
        assert eigen_extremes(HermitianOperator.diag([-2.0, 5.0])) == (-2.0, 5.0)

    def test_matches_full_decomposition(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 6)
        dec = spectral_decompose(a)
        lo, hi = eigen_extremes(a)
        assert lo == pytest.approx(dec.eigenvalues[0])
        assert hi == pytest.approx(dec.eigenvalues[-1])


class TestLogsumexp:
    def test_vector_gives_float(self):
        out = logsumexp(np.array([0.0, np.log(3.0), -np.inf]))
        assert isinstance(out, float)
        assert out == pytest.approx(np.log(4.0), abs=1e-15)

    def test_stack_matches_rows(self):
        rng = np.random.default_rng(13)
        stack = rng.standard_normal((4, 3, 5)) * 300.0  # exp would overflow unshifted
        out = logsumexp(stack)
        assert out.shape == (4, 3)
        assert np.array_equal(out, [[logsumexp(row) for row in rows] for rows in stack])


class TestDensityState:
    def test_unit_trace_and_normalized_exponent(self):
        rng = np.random.default_rng(12)
        s = random_hermitian(rng, 4)
        rho = DensityState.from_exponent(s)
        assert abs(np.sum(rho.eigenvalues) - 1.0) <= 1e-12
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12
        assert rho.min_eig > 0.0
        # exponent is kept normalized: materializing it again is a no-op
        again = DensityState.from_exponent(rho.exponent)
        assert np.linalg.norm(again.matrix - rho.matrix) <= 1e-12

    def test_from_matrix_round_trip(self):
        rho = DensityState.from_matrix(np.diag([0.3, 0.7]))
        assert np.allclose(rho.matrix, np.diag([0.3, 0.7]), atol=1e-12)

    def test_from_matrix_rejects_singular(self):
        with pytest.raises(DomainError):
            DensityState.from_matrix(np.diag([1.0, 0.0]))

    def test_from_matrix_rejects_wrong_trace(self):
        with pytest.raises(InvalidInput):
            DensityState.from_matrix(np.diag([0.5, 0.7]))

    def test_maximally_mixed(self):
        rho = DensityState.maximally_mixed(3)
        assert np.allclose(rho.matrix, np.eye(3) / 3.0, atol=1e-14)

    def test_floor_flag(self):
        rho = DensityState.from_exponent(HermitianOperator.diag([-40.0, 0.0]))
        assert rho.floor_clamped
        assert rho.min_eig > 0.0  # flagged, not clamped away

    # halving a complex inf gives 0 * inf in the imaginary part, which numpy
    # reports on the way to the rejection
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_from_exponent_rejects_non_finite_array(self, bad):
        h = np.zeros((3, 3), dtype=complex)
        h[2, 1] = bad
        with pytest.raises(InvalidInput):
            DensityState.from_exponent(h)

    def test_inverse_of_underflowed_state(self):
        rho = DensityState.from_exponent(HermitianOperator.diag([-800.0, 0.0]))
        with pytest.raises(DomainError):
            rho.inverse()

    def test_inverse(self):
        rho = DensityState.from_matrix(np.diag([0.25, 0.75]))
        assert np.allclose(rho.inverse(), np.diag([4.0, 4.0 / 3.0]), atol=1e-12)
