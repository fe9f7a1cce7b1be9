import numpy as np
import pytest

from expgrad import (
    LogPartitionProbe,
    MeasurementEnsemble,
    ProbabilityVector,
    poisson_linear_objective,
    quadratic_objective,
)
from expgrad.errors import DomainError, InvalidInput
from expgrad.linalg import DensityState, HermitianOperator, _hermitian, _hermitian_part, logsumexp
from helpers import schatten_norm


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator(a)


def with_entry(value):
    """A 3 x 3 zero matrix with value at (2, 1)."""
    h = np.zeros((3, 3), dtype=complex)
    h[2, 1] = value
    return h


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
        h = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            h.mat[0, 0] = 5.0

    @pytest.mark.parametrize("entries", [
        np.diag([1.5e308, 1.0]),  # finite, but 2 * 1.5e308 is not
        [[1.0, 1e308 + 1e308j], [1e308 - 1e308j, 1.0]],
    ], ids=["diagonal", "off-diagonal"])
    def test_rejects_overflow_of_the_hermitian_part(self, entries):
        with pytest.raises(InvalidInput, match="non-finite"):
            HermitianOperator(entries)

    def test_is_an_array_like_without_a_copy(self):
        h = HermitianOperator(np.diag([1.0, 2.0]))
        assert np.asarray(h) is h.mat
        assert np.asarray(h, dtype=np.complex128) is h.mat
        copy = np.array(h)
        assert copy.flags.writeable and not np.shares_memory(copy, h.mat)


BOUNDARY_CALLS = {
    "HermitianOperator": HermitianOperator,
    "MeasurementEnsemble": lambda x: MeasurementEnsemble([x]),
    "DensityState.from_matrix": DensityState.from_matrix,
    "DensityState.from_exponent": DensityState.from_exponent,
    "ProbabilityVector": ProbabilityVector,
    "LogPartitionProbe": lambda x: LogPartitionProbe(DensityState.maximally_mixed(2), x),
    "poisson_linear_objective": poisson_linear_objective,
    "quadratic_objective": quadratic_objective,
}


@pytest.mark.parametrize("entries", [
    [["a", "b"], ["c", "d"]], [["1", "0"], ["0", "1"]], {"x": 1.0}, [[1.0, 0.0], [0.0]], [[10 ** 400, 0], [0, 1]],
], ids=["strings", "numeric-strings", "mapping", "ragged", "integer-too-large"])
@pytest.mark.parametrize("call", BOUNDARY_CALLS.values(), ids=BOUNDARY_CALLS.keys())
def test_boundary_rejects_input_numpy_cannot_convert(call, entries):
    with pytest.raises(InvalidInput):
        call(entries)


def test_quadratic_target_may_be_an_array_or_a_hermitian_operator():
    for target in (np.eye(2) / 2, HermitianOperator(np.eye(2) / 2)):
        f = quadratic_objective(target)
        assert f.dim == 2 and f.value(DensityState.maximally_mixed(2)) == 0.0


class TestHermitianValidator:
    def test_stack_has_the_bits_of_each_matrix(self):
        # signed zeros and the smallest subnormals included, whose halves
        # numpy's in-place and out-of-place loops may round to zeros of
        # different sign
        rng = np.random.default_rng(14)
        vals = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 3.0, -7.5, 1e300])
        for d in (1, 2, 5):
            a = rng.choice(vals, (6, d, d)) + 1j * rng.choice(vals, (6, d, d))
            a[:3] += rng.standard_normal((3, d, d))
            stack = _hermitian(a, 3)
            assert stack.tobytes() == _hermitian_part(a).tobytes()
            for op, got in zip(a, stack):
                assert HermitianOperator(op).mat.tobytes() == got.tobytes()

    def test_copies_and_is_read_only(self):
        a = np.eye(3, dtype=complex)
        out = _hermitian(a)
        assert not np.shares_memory(a, out) and not out.flags.writeable
        assert a.flags.writeable

    @pytest.mark.parametrize("entries, ndim", [
        (np.ones((2, 3)), 2), (np.ones((3, 3)), 3), (np.ones((2, 3, 3)), 2), (np.ones(3), 2),
        (np.ones((4, 2, 3)), 3),
    ], ids=["non-square", "matrix-for-stack", "stack-for-matrix", "vector", "non-square-stack"])
    def test_rejects_wrong_shapes(self, entries, ndim):
        with pytest.raises(InvalidInput, match="square"):
            _hermitian(entries, ndim)


class TestSchattenNorm:
    def test_trace_norm(self):
        assert schatten_norm(HermitianOperator(np.diag([1.0, -1.0])).mat, 1) == pytest.approx(2.0)

    def test_zero(self):
        z = HermitianOperator(np.zeros((3, 3))).mat
        for p in (1, 2, np.inf):
            assert schatten_norm(z, p) == 0.0

    def test_operator_norm(self):
        assert schatten_norm(HermitianOperator(np.diag([3.0, -4.0])).mat, np.inf) == pytest.approx(4.0)

    def test_two_norm_is_frobenius(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(rng, 4).mat
        assert schatten_norm(a, 2) ** 2 == pytest.approx(np.vdot(a, a).real, rel=1e-12)

    def test_norm_ordering(self):
        rng = np.random.default_rng(10)
        for d in (2, 4, 6):
            a = random_hermitian(rng, d)
            n1, n2, ninf = (schatten_norm(a.mat, p) for p in (1, 2, np.inf))
            assert n1 >= n2 >= ninf


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

    def test_from_matrix_decomposes_once(self, monkeypatch):
        rho = DensityState.from_exponent(random_hermitian(np.random.default_rng(15), 4))
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        again = DensityState.from_matrix(rho.matrix)
        assert len(calls) == 1
        assert not again.eigenvectors.flags.writeable
        assert abs(float(np.sum(again.eigenvalues)) - 1.0) <= 1e-12
        assert np.allclose(again.matrix, rho.matrix, atol=1e-12)
        assert np.allclose(again.exponent, rho.exponent, atol=1e-10)

    def test_from_matrix_rejects_singular(self):
        with pytest.raises(DomainError):
            DensityState.from_matrix(np.diag([1.0, 0.0]))

    def test_from_matrix_rejects_wrong_trace(self):
        with pytest.raises(InvalidInput):
            DensityState.from_matrix(np.diag([0.5, 0.7]))

    def test_maximally_mixed(self):
        rho = DensityState.maximally_mixed(3)
        assert np.allclose(rho.matrix, np.eye(3) / 3.0, atol=1e-14)

    def test_maximally_mixed_is_the_zero_exponent_undecomposed(self, monkeypatch):
        # bit for bit, signed zeros included, the state that the eigh of the
        # zero matrix gives
        want = [DensityState.from_exponent(np.zeros((d, d))) for d in range(1, 65)]
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        for w in want:
            rho = DensityState.maximally_mixed(w.dim)
            for name in ("log_eigenvalues", "eigenvectors", "exponent", "matrix"):
                a, b = getattr(rho, name), getattr(w, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (w.dim, name)
        assert calls == []

    def test_constructor_normalizes_and_freezes_its_eigenpairs(self):
        rho = DensityState(np.array([0.0, 1.0]), np.eye(2, dtype=complex))
        assert abs(float(np.sum(rho.eigenvalues)) - 1.0) <= 1e-15
        for a in (rho.log_eigenvalues, rho.eigenvalues, rho.eigenvectors):
            assert not a.flags.writeable

    @pytest.mark.parametrize("d", [0, -1, 2.5, True], ids=["zero", "negative", "fraction", "bool"])
    def test_maximally_mixed_rejects_a_dimension_that_is_no_count(self, d):
        with pytest.raises(InvalidInput, match="dimension"):
            DensityState.maximally_mixed(d)

    def test_tiny_eigenvalue_is_kept(self):
        rho = DensityState.from_exponent(HermitianOperator(np.diag([-40.0, 0.0])))
        assert rho.min_eig > 0.0  # not clamped away

    @pytest.mark.parametrize("make", [
        lambda: DensityState.from_exponent(random_hermitian(np.random.default_rng(16), 5)),
        lambda: DensityState.from_exponent(np.diag([0.0, -800.0, -3.0])),
        lambda: DensityState.from_matrix(np.diag([0.3, 0.7])),
    ], ids=["from_exponent", "underflowed", "from_matrix"])
    def test_log_spectrum_contract(self, make):
        # read-only and ascending, with the stored eigenvalues exp of it bit for bit
        rho = make()
        w = rho.log_eigenvalues
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0
        assert np.array_equal(np.exp(w), rho.eigenvalues)
        assert np.all(np.diff(w) >= 0.0)
        assert np.all(np.isfinite(w))

    def test_log_spectrum_stays_finite_where_an_eigenvalue_underflows(self):
        rho = DensityState.from_exponent(np.diag([0.0, -800.0]))
        assert rho.eigenvalues[0] == 0.0
        assert rho.log_eigenvalues[0] == -800.0

    @pytest.mark.parametrize("h", [np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2)), np.zeros((0, 0))],
                             ids=["non-square", "vector", "stack", "empty"])
    def test_from_exponent_rejects_a_non_square_array(self, h):
        with pytest.raises(InvalidInput, match="square"):
            DensityState.from_exponent(h)

    # halving a complex inf gives 0 * inf in the imaginary part, which numpy
    # reports on the way to the rejection; one inf entry gives NaN
    # eigenvalues, an all-inf array a LinAlgError (LAPACK does not converge)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("h", [
        pytest.param(with_entry(np.inf), id="inf"),
        pytest.param(with_entry(np.nan), id="nan"),
        pytest.param(np.full((3, 3), np.inf), id="all-inf"),
    ])
    def test_from_exponent_rejects_non_finite_array(self, h):
        with pytest.raises(InvalidInput):
            DensityState.from_exponent(h)

    def test_inverse_of_underflowed_state(self):
        rho = DensityState.from_exponent(HermitianOperator(np.diag([-800.0, 0.0])))
        with pytest.raises(DomainError):
            rho.inverse()

    def test_inverse(self):
        rho = DensityState.from_matrix(np.diag([0.25, 0.75]))
        assert np.allclose(rho.inverse(), np.diag([4.0, 4.0 / 3.0]), atol=1e-12)
