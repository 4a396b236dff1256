import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meancert.linalg import (DomainError, Powers, clamp_psd, eigh, hermitianize, hs_norms,
                             is_psd, validate_hermitian)


def rand_pd(dim, seed, lo=0.1, hi=10.0, complex_entries=False):
    rng = np.random.default_rng(seed)
    lam = np.exp(rng.uniform(np.log(lo), np.log(hi), dim))
    z = rng.standard_normal((dim, dim))
    if complex_entries:
        z = z + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return hermitianize((q * lam) @ q.conj().T)


class TestValidateHermitian:
    def test_accepts_symmetric(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        out = validate_hermitian(m)
        assert np.array_equal(out, m)

    def test_symmetrizes_tiny_skew(self):
        m = np.array([[1.0, 1.0 + 1e-12], [1.0, 1.0]])
        out = validate_hermitian(m)
        assert out[0, 1] == out[1, 0]

    def test_rejects_large_skew(self):
        with pytest.raises(DomainError, match="[Hh]ermitian"):
            validate_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            validate_hermitian(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            validate_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_complex_hermitian_kept(self):
        m = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
        assert np.iscomplexobj(validate_hermitian(m))


class TestEigh:
    def test_frozen_2x2(self):
        # example with closed-form spectrum {1, 3}
        w, v = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert w == pytest.approx([1.0, 3.0], abs=1e-14)
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-14)

    def test_reconstruction(self):
        m = rand_pd(5, 0)
        w, v = eigh(m)
        rec = (v * w) @ v.conj().T
        assert np.allclose(rec, m, atol=1e-12 * np.linalg.norm(m, 2))

    def test_ascending_order(self):
        w, _ = eigh(rand_pd(6, 1))
        assert np.all(np.diff(w) >= 0)


class TestMatPow:
    """M**p through a one-off Powers(M).pow(p)."""

    def test_integer_power_matches_product(self):
        m = rand_pd(4, 3)
        assert np.allclose(Powers(m).pow(3), m @ m @ m,
                           rtol=1e-12, atol=1e-12 * np.linalg.norm(m, 2) ** 3)

    def test_sqrt_squares_back(self):
        m = rand_pd(5, 4)
        r = Powers(m).pow(0.5)
        assert np.allclose(r @ r, m, atol=1e-11 * np.linalg.norm(m, 2))

    def test_inverse(self):
        m = rand_pd(4, 5)
        assert np.allclose(Powers(m).pow(-1.0) @ m, np.eye(4), atol=1e-9)

    def test_homomorphism(self):
        m = rand_pd(4, 6)
        p = Powers(m)
        lhs = p.pow(0.7)
        rhs = p.pow(0.3) @ p.pow(0.4)
        assert np.allclose(lhs, rhs, atol=1e-11 * np.linalg.norm(lhs, 2))

    def test_zero_power_is_identity(self):
        assert np.allclose(Powers(rand_pd(3, 7)).pow(0.0), np.eye(3), atol=1e-13)

    def test_clamps_roundoff_negative(self):
        # eigenvalue -1e-14 sits inside the clamp window and maps to 0
        m = np.diag([-1e-14, 1.0])
        r = Powers(m).pow(0.5)
        assert r[0, 0] == 0.0
        assert r[1, 1] == pytest.approx(1.0)

    def test_rejects_genuinely_negative_for_fractional(self):
        with pytest.raises(DomainError, match="eigenvalue"):
            Powers(np.diag([-1.0, 1.0])).pow(0.5)

    def test_rejects_singular_for_negative_power(self):
        with pytest.raises(DomainError):
            Powers(np.diag([0.0, 1.0])).pow(-1.0)

    def test_integer_power_allows_indefinite(self):
        m = np.diag([-2.0, 3.0])
        assert np.allclose(Powers(m).pow(2), np.diag([4.0, 9.0]))


class TestIsPsd:
    def test_identity(self):
        res = is_psd(np.eye(3))
        assert res.ok and res.lam_min == pytest.approx(1.0)

    def test_indefinite_witness(self):
        m = np.diag([1.0, -2.0])
        res = is_psd(m)
        assert not res.ok
        assert res.lam_min == pytest.approx(-2.0)
        # witness attains the minimal eigenvalue as a Rayleigh quotient
        w = res.witness
        assert abs(w.conj() @ m @ w - res.lam_min) < 1e-12
        assert np.linalg.norm(w) == pytest.approx(1.0)

    def test_scale_is_relative(self):
        # -2e-9 against norm 1e3 is within the default relative window
        assert is_psd(np.diag([-2e-9, 1e3])).ok
        assert not is_psd(np.diag([-2e-9, 1.0])).ok

    @given(st.floats(min_value=1e-12, max_value=1e-2),
           st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_tol(self, tol, factor):
        m = np.diag([-5e-7, 1.0])
        if is_psd(m, tol).ok:
            assert is_psd(m, tol * factor).ok


class TestNorms:
    def test_hs_norm_frozen(self):
        assert hs_norms(np.diag([3.0, 4.0]))[0, 0] == 5.0

    def test_hs_norm_unitary_invariance(self):
        m = rand_pd(5, 8)
        q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((5, 5)))
        assert hs_norms(q @ m @ q.T)[0, 0] == pytest.approx(hs_norms(m)[0, 0], rel=1e-12)

    def test_hs_norm_not_square_ok(self):
        assert hs_norms(np.array([[1.0, 2.0, 2.0]]))[0, 0] == 3.0


class TestPowers:
    def test_pow_one_is_input(self):
        m = rand_pd(4, 11)
        p = Powers(m)
        assert p.pow(1.0) is p.matrix

    def test_pow_zero_is_exact_identity(self):
        p = Powers(rand_pd(4, 12))
        assert np.array_equal(p.pow(0.0), np.eye(4))

    def test_pow_cached(self):
        p = Powers(rand_pd(3, 13))
        assert p.pow(0.5) is p.pow(0.5)

    def test_matches_mat_pow(self):
        # a power of a Powers that holds others equals that of a one-off Powers
        m = rand_pd(5, 14)
        p = Powers(m)
        p.pow(0.5)
        assert np.array_equal(p.pow(-0.5), Powers(m).pow(-0.5))

    def test_dim(self):
        assert Powers(rand_pd(6, 15)).dim == 6

    def test_complex_input(self):
        m = rand_pd(4, 16, complex_entries=True)
        p = Powers(m)
        r = p.pow(0.5)
        assert np.allclose(r @ r, m, atol=1e-11 * np.linalg.norm(m, 2))


def bits(a):
    return a.dtype, a.shape, a.tobytes()


class TestStacks:
    """Each matrix of a stack (k, n, n) is treated as it would be alone, bit for bit."""

    @pytest.mark.parametrize("cx", [False, True])
    def test_powers_and_psd_checks_match_one_at_a_time(self, cx):
        mats = [rand_pd(4, 30 + i, 1e-3, 1e3, complex_entries=cx) for i in range(6)]
        stack = Powers(np.stack(mats))
        exps = [0.5, 0.25, 0.0, 1.0, 0.25, 0.75]
        for p in (0.5, -0.5, -1.0, 2.0, 0.0, 1.0):
            got = stack.pow(p)
            for i, m in enumerate(mats):
                assert bits(got[i]) == bits(Powers(m).pow(p))
        got = stack.pow_rows(exps)
        for i, (m, p) in enumerate(zip(mats, exps)):
            assert bits(got[i]) == bits(Powers(m).pow(p))
        res = is_psd(np.stack(mats) - 0.5 * np.eye(4))
        for i, m in enumerate(mats):
            one = is_psd(m - 0.5 * np.eye(4))
            assert (res.ok[i], res.lam_min[i], res.scale[i]) == (one.ok, one.lam_min, one.scale)
            assert bits(res.witness[i]) == bits(one.witness)

    def test_errors_report_the_first_matrix_that_fails(self):
        good = rand_pd(3, 40)
        asym = good + np.triu(np.ones((3, 3)), 1)
        worse = good + 2 * np.triu(np.ones((3, 3)), 1)
        with pytest.raises(DomainError) as alone:
            validate_hermitian(asym)
        with pytest.raises(DomainError) as stacked:
            validate_hermitian(np.stack([good, asym, worse]))
        assert str(stacked.value) == str(alone.value)
        neg = good - 2 * np.linalg.norm(good, 2) * np.eye(3)
        w = np.stack([eigh(m)[0] for m in (good, neg, 2 * neg)])
        with pytest.raises(DomainError) as alone:
            clamp_psd(eigh(neg)[0], 1e-9, "B")
        with pytest.raises(DomainError) as stacked:
            clamp_psd(w, 1e-9, "B")
        assert str(stacked.value) == str(alone.value)

    def test_zero_imaginary_matrix_keeps_complex_dtype(self):
        real = rand_pd(3, 41).astype(complex)  # complex dtype, zero imaginary part
        cplx = rand_pd(3, 42, complex_entries=True)
        mats = (cplx, real)
        stack = np.stack(mats)
        assert validate_hermitian(stack).dtype == complex
        assert validate_hermitian(real).dtype == complex
        p = Powers(stack)
        assert p.eigenvectors.dtype == complex
        res, root = is_psd(stack), p.pow(0.5)
        assert root.dtype == complex
        for i, m in enumerate(mats):
            one = is_psd(m)
            assert one.witness.dtype == res.witness[i].dtype == complex
            assert (res.ok[i], res.lam_min[i], res.scale[i]) == (one.ok, one.lam_min, one.scale)
            assert bits(res.witness[i]) == bits(one.witness)
            assert bits(root[i]) == bits(Powers(m).pow(0.5))
