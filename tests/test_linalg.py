import ast
import operator
import pathlib
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meancert import hsnorm, linalg, randgen, scalar
from meancert.cli import main
from meancert.linalg import (FAST_POWERS, DomainError, Powers, clamp_psd, eigh, hermitianize,
                             hs_norms, is_psd, lapack, power_rows, validate_hermitian)
from meancert.runner import CASES


def rand_pd(dim, seed, lo=0.1, hi=10.0, complex_entries=False):
    rng = np.random.default_rng(seed)
    lam = np.exp(rng.uniform(np.log(lo), np.log(hi), dim))
    z = rng.standard_normal((dim, dim))
    if complex_entries:
        z = z + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return hermitianize((q * lam) @ q.conj().T)


def error_of(f, *args):
    """The text of the DomainError that f(*args) raises, or None."""
    try:
        f(*args)
    except DomainError as exc:
        return str(exc)
    return None


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

    @pytest.mark.parametrize("dtype", [np.float16, np.longdouble, np.clongdouble])
    @pytest.mark.parametrize("entry", [validate_hermitian, is_psd, eigh,
                                       lambda M: Powers(M).pow(0.5)],
                             ids=["validate_hermitian", "is_psd", "eigh", "pow"])
    def test_a_dtype_no_lapack_loop_takes_is_a_domain_error(self, entry, dtype):
        # numpy.linalg would raise its TypeError for these
        for m in (np.eye(2, dtype=dtype), np.eye(2, dtype=dtype)[None]):
            with pytest.raises(DomainError, match=f"dtype {np.dtype(dtype)}"):
                entry(m)

    def test_an_integer_matrix_takes_the_double_loop(self):
        m = np.array([[2, 1], [1, 2]])
        assert eigh(m)[0].dtype == np.float64
        assert is_psd(m).ok and Powers(m).pow(0.5).dtype == np.float64

    def test_complex_hermitian_kept(self):
        m = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
        assert np.iscomplexobj(validate_hermitian(m))

    @pytest.mark.parametrize("cx", [False, True])
    def test_exactly_hermitian_input_keeps_the_bits_of_its_hermitian_part(self, cx):
        # the package's matrices are Hermitian parts, so exactly Hermitian: the result
        # is the matrix itself, as the symmetrization gave it
        mats = [rand_pd(n, 50 + n, 1e-3, 1e3, complex_entries=cx) for n in (1, 2, 3, 5, 8)]
        zeros = hermitianize(np.diag([1.0, -0.0, 2.0]) + (0j if cx else 0.0))
        mats += [zeros, hermitianize(np.stack([mats[2], -mats[2], 0.0 * mats[2]]))]
        for m in mats:
            assert bits(validate_hermitian(m)) == bits(hermitianize(m))
            assert bits(Powers(m).eigenvalues) == bits(np.linalg.eigh(hermitianize(m))[0])

    def test_result_is_a_new_array(self):
        # a Powers decomposes on first read, after the caller's array may have changed
        m = rand_pd(3, 60)
        kept = m.copy()
        p = Powers(m)
        assert not np.shares_memory(validate_hermitian(m), m)
        m[0, 1] = m[1, 0] = 99.0
        assert bits(p.matrix) == bits(kept)
        assert bits(p.eigenvalues) == bits(np.linalg.eigh(kept)[0])

    def test_huge_exactly_hermitian_entries_keep_their_eigenvalues(self):
        # (M + M*)/2 would overflow 1e308 to inf; an exactly Hermitian M is kept
        m = np.diag([1e308, 2.0])
        assert list(eigh(m)[0]) == [2.0, 1e308]
        res = is_psd(m)
        assert (res.ok, res.lam_min, res.scale) == (True, 2.0, 1e308)
        assert list(eigh(m.astype(complex))[0]) == [2.0, 1e308]

    @pytest.mark.parametrize("cx", [False, True])
    def test_an_overflowing_hermitian_part_is_a_domain_error(self, cx):
        # asymmetry 0.5 is within the window at this scale, but the symmetrization overflows
        m = np.array([[1.7e308, 1.0], [1.5, 1.0]]) + (0j if cx else 0.0)
        for got in (m, np.stack([np.eye(2), m])):
            with pytest.raises(DomainError, match=r"Hermitian part \(M \+ M\*\)/2"):
                validate_hermitian(got)
            with pytest.raises(DomainError, match=r"Hermitian part \(M \+ M\*\)/2"):
                is_psd(got)

    @pytest.mark.parametrize("m", [
        np.array([[0.0, 1e308], [-1e308, 0.0]]),
        np.array([[0.0, 1e308j], [1e308j, 0.0]]),
        np.stack([np.eye(2), np.array([[0.0, 1e308], [-1e308, 0.0]])]),
    ], ids=["real", "complex", "stacked"])
    def test_an_asymmetry_past_the_range_of_floats_is_measured(self, m):
        # |M - M*| is 2e308, which M - M* overflows to inf with a warning
        with pytest.raises(DomainError, match=r"^matrix is not Hermitian: max asymmetry "
                                              r"2\.000e\+308 exceeds 1\.0e-08 \* 1\.000e\+308$"):
            validate_hermitian(m)

    def test_a_complex_entry_whose_modulus_is_past_the_range_of_floats_is_measured(self):
        # the modulus of each entry, 2.1e308, once made the tolerance infinite, so
        # this matrix passed as Hermitian, with the Hermitian part 0
        m = np.array([[0.0, 1.5e308 + 1.5e308j], [-1.5e308 + 1.5e308j, 0.0]])
        with pytest.raises(DomainError, match=r"^matrix is not Hermitian: max asymmetry "
                                              r"4\.243e\+308 exceeds 1\.0e-08 \* 2\.121e\+308$"):
            validate_hermitian(m)

    def test_a_built_matrix_is_checked_only_for_finiteness(self):
        m = rand_pd(3, 61)
        assert validate_hermitian(m, hermitian=True) is m
        assert Powers(m, hermitian=True).matrix is m
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="^matrix contains non-finite entries$"):
                Powers(np.diag([1.0, bad]), hermitian=True)


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

    def test_a_coefficient_not_finite_names_the_first_weight(self):
        # a shared weight takes float **, which raises OverflowError; a stack of
        # weights takes an array power, which gives inf: both read alike
        want = ("heinz_weight is not finite at nu=1e-160; this weight takes the "
                "arithmetic out of the range of floats")
        for nus in ([1e-160], [1e-160, 1e-160], [0.5, 1e-160, 1e-300]):
            assert error_of(linalg.col, np.array(nus), scalar.heinz_weight) == want
        def pair(nu):
            return nu, scalar.heinz_weight(nu)
        assert error_of(linalg.col, np.array([0.25, 1e-300, 0.5]), pair) == (
            "pair is not finite at nu=1e-300; this weight takes the arithmetic out of "
            "the range of floats")
        assert linalg.col(np.array([0.25, 0.25]), scalar.heinz_weight) == 0.25 ** -1.75

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
            clamp_psd(eigh(neg)[0], "B")
        with pytest.raises(DomainError) as stacked:
            clamp_psd(w, "B")
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("exps", [(0.3, 0.7), (-0.5, 0.25), (0.5, -1.0), (2.0, -0.5),
                                      (0.3, 0.3)])
    @pytest.mark.parametrize("bad_rows", [(0,), (1,), (0, 1)])
    def test_a_bad_base_in_a_stack_reads_as_that_power_alone(self, exps, bad_rows):
        # each matrix of a stack with one exponent per matrix is checked as it is
        # alone, and the first that fails names its own exponent
        for bad in (np.diag([-1.0, 2.0]), np.diag([0.0, 2.0])):
            mats = [bad if i in bad_rows else rand_pd(2, 43 + i) for i in range(2)]
            alone = [error_of(Powers(m).pow, p) for m, p in zip(mats, exps)]
            want = next((e for e in alone if e is not None), None)
            assert error_of(Powers(np.stack(mats)).pow_rows, list(exps)) == want

    @pytest.mark.parametrize("k, exps", [(1, [0.3, 0.7]), (3, [0.3, 0.7]),
                                         (3, [0.3, 0.7, 0.5, 0.25])])
    def test_exponents_of_the_wrong_count_are_a_domain_error(self, k, exps):
        mats = [rand_pd(3, 50 + i) for i in range(k)]
        powers = Powers(mats[0] if k == 1 else np.stack(mats))
        with pytest.raises(DomainError) as exc:
            powers.pow_rows(exps)
        assert str(exc.value) == f"the exponent has {len(exps)} values for a stack of {k}"
        # an exponent that every matrix shares is still one exponent
        assert bits(powers.pow_rows([0.3] * (k + 1))) == bits(powers.pow(0.3))

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


# every k/64 in [-2, 3], a non-dyadic weight, a negative zero and numpy's
# shortcut exponents (already among the k/64, named again for the record)
EXPONENTS = [k / 64 for k in range(-128, 193)] + [1 / 3, -0.0, *FAST_POWERS]
SPECIAL_BASES = [0.0, 5e-324, 1e-300, 3.7e-301, 1e300, 2.2e299, 1.0]
POWERS = pytest.mark.parametrize("power", [np.power, operator.pow], ids=["np.power", "pow"])


def u64(a):
    return np.ascontiguousarray(a).view(np.uint64)


def spectra(k, n, seed):
    """(k, n) bases, log-uniform over 1e-17..1e17 with a tenth of them special."""
    rng = np.random.default_rng(seed)
    v = np.exp(rng.uniform(-40.0, 40.0, (k, n)))
    special = rng.random((k, n)) < 0.1
    v[special] = rng.choice(SPECIAL_BASES, int(special.sum()))
    return v


def row_exponents(k, seed):
    """k exponents from EXPONENTS; every one of them once k reaches their count."""
    rng = np.random.default_rng(seed)
    if k >= len(EXPONENTS):
        return rng.permutation(np.resize(EXPONENTS, k))
    return rng.choice(EXPONENTS, k)


@np.errstate(all="ignore")  # zero to a negative power, 1e300 cubed
def assert_rows_alone(v, ps, power):
    got = power_rows(v, ps, set(ps.tolist()), power)
    for i, p in enumerate(ps.tolist()):
        assert u64(got[i]).tolist() == u64(power(np.ascontiguousarray(v[i]), p)).tolist(), p


class TestPowerRows:
    """``power_rows`` equals the power of each row alone, on a Python float, as uint64 bits."""

    @POWERS
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17])
    def test_equals_each_row_alone(self, power, n):
        for k in (1, 2, 7, 64, 333, 1000):
            v, e = spectra(k, n, seed=k + n), row_exponents(k, seed=k * n)
            assert_rows_alone(v, e, power)

    @POWERS
    def test_strided_or_reversed_base_is_taken_as_contiguous_rows(self, power):
        big = spectra(200, 34, seed=5)
        e = row_exponents(100, seed=6)
        for v in (big[::2, ::2], big[:100, ::-1], big[::-2, 17:], big[:100, :17].T.copy().T):
            assert_rows_alone(v, e, power)

    @POWERS
    def test_only_the_shortcut_exponents_differ_from_an_array_of_exponents(self, power):
        # numpy's power on a float exponent matches its power on an array of
        # that exponent everywhere but at FAST_POWERS: a numpy that takes a
        # shortcut for another exponent fails here, and power_rows must grow
        v = spectra(1, 4096, seed=7)[0]
        with np.errstate(all="ignore"):
            differ = [p for p in EXPONENTS if u64(power(v, p)).tolist()
                      != u64(np.power(v, np.full_like(v, p))).tolist()]
        assert sorted(set(differ) - set(FAST_POWERS)) == []


# the dtypes numpy.linalg takes, real and complex: an integer matrix goes
# through the double loop, and single precision comes back single
LAPACK_DTYPES = {False: (np.float64, np.float32, np.int64), True: (np.complex128, np.complex64)}
LAPACK_GUFUNCS = ("eigh_lo", "eigvalsh_lo", "qr_r_raw", "qr_reduced")


def lapack_inputs(n, cx, k, dtype, seed):
    """A Hermitian and a general matrix of ``dtype``: one (n, n) when k is None,
    else stacks (k, n, n)."""
    rng = np.random.default_rng(seed)
    shape = (n, n) if k is None else (k, n, n)
    z = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if cx else 0.0)
    if dtype is np.int64:
        z = np.rint(9 * z)
    return hermitianize(z).astype(dtype), z.astype(dtype)


def invalid(M, *args, **kwargs):
    """A stub gufunc whose loop sets the invalid flag, as a LAPACK failure does."""
    return np.sqrt(np.full(M.shape[:-1], -1.0))


def operations_with(**stubs):
    """linalg's operations on this numpy's gufuncs, with ``stubs`` in place of some."""
    umath = {name: getattr(np.linalg._umath_linalg, name) for name in LAPACK_GUFUNCS}
    return linalg._operations(types.SimpleNamespace(**{**umath, **stubs}))


class TestLapack:
    """``linalg.lapack`` calls numpy's LAPACK gufuncs as numpy.linalg does, and
    so gives its bits and dtypes."""

    @pytest.mark.parametrize("k", [None, 1, 26], ids=["2d", "k1", "k26"])
    @pytest.mark.parametrize("cx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33])
    def test_bits_and_dtypes_equal_numpy_linalg(self, n, cx, k):
        for dtype in LAPACK_DTYPES[cx]:
            H, Z = lapack_inputs(n, cx, k, dtype, seed=100 * n + (k or 0))
            w, V = lapack("eigh", H)
            want_w, want_V = np.linalg.eigh(H)
            assert bits(w) == bits(want_w) and bits(V) == bits(want_V), dtype
            assert bits(lapack("eigvalsh", H)) == bits(np.linalg.eigvalsh(H)), dtype
            Q, F = lapack("qr", Z)
            want_Q, want_R = np.linalg.qr(Z)
            assert bits(Q) == bits(want_Q), dtype
            assert bits(F.diagonal(0, -2, -1)) == bits(want_R.diagonal(0, -2, -1)), dtype

    def test_this_numpy_takes_the_gufunc_path(self):
        assert all(hasattr(np.linalg._umath_linalg, name) for name in LAPACK_GUFUNCS)
        assert {op: run.__qualname__ for op, run in linalg._LAPACK.items()} == {
            "eigh": "_operations.<locals>.eigh", "eigvalsh": "_operations.<locals>.eigvalsh",
            "qr": "_operations.<locals>.qr"}

    def test_an_operation_whose_gufunc_is_missing_is_numpy_linalgs(self, monkeypatch):
        assert linalg._operations(None) == {
            "eigh": np.linalg.eigh, "eigvalsh": np.linalg.eigvalsh, "qr": np.linalg.qr}
        umath = np.linalg._umath_linalg
        ops = linalg._operations(types.SimpleNamespace(eigh_lo=umath.eigh_lo,
                                                       qr_r_raw=umath.qr_r_raw))
        assert ops["eigvalsh"] is np.linalg.eigvalsh and ops["qr"] is np.linalg.qr
        assert ops["eigh"] is not np.linalg.eigh
        # and the fallbacks serve the entry as the gufuncs do
        H, Z = lapack_inputs(5, True, 3, np.complex128, seed=7)
        want = lapack("eigh", H), lapack("eigvalsh", H), lapack("qr", Z)
        monkeypatch.setattr(linalg, "_LAPACK", linalg._operations(None))
        (w, V), e, (Q, F) = lapack("eigh", H), lapack("eigvalsh", H), lapack("qr", Z)
        assert bits(w) == bits(want[0][0]) and bits(V) == bits(want[0][1])
        assert bits(e) == bits(want[1]) and bits(Q) == bits(want[2][0])
        assert bits(F.diagonal(0, -2, -1)) == bits(want[2][1].diagonal(0, -2, -1))

    def test_an_unsupported_dtype_is_numpy_linalgs_type_error(self):
        m = np.eye(3, dtype=np.float16)
        for op in ("eigh", "eigvalsh", "qr"):
            with pytest.raises(TypeError, match="array type float16 is unsupported in linalg"):
                getattr(np.linalg, op)(m)
            with pytest.raises(TypeError, match="array type float16 is unsupported in linalg"):
                lapack(op, m)

    @pytest.mark.parametrize("op", ["eigh", "eigvalsh"])
    def test_a_failure_of_lapack_itself_is_a_domain_error(self, op):
        # the entry fails where numpy.linalg does (this LAPACK fails on NaN),
        # with numpy.linalg's reason
        m = np.full((3, 3), np.nan)
        try:
            want = getattr(np.linalg, op)(m)
        except np.linalg.LinAlgError as exc:
            assert str(exc) == "Eigenvalues did not converge"
            with pytest.raises(DomainError, match=r"^eigendecomposition failed for a 3x3 "
                                                  r"matrix \(max \|entry\| nan\): Eigenvalues "
                                                  r"did not converge$"):
                lapack(op, m)
        else:
            got = lapack(op, m)
            assert bits(got[0] if op == "eigh" else got) == bits(want[0] if op == "eigh" else want)

    def test_powers_reports_a_failed_eigh(self, monkeypatch):
        monkeypatch.setattr(linalg, "_LAPACK", operations_with(eigh_lo=invalid))
        with pytest.raises(DomainError, match=r"^eigendecomposition failed for a 3x3 matrix "
                                              r"\(max \|entry\| 2\.000e\+00\): "
                                              r"Eigenvalues did not converge$"):
            Powers(2.0 * np.eye(3)).pow(0.5)

    def test_the_hs_hypothesis_reports_a_failed_eigvalsh(self, monkeypatch, capsys):
        monkeypatch.setattr(linalg, "_LAPACK", operations_with(eigvalsh_lo=invalid))
        a = rand_pd(3, 1)
        with pytest.raises(DomainError, match="^case hs-2.14 hypothesizes a positive "
                                              "semidefinite X: eigendecomposition failed "
                                              "for a 3x3 matrix"):
            hsnorm.certify_hs(CASES["hs-2.14"], a, a, a, 0.5)
        # a sweep exits 2 and says why, where numpy.linalg's LinAlgError escaped
        capsys.readouterr()
        assert main(["matrix-verify", "--case", "hs-2.14", "--trials", "2", "--dim", "3"]) == 2
        assert "eigendecomposition failed for a 3x3 matrix" in capsys.readouterr().err

    def test_orthonormalize_reports_a_failed_qr(self, monkeypatch):
        monkeypatch.setattr(linalg, "_LAPACK", operations_with(qr_r_raw=invalid))
        with pytest.raises(DomainError, match=r"^QR factorization failed for a 3x3 matrix "
                                              r"\(max \|entry\| 1\.000e\+00\): Incorrect "
                                              r"argument found while performing QR "
                                              r"factorization$"):
            randgen.orthonormalize(np.eye(3))


# numpy.linalg's names that the package may reference, and where; any other
# one would run LAPACK past linalg.lapack (which takes numpy.linalg's
# functions only where this numpy lacks a gufunc)
NUMPY_LINALG_OK = {"LinAlgError": None, "_umath_linalg": "linalg",
                   "eigh": "linalg._operations", "eigvalsh": "linalg._operations",
                   "qr": "linalg._operations"}


def numpy_linalg_uses(module: str, source: str) -> list[str]:
    """``where: name`` for each name of numpy.linalg that ``source`` reads, as
    ``np.linalg.name``, ``numpy.linalg.name`` or a ``from numpy.linalg``
    import, where is ``module`` or ``module.function`` (its top-level def)."""
    found = []
    for top in ast.parse(source).body:
        where = f"{module}.{top.name}" if isinstance(top, ast.FunctionDef) else module
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg" and isinstance(node.value.value, ast.Name)
                    and node.value.value.id in ("np", "numpy")):
                found.append(f"{where}: {node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                    "numpy.linalg"):
                found += [f"{where}: {a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                found += [f"{where}: {a.name}" for a in node.names
                          if a.name.startswith("numpy.linalg")]
    return found


def test_the_scan_sees_each_way_to_reach_numpy_linalg():
    source = ("import numpy as np\nimport numpy.linalg\nfrom numpy.linalg import qr\n"
              "def f(m):\n    return np.linalg.eigvalsh(m), numpy.linalg.svd(m)\n"
              "x = np.linalg.LinAlgError\n")
    assert numpy_linalg_uses("m", source) == [
        "m: numpy.linalg", "m: qr", "m.f: eigvalsh", "m.f: svd", "m: LinAlgError"]


@pytest.mark.parametrize("path", sorted(pathlib.Path(linalg.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_lapack_is_reached_only_through_the_entry(path):
    for use in numpy_linalg_uses(path.stem, path.read_text(encoding="utf-8")):
        where, name = use.split(": ")
        assert name in NUMPY_LINALG_OK, use
        allowed = NUMPY_LINALG_OK[name]
        assert allowed is None or where == allowed, use
