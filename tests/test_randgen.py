import zlib

import numpy as np
import pytest

from meancert.linalg import DomainError, is_psd
from meancert.randgen import assemble, derive_seed, parse_law, sample_spectrum, trial_rng
from meancert.runner import RunConfig, draw_trial, inputs, make_digest


def digest(case="op-2.3", trial=0, dim=4, **cfg):
    """The digest of one trial of ``case``, as a sweep at one dim writes it."""
    return make_digest(case, RunConfig(dims=(dim,), **cfg), trial)


def raw(draws):
    return b"".join(d.tobytes() for d in draws)


class TestParseLaw:
    def test_log_uniform(self):
        assert parse_law("log-uniform:0.001:1000.0") == ("log-uniform", (0.001, 1000.0))

    def test_explicit(self):
        assert parse_law("explicit:1,2.5,3") == ("explicit", (1.0, 2.5, 3.0))

    def test_clustered(self):
        assert parse_law("clustered:2.0:0.1") == ("clustered", (2.0, 0.1))

    @pytest.mark.parametrize("bad", [
        "log-uniform:-1:10", "log-uniform:5:1", "log-uniform:0:1",
        "explicit:", "explicit:1,-2", "explicit:abc",
        "clustered:0:0.5", "clustered:1:1.0", "clustered:1:-0.1",
        "gaussian:1:2", "log-uniform:1",
    ])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_law(bad)


class TestDigestValues:
    def test_inputs_check_the_digest(self):
        for field, value in (("dim", 0), ("seed", -1), ("law", "nope:1")):
            with pytest.raises(DomainError):
                inputs({**digest(dim=2), field: value})


class TestDeterminism:
    def test_same_trial_same_bytes(self):
        d = digest(trial=7, dim=5, seed=123)
        assert raw(draw_trial(d)) == raw(draw_trial(d))
        assert inputs(d)["A"].tobytes() == inputs(d)["A"].tobytes()

    def test_trials_independent_of_order(self):
        digests = [digest(trial=t, seed=9) for t in range(5)]
        forward = [raw(draw_trial(d)) for d in digests]
        backward = [raw(draw_trial(d)) for d in reversed(digests)]
        assert forward == backward[::-1]

    def test_different_trials_differ(self):
        assert (inputs(digest(trial=0, seed=9))["A"].tobytes()
                != inputs(digest(trial=1, seed=9))["A"].tobytes())

    def test_different_seeds_differ(self):
        a = inputs(digest(seed=1))["A"]
        b = inputs(digest(seed=2))["A"]
        assert a.tobytes() != b.tobytes()

    def test_derive_seed_stable_and_label_sensitive(self):
        assert derive_seed(0, "op-2.3") == zlib.crc32(b"op-2.3")
        assert derive_seed(1, "op-2.3") == (1 << 32) ^ zlib.crc32(b"op-2.3")
        assert derive_seed(0, "op-2.3") != derive_seed(0, "op-2.5")
        with pytest.raises(DomainError):
            derive_seed(-1, "x")

    def test_trial_rng_reproducible(self):
        r1 = trial_rng(42, 3).standard_normal(8)
        r2 = trial_rng(42, 3).standard_normal(8)
        r3 = trial_rng(42, 4).standard_normal(8)
        assert np.array_equal(r1, r2)
        assert not np.array_equal(r1, r3)


class TestSpectraAndBases:
    def test_explicit_diagonal_exact(self):
        # an explicit law is drawn exactly; in the identity basis it is the diagonal
        lam = draw_trial(digest(dim=3, law="explicit:2,3,4"))[0]
        assert np.array_equal(assemble(lam, np.eye(3)), np.diag([2.0, 3.0, 4.0]))

    def test_explicit_broadcast(self):
        rng = trial_rng(0, 0)
        assert np.array_equal(sample_spectrum(rng, "explicit:5", 4), np.full(4, 5.0))

    def test_explicit_length_mismatch(self):
        with pytest.raises(DomainError, match="dim"):
            sample_spectrum(trial_rng(0, 0), "explicit:1,2", 3)

    def test_spectrum_fidelity(self):
        w = np.linalg.eigvalsh(inputs(digest(law="explicit:0.5,1,2,8"))["A"])
        assert np.allclose(sorted(w), [0.5, 1.0, 2.0, 8.0], rtol=1e-10)

    def test_log_uniform_range(self):
        rng = trial_rng(1, 0)
        w = sample_spectrum(rng, "log-uniform:0.01:100.0", 500)
        assert w.min() >= 0.01 and w.max() <= 100.0

    def test_clustered_range(self):
        rng = trial_rng(2, 0)
        w = sample_spectrum(rng, "clustered:5.0:0.2", 500)
        assert np.all((w >= 4.0) & (w <= 6.0))

    def test_basis_orthonormal(self):
        (_, q), _ = inputs(digest("hs-2.14", dim=6, seed=3))["oracle"]
        assert np.allclose(q.T @ q, np.eye(6), atol=1e-12)

    def test_unitary_basis(self):
        (_, q), _ = inputs(digest("hs-2.14", dim=5, seed=4, complex_entries=True))["oracle"]
        assert np.allclose(q.conj().T @ q, np.eye(5), atol=1e-12)

    def test_condition_number_reaches_law_bounds(self):
        conds = [np.linalg.cond(inputs(digest(trial=t, dim=8, law="log-uniform:0.001:1000.0",
                                              seed=5))["A"]) for t in range(50)]
        assert max(conds) > 1e4  # the law spans six decades


class TestPairs:
    def test_ordered_pair_is_ordered(self):
        for t in range(30):
            got = inputs(digest("op-2.7-left", trial=t, dim=5, seed=6))
            assert is_psd(got["B"] - got["A"], 1e-10).ok

    def test_ordered_pair_zero_gap(self):
        got = inputs(digest("op-2.7-left", seed=7, w_law="explicit:0"))
        assert np.array_equal(got["A"], got["B"])

    def test_ordered_pair_custom_w_law(self):
        got = inputs(digest("op-2.7-left", dim=3, seed=8, w_law="explicit:1"))
        w = np.linalg.eigvalsh(got["B"] - got["A"])
        assert np.allclose(w, 1.0, atol=1e-12)

    def test_pd_outputs_are_pd(self):
        for t in range(10):
            got = inputs(digest(trial=t, dim=6, seed=10, complex_entries=True))
            for m in (got["A"], got["B"]):
                assert np.allclose(m, m.conj().T)
                assert np.linalg.eigvalsh(m).min() > 0


class TestGeneral:
    def test_shape_and_dtype(self):
        x = inputs(digest("hs-2.13", seed=11))["X"]
        assert x.shape == (4, 4) and x.dtype == np.float64

    def test_complex_unit_variance(self):
        samples = np.concatenate([
            inputs(digest("hs-2.13", trial=t, dim=8, seed=12, complex_entries=True))["X"].ravel()
            for t in range(200)])
        assert abs(np.mean(samples.real)) < 0.02
        assert abs(np.var(samples) - 1.0) < 0.05  # Re and Im each carry 1/2

    def test_real_moments(self):
        samples = np.concatenate([inputs(digest("hs-2.13", trial=t, dim=8, seed=13))["X"].ravel()
                                  for t in range(200)])
        assert abs(np.mean(samples)) < 0.02
        assert abs(np.var(samples) - 1.0) < 0.05
