import random
import zlib

import numpy as np
import pytest

from meancert import runner
from meancert.linalg import DomainError, is_psd
from meancert.randgen import (ARRAY_KEYS_FROM, assemble, derive_seed, parse_law, spectra,
                              stream_template, trial_keys)
from meancert.runner import CASES, RunConfig, Stack, build_inputs, draw_stack, inputs, make_digest

MATRIX = [cid for cid, case in CASES.items() if case.kind != "scalar"]


def digest(case="op-2.3", trial=0, dim=4, **cfg):
    """The digest of one trial of ``case``, as a sweep at one dim writes it."""
    return make_digest(case, RunConfig(dims=(dim,), **cfg), trial)


def raw(draws):
    return b"".join(d.tobytes() for d in draws)


def fresh(digest):
    """The draws of ``digest``, drawn as a stack of one: row 0 of each column."""
    return [column[0] for column in draw_stack(Stack.of([digest]))]


def dim_groups(digests):
    """The digests of each dim, in trial order: the stacks a sweep's chunk draws."""
    groups = {}
    for d in digests:
        groups.setdefault(d["dim"], []).append(d)
    return list(groups.values())


def reference_rng(entropy, trial):
    """The stream of a trial as numpy's SeedSequence spawns it."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy,
                                                                       spawn_key=(trial,))))


def reference_draws(d):
    """One trial's draws, written out from its reference stream in the documented
    order: per positive definite operand (A, then W or B, then a PD X) its
    spectrum and its basis entries, then a general X's entries."""
    rng = reference_rng(derive_seed(d["seed"], d["case"]), d["trial"])
    n, cx = d["dim"], d["complex"]

    def spectrum(law):
        kind, params = parse_law(law)
        if kind == "log-uniform":
            return np.exp(rng.uniform(np.log(params[0]), np.log(params[1]), n))
        if kind == "clustered":
            return params[0] * (1.0 + params[1] * rng.uniform(-1.0, 1.0, n))
        return np.full(n, params[0]) if len(params) == 1 else np.array(params)

    def entries():
        z = rng.standard_normal((n, n))
        return z + 1j * rng.standard_normal((n, n)) if cx else z

    laws = [d["law"], d.get("w_law", d["law"])]
    if d["kind"] == "hs" and d["x_kind"] == "pd":
        laws.append(d["law"])
    draws = []
    for law in laws:
        draws += [spectrum(law), entries()]
    if d["kind"] == "hs" and d["x_kind"] == "general":
        x = entries()
        draws.append(x / np.sqrt(2.0) if cx else x)
    return draws


# RunConfig fields, plus "trials": how many trials the stream tests draw
STREAM_CONFIGS = {
    "real": {}, "complex": {"complex_entries": True}, "lenient-x": {"lenient_x": True},
    "w-explicit-0": {"w_law": "explicit:0"}, "seed-2^70": {"seed": 2**70},
    "clustered": {"law": "clustered:2:0.5", "complex_entries": True},
    "explicit-list": {"law": "explicit:1,2.5,3", "dims": (3,)},
    # one stack of 128 whose uniforms span numpy's uniform(lo, hi) over a wide range
    "wide-law-stack": {"law": "log-uniform:1e-300:1e300", "dims": (2,), "trials": 128},
}


def stream_digests(case_id, cfg, trials, dims):
    """The digests of a stream test: ``cfg``'s trials, or ``trials`` over ``dims``."""
    cfg = {"dims": dims, "trials": trials, **cfg}
    return [make_digest(case_id, RunConfig(**cfg), t) for t in range(cfg["trials"])]


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


class TestStreams:
    # derive_seed of these seeds is an entropy of 1, 2, 3, 4 and 5 32-bit words
    SEEDS = (0, 1, 2**32, 2**70, 2**100)

    def test_keys_equal_numpy_seed_sequence(self):
        # fails, before replay does, if numpy changes its seeding algorithm
        for seed in self.SEEDS:
            entropy = derive_seed(seed, "op-2.3")
            for trial in [*range(601), 2**32 - 1]:
                want = np.random.SeedSequence(entropy, spawn_key=(trial,)).generate_state(
                    2, np.uint64)
                got = trial_keys(entropy, [trial])
                assert got == [tuple(int(w) for w in want)], (seed, trial)

    def test_seeds_cover_one_to_five_entropy_words(self):
        words = [-(-derive_seed(seed, "op-2.3").bit_length() // 32) for seed in self.SEEDS]
        assert words == [1, 2, 3, 4, 5]

    def test_trial_index_is_one_word(self):
        with pytest.raises(DomainError, match="trial index"):
            trial_keys(5, [2**32])
        with pytest.raises(DomainError, match="trial index"):
            trial_keys(5, [0, -1])

    # stacks shorter than ARRAY_KEYS_FROM are hashed in a loop, the rest in one
    # array pass; both must give numpy's keys, for entropies of 1 to 7 words
    @pytest.mark.parametrize("k", [1, ARRAY_KEYS_FROM - 1, ARRAY_KEYS_FROM, 26, 2048])
    def test_keys_of_either_path_equal_numpy_seed_sequence(self, k):
        rng = random.Random(k)
        middle = [rng.randrange(2**32) for _ in range(k - 2)]
        stacks = [[0], [2**32 - 1]] if k == 1 else [[0, *middle, 2**32 - 1]]
        seeds = self.SEEDS + (2**150, 2**190)
        assert [-(-derive_seed(s, "hs-thm8").bit_length() // 32) for s in seeds] == [*range(1, 8)]
        for seed in seeds:
            entropy = derive_seed(seed, "hs-thm8")
            for trials in stacks:
                want = [tuple(int(w) for w in np.random.SeedSequence(
                    entropy, spawn_key=(t,)).generate_state(2, np.uint64)) for t in trials]
                assert trial_keys(entropy, trials) == want, (seed, k)

    @pytest.mark.parametrize("k", [1, 2, ARRAY_KEYS_FROM - 1, ARRAY_KEYS_FROM, 26])
    def test_either_path_names_the_first_bad_trial_index(self, k):
        for bad, later in ((2**32, -1), (-1, 2**40)):
            trials = list(range(k))
            trials[(k - 1) // 2] = bad
            if k > 1:
                trials[-1] = later  # out of range by more, but later
            with pytest.raises(DomainError) as exc:
                trial_keys(5, trials)
            assert str(exc.value) == f"a trial index must lie in 0..4294967295, got {bad}"

    def test_a_stack_drawn_after_a_used_generator_equals_fresh_streams(self):
        # every trial starts its stream afresh, whatever the process's one
        # generator was left holding: a partly spent buffer, a spare uint32
        for seed, case, trial in ((7, "hs-2.14", 12), (2**100, "op-2.7-left", 2**32 - 1)):
            rng = stream_template()[0]
            rng.integers(10, dtype=np.uint32)  # half of a uint64 is kept for the next one
            if rng.bit_generator.state["buffer_pos"] == 4:
                rng.random()  # a buffer of four uint64s, one of them spent
            state = rng.bit_generator.state
            assert state["buffer_pos"] < 4 and state["has_uint32"] == 1
            d = digest(case, trial=trial, dim=3, seed=seed)
            assert raw(fresh(d)) == raw(reference_draws(d)), d

    @pytest.mark.parametrize("case_id", MATRIX)
    @pytest.mark.parametrize("cfg", STREAM_CONFIGS.values(), ids=STREAM_CONFIGS)
    def test_draws_equal_seed_sequence_streams(self, case_id, cfg):
        digests = stream_digests(case_id, cfg, 12, (1, 2, 3))
        for group in dim_groups(digests):
            columns = draw_stack(Stack.of(group))
            for i, d in enumerate(group):
                assert raw(column[i] for column in columns) == raw(reference_draws(d)), d

    @pytest.mark.parametrize("case_id", MATRIX)
    @pytest.mark.parametrize("cfg", STREAM_CONFIGS.values(), ids=STREAM_CONFIGS)
    def test_stack_rows_equal_stacks_of_one(self, case_id, cfg):
        # every map over a stack's rows (exp, the clustered law, the complex
        # entries) gives each row the bits it gives that row alone
        digests = stream_digests(case_id, cfg, 60, (1, 2, 3, 5, 8))
        for group in dim_groups(digests):
            columns = draw_stack(Stack.of(group))
            for i, d in enumerate(group):
                assert raw(column[i] for column in columns) == raw(fresh(d)), d


class TestPositiveSpectra:
    """draw_stack checks each spectrum once per stack, as it maps it, in draw order."""

    def build(self, monkeypatch, case_id, changes, **cfg):
        """The inputs of one trial at dim 3 whose operand i, in draw order,
        maps its uniforms to the spectrum ``changes[i]`` where that is given."""
        mapped = runner.spectra
        operands = iter(range(3))

        def plant(law, u):
            i = next(operands)
            return np.array([changes[i]]) if i in changes else mapped(law, u)

        monkeypatch.setattr(runner, "spectra", plant)
        d = digest(case_id, dim=3, **cfg)
        stack = Stack.of([d])
        return build_inputs(stack, draw_stack(stack))

    @pytest.mark.parametrize("case_id, changes, got", [
        ("op-2.3", {0: [1.0, 0.0, 2.0]}, "0.0"),  # A
        ("op-2.3", {1: [1.0, -1.5, 2.0]}, "-1.5"),  # B
        ("hs-2.14", {2: [-2.0, 1.0, 1.0]}, "-2.0"),  # a positive definite X
        ("hs-2.14", {0: [1.0, 0.0, 1.0], 2: [-2.0, 1.0, 1.0]}, "0.0"),  # A comes first
        ("hs-2.14", {1: [1.0, -0.5, 1.0], 2: [-2.0, 1.0, 1.0]}, "-0.5"),  # then B
    ])
    def test_error_names_the_first_operand_that_fails(self, monkeypatch, case_id, changes, got):
        with pytest.raises(DomainError) as exc:
            self.build(monkeypatch, case_id, changes)
        assert str(exc.value) == (
            f"positive definite generation needs a positive spectrum, got {got}")

    def test_w_of_an_ordered_pair_is_exempt(self, monkeypatch):
        built = self.build(monkeypatch, "op-2.7-left", {1: [0.0, 0.0, 0.0]})
        assert np.array_equal(built["A"], built["B"])

    def test_a_comes_before_a_w_that_cannot_be_drawn(self):
        d = digest("op-2.7-left", dim=1, law="explicit:0", w_law="explicit:1,2")
        with pytest.raises(DomainError, match="positive spectrum, got 0.0"):
            fresh(d)
        with pytest.raises(DomainError, match="lists 2 values but dim=1"):
            fresh({**d, "law": "explicit:1"})

    def test_a_stack_takes_one_check_per_operand(self, monkeypatch):
        seen = []
        check = runner.check_positive
        monkeypatch.setattr(runner, "check_positive", lambda lam: seen.append(lam.shape)
                            or check(lam))
        for case_id, checks in (("hs-2.14", 3), ("op-2.7-left", 1)):  # W is not checked
            seen.clear()
            ds = [digest(case_id, trial=t, dim=3) for t in range(6)]
            stack = Stack.of(ds)
            build_inputs(stack, draw_stack(stack))
            assert seen == [(6, 3)] * checks, case_id


class TestDeterminism:
    def test_same_trial_same_bytes(self):
        d = digest(trial=7, dim=5, seed=123)
        assert raw(fresh(d)) == raw(fresh(d))
        assert inputs(d)["A"].tobytes() == inputs(d)["A"].tobytes()

    def test_trials_independent_of_order(self):
        digests = [digest(case, trial=t, seed=9) for case in ("op-2.3", "op-2.7-left", "hs-2.13")
                   for t in range(8)]
        forward = [raw(fresh(d)) for d in digests]
        backward = [raw(fresh(d)) for d in reversed(digests)]
        assert forward == backward[::-1]
        # a stack of one case's trials in shuffled order gives each trial the same bytes
        for case in range(3):
            order = list(range(8 * case, 8 * case + 8))
            random.Random(case).shuffle(order)
            columns = draw_stack(Stack.of([digests[i] for i in order]))
            for row, i in enumerate(order):
                assert raw(column[row] for column in columns) == forward[i]

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


class TestSpectraAndBases:
    def test_explicit_diagonal_exact(self):
        # an explicit law is drawn exactly; in the identity basis it is the diagonal
        lam = fresh(digest(dim=3, law="explicit:2,3,4"))[0]
        assert np.array_equal(assemble(lam, np.eye(3)), np.diag([2.0, 3.0, 4.0]))

    def test_explicit_broadcast(self):
        assert np.array_equal(spectra("explicit:5", np.empty((2, 4))), np.full((2, 4), 5.0))
        assert np.array_equal(fresh(digest(dim=4, law="explicit:5"))[0], np.full(4, 5.0))

    def test_explicit_length_mismatch(self):
        with pytest.raises(DomainError, match="lists 2 values but dim=3"):
            spectra("explicit:1,2", np.empty((1, 3)))
        with pytest.raises(DomainError, match="lists 2 values but dim=3"):
            fresh(digest(dim=3, law="explicit:1,2"))

    def test_spectrum_fidelity(self):
        w = np.linalg.eigvalsh(inputs(digest(law="explicit:0.5,1,2,8"))["A"])
        assert np.allclose(sorted(w), [0.5, 1.0, 2.0, 8.0], rtol=1e-10)

    def test_log_uniform_range(self):
        w = draw_stack(Stack.of([digest(trial=t, dim=5, seed=1, law="log-uniform:0.01:100.0")
                                 for t in range(100)]))[0]
        assert w.min() >= 0.01 and w.max() <= 100.0

    def test_clustered_range(self):
        w = draw_stack(Stack.of([digest(trial=t, dim=5, seed=2, law="clustered:5.0:0.2")
                                 for t in range(100)]))[0]
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
