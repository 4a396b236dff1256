"""Trial orchestration: seeded sweeps over the case registries.

Each trial is identified by a small JSON digest (case id, generation
parameters, seed, trial index, nu).  The digest is enough to rebuild the
exact inputs bit for bit, so any failure printed by a sweep can be
replayed standalone.  Sweeps process trials in fixed-size chunks that
are merged in chunk order, which keeps aggregates byte-identical across
worker counts.

Within a chunk the trials are stacked by dimension and run stack by stack:
each stack (k, n, n) draws its trials, each from its own stream, then goes
through generation and certification at once.  Every stacked operation
treats each matrix as it would treat it alone, so a trial's record is the
same bit for bit in any stack, and ``run_trial`` and replay run the same
code on a stack of one.
"""
from __future__ import annotations

import json
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar

import numpy as np

from . import hsnorm, opmeans, scalar
from .linalg import CERT_PSD_TOL, PSD_TOL, DomainError
from .randgen import (DEFAULT_LAW, assemble, check_positive, derive_seed, orthonormalize,
                      parse_law, spectra, stream_template, trial_keys, uniform_bounds)

CHUNK = 512
# matrix entries (k * n * n) in one stack: a larger dim group is split, which
# bounds the memory of a stage without changing any bit of its results
STACK_BUDGET = 1 << 18
DEFAULT_DIMS = (1, 2, 3, 5, 8)
MAX_DIM = 1024  # a bound on what a digest or a flag may ask to allocate
MAX_JOBS = 256  # a bound on the worker processes a flag may ask to start
MAX_TRIALS = 2**32  # so that each trial index is one 32-bit word of its stream's key
FAILURE_CAP = 10


# every registered case by id: scalar, then operator, then hs, each sorted by id
CASES: dict[str, scalar.Case] = {
    case.case_id: case for module in (scalar, opmeans, hsnorm)
    for case in sorted(module.registry(), key=lambda c: c.case_id)
}
_KIND_TOKENS = {"scalar": "scalar", "op": "operator", "operator": "operator", "hs": "hs"}


def case_by_id(case_id: str) -> scalar.Case:
    """The registered case ``case_id``, of any kind; DomainError listing the known ids."""
    try:
        return CASES[case_id]
    except KeyError:
        raise DomainError(
            f"unknown case id {case_id!r}; known ids: {', '.join(sorted(CASES))}"
        ) from None


def _check_kind(token: str, kind: str, kinds: tuple[str, ...]) -> None:
    if kind not in kinds:
        raise DomainError(f"case {token!r} is of kind {kind}; this command handles "
                          f"{', '.join(kinds)} cases")


def resolve_cases(tokens: list[str] | None, kinds: tuple[str, ...]) -> list[str]:
    """Expand case tokens ("all", "op", "hs", "scalar", exact ids) to ids.

    Only ids whose kind is in ``kinds`` are returned; asking for an id of
    the wrong kind is an error rather than a silent skip.
    """
    def pool(kind):
        return [cid for cid, case in CASES.items() if case.kind == kind]

    allowed = [cid for k in kinds for cid in pool(k)]
    if not tokens or tokens == ["all"]:
        return allowed
    out: list[str] = []
    for tok in tokens:
        if tok == "all":
            out.extend(allowed)
            continue
        kind = _KIND_TOKENS.get(tok) or case_by_id(tok).kind
        _check_kind(tok, kind, kinds)
        out.extend(pool(kind) if tok in _KIND_TOKENS else [tok])
    result = list(dict.fromkeys(out))
    if not result:
        raise DomainError(f"no cases of kind {kinds} matched {tokens!r}")
    return result


@dataclass(frozen=True)
class RunConfig:
    """Primitive-only sweep configuration (safe to ship to worker processes)."""

    trials: int = 10000
    seed: int = 0
    dims: tuple[int, ...] = DEFAULT_DIMS
    law: str = DEFAULT_LAW
    w_law: str | None = None
    nu: float | None = None
    tol: float = CERT_PSD_TOL
    psd_tol: ClassVar[float] = PSD_TOL  # not a field, as no digest records it
    complex_entries: bool = False
    lenient_x: bool = False
    jobs: int = 1

    def __post_init__(self):
        if not 1 <= self.trials <= MAX_TRIALS:
            raise DomainError(f"trials must lie in 1..{MAX_TRIALS}, got {self.trials}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if not self.dims or any(not 1 <= d <= MAX_DIM for d in self.dims):
            raise DomainError(f"each dim must lie in 1..{MAX_DIM}, got {self.dims}")
        scalar.check_tol(self.tol)
        if not 1 <= self.jobs <= MAX_JOBS:
            raise DomainError(f"jobs must lie in 1..{MAX_JOBS}, got {self.jobs}")
        parse_law(self.law)
        if self.w_law is not None:
            parse_law(self.w_law)


def nu_grid_for(case_id: str, nu: float | None) -> list[float]:
    """Admissible nu values: the dyadic 33-grid restricted to the case domain,
    or ``[nu]`` for a given nu, which ``Case.check_nu`` checks."""
    case = case_by_id(case_id)
    if nu is None:
        return list(case.nu_grid)
    case.check_nu(nu)
    return [float(nu)]


def make_digest(case_id: str, cfg: RunConfig, trial: int) -> dict[str, Any]:
    case = case_by_id(case_id)
    grid = case.nu_grid if cfg.nu is None else nu_grid_for(case_id, cfg.nu)
    dim = cfg.dims[trial % len(cfg.dims)]
    nu = grid[trial % len(grid)]
    digest: dict[str, Any] = {
        "case": case_id,
        "kind": case.kind,
        "structure": case.structure,
        "dim": int(dim),
        "law": cfg.law,
        "seed": int(cfg.seed),
        "trial": int(trial),
        "nu": float(nu),
        "complex": bool(cfg.complex_entries),
    }
    if case.structure == "ordered-pair":
        digest["w_law"] = cfg.w_law or cfg.law
    if case.kind == "hs":
        digest["x_kind"] = "general" if cfg.lenient_x else case.x_kind
    return digest


def scalar_digest(case_id: str, a: float, b: float, nu: float) -> dict[str, Any]:
    """The digest of one scalar grid point; DomainError off the case's domain."""
    scalar.check_pair(a, b)
    case_by_id(case_id).check_nu(nu)
    return {"case": case_id, "kind": "scalar", "a": float(a), "b": float(b), "nu": float(nu)}


# each case's digest keys, and the type its writer gives each value
_DIGEST_TYPES = {
    cid: {key: type(value) for key, value in (
        scalar_digest(cid, 1.0, 1.0, case.nu_grid[0]) if case.kind == "scalar"
        else make_digest(cid, RunConfig(), 0)).items()}
    for cid, case in CASES.items()
}


# what the trials of a stack share: every field of the case's digests but trial and nu
_STACK_FIELDS = {cid: operator.itemgetter(*(key for key in types if key not in ("trial", "nu")))
                 for cid, types in _DIGEST_TYPES.items()}


def check_digest(digest: dict[str, Any]) -> dict[str, Any]:
    """Check a digest by writing it again from its own values; return the rewrite.

    The writer fixes the keys and the type of each value (an int may stand
    for a float, a bool for no number) and checks the values, through
    RunConfig for a matrix digest; the rewrite must equal the digest.
    Anything else is a DomainError naming the field.
    """
    case_id = digest.get("case")
    if type(case_id) is not str:
        raise DomainError(f"digest field 'case' must hold a case id string, got {case_id!r}")
    kind = case_by_id(case_id).kind
    types = _DIGEST_TYPES[case_id]
    for key, want in types.items():
        if key not in digest:
            raise DomainError(f"digest is missing the {key!r} field")
        got = type(digest[key])
        if got is not want and not (got is int and want is float):
            raise DomainError(f"digest field {key!r} is {digest[key]!r}, but case "
                              f"{case_id} writes type {want.__name__} there")
    unknown = sorted(set(digest).difference(types))
    if unknown:
        raise DomainError(f"digest has unknown field(s) {', '.join(map(repr, unknown))}")
    if kind == "scalar":
        rewrite = scalar_digest(case_id, digest["a"], digest["b"], digest["nu"])
    else:
        if not 0 <= digest["trial"] < MAX_TRIALS:
            raise DomainError(f"digest field 'trial' must lie in 0..{MAX_TRIALS - 1}, "
                              f"got {digest['trial']}")
        cfg = RunConfig(trials=digest["trial"] + 1, seed=digest["seed"],
                        dims=(digest["dim"],), law=digest["law"], w_law=digest.get("w_law"),
                        nu=digest["nu"], complex_entries=digest["complex"],
                        lenient_x=digest.get("x_kind") == "general")
        rewrite = make_digest(case_id, cfg, digest["trial"])
    for key, want in rewrite.items():
        if digest[key] != want:
            raise DomainError(f"digest field {key!r} is {digest[key]!r}, but case {case_id} "
                              f"writes {want!r} there from the digest's other values")
    return rewrite


def draw_stack(digests: list[dict[str, Any]]) -> list[np.ndarray]:
    """The draws of a stack of trials that share every digest field but trial
    and nu, each trial from its own Philox stream, as stacked columns.

    The stack's keys come from one ``randgen.trial_keys`` call, and the
    process's one generator serves the stack through one start state
    (``randgen.stream_template``) that takes each trial's key in turn: a
    trial's stream starts at one state assignment, with no Python call.
    Draw order within a trial is fixed and documented here: A-spectrum, A-basis, then
    (W-spectrum, W-basis) for ordered pairs or (B-spectrum, B-basis)
    otherwise, then X (spectrum and basis when positive definite, raw
    entries when general).  A basis or a general X is its real Gaussian
    entries, then, for complex entries, its imaginary ones.  Changing this order is a breaking change for replay.

    The columns are, per positive definite operand in draw order, its (k, n)
    spectra and (k, n, n) basis entries, then a general X's entries.  A
    spectrum's uniforms are drawn raw, doubles in [0, 1) (``random``, which
    takes from the stream what ``uniform`` takes), and each law is parsed
    once per stack and mapped once over all rows, to its bounds and on to
    its spectra (``randgen.spectra``), after the draws.  The spectra of each
    positive definite operand (all but the W of an ordered pair) are checked
    right after they are mapped, in one reduction, so an error names the
    first operand that fails in draw order.
    """
    first, k = digests[0], len(digests)
    n, cx = first["dim"], first["complex"]
    ordered = first["structure"] == "ordered-pair"
    laws = [first["law"], first["w_law"] if ordered else first["law"]]
    general_x = first["kind"] == "hs" and first["x_kind"] != "pd"
    if first["kind"] == "hs" and not general_x:
        laws.append(first["law"])
    # which operands draw a spectrum's uniforms: a general X and an explicit law do not
    draws = [uniform_bounds(law) is not None for law in laws] + [False] * general_x
    uniforms = np.empty((len(draws), k, n))
    # the Gaussian entries of each basis, and of a general X: real, then imaginary
    entries = np.empty((len(draws), 1 + cx, k, n, n))
    parts = range(1 + cx)
    keys = trial_keys(derive_seed(first["seed"], first["case"]), [d["trial"] for d in digests])
    rng, state, slot = stream_template()
    bit_generator, random, normal = rng.bit_generator, rng.random, rng.standard_normal
    for i, key in enumerate(keys):
        slot["key"] = key
        bit_generator.state = state
        for j, drawn in enumerate(draws):
            if drawn:
                random(out=uniforms[j, i])
            for part in parts:
                normal(out=entries[j, part, i])
    bases = entries[:, 0] + 1j * entries[:, 1] if cx else entries[:, 0]
    columns: list[np.ndarray] = []
    for j, law in enumerate(laws):
        lam = spectra(law, uniforms[j])
        if not (ordered and j == 1):  # the W of an ordered pair may be 0
            check_positive(lam)
        columns += [lam, bases[j]]
    if general_x:
        columns.append(bases[-1] / np.sqrt(2.0) if cx else bases[-1])
    return columns


def build_inputs(digests: list[dict[str, Any]], columns: list[np.ndarray]) -> dict[str, Any]:
    """The exact inputs of a stack of trials, stacked (k, n, n).

    ``columns`` is the stack's ``draw_stack``, which has checked its spectra.
    Every basis of the stack is factored in one QR call.  For hs trials on
    a general pair, ``oracle`` holds the construction-time ((lam_a, Q_a),
    (lam_b, Q_b)), stacked like A and B.
    """
    first, k = digests[0], len(digests)
    ordered = first["structure"] == "ordered-pair"
    npd = len(columns) // 2  # a (spectrum, basis) pair per PD operand; a general X adds one
    lams = columns[0:2 * npd:2]
    q = orthonormalize(np.concatenate(columns[1:2 * npd:2]))
    qs = [q[i * k:(i + 1) * k] for i in range(npd)]
    a, second, *rest = [assemble(lam, q) for lam, q in zip(lams, qs)]
    out: dict[str, Any] = {"A": a, "B": a + second if ordered else second,
                           "nu": [d["nu"] for d in digests]}
    if first["kind"] == "hs":
        out["X"] = rest[0] if rest else columns[-1]
        if not ordered:
            out["oracle"] = ((lams[0], qs[0]), (lams[1], qs[1]))
    return out


def inputs(digest: dict[str, Any]) -> dict[str, Any]:
    """The 2-D inputs of one matrix trial, rebuilt from its digest as ``replay`` rebuilds them.

    Returns ``A``, ``B`` and ``nu``; an hs trial adds ``X`` and, on a general
    pair, the construction-time ``oracle`` ((lam_a, Q_a), (lam_b, Q_b)).
    They are row 0 of ``build_inputs`` on a stack of one, after ``check_digest``.
    """
    digest = check_digest(digest)
    if digest["kind"] == "scalar":
        raise DomainError(f"case {digest['case']} is a scalar case; it draws no matrices")
    stack = _draw([digest])
    out = {key: stack[key][0] for key in ("A", "B", "nu", "X") if key in stack}
    if "oracle" in stack:
        out["oracle"] = tuple((lam[0], q[0]) for lam, q in stack["oracle"])
    return out


# A spectrum or a matrix drawn past the range of floats is not finite, which
# certification rejects with a DomainError; numpy need not warn on the way there.
@np.errstate(over="ignore", invalid="ignore")
def _draw(digests: list[dict[str, Any]]) -> dict[str, Any]:
    """``build_inputs`` of the stack's ``draw_stack``."""
    return build_inputs(digests, draw_stack(digests))


def _certify(case: scalar.Case, digests: list[dict[str, Any]], tol: float) -> list:
    """Trial records of a stack of trials that share every digest field but
    trial and nu, drawn and certified at once."""
    inputs = _draw(digests)
    if case.kind == "operator":
        return opmeans.certify_operator(case, inputs["A"], inputs["B"], inputs["nu"], tol=tol)
    lenient = digests[0]["x_kind"] != case.x_kind
    return hsnorm.certify_hs(case, inputs["A"], inputs["B"], inputs["X"], inputs["nu"],
                             tol=tol, lenient=lenient, oracle=inputs.get("oracle"))


def run_trial(digest: dict[str, Any], tol: float, psd_tol: float = PSD_TOL):
    """Evaluate one trial, as a stack of one; returns the module-level trial record.

    Every trial clamps at ``PSD_TOL``; ``psd_tol`` is kept for callers that
    still pass it, and any other value is a DomainError.
    """
    if psd_tol != PSD_TOL:
        raise DomainError(f"the clamp window is fixed at PSD_TOL = {PSD_TOL:g}, got {psd_tol}")
    return _certify(case_by_id(digest["case"]), [digest], tol)[0]


def run_stacks(digests: list[dict[str, Any]], tol: float) -> list:
    """Records of the matrix trials of ``digests``, certified as stacks.

    The trials are grouped by every digest field but trial and nu (all that
    a stack's draws and certification read once for the stack), in order of
    first appearance, and each group is cut, in trial order, into stacks of
    STACK_BUDGET entries (k * n * n); a stack draws just before it is
    certified.  If a stack raises DomainError, every trial runs again alone
    through ``run_trial``, in order, as replay runs its digest, and the first
    error is raised again naming the trial's case, index and digest.
    """
    groups: dict[tuple, list[int]] = {}
    for i, digest in enumerate(digests):
        groups.setdefault(_STACK_FIELDS[digest["case"]](digest), []).append(i)
    records: list = [None] * len(digests)
    try:
        for rows in groups.values():
            first = digests[rows[0]]
            case = case_by_id(first["case"])
            size = max(1, STACK_BUDGET // (first["dim"] ** 2))
            for s in range(0, len(rows), size):
                stack = rows[s:s + size]
                for i, rec in zip(stack, _certify(case, [digests[i] for i in stack], tol)):
                    records[i] = rec
    except DomainError:
        records = []
        for digest in digests:
            try:
                records.append(run_trial(digest, tol))
            except DomainError as exc:
                raise DomainError(f"case {digest['case']} trial {digest['trial']}: {exc}; "
                                  f"digest: {json.dumps(digest, sort_keys=True)}") from exc
    return records


@dataclass
class _Agg:
    """The fold of a case's trials, or of a scalar case's grid points, and its summary."""

    trials: int = 0
    passes: int = 0
    failures: int = 0
    skipped: int = 0
    advisory_trials: int = 0
    advisory_held: int = 0
    oracle_violations: int = 0
    oracle_max_rel_err: float | None = None
    min_slack: float | None = None
    argmin_trial: int = -1
    argmin_digest: dict[str, Any] | None = None
    failure_digests: list[dict[str, Any]] = field(default_factory=list)

    def fold_trial(self, digest, trial_no: int, rec, kind: str) -> None:
        self.trials += 1
        advisory = kind == "hs" and rec.advisory
        if advisory:
            self.advisory_trials += 1
            if rec.passed:
                self.advisory_held += 1
        elif rec.passed:
            self.passes += 1
        else:
            self.failures += 1
            if len(self.failure_digests) < FAILURE_CAP:
                self.failure_digests.append({
                    "digest": digest,
                    "min_slack": rec.min_slack,
                    "worst_link": rec.worst_link,
                })
        if kind == "hs" and rec.oracle_rel_err is not None:
            self._fold_oracle_err(rec.oracle_rel_err)
            if rec.oracle_rel_err > hsnorm.ORACLE_TOL:
                self.oracle_violations += 1
        self._fold_min(rec.min_slack, trial_no, digest)

    def fold_row(self, slacks: np.ndarray, tol: float,
                 digest_of: Callable[[int], dict[str, Any]]) -> None:
        """Fold the next scalar grid points, in grid order: point i passes iff
        ``slacks[i] >= -tol``, and ``digest_of(i)`` writes its digest."""
        first_no = self.trials
        failed = np.flatnonzero(slacks < -tol).tolist()
        self.trials += len(slacks)
        self.passes += len(slacks) - len(failed)
        self.failures += len(failed)
        room = FAILURE_CAP - len(self.failure_digests)
        self.failure_digests += [{"digest": digest_of(i), "min_slack": slacks[i].item()}
                                 for i in failed[:room]]
        # the first smallest slack is the points' candidate argmin
        i = int(slacks.argmin())
        self._fold_min(slacks[i].item(), first_no + i, digest_of(i))

    def _fold_oracle_err(self, err: float | None) -> None:
        if err is not None and (self.oracle_max_rel_err is None
                                or err > self.oracle_max_rel_err):
            self.oracle_max_rel_err = err

    def _fold_min(self, slack: float, trial_no: int, digest) -> None:
        # ties go to the lower trial index, whatever the chunking
        if self.min_slack is None or (slack, trial_no) < (self.min_slack, self.argmin_trial):
            self.min_slack = slack
            self.argmin_trial = trial_no
            self.argmin_digest = digest

    def merge(self, other: "_Agg") -> None:
        # Chunks arrive in index order, so capped lists and ties stay stable.
        self.trials += other.trials
        self.passes += other.passes
        self.failures += other.failures
        self.advisory_trials += other.advisory_trials
        self.advisory_held += other.advisory_held
        self.oracle_violations += other.oracle_violations
        self._fold_oracle_err(other.oracle_max_rel_err)
        room = FAILURE_CAP - len(self.failure_digests)
        if room > 0:
            self.failure_digests.extend(other.failure_digests[:room])
        if other.min_slack is not None:
            self._fold_min(other.min_slack, other.argmin_trial, other.argmin_digest)

    def summary(self, case: scalar.Case) -> dict[str, Any]:
        """The report entry of ``case``: a scalar case adds ``skipped``, an hs
        case its oracle and advisory counts."""
        out: dict[str, Any] = {
            "case": case.case_id,
            "kind": case.kind,
            "links": list(getattr(case, "links", ())),
            "trials": self.trials,
            "asserted": self.trials - self.advisory_trials,
            "passes": self.passes,
            "failures": self.failures,
        }
        if case.kind == "scalar":
            out["skipped"] = self.skipped
        out.update(passed=self.failures == 0 and self.oracle_violations == 0,
                   min_slack=self.min_slack, argmin=self.argmin_digest,
                   failure_digests=self.failure_digests)
        if case.kind == "hs":
            out.update(oracle_max_rel_err=self.oracle_max_rel_err,
                       oracle_violations=self.oracle_violations,
                       advisory_trials=self.advisory_trials, advisory_held=self.advisory_held)
        return out


def _run_chunk(case_id: str, cfg: RunConfig, start: int, stop: int) -> _Agg:
    kind = case_by_id(case_id).kind
    digests = [make_digest(case_id, cfg, t) for t in range(start, stop)]
    agg = _Agg()
    for t, (digest, rec) in enumerate(zip(digests, run_stacks(digests, cfg.tol)), start):
        agg.fold_trial(digest, t, rec, kind)
    return agg


def run_case(case_id: str, cfg: RunConfig,
             pool: ProcessPoolExecutor | None = None) -> dict[str, Any]:
    """Sweep one case; aggregate is independent of the worker count."""
    case = case_by_id(case_id)
    _check_kind(case_id, case.kind, ("operator", "hs"))
    nu_grid_for(case_id, cfg.nu)  # fail fast on a bad --nu
    spans = [(s, min(s + CHUNK, cfg.trials)) for s in range(0, cfg.trials, CHUNK)]
    agg = _Agg()
    if pool is not None:
        futures = [pool.submit(_run_chunk, case_id, cfg, a, b) for a, b in spans]
        for fut in futures:
            agg.merge(fut.result())
    else:
        for a, b in spans:
            agg.merge(_run_chunk(case_id, cfg, a, b))
    return agg.summary(case)


def run_matrix_suite(case_ids: list[str], cfg: RunConfig) -> list[dict[str, Any]]:
    # The pool starts all its workers on its first submit, so it gets no more
    # than a case has chunks, and there is no pool for one chunk.
    workers = min(cfg.jobs, -(-cfg.trials // CHUNK))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return [run_case(cid, cfg, pool) for cid in case_ids]
    return [run_case(cid, cfg) for cid in case_ids]


def run_scalar_case(case_id: str,
                    a_values=scalar.A_GRID_13,
                    nu_values=scalar.NU_GRID_65,
                    tol: float = scalar.SCALAR_TOL) -> dict[str, Any]:
    """Deterministic grid sweep of one scalar chain: the grid is checked once, then
    every point at a nu in the domain is judged in one ``scalar.judge_grid`` call,
    building no record, and folded at once."""
    case = case_by_id(case_id)
    _check_kind(case_id, case.kind, ("scalar",))
    scalar.check_tol(tol)
    for nu in nu_values:
        scalar.check_unit("nu", nu)
    for a in a_values:
        for b in a_values:
            scalar.check_pair(a, b)
    m = len(a_values)
    nus = [nu for nu in nu_values if case.in_domain(nu)]
    agg = _Agg(skipped=(len(nu_values) - len(nus)) * m * m)
    if nus and m:
        _, _, norms, worst = scalar.judge_grid(case, nus, a_values)

        def digest_of(i: int) -> dict[str, Any]:
            j, point = divmod(i, m * m)
            return scalar_digest(case_id, a_values[point // m], a_values[point % m], nus[j])

        agg.fold_row(norms[np.arange(len(norms)), worst], tol, digest_of)
    return agg.summary(case)


def _jsonable(value: np.ndarray) -> list:
    if np.iscomplexobj(value):
        return [[float(np.real(v)), float(np.imag(v))] for v in value.ravel()]
    return [float(v) for v in value.ravel()]


def replay_trial(digest: dict[str, Any], tol: float | None = None) -> dict[str, Any]:
    """Re-run one digest and return a JSON-ready trial record."""
    digest = check_digest(digest)
    if tol is not None:
        scalar.check_tol(tol)
    case = CASES[digest["case"]]
    if case.kind == "scalar":
        trial = scalar.evaluate(case, digest["a"], digest["b"], digest["nu"],
                                tol=tol if tol is not None else scalar.SCALAR_TOL)
        return {
            "digest": digest,
            "passed": trial.passed,
            "sides": list(trial.sides),
            "slacks": list(trial.slacks),
            "min_slack": trial.min_slack,
        }
    use_tol = tol if tol is not None else CERT_PSD_TOL
    rec = run_trial(digest, use_tol)
    out: dict[str, Any] = {"digest": digest, "passed": rec.passed,
                           "min_slack": rec.min_slack, "worst_link": rec.worst_link}
    if case.kind == "operator":
        out["links"] = [{"name": lc.name, "lam_min": lc.lam_min, "scale": lc.scale,
                         "slack": lc.slack, "ok": lc.ok} for lc in rec.links]
        out["witness"] = _jsonable(rec.witness)
    else:
        out["sides"] = list(rec.sides)
        out["slacks"] = list(rec.slacks)
        out["advisory"] = rec.advisory
        out["hypothesis_met"] = rec.hypothesis_met
        out["oracle_sides"] = list(rec.oracle_sides)
        out["oracle_rel_err"] = rec.oracle_rel_err
        out["worst_cell"] = dict(zip(("i", "j", "lam", "mu", "damage"), rec.worst_cell))
    return out
