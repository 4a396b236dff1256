"""Trial orchestration: seeded sweeps over the case registries.

Each trial is identified by a small JSON digest (case id, generation
parameters, seed, trial index, nu).  The digest is enough to rebuild the
exact inputs bit for bit, so any failure printed by a sweep can be
replayed standalone.  Sweeps process trials in fixed-size chunks that
are merged in chunk order, which keeps aggregates byte-identical across
worker counts.

Within a chunk the trials are stacked by dimension and run stack by stack:
each stack (k, n, n) is one template digest with its trials' indices and
nu (``Stack``), draws its trials, each from its own stream, then goes
through generation and certification at once.  Every stacked operation
treats each matrix as it would treat it alone, so a trial's verdict is the
same bit for bit in any stack.  A stack's one verdict is its ``Verdicts``,
which ``_Agg.fold_stack`` folds at once: no record, digest or fold call is
made per trial, and a digest is written only for the trials the fold keeps
(its argmin and its first failures).  ``run_trial`` and replay build a
stack of one's record from its ``Verdicts``.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from . import hsnorm, opmeans, scalar
from .linalg import CERT_PSD_TOL, PSD_TOL, DomainError
from .scalar import Verdicts
from .randgen import (DEFAULT_LAW, assemble, check_positive, derive_seed, orthonormalize,
                      parse_law, spectra, stream_template, trial_keys, uniform_bounds)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

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


class Stack(NamedTuple):
    """Trials that share every digest field but trial and nu: the digest
    ``template`` of any one of them, and each trial's index and nu, in order.

    A sweep writes one template per dimension of a chunk and no digest per
    trial.
    """

    template: dict[str, Any]
    trials: list[int]
    nus: list[float]

    @classmethod
    def of(cls, digests: Sequence[dict[str, Any]]) -> "Stack":
        """The stack of ``digests``, which share every field but trial and nu."""
        return cls(digests[0], [d["trial"] for d in digests], [d["nu"] for d in digests])


def draw_stack(stack: Stack) -> list[np.ndarray]:
    """The draws of a stack of trials, each trial from its own Philox stream,
    as stacked columns.

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
    first, k = stack.template, len(stack.trials)
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
    keys = trial_keys(derive_seed(first["seed"], first["case"]), stack.trials)
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


def build_inputs(stack: Stack, columns: list[np.ndarray]) -> dict[str, Any]:
    """The exact inputs of a stack of trials, stacked (k, n, n).

    ``columns`` is the stack's ``draw_stack``, which has checked its spectra.
    Every basis of the stack is factored in one QR call.  For hs trials on
    a general pair, ``oracle`` holds the construction-time ((lam_a, Q_a),
    (lam_b, Q_b)), stacked like A and B.
    """
    first, k = stack.template, len(stack.trials)
    ordered = first["structure"] == "ordered-pair"
    npd = len(columns) // 2  # a (spectrum, basis) pair per PD operand; a general X adds one
    lams = columns[0:2 * npd:2]
    q = orthonormalize(np.concatenate(columns[1:2 * npd:2]))
    qs = [q[i * k:(i + 1) * k] for i in range(npd)]
    a, second, *rest = map(assemble, lams, qs)
    out: dict[str, Any] = {"A": a, "B": a + second if ordered else second, "nu": stack.nus}
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
    stack = _draw(Stack.of([digest]))
    out = {key: stack[key][0] for key in ("A", "B", "nu", "X") if key in stack}
    if "oracle" in stack:
        out["oracle"] = tuple((lam[0], q[0]) for lam, q in stack["oracle"])
    return out


# A spectrum or a matrix drawn past the range of floats is not finite, which
# certification rejects with a DomainError; numpy need not warn on the way there.
@np.errstate(over="ignore", invalid="ignore")
def _draw(stack: Stack) -> dict[str, Any]:
    """``build_inputs`` of the stack's ``draw_stack``."""
    return build_inputs(stack, draw_stack(stack))


def _on_inputs(case: scalar.Case, stack: Stack, tol: float, op: Callable, hs: Callable):
    """``op`` or ``hs``, by the case's kind, on a stack's inputs, drawn just before."""
    inputs = _draw(stack)
    if case.kind == "operator":
        return op(case, inputs["A"], inputs["B"], inputs["nu"], tol=tol)
    return hs(case, inputs["A"], inputs["B"], inputs["X"], inputs["nu"], tol=tol,
              lenient=stack.template["x_kind"] != case.x_kind, oracle=inputs.get("oracle"))


def _certify(case: scalar.Case, stack: Stack, tol: float) -> Verdicts:
    """The ``Verdicts`` of a stack, drawn and judged at once."""
    return _on_inputs(case, stack, tol, opmeans.judge_operator, hsnorm.judge_hs)[0]


def run_trial(digest: dict[str, Any], tol: float, psd_tol: float = PSD_TOL):
    """Evaluate one trial, as a stack of one; returns the module-level trial record.

    Every trial clamps at ``PSD_TOL``; ``psd_tol`` is kept for callers that
    still pass it, and any other value is a DomainError.
    """
    if psd_tol != PSD_TOL:
        raise DomainError(f"the clamp window is fixed at PSD_TOL = {PSD_TOL:g}, got {psd_tol}")
    stack = Stack(digest, [digest["trial"]], [digest["nu"]])
    return _on_inputs(case_by_id(digest["case"]), stack, tol,
                      opmeans.certify_operator, hsnorm.certify_hs)[0]


def _cut(group: Stack) -> list[Stack]:
    """A group's stacks, cut in trial order to STACK_BUDGET entries (k * n * n)
    each, which changes no bit of their results."""
    size = max(1, STACK_BUDGET // (group.template["dim"] ** 2))
    trials, nus = group.trials, group.nus
    return [Stack(group.template, trials[s:s + size], nus[s:s + size])
            for s in range(0, len(trials), size)]


def _alone(digests: list[dict[str, Any]], tol: float) -> list[Verdicts]:
    """The ``Verdicts`` of each trial judged alone, as a stack of one, in order,
    as replay judges its digest; the first DomainError is raised again naming
    the trial's case, index and digest.  A stack that raises falls back to this."""
    verdicts = []
    for digest in digests:
        try:
            verdicts.append(_certify(case_by_id(digest["case"]), Stack.of([digest]), tol))
        except DomainError as exc:
            raise DomainError(f"case {digest['case']} trial {digest['trial']}: {exc}; "
                              f"digest: {json.dumps(digest, sort_keys=True)}") from exc
    return verdicts


def profile(case_ids: list[str], cfg: RunConfig, nus: list[float],
            tol: float) -> dict[tuple[str, float], list[float]]:
    """The per-link slacks of trial 0 of ``cfg`` by (case id, nu), at each nu of
    ``nus`` in the case's domain.  A case's points are one stack, cut by
    ``_cut``; if a stack raises DomainError, every point is judged alone
    (``_alone``) by nu, then case, so the error names the first that fails."""
    points = {cid: [nu for nu in nus if case_by_id(cid).in_domain(nu)] for cid in case_ids}
    stacks = [(cid, s) for cid, p in points.items()
              for s in _cut(Stack(make_digest(cid, cfg, 0), [0] * len(p), p))]
    try:
        judged = [(cid, s.nus, _certify(CASES[cid], s, tol)) for cid, s in stacks]
    except DomainError:
        digests = [make_digest(cid, replace(cfg, nu=nu), 0)
                   for nu in nus for cid in case_ids if CASES[cid].in_domain(nu)]
        judged = [(d["case"], [d["nu"]], v) for d, v in zip(digests, _alone(digests, tol))]
    return {(cid, nu): [link[i] for link in v.slacks]
            for cid, points, v in judged for i, nu in enumerate(points)}


_trial_of = operator.itemgetter(0)


@dataclass
class _Agg:
    """The fold of a case's trials, or of a scalar case's grid points, and its summary.

    The fold keeps the failures of the FAILURE_CAP lowest trial numbers, and
    its argmin is the lowest trial at the smallest slack (0.0 and -0.0 tie),
    so stacks and chunks fold in any order to the summary of each trial
    folded in trial order.  A stack's kept trials have no digest until
    ``write_digests`` writes them.
    """

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
    # (trial number, report entry) of each kept failure, in trial order
    kept: list[tuple[int, dict[str, Any]]] = field(default_factory=list)

    def fold_stack(self, trials: Sequence[int], v: Verdicts, links: Sequence[str]) -> None:
        """Fold the verdicts of a stack whose row i is trial ``trials[i]``, the
        trials ascending, or of a scalar grid, whose trials are its point
        indices.  The columns are read through numpy, as lists or arrays;
        ``v.worst_link`` indexes ``links``, and a kept failure names its worst
        link only if the case has links."""
        mins, ok = np.asarray(v.min_slack, dtype=float), np.asarray(v.passed, dtype=bool)
        k = len(mins)
        self.trials += k
        if v.advisory is not None:  # an hs stack
            errs = np.asarray(v.oracle_rel_err, dtype=float)
            waived = np.asarray(v.advisory, dtype=bool)
            self._fold_oracle_err(float(np.maximum.reduce(errs)))
            self.oracle_violations += int(np.count_nonzero(errs > hsnorm.ORACLE_TOL))
            self.advisory_held += int(np.count_nonzero(ok & waived))
            held = int(np.count_nonzero(waived))
            self.advisory_trials += held
            k -= held
            ok = ok | waived  # an advisory trial that fails is no failure
        failed = (~ok).nonzero()[0]
        self.passes += k - len(failed)
        self.failures += len(failed)
        if len(failed) and (len(self.kept) < FAILURE_CAP or trials[failed[0]] < self.kept[-1][0]):
            kept = []
            for i in failed[:FAILURE_CAP].tolist():
                entry = {"digest": None, "min_slack": mins[i].item()}
                if links:
                    entry["worst_link"] = links[v.worst_link[i]]
                kept.append((trials[i], entry))
            self._keep(kept)
        # the first smallest slack is the stack's candidate argmin, its sign kept
        i = int(mins.argmin())
        self._fold_min(mins[i].item(), trials[i], None)

    def fold_trial(self, digest, trial_no: int, v: Verdicts, links: Sequence[str]) -> None:
        """``fold_stack`` of a stack of one, trial ``trial_no`` with ``digest``."""
        self.fold_stack([trial_no], v, links)
        self.write_digests({trial_no: digest}.get)

    def write_digests(self, digest_of: Callable[[int], dict[str, Any] | None]) -> None:
        """Give each kept trial without a digest ``digest_of(trial)``, once per trial."""
        written: dict[int, Any] = {}
        for t, entry in self.kept:
            if entry["digest"] is None:
                entry["digest"] = written[t] = digest_of(t)
        t = self.argmin_trial
        if self.argmin_digest is None and self.min_slack is not None:
            self.argmin_digest = written[t] if t in written else digest_of(t)

    def _keep(self, failures: list[tuple[int, dict[str, Any]]]) -> None:
        self.kept = sorted(self.kept + failures, key=_trial_of)[:FAILURE_CAP]

    def _fold_oracle_err(self, err: float | None) -> None:
        if err is not None and (self.oracle_max_rel_err is None
                                or err > self.oracle_max_rel_err):
            self.oracle_max_rel_err = err

    def _fold_min(self, slack: float, trial_no: int, digest) -> None:
        # ties go to the lower trial index, whatever the stacking or chunking
        if self.min_slack is None or (slack, trial_no) < (self.min_slack, self.argmin_trial):
            self.min_slack = slack
            self.argmin_trial = trial_no
            self.argmin_digest = digest

    def merge(self, other: "_Agg") -> None:
        self.trials += other.trials
        self.passes += other.passes
        self.failures += other.failures
        self.advisory_trials += other.advisory_trials
        self.advisory_held += other.advisory_held
        self.oracle_violations += other.oracle_violations
        self._fold_oracle_err(other.oracle_max_rel_err)
        self._keep(other.kept)
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
                   failure_digests=[entry for _, entry in self.kept])
        if case.kind == "hs":
            out.update(oracle_max_rel_err=self.oracle_max_rel_err,
                       oracle_violations=self.oracle_violations,
                       advisory_trials=self.advisory_trials, advisory_held=self.advisory_held)
        return out


def _chunk_stacks(case_id: str, cfg: RunConfig, start: int, stop: int) -> list[Stack]:
    """The stacks of trials start..stop-1 of a case: one group per dim, in order
    of first appearance, each cut in trial order.  A group writes one template
    digest, its first trial's."""
    grid = case_by_id(case_id).nu_grid if cfg.nu is None else nu_grid_for(case_id, cfg.nu)
    dims, g = cfg.dims, len(grid)
    groups: dict[int, list[int]] = {}
    for t in range(start, min(start + len(dims), stop)):  # each place in the dim cycle
        groups.setdefault(dims[t % len(dims)], []).extend(range(t, stop, len(dims)))
    stacks = []
    for trials in groups.values():
        trials.sort()  # a dim listed twice takes two places in the cycle
        template = make_digest(case_id, cfg, trials[0])
        stacks += _cut(Stack(template, trials, [grid[t % g] for t in trials]))
    return stacks


def _run_chunk(case_id: str, cfg: RunConfig, start: int, stop: int) -> _Agg:
    """The fold of trials start..stop-1 of a case: each stack folds its
    ``Verdicts`` at once, and only the trials the fold keeps get a digest.
    If a stack raises DomainError, every trial runs again alone (``_alone``)."""
    case = case_by_id(case_id)
    agg = _Agg()
    try:
        for stack in _chunk_stacks(case_id, cfg, start, stop):
            agg.fold_stack(stack.trials, _certify(case, stack, cfg.tol), case.links)
    except DomainError:
        agg = _Agg()
        digests = [make_digest(case_id, cfg, t) for t in range(start, stop)]
        for t, (digest, v) in enumerate(zip(digests, _alone(digests, cfg.tol)), start):
            agg.fold_trial(digest, t, v, case.links)
        return agg
    agg.write_digests(lambda t: make_digest(case_id, cfg, t))
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
    # than a case has chunks, and there is no pool (nor its import) for one chunk.
    workers = min(cfg.jobs, -(-cfg.trials // CHUNK))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return [run_case(cid, cfg, pool) for cid in case_ids]
    return [run_case(cid, cfg) for cid in case_ids]


def run_scalar_case(case_id: str,
                    a_values=scalar.A_GRID_13,
                    nu_values=scalar.NU_GRID_65,
                    tol: float = scalar.SCALAR_TOL) -> dict[str, Any]:
    """Deterministic grid sweep of one scalar chain: the grid is checked once, then
    every point at a nu in the domain is judged in one ``scalar.judge_grid`` call,
    building no record, and folded by ``_Agg.fold_stack`` as one stack whose
    trials are the point indices."""
    case = case_by_id(case_id)
    _check_kind(case_id, case.kind, ("scalar",))
    scalar.check_tol(tol)
    for nu in nu_values:
        scalar.check_unit("nu", nu)
    for b in a_values:  # a takes b's values, so (a_values[0], b) is the first pair to fail
        scalar.check_pair(a_values[0], b)
    m = len(a_values)
    nus = [nu for nu in nu_values if case.in_domain(nu)]
    agg = _Agg(skipped=(len(nu_values) - len(nus)) * m * m)
    if nus and m:
        verdicts, _ = scalar.judge_grid(case, nus, a_values, a_values, tol)
        agg.fold_stack(range(len(nus) * m * m), verdicts, ())

        def digest_of(i: int) -> dict[str, Any]:
            j, point = divmod(i, m * m)
            return scalar_digest(case_id, a_values[point // m], a_values[point % m], nus[j])

        agg.write_digests(digest_of)
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
