"""Trial orchestration: seeded sweeps over the case registries.

Each trial is identified by a small JSON digest (case id, generation
parameters, seed, trial index, nu).  The digest is enough to rebuild the
exact inputs bit for bit, so any failure printed by a sweep can be
replayed standalone.  Sweeps process trials in fixed-size chunks that
are merged in chunk order, which keeps aggregates byte-identical across
worker counts.

Within a chunk every trial draws from its own stream, in trial order; the
trials are then stacked by dimension, and each stack (k, n, n) goes
through generation and certification at once.  Every stacked operation
treats each matrix as it would treat it alone, so a trial's record is the
same bit for bit in any stack, and ``run_trial`` and replay run the same
code on a stack of one.
"""
from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from . import hsnorm, opmeans, scalar
from .linalg import CERT_PSD_TOL, PSD_TOL, DomainError
from .randgen import (DEFAULT_LAW, assemble, derive_seed, general_entries, orthonormalize,
                      parse_law, pd_draws, trial_rng)

CHUNK = 512
# matrix entries (k * n * n) in one stack: a larger dim group is split, which
# bounds the memory of a stage without changing any bit of its results
STACK_BUDGET = 1 << 18
DEFAULT_DIMS = (1, 2, 3, 5, 8)
MAX_DIM = 1024  # a bound on what a digest or a flag may ask to allocate
MAX_JOBS = 256  # a bound on the worker processes a flag may ask to start
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
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
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


def draw_trial(digest: dict[str, Any]) -> list[np.ndarray]:
    """The draws of one trial from its own Philox stream.

    Draw order is fixed and documented here: A-spectrum, A-basis, then
    (W-spectrum, W-basis) for ordered pairs or (B-spectrum, B-basis)
    otherwise, then X (spectrum+basis when positive definite, raw entries
    when general).  Changing this order is a breaking change for replay.
    A basis is drawn as its Gaussian entries; ``build_inputs`` factors it.
    """
    dim = digest["dim"]
    cx = digest["complex"]
    law = digest["law"]
    rng = trial_rng(derive_seed(digest["seed"], digest["case"]), digest["trial"])
    draws = [*pd_draws(rng, dim, law, cx)]
    if digest["structure"] == "ordered-pair":
        draws += pd_draws(rng, dim, digest["w_law"], cx, allow_zero=True)
    else:
        draws += pd_draws(rng, dim, law, cx)
    if digest["kind"] == "hs":
        if digest["x_kind"] == "pd":
            draws += pd_draws(rng, dim, law, cx)
        else:
            draws.append(general_entries(rng, dim, cx))
    return draws


def build_inputs(digests: list[dict[str, Any]],
                 draws: list[list[np.ndarray]]) -> dict[str, Any]:
    """The exact inputs of trials of one case and dim, stacked (k, n, n).

    ``draws`` holds each trial's ``draw_trial``; every basis of the stack
    is factored in one QR call.  For hs trials on a general pair,
    ``oracle`` holds the construction-time ((lam_a, Q_a), (lam_b, Q_b)),
    stacked like A and B.
    """
    first, k = digests[0], len(digests)
    stacks = [np.array(col) for col in zip(*draws)]
    npd = len(stacks) // 2  # a (spectrum, basis) pair per PD operand; a general X adds one
    lams = stacks[0:2 * npd:2]
    q = orthonormalize(np.concatenate(stacks[1:2 * npd:2]))
    qs = [q[i * k:(i + 1) * k] for i in range(npd)]
    a, second, *rest = [assemble(lam, q) for lam, q in zip(lams, qs)]
    ordered = first["structure"] == "ordered-pair"
    out: dict[str, Any] = {"A": a, "B": a + second if ordered else second,
                           "nu": [d["nu"] for d in digests]}
    if first["kind"] == "hs":
        out["X"] = rest[0] if rest else stacks[-1]
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
    stack = build_inputs([digest], [draw_trial(digest)])
    out = {key: stack[key][0] for key in ("A", "B", "nu", "X") if key in stack}
    if "oracle" in stack:
        out["oracle"] = tuple((lam[0], q[0]) for lam, q in stack["oracle"])
    return out


# A result past the range of floats is a DomainError (a matrix or a chain side
# that is not finite), never a verdict; numpy need not warn on the way there.
@np.errstate(over="ignore", invalid="ignore")
def _certify(case: scalar.Case, digests: list[dict[str, Any]],
             draws: list[list[np.ndarray]], tol: float, psd_tol: float) -> list:
    """Trial records of a stack of trials of one case and dim, certified in one call."""
    inputs = build_inputs(digests, draws)
    if case.kind == "operator":
        return opmeans.certify_operator(case, inputs["A"], inputs["B"], inputs["nu"],
                                        tol=tol, psd_tol=psd_tol)
    lenient = digests[0]["x_kind"] != case.x_kind
    return hsnorm.certify_hs(case, inputs["A"], inputs["B"], inputs["X"], inputs["nu"],
                             tol=tol, psd_tol=psd_tol, lenient=lenient,
                             oracle=inputs.get("oracle"))


def run_trial(digest: dict[str, Any], tol: float, psd_tol: float):
    """Evaluate one trial, as a stack of one; returns the module-level trial record."""
    return _certify(case_by_id(digest["case"]), [digest], [draw_trial(digest)],
                    tol, psd_tol)[0]


def _run_trials(case: scalar.Case, digests: list[dict[str, Any]], tol: float,
                psd_tol: float) -> list:
    """Records of the trials of ``digests``, certified as stacks.

    Trials draw in trial order.  Each dim's trials gather into a stack, which
    is certified, and its draws dropped, once it holds STACK_BUDGET entries
    (k * n * n) or the draws end.
    """
    records: list = [None] * len(digests)
    draws: dict[int, list[np.ndarray]] = {}
    stacks: dict[int, list[int]] = {}

    def certify(rows: list[int]) -> None:
        got = _certify(case, [digests[i] for i in rows], [draws.pop(i) for i in rows],
                       tol, psd_tol)
        for i, rec in zip(rows, got):
            records[i] = rec

    for i, digest in enumerate(digests):
        draws[i] = draw_trial(digest)
        dim = digest["dim"]
        rows = stacks.setdefault(dim, [])
        rows.append(i)
        if len(rows) >= STACK_BUDGET // (dim * dim):
            certify(stacks.pop(dim))
    for rows in stacks.values():
        certify(rows)
    return records


@dataclass
class _Agg:
    trials: int = 0
    passes: int = 0
    failures: int = 0
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


def _run_chunk(case_id: str, cfg: RunConfig, start: int, stop: int) -> _Agg:
    case = case_by_id(case_id)
    digests = [make_digest(case_id, cfg, t) for t in range(start, stop)]
    try:
        records = _run_trials(case, digests, cfg.tol, cfg.psd_tol)
    except DomainError:
        # Run the chunk again one trial at a time, as replay runs a digest, so
        # the error is that of the first trial whose replay fails.
        records = []
        for t, digest in enumerate(digests, start):
            try:
                records.append(run_trial(digest, cfg.tol, cfg.psd_tol))
            except DomainError as exc:
                raise DomainError(f"case {case_id} trial {t}: {exc}; "
                                  f"digest: {json.dumps(digest, sort_keys=True)}") from exc
    agg = _Agg()
    for t, (digest, rec) in enumerate(zip(digests, records), start):
        agg.fold_trial(digest, t, rec, case.kind)
    return agg


def run_case(case_id: str, cfg: RunConfig,
             pool: ProcessPoolExecutor | None = None) -> dict[str, Any]:
    """Sweep one case; aggregate is independent of the worker count."""
    case = case_by_id(case_id)
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
    asserted = agg.trials - agg.advisory_trials
    passed = agg.failures == 0 and agg.oracle_violations == 0
    summary: dict[str, Any] = {
        "case": case_id,
        "kind": case.kind,
        "links": list(case.links),
        "trials": agg.trials,
        "asserted": asserted,
        "passes": agg.passes,
        "failures": agg.failures,
        "passed": passed,
        "min_slack": agg.min_slack,
        "argmin": agg.argmin_digest,
        "failure_digests": agg.failure_digests,
    }
    if case.kind == "hs":
        summary["oracle_max_rel_err"] = agg.oracle_max_rel_err
        summary["oracle_violations"] = agg.oracle_violations
        summary["advisory_trials"] = agg.advisory_trials
        summary["advisory_held"] = agg.advisory_held
    return summary


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
    """Deterministic grid sweep of one scalar chain (no randomness)."""
    case = case_by_id(case_id)
    _check_kind(case_id, case.kind, ("scalar",))
    scalar.check_tol(tol)
    for nu in nu_values:
        scalar.check_unit("nu", nu)
    points = passes = failures = skipped = 0
    min_slack: float | None = None
    argmin: dict[str, Any] | None = None
    failure_points: list[dict[str, Any]] = []
    for nu in nu_values:
        if not case.in_domain(nu):
            skipped += len(a_values) * len(a_values)
            continue
        for a in a_values:
            for b in a_values:
                trial = scalar.evaluate(case, a, b, nu, tol=tol)
                points += 1
                if trial.passed:
                    passes += 1
                else:
                    failures += 1
                    if len(failure_points) < FAILURE_CAP:
                        failure_points.append({
                            "digest": scalar_digest(case_id, a, b, nu),
                            "min_slack": trial.min_slack,
                        })
                if min_slack is None or trial.min_slack < min_slack:
                    min_slack = trial.min_slack
                    argmin = scalar_digest(case_id, a, b, nu)
    return {
        "case": case_id,
        "kind": "scalar",
        "links": [],
        "trials": points,
        "asserted": points,
        "passes": passes,
        "failures": failures,
        "skipped": skipped,
        "passed": failures == 0,
        "min_slack": min_slack,
        "argmin": argmin,
        "failure_digests": failure_points,
    }


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
    rec = run_trial(digest, use_tol, PSD_TOL)
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
