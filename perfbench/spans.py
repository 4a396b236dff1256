"""Spans around the calls into each meancert layer, for the traced run.

Every wrapper is installed where the caller looks the name up, so a call
that goes through a ``from .linalg import Powers`` binding is wrapped in
the importing module, and a call through ``module.attr`` is wrapped on the
module.  Nothing under ``src/`` is edited: the wrappers are swapped in for
one sweep and the originals are put back afterwards.

A span is one row of parallel int64 columns: name id, start and end
(``perf_counter_ns``), parent span, trial index, trial dimension, phase
(sweep or replay) and a value (bytes, for the report serializer).  The
trial index is the identifier shared by every span of one trial.  The
workloads run with ``--jobs 1``; spans of pool workers are not collected.
"""
from __future__ import annotations

import re
import time
from array import array
from contextlib import contextmanager

import numpy as np

from meancert import cli, hsnorm, linalg, opmeans, runner, scalar

SWEEP, REPLAY = 0, 1

NAMES = (
    "cli.main", "report.build", "report.json",
    "runner.run_matrix_suite", "runner.run_scalar_case", "runner.run_case",
    "runner.run_chunk", "runner.merge", "runner.fold",
    "runner.make_digest", "runner.nu_grid_for", "runner.registry",
    "runner.run_trial", "runner.replay_trial", "randgen.build_inputs",
    "np.qr", "np.eigh", "np.eigvalsh", "linalg.validate", "linalg.powers",
    "linalg.pow", "linalg.pow_hit", "linalg.is_psd", "opmeans.certify",
    "hsnorm.certify", "hsnorm.oracle", "scalar.evaluate",
)
ID = {name: i for i, name in enumerate(NAMES)}
COLUMNS = ("name", "start", "end", "parent", "trial", "dim", "phase", "value")


class Tracer:
    """In-memory span recorder; ``installed()`` patches the layers."""

    SWEEP, REPLAY = SWEEP, REPLAY

    def __init__(self):
        self.phase = SWEEP
        self.reset()

    def reset(self) -> None:
        self.cols = {c: array("q") for c in COLUMNS}
        self.stack: list[int] = []
        self.trial = -1
        self.dim = 0

    def _open(self, nid: int) -> int:
        c = self.cols
        idx = len(c["name"])
        c["name"].append(nid)
        c["parent"].append(self.stack[-1] if self.stack else -1)
        c["trial"].append(self.trial)
        c["dim"].append(self.dim)
        c["phase"].append(self.phase)
        c["value"].append(0)
        c["end"].append(0)
        self.stack.append(idx)
        c["start"].append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.cols["end"][idx] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, name: str, fn, on_enter=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``on_enter(*args, **kwargs)`` may set the trial context first.
        """
        nid = ID[name]

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(*args, **kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {c: np.frombuffer(col, dtype=np.int64).copy()
                for c, col in self.cols.items()}

    # -- context setters: every span of one trial carries its index and dim

    def _ctx_make_digest(self, case_id, cfg, trial):
        self.trial = int(trial)
        self.dim = int(cfg.dims[trial % len(cfg.dims)])

    def _ctx_digest(self, digest, *args, **kwargs):
        self.trial = int(digest.get("trial", -1))
        self.dim = int(digest.get("dim", 0))

    def _ctx_fold(self, agg, digest, *args, **kwargs):
        self._ctx_digest(digest)

    def _patches(self):
        """(owner, attribute, replacement) for every wrapped lookup."""
        span = self.span
        orig_pow = linalg.Powers.pow
        pow_miss = span("linalg.pow", orig_pow)
        pow_hit = span("linalg.pow_hit", orig_pow)

        def pow_entry(powers, p):
            hit = float(p) in powers._cache
            return (pow_hit if hit else pow_miss)(powers, p)

        orig_json = cli.canonical_json

        def json_entry(obj):
            idx = self._open(ID["report.json"])
            try:
                text = orig_json(obj)
                self.cols["value"][idx] = len(text.encode("utf-8"))
                return text
            finally:
                self._close(idx)

        validate = span("linalg.validate", linalg.validate_hermitian)
        powers = span("linalg.powers", linalg.Powers)
        return [
            (cli, "main", span("cli.main", cli.main)),
            (cli, "build_report", span("report.build", cli.build_report)),
            (cli, "canonical_json", json_entry),
            (runner, "run_matrix_suite",
             span("runner.run_matrix_suite", runner.run_matrix_suite)),
            (runner, "run_scalar_case",
             span("runner.run_scalar_case", runner.run_scalar_case)),
            (runner, "run_case", span("runner.run_case", runner.run_case)),
            (runner, "_run_chunk", span("runner.run_chunk", runner._run_chunk)),
            (runner._Agg, "merge", span("runner.merge", runner._Agg.merge)),
            (runner._Agg, "fold_trial",
             span("runner.fold", runner._Agg.fold_trial, self._ctx_fold)),
            (runner, "make_digest", span("runner.make_digest", runner.make_digest,
                                         self._ctx_make_digest)),
            (runner, "nu_grid_for", span("runner.nu_grid_for", runner.nu_grid_for)),
            (runner, "run_trial", span("runner.run_trial", runner.run_trial,
                                       self._ctx_digest)),
            (runner, "replay_trial", span("runner.replay_trial", runner.replay_trial,
                                          self._ctx_digest)),
            (runner, "build_inputs", span("randgen.build_inputs", runner.build_inputs)),
            (scalar, "registry", span("runner.registry", scalar.registry)),
            (opmeans, "registry", span("runner.registry", opmeans.registry)),
            (hsnorm, "registry", span("runner.registry", hsnorm.registry)),
            (np.linalg, "qr", span("np.qr", np.linalg.qr)),
            (np.linalg, "eigh", span("np.eigh", np.linalg.eigh)),
            (np.linalg, "eigvalsh", span("np.eigvalsh", np.linalg.eigvalsh)),
            (linalg, "validate_hermitian", validate),
            (hsnorm, "validate_hermitian", validate),
            (opmeans, "Powers", powers),
            (hsnorm, "Powers", powers),
            (linalg.Powers, "pow", pow_entry),
            (opmeans, "is_psd", span("linalg.is_psd", opmeans.is_psd)),
            (opmeans, "certify_operator",
             span("opmeans.certify", opmeans.certify_operator)),
            (hsnorm, "certify_hs", span("hsnorm.certify", hsnorm.certify_hs)),
            (hsnorm.HsContext, "cell_parts",
             span("hsnorm.oracle", hsnorm.HsContext.cell_parts)),
            (scalar, "evaluate", span("scalar.evaluate", scalar.evaluate)),
        ]

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for owner, attr, repl in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, repl)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)


# -- per-layer metrics -------------------------------------------------------

DIMS = runner.DEFAULT_DIMS

# per-trial times also reported per dimension, as "<metric>.d<n>"
PER_DIM = (
    "runner.trial_us", "runner.make_digest_us", "runner.fold_us",
    "randgen.build_inputs_us", "linalg.eigh_us", "linalg.powers_init_us",
    "linalg.pow_us", "linalg.is_psd_us", "opmeans.certify_us", "opmeans.self_us",
    "hsnorm.certify_us", "hsnorm.self_us", "hsnorm.oracle_us", "runner.replay_us",
)

# metric -> (span names, "self" or "total")
_TRIAL_TIMES = {
    "runner.trial_us": (("runner.run_trial",), "total"),
    "runner.make_digest_us": (("runner.make_digest",), "total"),
    "runner.fold_us": (("runner.fold",), "total"),
    "randgen.build_inputs_us": (("randgen.build_inputs",), "total"),
    "linalg.eigh_us": (("np.eigh", "np.eigvalsh"), "total"),
    "linalg.powers_init_us": (("linalg.powers",), "total"),
    "linalg.pow_us": (("linalg.pow", "linalg.pow_hit"), "total"),
    "linalg.is_psd_us": (("linalg.is_psd",), "total"),
    "opmeans.certify_us": (("opmeans.certify",), "total"),
    "opmeans.self_us": (("opmeans.certify",), "self"),
    "hsnorm.certify_us": (("hsnorm.certify",), "total"),
    "hsnorm.self_us": (("hsnorm.certify",), "self"),
    "hsnorm.oracle_us": (("hsnorm.oracle",), "total"),
}

# metric -> span names whose calls are counted per trial
_TRIAL_COUNTS = {
    "runner.registry_scans_per_trial": ("runner.registry",),
    "runner.nu_grid_per_trial": ("runner.nu_grid_for",),
    "randgen.qr_per_trial": ("np.qr",),
    "linalg.eigh_per_trial": ("np.eigh",),
    "linalg.eigvalsh_per_trial": ("np.eigvalsh",),
    "linalg.validate_per_trial": ("linalg.validate",),
    "linalg.powers_per_trial": ("linalg.powers",),
    "linalg.pow_calls_per_trial": ("linalg.pow", "linalg.pow_hit"),
    "linalg.is_psd_per_trial": ("linalg.is_psd",),
}


def _unit(metric: str) -> str:
    base = re.sub(r"\.d\d+$", "", metric)
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_per_trial", "1/trial"), ("_ratio", "ratio"),
                         (".bytes", "bytes")):
        if base.endswith(suffix):
            return unit
    return "count"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    names = list(_TRIAL_TIMES) + ["runner.replay_us"] + list(_TRIAL_COUNTS) + [
        "linalg.pow_cache_hit_ratio", "runner.chunks", "runner.merge_us",
        "scalar.evaluate_us", "scalar.points",
        "report.build_ms", "report.json_ms", "report.bytes",
        "cli.main_ms", "cli.self_ms", "trace.overhead_s",
    ]
    names += [f"{m}.d{d}" for m in PER_DIM for d in DIMS]
    return [(m, _unit(m)) for m in names]


def layer_metrics(spans: dict[str, np.ndarray]) -> tuple[dict[str, float], list[int]]:
    """Per-layer metrics of one traced iteration, and its exact call counts.

    Per-trial figures are taken over the sweep's matrix trials; a sweep
    without matrix trials (the scalar grid) takes them over the replays.
    Per-sweep figures (chunks, report, cli) cover the one sweep traced.
    """
    name, parent, phase, dim = spans["name"], spans["parent"], spans["phase"], spans["dim"]
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    child = np.zeros_like(dur)
    linked = parent >= 0
    np.add.at(child, parent[linked], dur[linked])
    own = dur - child

    def mask(names, ph):
        return np.isin(name, [ID[n] for n in names]) & (phase == ph)

    trial_phase = SWEEP if mask(("runner.run_trial",), SWEEP).any() else REPLAY
    trials = mask(("runner.run_trial",), trial_phase)
    out: dict[str, float] = {}

    def per(total: float, n: int, scale: float = 1.0) -> float:
        return total / n / scale if n else 0.0

    def put_times(metric, names, kind, ph, sel_trials):
        values = own if kind == "self" else dur
        m = mask(names, ph)
        out[metric] = per(values[m].sum(), int(sel_trials.sum()), 1e3)
        for d in DIMS:
            n_d = int((sel_trials & (dim == d)).sum())
            out[f"{metric}.d{d}"] = per(values[m & (dim == d)].sum(), n_d, 1e3)

    for metric, (names, kind) in _TRIAL_TIMES.items():
        put_times(metric, names, kind, trial_phase, trials)
    put_times("runner.replay_us", ("runner.replay_trial",), "total", REPLAY,
              mask(("runner.replay_trial",), REPLAY))
    n_trials = int(trials.sum())
    for metric, names in _TRIAL_COUNTS.items():
        out[metric] = per(float(mask(names, trial_phase).sum()), n_trials)
    hits = int(mask(("linalg.pow_hit",), trial_phase).sum())
    calls = int(mask(("linalg.pow", "linalg.pow_hit"), trial_phase).sum())
    out["linalg.pow_cache_hit_ratio"] = per(float(hits), calls)

    merges = mask(("runner.merge",), SWEEP)
    out["runner.chunks"] = float(merges.sum())
    out["runner.merge_us"] = per(dur[merges].sum(), int(merges.sum()), 1e3)
    evals = mask(("scalar.evaluate",), SWEEP)
    out["scalar.evaluate_us"] = per(dur[evals].sum(), int(evals.sum()), 1e3)
    out["scalar.points"] = float(evals.sum())
    out["report.build_ms"] = dur[mask(("report.build",), SWEEP)].sum() / 1e6
    json_spans = mask(("report.json",), SWEEP)
    out["report.json_ms"] = dur[json_spans].sum() / 1e6
    out["report.bytes"] = float(spans["value"][json_spans].sum())
    main = mask(("cli.main",), SWEEP)
    out["cli.main_ms"] = dur[main].sum() / 1e6
    out["cli.self_ms"] = own[main].sum() / 1e6

    counts = [int(((name == i) & (phase == ph)).sum())
              for ph in (SWEEP, REPLAY) for i in range(len(NAMES))]
    return out, counts


def save_spans(path: str, spans: dict[str, np.ndarray]) -> None:
    np.savez_compressed(path, names=np.array(NAMES), **spans)
