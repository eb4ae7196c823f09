"""Framework-wide configuration with the paper's default parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

from .errors import ConfigError

#: Config knobs that change *how* a campaign executes but provably not its
#: results (parallel campaigns are bit-identical to serial ones, and the
#: experiment cache replays byte-identical results).  Sessions allow a
#: resume to override them, and experiment-cache keys exclude them — a
#: warm cache written by a serial run serves a process-backed one.
EXECUTION_ONLY_KNOBS: Tuple[str, ...] = (
    "experiment_workers",
    "experiment_backend",
    "cache_dir",
    "manager_url",
)

#: The executor backends ``experiment_backend`` (and the CLI) accept;
#: :func:`repro.pipeline.make_executor` builds them.  ``remote`` ships
#: task descriptors to a ``repro serve`` manager whose agent fleet
#: executes them (:mod:`repro.service`).
BACKENDS: Tuple[str, ...] = ("serial", "process", "remote")

#: Delay sweep used for contention injection (§4.2): seven values between
#: 100 ms and 8 s, in virtual milliseconds.
DELAY_VALUES_MS: Tuple[float, ...] = (100.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0)

#: Reduced three-point delay sweep used by the benchmark suite and CI smoke
#: runs: one value per decade keeps campaigns tractable while still
#: exercising the short/medium/long contention regimes.  CLI invocations
#: default to the full :data:`DELAY_VALUES_MS` sweep; pass ``--delays`` to
#: select this (or any other) sweep explicitly.
FAST_DELAY_VALUES_MS: Tuple[float, ...] = (250.0, 1000.0, 8000.0)

#: Restart-delay sweep of the ``node_crash`` environment fault model:
#: a quick crash-recover bounce and a long outage, in virtual ms.
CRASH_RESTART_VALUES_MS: Tuple[float, ...] = (10_000.0, 40_000.0)

#: Duration sweep of the ``partition`` environment fault model: one cut
#: shorter and one longer than the reduced 10-20 s timeouts (§4.2).
PARTITION_VALUES_MS: Tuple[float, ...] = (15_000.0, 45_000.0)

#: Probability sweep of the ``msg_drop`` environment fault model.
DROP_PROB_VALUES: Tuple[float, ...] = (0.3, 0.7)

#: Number of repetitions of every profile and injection run (§4.3).
DEFAULT_REPEATS = 5

#: Significance level of the one-sided t-test on loop iteration counts.
DEFAULT_PVALUE = 0.1

#: Budget multiplier: total test budget is ``budget_per_fault * |F|`` (§5.2).
DEFAULT_BUDGET_PER_FAULT = 4

#: Phase split of the 3PA protocol (§5.2): 25% / 50% / 25%.
PHASE_SPLIT: Tuple[float, float, float] = (0.25, 0.50, 0.25)

#: Minimum allocation weight for a fault cluster in phase three (§A.4).
EPSILON_WEIGHT = 0.01

#: Fraction of lowest-ranked loops (by body size) excluded by the loop
#: scalability analysis unless they perform I/O (§4.1).
LOOP_SIZE_PRUNE_FRAC = 0.10


@dataclass
class CSnakeConfig:
    """Tunable knobs of the whole pipeline, defaulting to paper values."""

    repeats: int = DEFAULT_REPEATS
    p_value: float = DEFAULT_PVALUE
    budget_per_fault: int = DEFAULT_BUDGET_PER_FAULT
    delay_values_ms: Tuple[float, ...] = DELAY_VALUES_MS
    #: Fault kinds this campaign injects, by registered fault-model id
    #: (``repro.faults``).  Defaults to the paper's closed taxonomy;
    #: ``--fault-kinds all`` additionally enables the environment kinds
    #: (node_crash, partition, msg_drop) on systems that declare an
    #: :class:`~repro.faults.EnvFaultPort`.
    fault_kinds: Tuple[str, ...] = ("exception", "delay", "negation")
    #: Fault *schedules* this campaign injects, by registered schedule
    #: name (``repro.faults.schedule``).  Off by default: schedules are
    #: k-fault compositions (a partition during a crash-restart,
    #: membership churn waves) anchored at ``ENV_NODE`` sites, and a
    #: campaign opts in per schedule via ``--schedules``.
    schedules: Tuple[str, ...] = ()
    #: Per-kind sweep overrides: ``(("partition", (10_000.0,)), ...)``
    #: replaces the named fault model's default parameter sweep.  The
    #: ``--delays`` flag is shorthand for overriding the ``delay`` sweep.
    #: Schedule names are accepted too (they sweep a ``time_scale``).
    sweep_overrides: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()
    #: Default parameter sweeps of the environment fault models.
    crash_restart_values_ms: Tuple[float, ...] = CRASH_RESTART_VALUES_MS
    partition_values_ms: Tuple[float, ...] = PARTITION_VALUES_MS
    drop_prob_values: Tuple[float, ...] = DROP_PROB_VALUES
    #: Fraction of injection runs in which a point fault (exception or
    #: negation) must appear — while appearing in no profile run — to count
    #: as an additional fault.  The paper uses "any additional fault" with
    #: 5 repetitions; 0.4 (2 of 5) damps scheduler noise.
    point_event_min_frac: float = 0.4
    #: Hierarchical-clustering cut: faults closer than this cosine distance
    #: are considered causally equivalent.
    cluster_distance: float = 0.5
    #: Beam width.  The paper uses 5e6; our causal graphs are ~1e3 edges so
    #: 10 000 is exhaustive at this scale.
    beam_width: int = 10_000
    #: Maximum number of edges in a propagation chain.
    max_chain_len: int = 6
    #: Cap on delay (contention) faults per reported cycle; ``None`` means
    #: unlimited (Table 4 compares unlimited vs 1).
    max_delay_faults: "int | None" = None
    #: One-shot negation by default (matching the one-time exception throw
    #: convention of §4.2): a sticky (stuck-detector) mode is available but
    #: negating a per-node detector for *every* node at once models a
    #: different, far larger fault than the single-component errors the
    #: paper injects.
    sticky_negation: bool = False
    #: Virtual warmup before armed injections may fire: one-time faults
    #: injected into a cold system reach empty queues and exercise nothing.
    injection_warmup_ms: float = 20_000.0
    #: Base random seed; repetition ``i`` of a test's runs (profile and
    #: injection alike) is seeded by SHA-256 of ``test_id#i#seed``
    #: (``repro.core.driver.seed_for``).
    seed: int = 1234
    #: Whether stitching applies the local compatibility check (§6.2).
    compat_check: bool = True
    #: Adaptive budget allocation: carve a pool out of the phase-2/3
    #: budgets and reallocate it toward the faults whose committed FCA
    #: results show the most promising (lowest) loop-interference
    #: p-values.  Reallocation is decided only from committed results in
    #: schedule order, so serial ≡ process ≡ remote parity survives.
    adaptive_budget: bool = False
    #: Number of workers for profile and injection experiments
    #: (1 = serial).  Parallel campaigns are bit-identical to serial ones:
    #: experiment *scheduling* is decided before execution and results are
    #: committed in schedule order.
    experiment_workers: int = 1
    #: Executor backend for experiment fan-out: ``"process"`` (default,
    #: multicore via picklable task descriptors), ``"remote"`` (ship the
    #: same descriptors to a ``repro serve`` manager's agent fleet; needs
    #: ``manager_url``), or ``"serial"`` (force the reference backend
    #: regardless of ``experiment_workers``).
    experiment_backend: str = "process"
    #: Base URL of the campaign manager (``repro serve``) used by the
    #: ``remote`` backend; execution-only, like the backend choice itself.
    manager_url: "Optional[str]" = None
    #: Root directory of the content-addressed experiment cache, or
    #: ``None`` (default) to disable caching.  Cached profile run groups
    #: and FCA results are keyed by a digest of (system digest, test id,
    #: fault, injection plans, result-affecting config), so campaigns that
    #: could produce different results never share entries.
    cache_dir: "Optional[str]" = None

    def __post_init__(self) -> None:
        if self.repeats < 2:
            raise ConfigError("need at least 2 repeats for the t-test")
        if not 0.0 < self.p_value < 1.0:
            raise ConfigError("p_value must be in (0, 1)")
        if self.budget_per_fault < 1:
            raise ConfigError("budget_per_fault must be positive")
        if not self.delay_values_ms:
            raise ConfigError("delay_values_ms must be non-empty")
        if any(not math.isfinite(v) or v <= 0 for v in self.delay_values_ms):
            raise ConfigError("delay values must be finite and positive (virtual ms)")
        self._validate_fault_kinds()
        if self.beam_width < 1:
            raise ConfigError("beam_width must be positive")
        if self.max_chain_len < 2:
            raise ConfigError("cycles need at least 2 edges")
        if self.experiment_workers < 1:
            raise ConfigError("experiment_workers must be at least 1")
        if self.experiment_backend not in BACKENDS:
            raise ConfigError(
                "experiment_backend must be one of %s, got %r"
                % (", ".join(BACKENDS), self.experiment_backend)
            )
        if self.experiment_backend == "remote" and not self.manager_url:
            raise ConfigError(
                "the remote backend needs manager_url (--manager URL of a "
                "`repro serve` instance)"
            )

    def _validate_fault_kinds(self) -> None:
        if not self.fault_kinds:
            raise ConfigError("fault_kinds must name at least one fault kind")
        from . import faults  # deferred: faults never imports config

        registered = set(faults.registered_kinds())
        unknown = [k for k in self.fault_kinds if k not in registered]
        if unknown:
            raise ConfigError(
                "unknown fault kind(s) %s; registered: %s"
                % (", ".join(unknown), ", ".join(sorted(registered)))
            )
        schedules = set(faults.registered_schedules())
        unknown = [s for s in self.schedules if s not in schedules]
        if unknown:
            raise ConfigError(
                "unknown fault schedule(s) %s; registered: %s"
                % (", ".join(unknown), ", ".join(sorted(schedules)))
            )
        for kind, values in self.sweep_overrides:
            if kind not in registered and kind not in schedules:
                raise ConfigError(
                    "sweep override names unknown fault kind or schedule %r" % (kind,)
                )
            if not values:
                raise ConfigError("sweep override for %r needs at least one value" % (kind,))
            try:
                # Model-owned range rules (e.g. drop probabilities in
                # (0, 1]): fail at config time, not mid-campaign.
                faults.model_for(kind).validate_sweep(tuple(values))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        for values in (
            self.crash_restart_values_ms,
            self.partition_values_ms,
            self.drop_prob_values,
        ):
            if any(not math.isfinite(v) or v < 0 for v in values):
                raise ConfigError("environment sweep values must be finite and >= 0")

    def sweep_for(self, kind_id: str, default: Tuple[float, ...]) -> Tuple[float, ...]:
        """The parameter sweep of fault kind ``kind_id``: its per-kind
        override when one is configured, else ``default``."""
        for kind, values in self.sweep_overrides:
            if kind == kind_id:
                return tuple(values)
        return tuple(default)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dump, inverse of :meth:`from_dict`.

        Deeply normalized (tuples become lists at every level) so a dump
        compares equal to its own JSON round-trip — session-compatibility
        checks diff these dicts directly.
        """
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "sweep_overrides":
                value = [[kind, list(values)] for kind, values in value]
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def result_affecting(self) -> Dict[str, Any]:
        """:meth:`to_dict` minus :data:`EXECUTION_ONLY_KNOBS` — what cache
        keys, session verification and task digests compare."""
        out = self.to_dict()
        for knob in EXECUTION_ONLY_KNOBS:
            del out[knob]
        return out

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "CSnakeConfig":
        params = dict(obj)
        for name in (
            "delay_values_ms",
            "fault_kinds",
            "schedules",
            "crash_restart_values_ms",
            "partition_values_ms",
            "drop_prob_values",
        ):
            if name in params:
                params[name] = tuple(params[name])
        if "sweep_overrides" in params:
            params["sweep_overrides"] = tuple(
                (kind, tuple(values)) for kind, values in params["sweep_overrides"]
            )
        return cls(**params)

    def phase_budgets(self, n_faults: int) -> Tuple[int, int, int]:
        """Split the total budget ``budget_per_fault * n_faults`` 25/50/25."""
        total = self.budget_per_fault * n_faults
        p1 = round(total * PHASE_SPLIT[0])
        p2 = round(total * PHASE_SPLIT[1])
        p3 = total - p1 - p2
        return (p1, p2, p3)


@dataclass
class SimConfig:
    """Substrate-level configuration for simulated clusters."""

    #: Reduced timeouts (§4.2): systems run with 10–20 s timeouts so they
    #: are sensitive to injected delay, in virtual ms.
    rpc_timeout_ms: float = 10_000.0
    stale_timeout_ms: float = 15_000.0
    heartbeat_interval_ms: float = 3_000.0
    network_latency_ms: float = 2.0
    network_jitter_ms: float = 1.0
    #: Virtual-time horizon of one workload run.
    run_duration_ms: float = 120_000.0
    #: Per-iteration base processing cost charged by instrumented loops.
    loop_iter_cost_ms: float = 0.5

    def __post_init__(self) -> None:
        if self.rpc_timeout_ms <= 0 or self.heartbeat_interval_ms <= 0:
            raise ConfigError("timeouts and intervals must be positive")


#: Cap on distinct local states remembered per site in one run, to bound
#: memory on hot loops.
MAX_STATES_PER_SITE = 64
