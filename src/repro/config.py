"""Framework-wide configuration with the paper's default parameters."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from .errors import ConfigError

#: The executor backends ``experiment_backend`` (and the CLI) accept;
#: :func:`repro.pipeline.make_executor` builds them.  A campaign on an
#: agent fleet is submitted to the manager instead (``repro submit``,
#: :mod:`repro.service`), which runs it over its own executor.
BACKENDS: Tuple[str, ...] = ("serial", "process")

#: Delay sweep used for contention injection (§4.2): seven values between
#: 100 ms and 8 s, in virtual milliseconds.
DELAY_VALUES_MS: Tuple[float, ...] = (100.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0)

#: Phase split of the 3PA protocol (§5.2): 25% / 50% / 25%.
PHASE_SPLIT: Tuple[float, float, float] = (0.25, 0.50, 0.25)

#: Minimum allocation weight for a fault cluster in phase three (§A.4).
EPSILON_WEIGHT = 0.01

#: Hierarchical-clustering cut of phase one: faults closer than this
#: cosine distance are considered causally equivalent.
CLUSTER_DISTANCE = 0.5

#: Fraction of lowest-ranked loops (by body size) excluded by the loop
#: scalability analysis unless they perform I/O (§4.1).
LOOP_SIZE_PRUNE_FRAC = 0.10

#: The bounds a knob may declare: keyword -> (comparison, how it reads).
_BOUNDS = {
    "ge": (operator.ge, ">="),
    "gt": (operator.gt, ">"),
    "le": (operator.le, "<="),
    "lt": (operator.lt, "<"),
}


def knob(
    default: Any,
    kind: Any,
    doc: str,
    *,
    execution_only: bool = False,
    **bounds: float,
) -> Any:
    """One :class:`CSnakeConfig` field, declared once: validation,
    :data:`EXECUTION_ONLY_KNOBS`, both codecs and the CLI's help derive
    from it (DESIGN.md, "Knobs").

    ``kind`` is ``int``, ``float`` (an ``int`` will do), ``bool`` (never an
    ``int``) or ``str``; ``(kind,)`` is a tuple of any length of that kind,
    a longer tuple one of exactly that shape.  It is declared because
    Python 3.9 cannot evaluate an ``"int | None"`` annotation.  A ``None``
    default makes ``None`` acceptable.  ``ge`` / ``gt`` / ``le`` / ``lt``
    hold every number in the value to a finite range; an unbounded field's
    range has another owner, which for a ``sweep_overrides`` entry is its
    fault model.  ``doc`` is one sentence fit for ``--help``.
    """
    limits = [(limit,) + _BOUNDS[key] for key, limit in bounds.items()]
    metadata = dict(kind=kind, doc=doc, execution_only=execution_only, bounds=limits)
    return field(default=default, metadata=metadata)


def _check_kind(name: str, reads: str, value: Any, kind: Any) -> None:
    """``ConfigError`` naming field ``name`` (annotated ``reads``) unless
    ``value`` is a ``kind``.  Never coerces: ``8000`` and ``8000.0`` dump
    differently, and dumps key every cache entry."""
    if isinstance(kind, tuple):
        ok = isinstance(value, tuple) and (len(kind) == 1 or len(value) == len(kind))
        if ok:
            for i, item in enumerate(value):
                _check_kind(name, reads, item, kind[i if len(kind) > 1 else 0])
    elif kind is bool or isinstance(value, bool):
        ok = kind is bool and isinstance(value, bool)
    elif kind is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError("%s must be %s, got %r" % (name, reads, value))


def _retyped(value: Any, old: type, new: type) -> Any:
    """``value`` with every ``old`` sequence in it, at any depth, a ``new``
    one: the JSON form has lists where a config has tuples."""
    return new(_retyped(v, old, new) for v in value) if isinstance(value, old) else value


@dataclass
class CSnakeConfig:
    """Tunable knobs of the whole pipeline, defaulting to paper values."""

    #: §4.3; the t-test needs two samples a side.
    repeats: int = knob(5, int, "repetitions of every profile and injection run", ge=2)
    p_value: float = knob(
        0.1, float, "significance level of the one-sided t-test on loop counts", gt=0.0, lt=1.0
    )
    #: The total test budget is ``budget_per_fault * |F|`` (§5.2).
    budget_per_fault: int = knob(4, int, "budget per fault", ge=1)
    delay_values_ms: Tuple[float, ...] = knob(
        DELAY_VALUES_MS, (float,), "delay sweep of contention injection, in virtual ms", gt=0.0
    )
    #: Defaults to the paper's closed taxonomy; the environment kinds
    #: (node_crash, partition, msg_drop) take effect on systems that
    #: declare an :class:`~repro.faults.EnvFaultPort`.
    fault_kinds: Tuple[str, ...] = knob(
        ("exception", "delay", "negation"), (str,),
        "fault kinds to inject, by registered model id (default: classic = "
        "exception,delay,negation; all additionally enables the environment kinds — "
        "see 'repro faults')",
    )
    #: Off by default: schedules are k-fault compositions (a partition
    #: during a crash-restart, membership churn waves) anchored at
    #: ``ENV_NODE`` sites (``repro.faults.schedule``).
    schedules: Tuple[str, ...] = knob(
        (), (str,), "composed fault schedules to inject, by registered schedule name "
        "(default: none; 'all' enables every registered schedule — see 'repro faults')",
    )
    #: ``(("partition", (10_000.0,)), ...)`` replaces the named fault
    #: model's default parameter sweep.  The ``--delays`` flag is shorthand
    #: for overriding the ``delay`` sweep.  Schedule names are accepted too
    #: (they sweep a ``time_scale``).
    sweep_overrides: Tuple[Tuple[str, Tuple[float, ...]], ...] = knob(
        (), ((str, (float,)),), "per-kind sweep overrides"
    )
    #: Fraction of injection runs in which a point fault (exception or
    #: negation) must appear — while appearing in no profile run — to count
    #: as an additional fault.  The paper uses "any additional fault" with
    #: 5 repetitions; 0.4 (2 of 5) damps scheduler noise.
    point_event_min_frac: float = knob(
        0.4, float, "share of injection runs a point fault must appear in", ge=0.0, le=1.0
    )
    #: The paper uses 5e6; our causal graphs are ~1e3 edges so 10 000 is
    #: exhaustive at this scale.
    beam_width: int = knob(10_000, int, "beam width", ge=1)
    #: Cycles need at least 2 edges.
    max_chain_len: int = knob(6, int, "maximum number of edges in a propagation chain", ge=2)
    #: ``None`` means unlimited (Table 4 compares unlimited vs 1).
    max_delay_faults: Optional[int] = knob(
        None, int, "cap on delay (contention) faults per reported cycle", ge=0
    )
    #: Repetition ``i`` of a test's runs (profile and injection alike) is
    #: seeded by SHA-256 of ``test_id#i#seed``
    #: (``repro.core.driver.seed_for``).
    seed: int = knob(1234, int, "base random seed")
    compat_check: bool = knob(True, bool, "apply the local compatibility check (§6.2)")
    #: Carves a pool out of the phase-2/3 budgets and reallocates it toward
    #: the faults whose committed FCA results show the lowest
    #: loop-interference p-values.  Reallocation is decided only from
    #: committed results in schedule order, so serial ≡ process ≡ fleet
    #: parity survives.
    adaptive_budget: bool = knob(
        False, bool, "reallocate a share of the phase-2/3 budget toward the (fault, test) "
        "pairs whose early p-values look promising (deterministic: identical across "
        "backends and on an agent fleet)",
    )
    #: Parallel campaigns are bit-identical to serial ones: experiment
    #: *scheduling* is decided before execution and results are committed
    #: in schedule order.
    experiment_workers: int = knob(
        1, int, "workers for profile and injection experiments (1 = serial)",
        ge=1, execution_only=True,
    )
    #: ``"process"`` (default, multicore via picklable task descriptors)
    #: or ``"serial"`` (force the reference backend regardless of
    #: ``experiment_workers``).
    experiment_backend: str = knob(
        "process", str, "experiment executor backend (results are bit-identical across "
        "backends)", execution_only=True,
    )
    #: ``None`` (default) disables caching.  Cached profile run groups and
    #: FCA results are keyed by a digest of (system digest, test id, fault,
    #: injection plans, result-affecting config), so campaigns that could
    #: produce different results never share entries.
    cache_dir: Optional[str] = knob(
        None, str, "root directory of the content-addressed experiment cache",
        execution_only=True,
    )

    def __post_init__(self) -> None:
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if value is None and f.default is None:
                continue
            _check_kind(f.name, f.type, value, meta["kind"])
            numbers = value if isinstance(value, tuple) else (value,)
            for limit, holds, reads in meta["bounds"]:
                for number in numbers:
                    if number in (math.inf, -math.inf):
                        raise ConfigError("%s must be finite, got %r" % (f.name, number))
                    if not holds(number, limit):
                        raise ConfigError(
                            "%s must be %s %r, got %r" % (f.name, reads, limit, number)
                        )
        # What no field can say of itself: cross-field rules, then membership
        # in the fault registry and the sweep ranges its models own.
        if not self.delay_values_ms:
            raise ConfigError("delay_values_ms must be non-empty")
        if not self.fault_kinds:
            raise ConfigError("fault_kinds must name at least one fault kind")
        if self.experiment_backend not in BACKENDS:
            raise ConfigError(
                "experiment_backend must be one of %s, got %r"
                % (", ".join(BACKENDS), self.experiment_backend)
            )
        from . import faults  # deferred: faults never imports config

        for what, named, known in (
            ("fault kind(s)", self.fault_kinds, faults.expand_kinds("all")),
            ("fault schedule(s)", self.schedules, faults.registered_schedules()),
        ):
            unknown = [n for n in named if n not in known]
            if unknown:
                raise ConfigError(
                    "unknown %s %s; registered: %s"
                    % (what, ", ".join(unknown), ", ".join(sorted(known)))
                )
        seen = set()
        for kind, values in self.sweep_overrides:
            if kind in seen:
                raise ConfigError("sweep_overrides names %r twice" % (kind,))
            seen.add(kind)
            if kind not in faults.registered_kinds():
                raise ConfigError(
                    "sweep override names unknown fault kind or schedule %r" % (kind,)
                )
            if not values:
                raise ConfigError("sweep override for %r needs at least one value" % (kind,))
            try:
                # Model-owned range rules (e.g. drop probabilities in
                # (0, 1]): fail at config time, not mid-campaign.
                faults.model_for(kind).validate_sweep(values)
            except ValueError as exc:
                raise ConfigError("sweep_overrides: %s" % (exc,)) from exc

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
        compares equal to its own JSON round-trip.
        """
        return {f.name: _retyped(getattr(self, f.name), tuple, list) for f in fields(self)}

    def result_affecting(self) -> Dict[str, Any]:
        """:meth:`to_dict` minus :data:`EXECUTION_ONLY_KNOBS` — what result
        keys (``repro.cache.ResultKey``) compare."""
        out = self.to_dict()
        for name in EXECUTION_ONLY_KNOBS:
            del out[name]
        return out

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "CSnakeConfig":
        """A config from (part of) a dump.  ``obj`` comes from outside the
        program — a request body, a wire task — so whatever is wrong with
        it is a :class:`ConfigError`."""
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object, got %r" % (obj,))
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError("unknown config field(s) %s" % ", ".join(unknown))
        return cls(**{name: _retyped(value, list, tuple) for name, value in obj.items()})

    def phase_budgets(self, n_faults: int) -> Tuple[int, int, int]:
        """Split the total budget ``budget_per_fault * n_faults`` 25/50/25."""
        total = self.budget_per_fault * n_faults
        p1 = round(total * PHASE_SPLIT[0])
        p2 = round(total * PHASE_SPLIT[1])
        p3 = total - p1 - p2
        return (p1, p2, p3)


#: Config knobs that change *how* a campaign executes but provably not its
#: results (parallel campaigns are bit-identical to serial ones, and the
#: experiment cache replays byte-identical results).  Experiment-cache
#: keys exclude them, so a warm cache written by a serial run serves a
#: process-backed one, and a killed campaign may be re-run with other
#: workers.
EXECUTION_ONLY_KNOBS: Tuple[str, ...] = tuple(
    f.name for f in fields(CSnakeConfig) if f.metadata["execution_only"]
)


@dataclass
class SimConfig:
    """Substrate-level configuration for simulated clusters."""

    #: Reduced timeouts (§4.2): systems run with 10–20 s timeouts so they
    #: are sensitive to injected delay, in virtual ms.
    rpc_timeout_ms: float = 10_000.0
    network_latency_ms: float = 2.0
    network_jitter_ms: float = 1.0
    #: Virtual-time horizon of one workload run.
    run_duration_ms: float = 120_000.0

    def __post_init__(self) -> None:
        if self.rpc_timeout_ms <= 0:
            raise ConfigError("rpc_timeout_ms must be positive")


#: Cap on distinct local states remembered per site in one run, to bound
#: memory on hot loops.
MAX_STATES_PER_SITE = 64
