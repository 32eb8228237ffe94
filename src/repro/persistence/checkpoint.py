"""Checkpoints: versioned, schema-stamped snapshots of one mediated run.

A checkpoint is two files in a run's ``checkpoints/`` directory: the
document ``ckpt-<tick>.json`` and the append-only :data:`TIMELINE_LOG`
beside it. The document has these parts::

    {
      "schema": "repro-checkpoint",   # stamp: is this even one of ours?
      "version": 2,                   # format version; mismatches refuse
      "tick": 120,                    # ticks executed when snapshotted
      "sim_time_s": 12.0,
      "recipe": { ... },              # how to BUILD the run (RunRecipe)
      "state":  { ... },              # how to RESTORE it (state_dict tree)
      "timeline_records": 120,        # log records the document covers
      "<owner>": { ... }              # the writing caller's own state
    }

The **recipe** holds everything needed to construct a fresh, identical
mediator - server config, policy name, sampler spec, seeds, fault plan,
resilience tunables. The **state** is the mediator's composite
:meth:`~repro.core.mediator.PowerMediator.state_dict`: every RNG stream,
ledger, cursor and counter - except the timeline, the one piece that grows
with the run. It lives in the log, one ``TickRecord`` JSON line each, and
the document records how many of the log's records it covers.
``recipe.build()`` followed by ``mediator.load_state_dict(state)`` with
the covered records as its timeline yields a mediator whose next tick is
bit-identical to what the checkpointed one would have produced.

Deliberately absent from the state: the profiling corpus, the trained
collaborative estimator, the population view and the fallback policy. They
are pure, deterministic functions of the recipe and rebuild lazily - this is
the "relearn cost avoided" the recovery accounting reports, since the
*calibration samples* (the expensive online measurements) do travel in the
candidate-set snapshots.

:class:`~repro.persistence.store.RunStore` is the one writer: it appends
the new timeline records to the log and fsyncs it, then writes the document
atomically (tmp file + fsync + rename), so a crash mid-checkpoint leaves
the previous checkpoint intact. :func:`read_checkpoint` is the one reader:
it validates schema and version before touching any field and fails with a
one-line :class:`~repro.errors.CheckpointError` naming the offending path -
never a traceback from deep inside a codec. A version-1 document (timeline
inline) is refused.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CheckpointError, ConfigurationError, ReproError
from repro.schema import Validator
from repro.core.mediator import PowerMediator
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.resilience import ResilienceConfig
from repro.core.simulation import default_battery
from repro.engine import ENGINE_KINDS
from repro.faults.plan import FaultPlan
from repro.learning.sampling import sampler_from_spec
from repro.observability.trace import TraceBus
from repro.server.config import DEFAULT_SERVER_CONFIG, ServerConfig
from repro.server.server import SimulatedServer

#: Schema stamp written into every checkpoint document.
CHECKPOINT_SCHEMA = "repro-checkpoint"

#: Current checkpoint format version; bump on incompatible layout changes.
#: Version 2 keeps the timeline out of the document, in :data:`TIMELINE_LOG`.
CHECKPOINT_VERSION = 2

#: The timeline log beside the documents: one ``TickRecord`` JSON line each,
#: appended at every checkpoint and never pruned (the timeline is what the
#: cap-invariant audit reads).
TIMELINE_LOG = "timeline.jsonl"

_VALID = Validator(CheckpointError)

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ServerConfig)}
_RESILIENCE_FIELDS = {f.name for f in dataclasses.fields(ResilienceConfig)}


@dataclass(frozen=True)
class RunRecipe:
    """Constructor-side description of one mediated run.

    Everything the mediator's ``__init__`` needs, as dumb serializable data.
    Drivers that want crash tolerance build their mediator *from* a recipe
    (``recipe.build()``) instead of calling the constructor directly, so the
    checkpoint layer never has to reverse-engineer a live object.

    Attributes:
        policy: Paper policy name (see
            :data:`~repro.core.policies.POLICY_NAMES`).
        p_cap_w: Initial power cap (later E1 changes live in the journal
            and the accountant's snapshot).
        config: Server hardware parameters.
        use_battery: Install :func:`~repro.core.simulation.default_battery`;
            ``None`` defers to ``policy.uses_esd``.
        sampler: A :func:`~repro.learning.sampling.sampler_spec` dict, or
            ``None`` for the mediator's default (stratified at 10%).
        use_oracle_estimates: Bypass the learning pipeline.
        power_noise_std_w / perf_noise_relative_std: Calibration noise.
        dt_s: Tick length.
        seed: Seed for calibration noise (and the server's sensors).
        faults: Optional fault plan injected during the run.
        resilience: Degraded-mode tunables, or ``None`` for defaults.
        engine: Server model implementation (``"scalar"``/``"vector"``).
            Bit-identical results, so restoring a checkpoint under either
            engine is legal; the recipe records the one the run requested.
    """

    policy: str
    p_cap_w: float
    config: ServerConfig = DEFAULT_SERVER_CONFIG
    use_battery: bool | None = None
    sampler: dict | None = None
    use_oracle_estimates: bool = False
    power_noise_std_w: float = 0.3
    perf_noise_relative_std: float = 0.02
    dt_s: float = 0.1
    seed: int = 0
    faults: FaultPlan | None = None
    resilience: ResilienceConfig | None = None
    engine: str = "scalar"

    @property
    def wants_battery(self) -> bool:
        """Whether :meth:`build` installs an ESD."""
        if self.use_battery is not None:
            return self.use_battery
        return make_policy(self.policy).uses_esd

    @property
    def sampler_fraction(self) -> float:
        """The calibration budget fraction this recipe's sampler spends."""
        if self.sampler is None:
            return 0.10
        return float(self.sampler["fraction"])

    def build(self, trace_bus: TraceBus | None = None) -> PowerMediator:
        """Construct a fresh mediator exactly as this recipe describes.

        ``trace_bus`` goes to the constructor, so the bus also sees the
        initial cap-change (E1) event, as a traced ``run_mix_experiment``
        does; a restored mediator is attached after its state is loaded.
        """
        server = SimulatedServer(self.config, seed=self.seed, engine=self.engine)
        return PowerMediator(
            server,
            make_policy(self.policy),
            self.p_cap_w,
            battery=default_battery() if self.wants_battery else None,
            sampler=None if self.sampler is None else sampler_from_spec(self.sampler),
            use_oracle_estimates=self.use_oracle_estimates,
            power_noise_std_w=self.power_noise_std_w,
            perf_noise_relative_std=self.perf_noise_relative_std,
            dt_s=self.dt_s,
            seed=self.seed,
            faults=self.faults,
            resilience=self.resilience,
            trace_bus=trace_bus,
        )

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "p_cap_w": self.p_cap_w,
            "config": dataclasses.asdict(self.config),
            "use_battery": self.use_battery,
            "sampler": self.sampler,
            "use_oracle_estimates": self.use_oracle_estimates,
            "power_noise_std_w": self.power_noise_std_w,
            "perf_noise_relative_std": self.perf_noise_relative_std,
            "dt_s": self.dt_s,
            "seed": self.seed,
            "faults": None
            if self.faults is None
            else {
                "seed": self.faults.seed,
                "faults": [spec.to_dict() for spec in self.faults.specs],
            },
            "resilience": None
            if self.resilience is None
            else dataclasses.asdict(self.resilience),
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: dict, *, where: str = "recipe") -> "RunRecipe":
        """Rebuild a recipe, validating field by field.

        Raises:
            CheckpointError: naming the offending JSON path on any
                malformed, unknown, or semantically invalid field.
        """
        obj = _VALID.as_dict(data, where)
        policy = _VALID.choice(
            _VALID.require(obj, "policy", where), f"{where}.policy", POLICY_NAMES
        )
        config_raw = _VALID.as_dict(
            _VALID.require(obj, "config", where), f"{where}.config"
        )
        for key in config_raw:
            if key not in _CONFIG_FIELDS:
                _VALID.fail(f"{where}.config.{key}", "unknown server-config field")
        use_battery = obj.get("use_battery")
        if use_battery is not None:
            use_battery = _VALID.as_bool(use_battery, f"{where}.use_battery")
        sampler = obj.get("sampler")
        if sampler is not None:
            sampler = dict(_VALID.as_dict(sampler, f"{where}.sampler"))
            _VALID.as_number(
                _VALID.require(sampler, "fraction", f"{where}.sampler"),
                f"{where}.sampler.fraction",
            )
        faults_raw = obj.get("faults")
        faults = None
        if faults_raw is not None:
            try:
                faults = FaultPlan.from_json(json.dumps(faults_raw))
            except ReproError as exc:
                raise CheckpointError(f"{where}.faults: {exc}") from None
        resilience_raw = obj.get("resilience")
        resilience = None
        if resilience_raw is not None:
            resilience_raw = _VALID.as_dict(resilience_raw, f"{where}.resilience")
            for key in resilience_raw:
                if key not in _RESILIENCE_FIELDS:
                    _VALID.fail(
                        f"{where}.resilience.{key}", "unknown resilience field"
                    )
            resilience = ResilienceConfig(**resilience_raw)
        try:
            config = ServerConfig(**config_raw)
        except (ConfigurationError, TypeError) as exc:
            raise CheckpointError(f"{where}.config: {exc}") from None
        try:
            return cls(
                policy=policy,
                p_cap_w=_VALID.as_number(
                    _VALID.require(obj, "p_cap_w", where), f"{where}.p_cap_w"
                ),
                config=config,
                use_battery=use_battery,
                sampler=sampler,
                use_oracle_estimates=_VALID.as_bool(
                    obj.get("use_oracle_estimates", False),
                    f"{where}.use_oracle_estimates",
                ),
                power_noise_std_w=_VALID.as_number(
                    obj.get("power_noise_std_w", 0.3), f"{where}.power_noise_std_w"
                ),
                perf_noise_relative_std=_VALID.as_number(
                    obj.get("perf_noise_relative_std", 0.02),
                    f"{where}.perf_noise_relative_std",
                ),
                dt_s=_VALID.as_number(obj.get("dt_s", 0.1), f"{where}.dt_s"),
                seed=_VALID.as_int(obj.get("seed", 0), f"{where}.seed"),
                faults=faults,
                resilience=resilience,
                engine=_VALID.choice(
                    obj.get("engine", "scalar"), f"{where}.engine", ENGINE_KINDS
                ),
            )
        except ConfigurationError as exc:
            raise CheckpointError(f"{where}: {exc}") from None


# --------------------------------------------------------------- file layer


def checkpoint_filename(tick: int) -> str:
    """Canonical file name for the checkpoint taken at ``tick``."""
    return f"ckpt-{tick:08d}.json"


def read_checkpoint(path: str | Path, *, cut_log: bool = False) -> dict:
    """Read and validate one checkpoint document and the timeline it covers.

    Validation is layered so every failure is a single clear line: file
    readability, JSON well-formedness, schema stamp, format version, then
    the presence and types of the top-level fields. The recipe and state
    trees are validated by their consumers (:meth:`RunRecipe.from_dict`,
    the component codecs). The first ``timeline_records`` lines of the
    :data:`TIMELINE_LOG` beside the document become ``state["timeline"]``,
    so :func:`restore_mediator` sees the whole timeline.

    Args:
        path: The document.
        cut_log: Truncate the log after the covered records. Recovery cuts:
            whatever follows was appended by a checkpoint that never became
            durable, and appending resumes from the cut. A read-only resume
            leaves the log alone.

    Raises:
        CheckpointError: on any of the above, or a log that holds fewer
            whole records than the document covers or a malformed line
            among them.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: not valid JSON ({exc})") from None
    obj = _VALID.as_dict(doc, "checkpoint")
    schema = _VALID.as_str(
        _VALID.require(obj, "schema", "checkpoint"), "checkpoint.schema"
    )
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: schema {schema!r} is not {CHECKPOINT_SCHEMA!r}; "
            "this is not a mediator checkpoint"
        )
    version = _VALID.as_int(
        _VALID.require(obj, "version", "checkpoint"), "checkpoint.version"
    )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    _VALID.as_int(_VALID.require(obj, "tick", "checkpoint"), "checkpoint.tick")
    _VALID.as_number(
        _VALID.require(obj, "sim_time_s", "checkpoint"), "checkpoint.sim_time_s"
    )
    _VALID.as_dict(_VALID.require(obj, "recipe", "checkpoint"), "checkpoint.recipe")
    state = _VALID.as_dict(
        _VALID.require(obj, "state", "checkpoint"), "checkpoint.state"
    )
    covered = _VALID.as_int(
        _VALID.require(obj, "timeline_records", "checkpoint"),
        "checkpoint.timeline_records",
    )
    if covered < 0:
        _VALID.fail("checkpoint.timeline_records", f"must be non-negative, got {covered}")
    state["timeline"] = _read_timeline_log(path.parent / TIMELINE_LOG, covered, cut_log)
    return obj


def _read_timeline_log(log: Path, covered: int, cut: bool) -> list[dict]:
    records: list[dict] = []
    try:
        with open(log, "rb") as handle:
            for number in range(1, covered + 1):
                line = handle.readline()
                if not line.endswith(b"\n"):
                    raise CheckpointError(
                        f"{log}: holds {number - 1} whole records, the "
                        f"checkpoint covers {covered}"
                    )
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise CheckpointError(
                        f"{log}: line {number} is not valid JSON ({exc})"
                    ) from None
                if not isinstance(record, dict):
                    raise CheckpointError(f"{log}: line {number} is not a JSON object")
                records.append(record)
            end = handle.tell()
        if cut:
            os.truncate(log, end)
    except OSError as exc:
        raise CheckpointError(f"cannot read timeline log {log}: {exc}") from None
    return records


def restore_mediator(doc: dict) -> PowerMediator:
    """Build and restore a mediator from a validated checkpoint document.

    Raises:
        CheckpointError: when the state tree does not fit the recipe's
            mediator (a checkpoint edited by hand, or cross-wired files).
    """
    recipe = RunRecipe.from_dict(doc["recipe"], where="checkpoint.recipe")
    mediator = recipe.build()
    try:
        mediator.load_state_dict(doc["state"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint.state: does not match its own recipe "
            f"({type(exc).__name__}: {exc})"
        ) from None
    return mediator
