"""Checkpoints: versioned, schema-stamped snapshots of one mediated run.

A checkpoint is two files in a run's ``checkpoints/`` directory: the
document ``ckpt-<tick>.json`` and the append-only :data:`HISTORY_LOG`
beside it. The document has these parts::

    {
      "schema": "repro-checkpoint",   # stamp: is this even one of ours?
      "version": 5,                   # format version; mismatches refuse
      "tick": 120,                    # ticks executed when snapshotted
      "sim_time_s": 12.0,
      "recipe": { ... },              # how to BUILD the run (RunRecipe)
      "state":  { ... },              # how to RESTORE it (state_dict tree)
      "sessions": { ... } | null,     # client sessions, windows left out
      "history_lines": 412,           # log lines the document covers
      "<owner>": { ... }              # the writing caller's own state
    }

The **recipe** holds everything needed to construct a fresh, identical
mediator, under exactly these keys: ``policy``, ``p_cap_w``,
``use_oracle_estimates``, ``dt_s``, ``seed``, ``faults`` and ``engine``;
any other key is refused. Every run is on the Table I server
(:data:`~repro.server.config.DEFAULT_SERVER_CONFIG`) with the fixed
degraded-mode constants of :mod:`repro.core.resilience`. The **state** is
the mediator's composite
:meth:`~repro.core.mediator.PowerMediator.state_dict`: every RNG
stream, ledger, cursor and counter - except the histories that only grow
with the run. Those live in the log, one JSON line ``{"kind": K, "data": {...}}``
per item, in four kinds:

* ``tick`` - one ``TickRecord`` of the mediator's timeline;
* ``event`` - one event of the accountant's E1-E4/F/R log;
* ``finished`` - one departure: the app, its final handle and peak rate;
* ``delivery`` - one client-session delivery, with its ``client`` (the
  service's sessions only).

Each checkpoint appends the items made since the previous one and fsyncs
the log once; the document records one count, ``history_lines``, of the
log lines it covers. :func:`read_checkpoint` reads those lines back, in
order, into the timeline, the accountant's log, the ``finished`` list and
each session's window (the newest ``window_size`` deliveries of its
client), so ``recipe.build()`` followed by ``mediator.load_state_dict(state)``
yields a mediator whose next tick is bit-identical to what the checkpointed
one would have produced.

The ``<owner>`` part is opaque here: the supervisor and the service each
check every key of their own part, and its JSON type, before restoring
anything from it.

Deliberately absent from the state, because they are derived: the profiling
corpus, the trained collaborative estimator, the population view, the
fallback policy and the oracle candidate sets. They are pure, deterministic
functions of the recipe (an oracle set of the profile it was calibrated on
and the app's core-group width, which the state records) and rebuild on
restore or lazily. This is the "relearn cost avoided" the recovery
accounting reports, since the *calibration samples* (the expensive online
measurements) do travel, in the learned estimate sets.

:class:`~repro.persistence.store.RunStore` is the one writer: it appends
the new history lines to the log and fsyncs it, then writes the document
atomically (tmp file + fsync + rename), so a crash mid-checkpoint leaves
the previous checkpoint intact. :func:`read_checkpoint` is the one reader:
it validates schema and version before touching any field and fails with a
one-line :class:`~repro.errors.CheckpointError` naming the offending path -
never a traceback from deep inside a codec. A version-1 document (timeline
inline), a version-2 one (timeline-only log, histories inline), a version-3
one (recipe with sampler, battery and noise keys) or a version-4 one
(recipe with ``config`` and ``resilience`` keys) is refused.
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CheckpointError, ConfigurationError, ReproError
from repro.schema import Validator
from repro.core.mediator import PowerMediator
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.simulation import default_battery
from repro.engine import ENGINE_KINDS
from repro.faults.plan import FaultPlan
from repro.observability.trace import TraceBus
from repro.server.config import DEFAULT_SERVER_CONFIG
from repro.server.server import SimulatedServer

#: Schema stamp written into every checkpoint document.
CHECKPOINT_SCHEMA = "repro-checkpoint"

#: Current checkpoint format version; bump on incompatible layout changes.
#: Version 3 keeps every growing history out of the document, in
#: :data:`HISTORY_LOG`, and stores no derived candidate set; version 4's
#: recipe drops the sampler, battery and calibration-noise keys; version 5's
#: drops ``config`` and ``resilience``.
CHECKPOINT_VERSION = 5

#: The history log beside the documents: one ``{"kind", "data"}`` JSON line
#: per item of :data:`HISTORY_KINDS`, appended at every checkpoint and never
#: pruned (the timeline in it is what the cap-invariant audit reads).
HISTORY_LOG = "history.jsonl"

#: The log's line kinds, in the order a checkpoint appends them.
HISTORY_KINDS = ("tick", "event", "finished", "delivery")

_VALID = Validator(CheckpointError)


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
        use_oracle_estimates: Bypass the learning pipeline.
        dt_s: Tick length.
        seed: Seed for calibration noise (and the server's sensors).
        faults: Optional fault plan injected during the run.
        engine: Server model implementation (``"scalar"``/``"vector"``).
            Bit-identical results, so restoring a checkpoint under either
            engine is legal; the recipe records the one the run requested.
    """

    policy: str
    p_cap_w: float
    use_oracle_estimates: bool = False
    dt_s: float = 0.1
    seed: int = 0
    faults: FaultPlan | None = None
    engine: str = "scalar"

    def build(self, trace_bus: TraceBus | None = None) -> PowerMediator:
        """Construct a fresh mediator exactly as this recipe describes.

        ``trace_bus`` goes to the constructor, so the bus also sees the
        initial cap-change (E1) event, as a traced ``run_mix_experiment``
        does; a restored mediator is attached after its state is loaded.
        """
        server = SimulatedServer(DEFAULT_SERVER_CONFIG, seed=self.seed, engine=self.engine)
        policy = make_policy(self.policy)
        return PowerMediator(
            server,
            policy,
            self.p_cap_w,
            battery=default_battery() if policy.uses_esd else None,
            use_oracle_estimates=self.use_oracle_estimates,
            dt_s=self.dt_s,
            seed=self.seed,
            faults=self.faults,
            trace_bus=trace_bus,
        )

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "p_cap_w": self.p_cap_w,
            "use_oracle_estimates": self.use_oracle_estimates,
            "dt_s": self.dt_s,
            "seed": self.seed,
            "faults": None
            if self.faults is None
            else {
                "seed": self.faults.seed,
                "faults": [spec.to_dict() for spec in self.faults.specs],
            },
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
        for key in obj:
            if key not in _RECIPE_FIELDS:
                _VALID.fail(f"{where}.{key}", "unknown recipe field")
        policy = _VALID.choice(
            _VALID.require(obj, "policy", where), f"{where}.policy", POLICY_NAMES
        )
        faults_raw = obj.get("faults")
        faults = None
        if faults_raw is not None:
            try:
                faults = FaultPlan.from_json(json.dumps(faults_raw))
            except ReproError as exc:
                raise CheckpointError(f"{where}.faults: {exc}") from None
        try:
            return cls(
                policy=policy,
                p_cap_w=_VALID.as_number(
                    _VALID.require(obj, "p_cap_w", where), f"{where}.p_cap_w"
                ),
                use_oracle_estimates=_VALID.as_bool(
                    obj.get("use_oracle_estimates", False),
                    f"{where}.use_oracle_estimates",
                ),
                dt_s=_VALID.as_number(obj.get("dt_s", 0.1), f"{where}.dt_s"),
                seed=_VALID.as_int(obj.get("seed", 0), f"{where}.seed"),
                faults=faults,
                engine=_VALID.choice(
                    obj.get("engine", "scalar"), f"{where}.engine", ENGINE_KINDS
                ),
            )
        except ConfigurationError as exc:
            raise CheckpointError(f"{where}: {exc}") from None


_RECIPE_FIELDS = {f.name for f in dataclasses.fields(RunRecipe)}


# --------------------------------------------------------------- file layer


def checkpoint_filename(tick: int) -> str:
    """Canonical file name for the checkpoint taken at ``tick``."""
    return f"ckpt-{tick:08d}.json"


def read_checkpoint(path: str | Path, *, cut_log: bool = False) -> dict:
    """Read and validate one checkpoint document and the history it covers.

    Validation is layered so every failure is a single clear line: file
    readability, JSON well-formedness, schema stamp, format version, then
    the presence and types of the top-level fields. The recipe and state
    trees are validated by their consumers (:meth:`RunRecipe.from_dict`,
    the component codecs). The first ``history_lines`` lines of the
    :data:`HISTORY_LOG` beside the document are put back where the
    histories live: ``state["timeline"]``, ``state["accountant"]["log"]``,
    ``state["finished"]`` and each session's ``window``, so
    :func:`restore_mediator` sees the whole state.

    Args:
        path: The document.
        cut_log: Truncate the log after the covered lines. Recovery cuts:
            whatever follows was appended by a checkpoint that never became
            durable, and appending resumes from the cut. A read-only resume
            leaves the log alone.

    Raises:
        CheckpointError: on any of the above, or a log that holds fewer
            whole lines than the document covers, or a malformed line, a
            line of an unknown kind or a delivery for a client without a
            session among them.
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
    accountant = _VALID.as_dict(
        _VALID.require(state, "accountant", "checkpoint.state"),
        "checkpoint.state.accountant",
    )
    windows = _session_windows(_VALID.require(obj, "sessions", "checkpoint"))
    covered = _VALID.as_int(
        _VALID.require(obj, "history_lines", "checkpoint"), "checkpoint.history_lines"
    )
    if covered < 0:
        _VALID.fail("checkpoint.history_lines", f"must be non-negative, got {covered}")
    history = _read_history_log(path.parent / HISTORY_LOG, covered, cut_log, windows)
    state["timeline"] = history["tick"]
    accountant["log"] = history["event"]
    state["finished"] = history["finished"]
    for session in [] if obj["sessions"] is None else obj["sessions"]["sessions"]:
        session["window"] = list(windows[session["client"]])
    return obj


def _session_windows(sessions) -> dict[int, deque]:
    """An empty window per session in the document's ``sessions``, each
    bounded like the live one, for the log's deliveries to fill."""
    if sessions is None:
        return {}
    where = "checkpoint.sessions"
    listed = _VALID.as_list(
        _VALID.require(_VALID.as_dict(sessions, where), "sessions", where),
        f"{where}.sessions",
    )
    windows: dict[int, deque] = {}
    for i, session in enumerate(listed):
        here = f"{where}.sessions[{i}]"
        session = _VALID.as_dict(session, here)
        client = _VALID.as_int(_VALID.require(session, "client", here), f"{here}.client")
        size = _VALID.as_int(
            _VALID.require(session, "window_size", here), f"{here}.window_size"
        )
        if size < 1:
            _VALID.fail(f"{here}.window_size", f"must be positive, got {size}")
        # The store resumes logging deliveries from here after a recovery.
        _VALID.as_int(_VALID.require(session, "next_seq", here), f"{here}.next_seq")
        windows[client] = deque(maxlen=size)
    return windows


def _read_history_log(
    log: Path, covered: int, cut: bool, windows: dict[int, deque]
) -> dict[str, list]:
    # Deliveries go straight into their session's window.
    history: dict[str, list] = {kind: [] for kind in HISTORY_KINDS if kind != "delivery"}
    try:
        with open(log, "rb") as handle:
            for number in range(1, covered + 1):
                line = handle.readline()
                if not line.endswith(b"\n"):
                    raise CheckpointError(
                        f"{log}: holds {number - 1} whole lines, the "
                        f"checkpoint covers {covered}"
                    )
                try:
                    item = json.loads(line)
                except ValueError as exc:
                    raise CheckpointError(
                        f"{log}: line {number} is not valid JSON ({exc})"
                    ) from None
                if not isinstance(item, dict):
                    raise CheckpointError(f"{log}: line {number} is not a JSON object")
                kind, data = item.get("kind"), item.get("data")
                if not isinstance(kind, str) or kind not in HISTORY_KINDS:
                    raise CheckpointError(f"{log}: line {number} has unknown kind {kind!r}")
                if not isinstance(data, dict):
                    raise CheckpointError(f"{log}: line {number} has no data object")
                if kind == "delivery":
                    client = data.pop("client", None)
                    if not isinstance(client, int) or client not in windows:
                        raise CheckpointError(
                            f"{log}: line {number} is a delivery for client "
                            f"{client!r}, which has no session"
                        )
                    windows[client].append(data)
                else:
                    history[kind].append(data)
            end = handle.tell()
        if cut:
            os.truncate(log, end)
    except OSError as exc:
        raise CheckpointError(f"cannot read history log {log}: {exc}") from None
    return history


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
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint.state: does not match its own recipe "
            f"({type(exc).__name__}: {exc})"
        ) from None
    return mediator
