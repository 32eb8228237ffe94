"""The service's typed command stream.

Three commands flow through the ingest buffer:

* :class:`SubmitJob` - a client asks the service to admit one application;
* :class:`CancelJob` - a client withdraws a submitted (possibly running) job;
* :class:`SetCapCommand` - the provisioner moves the server's power cap.

The split that matters under overload is *cap-safety* versus *regular*:
a cap change is how the power budget invariant is enforced from outside, so
:func:`is_cap_safety` commands ride a dedicated ingest lane that is drained
first every tick and is never subject to backpressure shedding. Everything
else competes for the bounded regular lane.

Commands serialize to a ``{"kind": ...}`` dict, the form the ingest buffer
and the deferred offers take in a checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.adversary.plan import AdversarySpec
from repro.errors import AdversaryError, ConfigurationError, ServiceError
from repro.workloads.profiles import WorkloadProfile

__all__ = [
    "CancelJob",
    "Command",
    "SetCapCommand",
    "SubmitJob",
    "command_from_dict",
    "command_to_dict",
    "is_cap_safety",
]


def _check_client(client: int, client_seq: int) -> None:
    if client < 0:
        raise ConfigurationError(f"client id must be non-negative, got {client}")
    if client_seq < 0:
        raise ConfigurationError(f"client_seq must be non-negative, got {client_seq}")


@dataclass(frozen=True)
class SubmitJob:
    """A client's request to run one application on the mediated server.

    ``adversary`` is the *simulation's* declaration that this client
    behaves strategically (an :class:`~repro.adversary.plan.AdversarySpec`
    as a dict, targeting this job's app). The mediator's defenses never
    read it - they must catch the behaviour from telemetry alone.
    """

    client: int
    client_seq: int
    profile: WorkloadProfile
    adversary: dict | None = None

    def __post_init__(self) -> None:
        _check_client(self.client, self.client_seq)
        if self.adversary is not None:
            spec = AdversarySpec.from_dict(self.adversary, where="submit.adversary")
            if spec.app != self.profile.name:
                raise AdversaryError(
                    f"submit.adversary targets {spec.app!r} but the job "
                    f"submits {self.profile.name!r}"
                )

    def adversary_spec(self) -> AdversarySpec | None:
        """The validated spec, or ``None`` for an honest client."""
        if self.adversary is None:
            return None
        return AdversarySpec.from_dict(self.adversary, where="submit.adversary")


@dataclass(frozen=True)
class CancelJob:
    """A client withdraws a job by name (forced E3 if it is running)."""

    client: int
    client_seq: int
    app: str

    def __post_init__(self) -> None:
        _check_client(self.client, self.client_seq)
        if not self.app:
            raise ConfigurationError("cancel needs a non-empty application name")


@dataclass(frozen=True)
class SetCapCommand:
    """The provisioner moves the server cap (mediator event E1).

    ``client`` is the provisioner's pseudo-client id; the command still
    carries one so acknowledgement delivery is uniform.
    """

    client: int
    client_seq: int
    p_cap_w: float

    def __post_init__(self) -> None:
        _check_client(self.client, self.client_seq)
        if not (math.isfinite(self.p_cap_w) and self.p_cap_w > 0):
            raise ConfigurationError(
                f"cap must be finite and positive, got {self.p_cap_w!r}"
            )


Command = SubmitJob | CancelJob | SetCapCommand


def is_cap_safety(command: Command) -> bool:
    """Whether ``command`` rides the never-shed cap-safety ingest lane."""
    return isinstance(command, SetCapCommand)


def command_to_dict(command: Command) -> dict:
    """Serialize for a checkpoint (inverse of :func:`command_from_dict`)."""
    if isinstance(command, SubmitJob):
        doc = {
            "kind": "submit",
            "client": command.client,
            "client_seq": command.client_seq,
            "profile": command.profile.to_dict(),
        }
        if command.adversary is not None:
            doc["adversary"] = dict(command.adversary)
        return doc
    if isinstance(command, CancelJob):
        return {
            "kind": "cancel",
            "client": command.client,
            "client_seq": command.client_seq,
            "app": command.app,
        }
    if isinstance(command, SetCapCommand):
        return {
            "kind": "set-cap",
            "client": command.client,
            "client_seq": command.client_seq,
            "p_cap_w": command.p_cap_w,
        }
    raise TypeError(f"not a service command: {command!r}")


def command_from_dict(data: dict) -> Command:
    """Rebuild a command from its checkpointed dict form.

    Raises:
        ServiceError: on an unknown kind (a document from a different
            subsystem, or schema drift).
    """
    kind = data.get("kind")
    if kind == "submit":
        return SubmitJob(
            client=int(data["client"]),
            client_seq=int(data["client_seq"]),
            profile=WorkloadProfile.from_dict(data["profile"]),
            adversary=data.get("adversary"),
        )
    if kind == "cancel":
        return CancelJob(
            client=int(data["client"]),
            client_seq=int(data["client_seq"]),
            app=str(data["app"]),
        )
    if kind == "set-cap":
        return SetCapCommand(
            client=int(data["client"]),
            client_seq=int(data["client_seq"]),
            p_cap_w=float(data["p_cap_w"]),
        )
    raise ServiceError(f"unknown service command kind {kind!r}")
