"""Server topology: sockets, cores, DIMMs, and per-application core groups.

This is the substrate behind the paper's use of ``taskset``: every admitted
application is pinned to a *core group* - a set of cores on a single socket -
and associated with that socket's DIMM/memory controller. Direct resources are
therefore partitioned (the paper's premise): two co-located applications own
disjoint cores, disjoint LLC slices (implicitly, by socket) and, when each has
a socket to itself, their own DIMM.

Core consolidation (the ``n`` knob) changes how many of the group's cores are
*active*; the group itself (the maximum footprint reserved at admission) is
fixed so consolidation never migrates an app across sockets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SchedulingError
from repro.server.config import ServerConfig


@dataclass(frozen=True)
class CoreGroup:
    """The direct-resource footprint reserved for one application.

    Attributes:
        app: Application name the group belongs to.
        socket: Socket index hosting the group.
        cores: Tuple of global core ids reserved (disjoint from all other
            groups), all on ``socket``.
        dedicated_dimm: ``True`` when the app is the only one on its socket
            and therefore owns the socket's DIMM outright.
    """

    app: str
    socket: int
    cores: tuple[int, ...]
    dedicated_dimm: bool

    @property
    def width(self) -> int:
        """Number of cores reserved (the maximum of the ``n`` knob)."""
        return len(self.cores)


class ServerTopology:
    """Tracks core/DIMM ownership for the applications admitted to a server.

    Placement policy: each new application goes to the socket with the most
    free cores (ties broken by lower socket index), mirroring a NUMA-aware
    scheduler. An application never spans sockets - the paper's knob space
    caps ``n`` at one socket's core count for exactly this reason.

    Args:
        config: Server structural parameters (socket and core counts).
    """

    def __init__(self, config: ServerConfig) -> None:
        self._config = config
        self._groups: dict[str, CoreGroup] = {}

    def state_dict(self) -> dict:
        """Snapshot every reservation for checkpointing."""
        return {
            "groups": {
                name: {
                    "socket": group.socket,
                    "cores": list(group.cores),
                    "dedicated_dimm": group.dedicated_dimm,
                }
                for name, group in self._groups.items()
            }
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly.

        Groups are rebuilt directly rather than re-admitted: the placement
        policy picks sockets by *current* free-core counts, so replaying
        admissions in dictionary order could place an app on a different
        socket than the original arrival order did.
        """
        self._groups = {
            name: CoreGroup(
                app=name,
                socket=int(fields["socket"]),
                cores=tuple(int(c) for c in fields["cores"]),
                dedicated_dimm=bool(fields["dedicated_dimm"]),
            )
            for name, fields in state["groups"].items()
        }

    def free_cores_on_socket(self, socket: int) -> list[int]:
        """Global core ids on ``socket`` not reserved by any group."""
        if not 0 <= socket < self._config.sockets:
            raise ConfigurationError(f"socket {socket} out of range")
        per = self._config.cores_per_socket
        socket_cores = set(range(socket * per, (socket + 1) * per))
        for group in self._groups.values():
            socket_cores -= set(group.cores)
        return sorted(socket_cores)

    def apps_on_socket(self, socket: int) -> list[str]:
        """Names of applications whose group lives on ``socket``."""
        return sorted(
            name for name, group in self._groups.items() if group.socket == socket
        )

    def admit(self, app: str, *, width: int | None = None) -> CoreGroup:
        """Reserve a core group for ``app`` and return it.

        Args:
            app: Application name; must not already be admitted.
            width: Cores to reserve; defaults to the knob space's maximum
                (``cores_max``), so consolidation has full range.

        Raises:
            SchedulingError: when the app is already admitted or no socket
                has ``width`` free cores.
        """
        if app in self._groups:
            raise SchedulingError(f"application {app!r} is already admitted")
        if width is None:
            width = self._config.cores_max
        if not self._config.cores_min <= width <= self._config.cores_per_socket:
            raise ConfigurationError(
                f"group width {width} outside [{self._config.cores_min}, "
                f"{self._config.cores_per_socket}]"
            )
        candidates = [
            (len(self.free_cores_on_socket(s)), -s, s) for s in range(self._config.sockets)
        ]
        free, _, socket = max(candidates)
        if free < width:
            raise SchedulingError(
                f"no socket has {width} free cores for {app!r} "
                f"(best has {free}); the server is fully consolidated"
            )
        cores = tuple(self.free_cores_on_socket(socket)[:width])
        group = CoreGroup(
            app=app,
            socket=socket,
            cores=cores,
            dedicated_dimm=len(self.apps_on_socket(socket)) == 0,
        )
        self._groups[app] = group
        self._refresh_dimm_flags(socket)
        return group

    def release(self, app: str) -> None:
        """Release ``app``'s reservation (its departure, event E3).

        Raises:
            SchedulingError: if the app holds no reservation.
        """
        group = self._groups.pop(app, None)
        if group is None:
            raise SchedulingError(f"application {app!r} holds no core group")
        self._refresh_dimm_flags(group.socket)

    def group_of(self, app: str) -> CoreGroup:
        """The reservation of ``app``.

        Raises:
            SchedulingError: if the app holds no reservation.
        """
        try:
            return self._groups[app]
        except KeyError:
            raise SchedulingError(f"application {app!r} holds no core group") from None

    def _refresh_dimm_flags(self, socket: int) -> None:
        """Keep ``dedicated_dimm`` consistent after admissions/releases."""
        apps = self.apps_on_socket(socket)
        dedicated = len(apps) == 1
        for name in apps:
            old = self._groups[name]
            if old.dedicated_dimm != dedicated:
                self._groups[name] = CoreGroup(
                    app=old.app,
                    socket=old.socket,
                    cores=old.cores,
                    dedicated_dimm=dedicated,
                )
