"""History-log helpers shared by the supervisor's and the service's tests.

Both callers write the same checkpoint format through one store, so one
table of damage cases runs against each. A tamper damages what recovery
reads - the checkpoint at ``tick`` and the log lines it covers - and
returns the one-line error recovery must then fail with.
"""

from __future__ import annotations

import json

from repro.persistence import HISTORY_LOG, checkpoint_filename


def _log(workdir):
    return workdir / "checkpoints" / HISTORY_LOG


def log_lines(workdir):
    return _log(workdir).read_bytes().splitlines(keepends=True)


def log_items(workdir, kind):
    """The ``data`` of every log line of ``kind``, in order."""
    items = (json.loads(line) for line in log_lines(workdir))
    return [item["data"] for item in items if item["kind"] == kind]


def log_records(workdir):
    """The timeline records in the log."""
    return log_items(workdir, "tick")


def documents(workdir):
    paths = sorted((workdir / "checkpoints").glob("ckpt-*.json"))
    return [json.loads(path.read_text()) for path in paths]


def document(workdir, tick):
    return json.loads((workdir / "checkpoints" / checkpoint_filename(tick)).read_text())


def append_strays(workdir):
    """What a checkpoint that never became durable may leave behind: one
    whole line and one torn half line past the count."""
    last = log_lines(workdir)[-1]
    with open(_log(workdir), "ab") as handle:
        handle.write(last + last[: len(last) // 2])


def _covered(workdir, tick):
    return document(workdir, tick)["history_lines"]


def _keep(workdir, lines, extra=0):
    kept = log_lines(workdir)
    _log(workdir).write_bytes(b"".join(kept[:lines]) + kept[lines][:extra])


def _rewrite_line(workdir, index, line):
    lines = log_lines(workdir)
    lines[index] = line
    _log(workdir).write_bytes(b"".join(lines))


def _rewrite_document(workdir, tick, edit):
    path = workdir / "checkpoints" / checkpoint_filename(tick)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _log_short(workdir, tick):
    covered = _covered(workdir, tick)
    _keep(workdir, covered // 2)
    return f"{HISTORY_LOG}: holds {covered // 2} whole lines, the checkpoint covers {covered}"


def _log_torn_inside(workdir, tick):
    covered = _covered(workdir, tick)
    _keep(workdir, covered - 1, extra=20)
    return f"{HISTORY_LOG}: holds {covered - 1} whole lines, the checkpoint covers {covered}"


def _line_malformed(workdir, tick):
    _rewrite_line(workdir, 9, b'{"kind": \n')
    return f"{HISTORY_LOG}: line 10 is not valid JSON"


def _line_not_object(workdir, tick):
    _rewrite_line(workdir, 9, b"[1, 2]\n")
    return f"{HISTORY_LOG}: line 10 is not a JSON object"


def _kind_unknown(workdir, tick):
    _rewrite_line(workdir, 9, b'{"kind": "gremlin", "data": {}}\n')
    return f"{HISTORY_LOG}: line 10 has unknown kind 'gremlin'"


def _version(number):
    def tamper(workdir, tick):
        _rewrite_document(workdir, tick, lambda doc: doc.update(version=number))
        return f"{checkpoint_filename(tick)}: checkpoint version {number} is not supported"

    return tamper


def _count_missing(workdir, tick):
    _rewrite_document(workdir, tick, lambda doc: doc.pop("history_lines"))
    return "checkpoint.history_lines: required field is missing"


def _torn(kind):
    """Tear the last covered line of ``kind`` to its first half, keeping
    the lines after it, as a lost write inside the log would."""

    def tamper(workdir, tick):
        lines = log_lines(workdir)
        index = max(
            i
            for i, line in enumerate(lines[: _covered(workdir, tick)])
            if json.loads(line)["kind"] == kind
        )
        _rewrite_line(workdir, index, lines[index][: len(lines[index]) // 2] + b"\n")
        return f"{HISTORY_LOG}: line {index + 1} is not valid JSON"

    return tamper


_TAMPERS = {
    "log-short": _log_short,
    "log-torn-inside": _log_torn_inside,
    "line-malformed": _line_malformed,
    "line-not-object": _line_not_object,
    "version-1": _version(1),
    "count-missing": _count_missing,
    "version-2": _version(2),
    "kind-unknown": _kind_unknown,
    "torn-tick": _torn("tick"),
    "torn-event": _torn("event"),
    "torn-finished": _torn("finished"),
    "torn-delivery": _torn("delivery"),
}


def tamper_ids(kinds):
    """Every case id, with a torn line of each of ``kinds`` (the line kinds
    the caller's log holds by the tampered checkpoint)."""
    return [
        case
        for case in _TAMPERS
        if not case.startswith("torn-") or case.removeprefix("torn-") in kinds
    ]


def tamper(case, workdir, tick):
    """Apply ``case`` to the checkpoint at ``tick``; the expected error."""
    return _TAMPERS[case](workdir, tick)


#: Ways to damage one key of a caller's own state, and the start of the
#: one-line error each must end in.
OWNER_DAMAGE = {
    "missing": (lambda state, key: state.pop(key), "required field is missing"),
    "wrong-type": (lambda state, key: state.update({key: "damaged"}), "expected "),
}


def damage_owner_state(workdir, tick, owner, key, how):
    """Damage ``key`` of the caller state in the checkpoint at ``tick``;
    returns the error fragment recovery must fail with."""
    path = workdir / "checkpoints" / checkpoint_filename(tick)
    doc = json.loads(path.read_text())
    damage, message = OWNER_DAMAGE[how]
    damage(doc[owner], key)
    path.write_text(json.dumps(doc))
    return f"checkpoint.{owner}.{key}: {message}"
