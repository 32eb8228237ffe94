"""Timeline-log helpers shared by the supervisor's and the service's tests.

Both callers write the same checkpoint format through one store, so one
table of damage cases runs against each.
"""

from __future__ import annotations

import json

from repro.persistence import TIMELINE_LOG, checkpoint_filename


def log_lines(workdir):
    return (workdir / "checkpoints" / TIMELINE_LOG).read_bytes().splitlines(keepends=True)


def log_records(workdir):
    return [json.loads(line) for line in log_lines(workdir)]


def documents(workdir):
    paths = sorted((workdir / "checkpoints").glob("ckpt-*.json"))
    return [json.loads(path.read_text()) for path in paths]


def append_strays(workdir):
    """What a checkpoint that never became durable may leave behind: one
    whole record and one torn half line past the count."""
    last = log_lines(workdir)[-1]
    with open(workdir / "checkpoints" / TIMELINE_LOG, "ab") as handle:
        handle.write(last + last[: len(last) // 2])


def _rewrite_log_line(workdir, index, line):
    lines = log_lines(workdir)
    lines[index] = line
    (workdir / "checkpoints" / TIMELINE_LOG).write_bytes(b"".join(lines))


def _rewrite_document(workdir, tick, edit):
    path = workdir / "checkpoints" / checkpoint_filename(tick)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _keep_log_bytes(workdir, lines, extra=0):
    kept = log_lines(workdir)
    (workdir / "checkpoints" / TIMELINE_LOG).write_bytes(
        b"".join(kept[:lines]) + kept[lines][:extra]
    )


#: Test ids of :func:`tamper_cases`, in order.
TAMPER_IDS = [
    "log-short", "log-torn-inside", "line-malformed", "line-not-object",
    "version-1", "count-missing",
]


def tamper_cases(tick, short):
    """``(tamper(workdir), message)`` pairs damaging what recovery reads: the
    checkpoint at ``tick``, which covers ``tick`` log records, and its log
    (``short`` is the record count the short log keeps)."""
    return [
        (lambda w: _keep_log_bytes(w, short),
         f"{TIMELINE_LOG}: holds {short} whole records, the checkpoint covers {tick}"),
        (lambda w: _keep_log_bytes(w, tick - 1, extra=20),
         f"{TIMELINE_LOG}: holds {tick - 1} whole records, the checkpoint covers {tick}"),
        (lambda w: _rewrite_log_line(w, 9, b'{"time_s": \n'),
         f"{TIMELINE_LOG}: line 10 is not valid JSON"),
        (lambda w: _rewrite_log_line(w, 9, b"[1, 2]\n"),
         f"{TIMELINE_LOG}: line 10 is not a JSON object"),
        (lambda w: _rewrite_document(w, tick, lambda doc: doc.update(version=1)),
         f"{checkpoint_filename(tick)}: checkpoint version 1 is not supported"),
        (lambda w: _rewrite_document(w, tick, lambda doc: doc.pop("timeline_records")),
         "checkpoint.timeline_records: required field is missing"),
    ]
