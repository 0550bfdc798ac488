"""Append-only campaign journal: what a crashed coordinator knew.

The :class:`~repro.harness.store.ResultStore` is the authority on
*completed* cells (results stream into it as they arrive), but it says
nothing about campaign *shape*: which cells were in flight when the
coordinator died, how many workers a cell has already killed, which
cells were quarantined.  :class:`CampaignJournal` records exactly that
as one JSON line per event under the store directory, so a restarted
``serve --resume`` reconstructs the campaign instead of starting cold.

Layout: the header (campaign identity: every cell key in queue order)
is written atomically via temp-file + rename, like ``store.py`` writes
cells — a crash never leaves a half-written header.  Events append to
the same file with a flush per line; :func:`CampaignJournal.load`
tolerates a truncated final line (the one write a crash can interrupt)
by dropping it.

Events (all carry the cell's content-addressed ``key``, never a
position — a resumed campaign serves a *subset* of the original specs,
so positions do not survive restarts)::

    {"journal": "campaign-v1", "keys": [...]}          header
    {"event": "resume"}                                 new session
    {"event": "steal", "key": k, "worker": w}
    {"event": "done", "key": k}
    {"event": "requeue", "key": k, "attempts": n}
    {"event": "quarantine", "key": k, "failure": {...}}
    {"event": "failure", "key": k, "failure": {...}}
    {"event": "unfail", "key": k}                       late result won

Replay (:class:`JournalState`) is intentionally conservative: the
store remains authoritative for done-ness (a ``done`` event whose
result never reached the store is re-queued by the runner), the
journal contributes ordering (in-flight cells resume at the front),
attempt counts (a poison cell does not get a fresh life per restart),
and quarantine/failure records.
"""

import json
import os
import pathlib
import tempfile
import threading

#: Journal format generation, embedded in the header.
JOURNAL_FORMAT = "campaign-v1"

#: Default journal filename under the store directory.
DEFAULT_JOURNAL_NAME = "campaign.journal.jsonl"


class JournalState:
    """Replayed view of a journal: what resume needs to know."""

    def __init__(self):
        self.keys = []  # original queue order (header)
        self.done = set()  # keys with a recorded result
        self.in_flight = {}  # key -> steal sequence (stolen, unsettled)
        self.attempts = {}  # key -> worker deaths attributed so far
        self.quarantined = {}  # key -> failure record (dict)
        self.failed = {}  # key -> failure record (dict)
        self.sessions = 1  # 1 + number of resume markers

    def resume_order(self, keys):
        """Sort ``keys`` for re-queueing: in-flight first, header order.

        Cells that were in flight when the coordinator died were stolen
        earliest; finishing them first keeps campaign latency bounded —
        the same policy as the live requeue path.
        """
        position = {key: i for i, key in enumerate(self.keys)}
        fallback = len(position)

        def rank(key):
            stolen = self.in_flight.get(key)
            return (0, stolen) if stolen is not None else (
                1, position.get(key, fallback))

        return sorted(keys, key=rank)


class CampaignJournal:
    """One campaign's append-only event log on disk."""

    def __init__(self, path):
        self.path = pathlib.Path(path)
        self._handle = None
        self._lock = threading.Lock()

    # -- writing ----------------------------------------------------------

    def begin(self, keys):
        """Start a fresh campaign: atomically replace any old journal."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps({"journal": JOURNAL_FORMAT,
                             "keys": list(keys)},
                            separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=str(self.path.parent),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(header + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._handle = open(self.path, "a")
        return self

    def resume(self):
        """Append to an existing journal, marking a new session."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a")
        self.append({"event": "resume"})
        return self

    def append(self, record):
        """Append one event line (flushed; safe from many threads)."""
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            if self._handle is None:
                raise RuntimeError("journal not opened: call begin() or"
                                   " resume() first")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self):
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- replay -----------------------------------------------------------

    @classmethod
    def load(cls, path):
        """Replay the journal at ``path`` into a :class:`JournalState`.

        Returns ``None`` when no readable journal exists (no file, or a
        header that is not ours).  A truncated trailing line — the one
        write a crash can interrupt — is silently dropped; any other
        undecodable line ends the replay at that point (everything
        before it is still a consistent prefix).
        """
        path = pathlib.Path(path)
        try:
            with open(path) as handle:
                lines = handle.read().splitlines()
        except OSError:
            return None
        if not lines:
            return None
        try:
            header = json.loads(lines[0])
        except ValueError:
            return None
        if (not isinstance(header, dict)
                or header.get("journal") != JOURNAL_FORMAT):
            return None
        state = JournalState()
        state.keys = [str(key) for key in header.get("keys", [])]
        sequence = 0
        for index, line in enumerate(lines[1:], start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except ValueError:
                if index == len(lines) - 1:
                    continue  # truncated final append; drop it
                break  # corrupt interior line: keep the prefix
            if not isinstance(event, dict):
                break
            kind = event.get("event")
            key = event.get("key")
            if kind == "resume":
                state.sessions += 1
            elif kind == "steal":
                if key not in state.done:
                    sequence += 1
                    state.in_flight[key] = sequence
            elif kind == "done":
                state.done.add(key)
                state.in_flight.pop(key, None)
                state.quarantined.pop(key, None)
                state.failed.pop(key, None)
            elif kind == "requeue":
                state.attempts[key] = int(event.get("attempts", 0))
                state.in_flight.pop(key, None)
            elif kind == "quarantine":
                failure = event.get("failure") or {}
                state.quarantined[key] = failure
                state.attempts[key] = int(
                    failure.get("attempts", state.attempts.get(key, 0)))
                state.in_flight.pop(key, None)
            elif kind == "failure":
                state.failed[key] = event.get("failure") or {}
                state.in_flight.pop(key, None)
            elif kind == "unfail":
                state.quarantined.pop(key, None)
                state.failed.pop(key, None)
        return state


def journal_path(store_dir):
    """Canonical journal location for a store rooted at ``store_dir``."""
    return pathlib.Path(store_dir) / DEFAULT_JOURNAL_NAME
