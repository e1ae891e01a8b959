"""Knowledge records with the two-axis classification (mode:
tacit/explicit, source: self/collective), the activity-to-mode table, the
two record builders agents use, and the repository.

Records are keyed to a product family (the rendered id of the original
product) and a generation number so the repository can answer "how much
have we learned about version N". The runtime reads that count after each
insert to fire the next-generation design trigger. The repository is
written, never read back: ``save`` writes one JSON line per record, which
``ploop run`` leaves beside the event log as ``<name>.repository.jsonl``.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterable

from .identity import ProductID

# What json.dumps writes for an int; _quote is what it writes for a str.
_int = int.__repr__


class KnowledgeError(ValueError):
    """Base class for knowledge-layer failures."""


class EmptyFeedback(KnowledgeError):
    """Customer feedback text was empty."""


class ModeMismatch(KnowledgeError):
    """Record mode is not permitted for its activity."""


class DuplicateRecord(KnowledgeError):
    """A record id was inserted twice."""


class KnowledgeMode(str, Enum):
    TACIT = "Tacit"
    EXPLICIT = "Explicit"


class KnowledgeSource(str, Enum):
    SELF_SOURCE = "SelfSource"
    COLLECTIVE = "Collective"


class Activity(str, Enum):
    """The nine innovation-process activities that create knowledge."""

    USER_INSIGHT = "UserInsight"
    MARKET_INVESTIGATION = "MarketInvestigation"
    IDEA_CONCEPT_GENERATION = "IdeaConceptGeneration"
    PRODUCT_REQUIREMENTS = "ProductRequirements"
    ENGINEERING_DESIGN = "EngineeringDesign"
    MARKETING_LAUNCH = "MarketingLaunch"
    SALES = "Sales"
    CUSTOMER = "Customer"
    INTELLIGENT_PRODUCT = "IntelligentProduct"


_BOTH = frozenset({KnowledgeMode.TACIT, KnowledgeMode.EXPLICIT})
_EXPLICIT_ONLY = frozenset({KnowledgeMode.EXPLICIT})
_TACIT_ONLY = frozenset({KnowledgeMode.TACIT})

ACTIVITY_MODES: dict[Activity, frozenset[KnowledgeMode]] = {
    Activity.USER_INSIGHT: _BOTH,
    Activity.MARKET_INVESTIGATION: _EXPLICIT_ONLY,
    Activity.IDEA_CONCEPT_GENERATION: _BOTH,
    Activity.PRODUCT_REQUIREMENTS: _EXPLICIT_ONLY,
    Activity.ENGINEERING_DESIGN: _EXPLICIT_ONLY,
    Activity.MARKETING_LAUNCH: _BOTH,
    Activity.SALES: _BOTH,
    Activity.CUSTOMER: _BOTH,
    Activity.INTELLIGENT_PRODUCT: _TACIT_ONLY,
}

# Categories a sensor batch may carry.
TACIT_CATEGORIES = ("use", "environment", "failure")


def classify_activity(activity: Activity) -> frozenset[KnowledgeMode]:
    """Modes a given activity may produce."""
    return ACTIVITY_MODES[activity]


@dataclass(frozen=True, slots=True, init=False)
class KnowledgeRecord:
    """One classified observation headed for the repository. A run builds
    one per observation, so its one constructor checks each rule once and
    sets the slots past the frozen ``__setattr__``."""

    record_id: str
    product_id: ProductID
    generation: int
    activity: Activity
    mode: KnowledgeMode
    source: KnowledgeSource
    payload: str
    created_at: int

    def __init__(self, record_id: str, product_id: ProductID, generation: int,
                 activity: Activity, mode: KnowledgeMode, source: KnowledgeSource,
                 payload: str, created_at: int) -> None:
        if generation < 1:
            raise KnowledgeError(f"generation must be >= 1, got {generation}")
        if created_at < 0:
            raise KnowledgeError(f"created_at must be >= 0, got {created_at}")
        if mode not in ACTIVITY_MODES[activity]:
            raise ModeMismatch(f"{mode.value} is not a permitted mode for {activity.value}")
        _set_record_id(self, record_id)
        _set_product_id(self, product_id)
        _set_generation(self, generation)
        _set_activity(self, activity)
        _set_mode(self, mode)
        _set_source(self, source)
        _set_payload(self, payload)
        _set_created_at(self, created_at)

    @property
    def family(self) -> str:
        return self.product_id.render()

    def to_json_line(self) -> str:
        return (f'{{"record_id":{_quote(self.record_id)},"product_id":{_quote(self.family)},'
                f'"generation":{_int(self.generation)},'
                f'"activity":{_quote(self.activity._value_)},"mode":{_quote(self.mode._value_)},'
                f'"source":{_quote(self.source._value_)},"payload":{_quote(self.payload)},'
                f'"created_at":{_int(self.created_at)}}}')


(_set_record_id, _set_product_id, _set_generation, _set_activity, _set_mode, _set_source,
 _set_payload, _set_created_at) = (KnowledgeRecord.__dict__[name].__set__
                                   for name in KnowledgeRecord.__slots__)


@dataclass(frozen=True)
class DesignTrigger:
    """Signal that enough has been learned to start the next generation."""

    family: str
    from_generation: int
    next_generation: int


class KnowledgeRepository:
    """Append-only record store with per-(family, generation) counting."""

    def __init__(self) -> None:
        self._records: list[KnowledgeRecord] = []
        self._ids: set[str] = set()
        self._counts: Counter[tuple[str, int]] = Counter()

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[KnowledgeRecord, ...]:
        return tuple(self._records)

    def insert(self, record: KnowledgeRecord) -> None:
        if record.record_id in self._ids:
            raise DuplicateRecord(record.record_id)
        self._records.append(record)
        self._ids.add(record.record_id)
        self._counts[(record.family, record.generation)] += 1

    def count(self, family: str, generation: int) -> int:
        return self._counts[(family, generation)]

    def save(self, path: Path | str) -> None:
        """Persist as JSON lines, one record per line, insertion order."""
        write_lines((path, map(KnowledgeRecord.to_json_line, self._records)))


# Lines joined into one write: a whole log joined at once would be held in
# memory twice, and a write per line costs a call per line.
CHUNK_LINES = 512


def write_lines(*outputs: tuple[Path | str, Iterable[str]]) -> None:
    """Write each output's lines, each with a newline, to its UTF-8 file,
    CHUNK_LINES lines per write; every file ploop writes goes through here.
    Every file is opened before any is written, so an output that cannot
    be opened leaves the others' bytes as they were (one it had to create
    stays empty). An existing file is rewritten in place, then cut to the
    bytes written in ``finally``, so a failed write leaves no stale tail.
    Truncating on open cost more, on ext4 mounted with ``discard``, than
    cutting after the write (``BENCH_in_place_writes.json``). The file is not
    unlinked first, so a symlinked output writes its target and a
    hard-linked one keeps its inode. It is cut only when longer than the
    bytes written, so /dev/null or a FIFO still works."""
    with ExitStack() as opened:
        files = [opened.enter_context(open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb"))
                 for path, _ in outputs]
        for out, (_, lines) in zip(files, outputs):
            lines, written = iter(lines), 0
            try:
                while chunk := list(islice(lines, CHUNK_LINES)):
                    chunk.append("")
                    written += out.write("\n".join(chunk).encode())
            finally:
                out.flush()
                if os.fstat(out.fileno()).st_size > written:
                    out.truncate(written)


def tacit_record(
    record_id: str,
    product_id: ProductID,
    generation: int,
    category: str,
    note: str,
    tick: int,
) -> KnowledgeRecord:
    """An automatically collected observation: a self-sourced
    IntelligentProduct record whose payload is the category and note."""
    return KnowledgeRecord(record_id, product_id, generation, Activity.INTELLIGENT_PRODUCT,
                           KnowledgeMode.TACIT, KnowledgeSource.SELF_SOURCE,
                           f"{category} {note}".strip(), tick)


def explicit_record(
    record_id: str,
    product_id: ProductID,
    generation: int,
    feedback_text: str,
    tick: int,
) -> KnowledgeRecord:
    """Customer feedback: an explicit, collectively sourced Customer record."""
    if not feedback_text:
        raise EmptyFeedback("feedback text must be non-empty")
    return KnowledgeRecord(record_id, product_id, generation, Activity.CUSTOMER,
                           KnowledgeMode.EXPLICIT, KnowledgeSource.COLLECTIVE, feedback_text, tick)
