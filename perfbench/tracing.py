"""Spans around calls into ploop's modules, recorded from the benchmark.

``Tracer.patch`` replaces each traced function where ploop looks it up
(a module global such as ``ploop.runtime.handle``, or a class attribute
such as ``World.send``) with a wrapper that records one span per call:
an id, the id of the enclosing traced span, a name, and start and end in
nanoseconds. Spans are kept in memory in a flat integer array and
summarised after each operation; self time is a span's duration minus the
time its direct child spans cover. ``uninstall`` puts the originals back,
so untraced operations in the same process run ploop unmodified.

A target that a later version of ploop no longer has is recorded as
absent, and its metrics are reported with a null value.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

Observer = Callable[[Counter, tuple, Any, BaseException | None], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans = array("q")          # id, parent, name index, start, end
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack = [0]
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, observe: Observer | None) -> Callable:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        idx, spans, stack, counts = self._index[name], self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            result, error = None, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, parent, idx, start, end))
                if observe is not None:
                    observe(counts, args, result, error)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, name: str, observe: Observer | None = None) -> None:
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.absent.add(name)
            return
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(name, raw.__func__, observe))
        else:
            wrapped = self._wrap(name, raw, observe)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def reset(self) -> None:
        del self.spans[:]
        self.counts.clear()
        self._next_id = 1

    # -- summaries ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        covered: dict[int, int] = {}
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        spans = self.spans
        # Spans are appended as they end, so every child precedes its parent.
        for i in range(0, len(spans), 5):
            sid, parent, idx, start, end = spans[i:i + 5]
            duration = end - start
            covered[parent] = covered.get(parent, 0) + duration
            calls[idx] += 1
            total[idx] += duration
            own[idx] += duration - covered.pop(sid, 0)
        return {name: {"calls": calls[i], "s": total[i] / 1e9, "self_s": own[i] / 1e9}
                for i, name in enumerate(self.names)}

    def write_spans(self, path: Path, limit: int) -> None:
        """One JSON line per span, [id, parent, name, start_ns, end_ns], after a
        header giving the span count; at most ``limit`` spans are written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        count = len(self.spans) // 5
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"spans": count, "written": min(count, limit)}) + "\n")
            for i in range(0, min(count, limit) * 5, 5):
                sid, parent, idx, start, end = self.spans[i:i + 5]
                out.write(json.dumps([sid, parent, self.names[idx], start, end]) + "\n")


# -- ploop's layers -------------------------------------------------------------


def _empty_tick(counts: Counter, args: tuple, result: Any, error: Any) -> None:
    if error is None and not result:
        counts["runtime.tick.empty_calls"] += 1


def _recipients(counts: Counter, args: tuple, result: Any, error: Any) -> None:
    if error is None:
        counts["runtime.route.recipients"] += len(result)


def _refused(counts: Counter, args: tuple, result: Any, error: Any) -> None:
    if error is not None and type(error).__name__ == "Partitioned":
        counts["runtime.migrate.refused"] += 1


def _bytes_written(counts: Counter, args: tuple, result: Any, error: Any) -> None:
    if error is None:
        counts["harness.write_run_files.bytes"] += sum(
            Path(p).stat().st_size for p in result.values())


def _own_product(counts: Counter, args: tuple, result: Any, error: Any) -> None:
    agent, message = args[0], args[1]
    product = getattr(message.payload, "product_id", None)
    if getattr(agent.role, "value", None) == "AgentProduct" and product is not None:
        counts["agents.handle.product_deliveries"] += 1
        counts["agents.handle.own_product"] += product == agent.product_id


def install_ploop(tracer: Tracer) -> None:
    """Wrap every traced function of ploop where its callers look it up."""
    import ploop.cli as cli
    import ploop.harness as harness
    import ploop.knowledge as knowledge
    import ploop.runtime as runtime

    targets = [
        (cli, "load_scenario", "harness.load_scenario", None),
        (harness, "build_world", "harness.build_world", None),
        (harness, "compute_report", "harness.compute_report", None),
        (cli, "compute_report", "harness.compute_report", None),
        (harness, "write_run_files", "harness.write_run_files", _bytes_written),
        (harness, "tick", "runtime.tick", _empty_tick),
        (runtime.World, "resident_directory", "runtime.World.resident_directory", None),
        (runtime, "route", "runtime.route", _recipients),
        (runtime.World, "send", "runtime.World.send", None),
        (runtime, "detail_str", "runtime.detail_str", None),
        (harness, "detail_str", "runtime.detail_str", None),
        (runtime.LoggedEvent, "to_json_line", "runtime.LoggedEvent.to_json_line", None),
        (runtime.LoggedEvent, "from_json_line", "runtime.LoggedEvent.from_json_line", None),
        (runtime, "migrate", "runtime.migrate", _refused),
        (runtime.World, "severed", "runtime.World.severed", None),
        (runtime, "handle", "agents.handle", _own_product),
        (runtime, "plan_migration", "agents.plan_migration", None),
        (knowledge.KnowledgeRepository, "insert", "knowledge.KnowledgeRepository.insert", None),
        (runtime, "record_event", "identity.record_event", None),
        (runtime, "advance", "lifecycle.advance", None),
        (runtime, "decide_eol", "lifecycle.decide_eol", None),
    ]
    for owner, attr, name, observe in targets:
        tracer.patch(owner, attr, name, observe)


def unit_of(metric: str) -> str:
    if metric.endswith((".s", ".self_s")):
        return "s"
    if metric.endswith(".us_per_call"):
        return "us"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_per_call")):
        return "ratio"
    return "count"


def layer_metrics(summary: dict[str, dict[str, float]], counts: Counter,
                  events_logged: int) -> dict[str, float | None]:
    """The per-layer figures of one traced operation, by metric name."""
    def stat(name: str, key: str) -> float | None:
        return summary[name][key] if name in summary else None

    def ratio(num: float | None, den: float | None, scale: float = 1.0) -> float | None:
        return None if num is None or not den else scale * num / den

    def present(name: str, key: str) -> int | None:
        return counts[key] if name in summary else None

    out: dict[str, float | None] = {}
    for name in ("harness.load_scenario", "harness.build_world", "harness.compute_report",
                 "harness.write_run_files"):
        out[f"{name}.s"] = stat(name, "s")
    for name in ("runtime.World.resident_directory", "runtime.route", "runtime.World.send",
                 "runtime.detail_str", "runtime.LoggedEvent.to_json_line",
                 "runtime.LoggedEvent.from_json_line", "runtime.migrate",
                 "runtime.World.severed", "agents.handle", "agents.plan_migration",
                 "knowledge.KnowledgeRepository.insert", "identity.record_event"):
        out[f"{name}.calls"] = stat(name, "calls")
        out[f"{name}.s"] = stat(name, "s")
    for name in ("lifecycle.advance", "lifecycle.decide_eol"):
        out[f"{name}.calls"] = stat(name, "calls")
    tick_calls = stat("runtime.tick", "calls")
    out["runtime.tick.calls"] = tick_calls
    out["runtime.tick.self_s"] = stat("runtime.tick", "self_s")
    out["runtime.tick.us_per_call"] = ratio(stat("runtime.tick", "s"), tick_calls, 1e6)
    out["runtime.tick.empty_calls"] = present("runtime.tick", "runtime.tick.empty_calls")
    out["runtime.route.recipients_per_call"] = ratio(
        present("runtime.route", "runtime.route.recipients"), stat("runtime.route", "calls"))
    out["runtime.migrate.refused"] = present("runtime.migrate", "runtime.migrate.refused")
    out["harness.write_run_files.bytes"] = present("harness.write_run_files",
                                                   "harness.write_run_files.bytes")
    out["agents.handle.own_product_ratio"] = ratio(
        present("agents.handle", "agents.handle.own_product"),
        counts["agents.handle.product_deliveries"])
    out["runtime.events_logged"] = events_logged
    return out
