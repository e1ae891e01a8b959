"""Host speed probe: a fixed standard-library task timed between operations.

The machines this benchmark was built on change speed by up to 1.8x over
tens of seconds (load from other tenants on shared cores): a fixed task
took 13.6 ms in one period and 25 ms in another, with CPU time tracking
wall time, and median ``run_s`` of identical work moved 40% between
back-to-back runs. The end-to-end times are therefore scaled by
``REFERENCE_S / probe``, where ``probe`` is the mean time of this task
measured just before and just after the timed call. They read as seconds
on a host where the probe takes ``REFERENCE_S``.

The probe uses none of ploop's code, so a change to ploop cannot move it.
Its work resembles ploop's: JSON encoding and decoding of small records,
and, as in a tick over many resident agents, building a dict over a
thousand frozen dataclasses, sorting its keys and copying some of them.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import dataclass, replace

REFERENCE_S = 0.020


@dataclass(frozen=True)
class _Item:
    key: str
    kind: str
    route: tuple[str, ...]


def _next_stop(item: _Item, here: str) -> str | None:
    return item.route[0] if item.route and item.route[0] != here else None


class Probe:
    def __init__(self) -> None:
        rng = random.Random(1401)
        self._records = [
            {"tick": i, "kind": rng.choice("abcdef"), "node": f"n{i % 13}",
             "value": rng.random()}
            for i in range(1000)
        ]
        self._items = {
            f"a{i:04d}": _Item(f"a{i:04d}", rng.choice("abcdef"),
                               tuple(f"n{rng.randrange(13)}" for _ in range(i % 3)))
            for i in range(1000)
        }
        self._away = set(rng.sample(sorted(self._items), 50))

    def _work(self) -> int:
        text = "\n".join(json.dumps(r, sort_keys=True) for r in self._records)
        index: dict[str, list[tuple[int, str]]] = {}
        for row in map(json.loads, text.splitlines()):
            index.setdefault(row["node"], []).append((row["tick"], row["kind"]))
        moves = sum(len(sorted(v)) for v in index.values())
        for _ in range(12):
            present = {k: item.kind for k, item in self._items.items() if k not in self._away}
            for key in sorted(present):
                item = self._items[key]
                if _next_stop(item, "n0") is not None:
                    item = replace(item, route=item.route[1:])
                    moves += 1
        return moves

    def seconds(self) -> float:
        gc.collect()
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start
