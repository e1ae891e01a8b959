"""The forms ``LoggedEvent.to_json_line`` writes, and which path of
``LoggedEvent.from_json_line`` reads each line of a run log.

A line as ``to_json_line`` writes it is read by one match of
``_written_line`` when its four envelope strings need no escape; any other
line takes the plain path, one ``json.loads`` and one envelope check. Both
paths read a line alike, so a writer change that pushed written lines off
the match (an added space, say) would keep every digest and every report,
and only make ``ploop report`` slower. This pins the split instead: on every
line of every fixture and golden log, the match succeeds exactly when each
envelope string is written as itself.

A hop's detail has one written form of its own, which the writer builds
without ``detail_str`` and the reader matches by ``_written_hop``. The
writer must write what ``detail_str`` writes, or fail as it fails; every
hop line whose target needs no escape must take the reader's form, and a
detail off the form must read as the reference reader reads it. Only the
kinds whose details recur, ``SHARED_KINDS``, use the reader's memo.
"""

import json
from enum import IntEnum
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

import pytest

from ploop.harness import load_scenario, run
from ploop.runtime import (
    _ENVELOPE,
    SHARED_KINDS,
    LoggedEvent,
    _written_hop,
    _written_line,
    detail_str,
)
from test_golden import GOLDEN, ROOT
from test_log_reader import (
    HOP_DETAILS,
    _fields,
    _outcome,
    hop_lines,
    reference_from_json_line,
    with_hop_detail,
)

STRINGS = ("event_kind", "node", "agent", "msg_id")
# The golden scenario whose node ids and serial need escapes.
ESCAPED = "tests/golden/escaped.scn"


def written_as_itself(text):
    return encode_basestring_ascii(text) == f'"{text}"'


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each fixture and golden scenario's World and its saved log's lines,
    newlines kept."""
    found = {}
    for scenario_path in sorted(GOLDEN):
        out = tmp_path_factory.mktemp("run")
        scenario = load_scenario(ROOT / scenario_path)
        world = run(scenario, out_dir=out).world
        log = out / f"{scenario.name}.events.jsonl"
        found[scenario_path] = world, log.read_text(encoding="utf-8").splitlines(keepends=True)
    return found


@pytest.mark.parametrize("scenario_path", sorted(GOLDEN))
def test_a_line_is_matched_exactly_when_its_strings_need_no_escape(scenario_path, runs):
    _, lines = runs[scenario_path]
    matched = [_written_line(line) is not None for line in lines]
    assert matched == [all(written_as_itself(json.loads(line)[key]) for key in STRINGS)
                       for line in lines]
    assert any(matched)
    if scenario_path == ESCAPED:
        assert not all(matched)


# -- the hop's written form ------------------------------------------------------

def detail_str_line(event):
    """The line of event as written through detail_str, or the error that
    writing it raises, as (type, words)."""
    try:
        return json.dumps(dict(zip(_ENVELOPE, (*event[:5], detail_str(event.detail)))),
                          separators=(",", ":"))
    except Exception as exc:
        return type(exc), str(exc)


def written_line(event):
    """The same, from to_json_line."""
    try:
        return event.to_json_line()
    except Exception as exc:
        return type(exc), str(exc)


class Name(str):
    pass


Tick = IntEnum("Tick", "ONE")

# Hop details that are not exactly a dict of an int arrive_at and a str
# target, and some that are, at the form's edges.
CRAFTED = {
    "bool": {"arrive_at": True, "target": "n"},
    "float": {"arrive_at": 3.0, "target": "n"},
    "IntEnum": {"arrive_at": Tick.ONE, "target": "n"},
    "str subclass target": {"arrive_at": 3, "target": Name("n")},
    "str subclass arrive_at": {"arrive_at": Name("3"), "target": "n"},
    "third key": {"arrive_at": 3, "target": "n", "via": "m"},
    "no target": {"arrive_at": 3},
    "no arrive_at": {"target": "n"},
    "keys reordered": {"target": "n", "arrive_at": 3},
    "escaped target": {"arrive_at": 3, "target": 'mf"g\\é\x01'},
    "negative": {"arrive_at": -3, "target": ""},
    "past the int digits limit": {"arrive_at": 10 ** 5000, "target": "n"},
    "MappingProxyType": MappingProxyType({"arrive_at": 3, "target": "n"}),
}


@pytest.mark.parametrize("scenario_path", sorted(GOLDEN))
def test_every_hop_of_a_run_is_written_as_detail_str_writes_it(scenario_path, runs):
    world, lines = runs[scenario_path]
    for event, line in zip(world.events, lines):
        if event.event_kind == "migration_started":
            assert written_line(event) == detail_str_line(event) == line.removesuffix("\n")


@pytest.mark.parametrize("case", CRAFTED)
def test_a_crafted_hop_is_written_as_detail_str_writes_it(case):
    event = LoggedEvent(4, "migration_started", "m", "a", "", CRAFTED[case])
    assert written_line(event) == detail_str_line(event)


@pytest.mark.parametrize("scenario_path", sorted(GOLDEN))
def test_a_hop_line_takes_the_form_exactly_when_its_target_needs_no_escape(scenario_path,
                                                                           runs):
    _, lines = runs[scenario_path]
    crafted = [LoggedEvent(4, "migration_started", "m", "a", "",
                           {"arrive_at": 9, "target": target}).to_json_line()
               for target in ("n", "", 'mf"g', "a\\b", "é", "c\x01", "\x7f")]
    for line in [*(lines[at] for at in hop_lines(lines)), *crafted]:
        written = _written_line(line)
        if written is not None:
            detail = json.loads(json.loads(line)["detail"])
            assert ((_written_hop(written[6]) is not None)
                    == written_as_itself(detail["target"])), line


def test_a_hop_detail_off_the_form_reads_as_the_reference_reads_it(runs):
    hops = [log[at].removesuffix("\n") for _, log in runs.values() for at in hop_lines(log)]
    assert hops
    for line in hops[::max(1, len(hops) // 8)]:
        for text in HOP_DETAILS:
            mutated = with_hop_detail(line, text)
            try:
                expected = _fields(reference_from_json_line(mutated))
            except ValueError as exc:
                expected = ("refused", str(exc))
            assert _outcome(mutated) == _outcome(mutated + "\n") == expected, mutated


class Memo(dict):
    """A reader's memo that records the token of every lookup and fill."""

    def __init__(self):
        super().__init__()
        self.used = []

    def get(self, token, default=None):
        self.used.append(token)
        return super().get(token, default)

    def __setitem__(self, token, detail):
        self.used.append(token)
        super().__setitem__(token, detail)


@pytest.mark.parametrize("scenario_path", sorted(GOLDEN))
def test_only_the_shared_kinds_use_the_memo(scenario_path, runs):
    _, lines = runs[scenario_path]
    memo = Memo()
    for line in lines:
        kind = LoggedEvent.from_json_line(line, memo).event_kind
        if kind not in SHARED_KINDS:
            assert not memo.used, line
        memo.used.clear()
    # The memo is in use: some shared line was read through it.
    assert memo
