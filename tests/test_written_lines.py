"""Which path of ``LoggedEvent.from_json_line`` reads each line of a run log.

A line as ``to_json_line`` writes it is read by one match of
``_written_line`` when its four envelope strings need no escape; any other
line takes the plain path, one ``json.loads`` and one envelope check. Both
paths read a line alike, so a writer change that pushed written lines off
the match (an added space, say) would keep every digest and every report,
and only make ``ploop report`` slower. This pins the split instead: on every
line of every fixture and golden log, the match succeeds exactly when each
envelope string is written as itself.
"""

import json
from json.encoder import encode_basestring_ascii

import pytest

from ploop.harness import load_scenario, run
from ploop.runtime import _written_line
from test_golden import GOLDEN, ROOT

STRINGS = ("event_kind", "node", "agent", "msg_id")
# The golden scenario whose node ids and serial need escapes.
ESCAPED = "tests/golden/escaped.scn"


def written_as_itself(text):
    return encode_basestring_ascii(text) == f'"{text}"'


@pytest.mark.parametrize("scenario_path", sorted(GOLDEN))
def test_a_line_is_matched_exactly_when_its_strings_need_no_escape(scenario_path, tmp_path):
    scenario = load_scenario(ROOT / scenario_path)
    run(scenario, out_dir=tmp_path)
    log = tmp_path / f"{scenario.name}.events.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    matched = [_written_line(line) is not None for line in lines]
    assert matched == [all(written_as_itself(json.loads(line)[key]) for key in STRINGS)
                       for line in lines]
    assert any(matched)
    if scenario_path == ESCAPED:
        assert not all(matched)
