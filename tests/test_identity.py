import copy
import dataclasses
import pickle
import random

import pytest

from ploop.identity import (
    ALL_CAPABILITIES,
    LEVEL1_CAPABILITIES,
    PEID,
    IntelligenceLevel,
    MalformedProductID,
    MalformedSerial,
    MalformedURI,
    NonMonotonicTime,
    PEIDCapability,
    ProductID,
    SensorEvent,
    classify_intelligence,
    mint_product_id,
    parse_product_id,
    record_event,
)


def oracle_classify(caps: frozenset) -> IntelligenceLevel:
    # Independent restatement of the published rule: level 1 covers
    # properties 1-3, level 2 covers all five points.
    if len(caps) == 5:
        return IntelligenceLevel.LEVEL2
    if {PEIDCapability.UNIQUE_ID, PEIDCapability.COMMUNICATION,
            PEIDCapability.SELF_STORAGE} <= caps:
        return IntelligenceLevel.LEVEL1
    return IntelligenceLevel.NOT_INTELLIGENT


def all_capability_subsets():
    members = sorted(PEIDCapability, key=lambda c: c.value)
    for mask in range(2 ** len(members)):
        yield frozenset(c for i, c in enumerate(members) if mask & (1 << i))


class TestProductID:
    def test_mint_renders_by_concatenation(self):
        assert mint_product_id("0001", "urn:mfg:acme").render() == "0001@urn:mfg:acme"

    def test_serial_with_separator_rejected(self):
        with pytest.raises(MalformedSerial):
            mint_product_id("a@b", "urn:x")

    def test_empty_serial_rejected(self):
        with pytest.raises(MalformedSerial):
            mint_product_id("", "urn:x")

    @pytest.mark.parametrize("uri", ["", "relative/path", "no-scheme"])
    def test_bad_uri_rejected(self, uri):
        with pytest.raises(MalformedURI):
            mint_product_id("0001", uri)

    def test_uri_with_separator_rejected(self):
        with pytest.raises(MalformedURI):
            mint_product_id("0001", "urn:user@host")

    def test_parse_is_inverse_of_mint(self):
        assert parse_product_id("0001@urn:mfg:acme") == ProductID("0001", "urn:mfg:acme")

    @pytest.mark.parametrize("rendered", ["noseparator", "a@b@c", "@urn:x", "s@"])
    def test_parse_rejects_malformed(self, rendered):
        with pytest.raises(MalformedProductID):
            parse_product_id(rendered)

    def test_equality_is_fieldwise(self):
        assert mint_product_id("a", "urn:x") == mint_product_id("a", "urn:x")
        assert mint_product_id("a", "urn:x") != mint_product_id("a", "urn:y")

    def test_ten_thousand_mints_are_distinct(self):
        # Brute-force duplicate scan over every rendered form.
        rendered = set()
        for i in range(100):
            for j in range(100):
                rendered.add(mint_product_id(f"s{i:03d}", f"urn:org{j:03d}").render())
        assert len(rendered) == 10_000

    def test_random_round_trips(self):
        rng = random.Random(2024)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789.-_"
        for _ in range(1000):
            serial = "".join(rng.choices(alphabet, k=rng.randint(1, 12)))
            uri = "urn:" + "".join(rng.choices(alphabet + ":", k=rng.randint(1, 20)))
            minted = mint_product_id(serial, uri)
            assert parse_product_id(minted.render()) == minted

    @pytest.mark.parametrize("copy_of", [
        lambda pid: dataclasses.replace(pid, serial="px-9"),
        lambda pid: dataclasses.replace(pid, uri="urn:mfg:other"),
        lambda pid: dataclasses.replace(pid),
        copy.copy,
        copy.deepcopy,
        *(lambda pid, p=protocol: pickle.loads(pickle.dumps(pid, protocol=p))
          for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ])
    def test_every_copy_renders_its_own_fields(self, copy_of):
        # The rendered form is built once, beside the fields: each way of
        # copying an id must carry or rebuild it to match the copy's fields.
        pid = mint_product_id("px-1", "urn:mfg:acme")
        assert pid.render() == "px-1@urn:mfg:acme"
        dup = copy_of(pid)
        assert dup.render() == str(dup) == f"{dup.serial}@{dup.uri}"
        assert [f.name for f in dataclasses.fields(dup)] == ["serial", "uri"]
        assert repr(dup) == f"ProductID(serial={dup.serial!r}, uri={dup.uri!r})"
        assert dataclasses.asdict(dup) == {"serial": dup.serial, "uri": dup.uri}
        assert hash(dup) == hash(ProductID(dup.serial, dup.uri))


class TestPEIDLog:
    def make_peid(self):
        return PEID(product_id=mint_product_id("p1", "urn:x"))

    def test_append_to_empty_log(self):
        peid = record_event(self.make_peid(), SensorEvent("temp", 21.0, "C", 0))
        assert len(peid.event_log) == 1

    def test_earlier_event_rejected(self):
        peid = record_event(self.make_peid(), SensorEvent("temp", 21.0, "C", 5))
        with pytest.raises(NonMonotonicTime):
            record_event(peid, SensorEvent("temp", 22.0, "C", 3))

    def test_original_is_unchanged_on_append(self):
        base = self.make_peid()
        record_event(base, SensorEvent("temp", 21.0, "C", 1))
        assert base.event_log == ()

    def test_two_appends_to_one_peid_branch_apart(self):
        # The PEIDs record_event makes share one list; the second append to
        # base must neither see nor overwrite the first.
        first = SensorEvent("temp", 20.0, "C", 1)
        base = record_event(self.make_peid(), first)
        a, b = SensorEvent("temp", 21.0, "C", 2), SensorEvent("rpm", 9.0, "Hz", 3)
        with_a = record_event(base, a)
        with_b = record_event(base, b)
        assert with_a.event_log == (first, a)
        assert with_b.event_log == (first, b)
        assert base.event_log == (first,)
        # Each branch grows on its own, and neither moves the other.
        last = SensorEvent("temp", 22.0, "C", 4)
        assert record_event(with_a, last).event_log == (first, a, last)
        assert record_event(with_b, last).event_log == (first, b, last)
        assert (with_a.event_log, with_b.event_log) == ((first, a), (first, b))

    def test_unordered_log_rejected_at_construction(self):
        log = (SensorEvent("temp", 21.0, "C", 5), SensorEvent("temp", 22.0, "C", 3))
        with pytest.raises(NonMonotonicTime):
            PEID(product_id=mint_product_id("p1", "urn:x"), event_log=log)

    def test_append_equals_direct_construction(self):
        base = PEID(product_id=mint_product_id("p1", "urn:x"),
                    capabilities=LEVEL1_CAPABILITIES)
        first, second = SensorEvent("temp", 21.0, "C", 2), SensorEvent("rpm", 9.0, "Hz", 2)
        peid = record_event(record_event(base, first), second)
        assert peid == PEID(product_id=base.product_id, capabilities=LEVEL1_CAPABILITIES,
                            event_log=(first, second))

    def test_negative_sim_time_rejected(self):
        with pytest.raises(ValueError):
            SensorEvent("temp", 21.0, "C", -1)

    def test_hundred_random_appends_match_plain_append_oracle(self):
        rng = random.Random(7)
        times = sorted(rng.randint(0, 50) for _ in range(100))
        peid = self.make_peid()
        oracle_log = []
        for i, t in enumerate(times):
            event = SensorEvent(f"s{i}", float(i), "u", t)
            peid = record_event(peid, event)
            oracle_log.append(event)
        assert list(peid.event_log) == oracle_log
        logged = [e.sim_time for e in peid.event_log]
        assert logged == sorted(logged)

    def test_peid_requires_unique_id_capability(self):
        with pytest.raises(ValueError):
            PEID(
                product_id=mint_product_id("p1", "urn:x"),
                capabilities=frozenset({PEIDCapability.COMMUNICATION}),
            )


class TestClassification:
    def test_points_one_to_three_give_level1(self):
        assert classify_intelligence(LEVEL1_CAPABILITIES) is IntelligenceLevel.LEVEL1

    def test_all_points_give_level2(self):
        assert classify_intelligence(ALL_CAPABILITIES) is IntelligenceLevel.LEVEL2

    def test_missing_unique_id_is_not_intelligent(self):
        caps = frozenset({PEIDCapability.COMMUNICATION, PEIDCapability.SELF_STORAGE})
        assert classify_intelligence(caps) is IntelligenceLevel.NOT_INTELLIGENT

    def test_exhaustive_against_oracle(self):
        for caps in all_capability_subsets():
            assert classify_intelligence(caps) is oracle_classify(caps)

    def test_exactly_the_full_set_maps_to_level2(self):
        level2 = [caps for caps in all_capability_subsets()
                  if classify_intelligence(caps) is IntelligenceLevel.LEVEL2]
        assert level2 == [ALL_CAPABILITIES]

    def test_adding_a_capability_never_lowers_the_level(self):
        order = {
            IntelligenceLevel.NOT_INTELLIGENT: 0,
            IntelligenceLevel.LEVEL1: 1,
            IntelligenceLevel.LEVEL2: 2,
        }
        for caps in all_capability_subsets():
            base = order[classify_intelligence(caps)]
            for extra in PEIDCapability:
                grown = order[classify_intelligence(caps | {extra})]
                assert grown >= base

    def test_five_distinct_capabilities_exist(self):
        assert len(list(PEIDCapability)) == 5
        assert len({c.value for c in PEIDCapability}) == 5
