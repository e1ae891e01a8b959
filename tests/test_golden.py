"""Pinned sha256 digests of every output file that a run writes.

The event log is ploop's behavioural contract, and both report forms and
the repository file are derived from the same run. A refactor that claims
to change nothing must leave all four byte-identical for the five
fixtures and for three small generated scenarios kept under
``tests/golden/`` (a three-product fleet, twenty parked agents beside one
product, and six mobile agents under recurring partitions). Re-pin only
for a deliberate format or behaviour change, and say so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from ploop.harness import load_scenario, run

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("events.jsonl", "report.json", "repository.jsonl", "report.txt")
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

GOLDEN = {
    "fixtures/baseline.scn": (
        "838659f20bd14eab9b7345692820d713b6139ddefee768bbdafc71589bd42fec",
        "5645e5068b69bb4dcc8e1906e7f9c646bbb8db6cc1ba48239582456ec65192ea",
        "efbf89d2895f587c2f2fe04081f6a3c3e97418f59cd9419a2911a7d1588c3622",
        "af726fd9bb96d40ec9109812be8864641e83680de44bfe856d85bf276ff913ff",
    ),
    "fixtures/closed_loop.scn": (
        "382f874c4a18855a54e578e32fa7fd27bc6d7a12ed455c807da30055135d75ca",
        "ad47038904dd6b2f71c7d7bdc3bdadc8bbcdddbcfbaccc48b668c5c2789902eb",
        "efbf89d2895f587c2f2fe04081f6a3c3e97418f59cd9419a2911a7d1588c3622",
        "3ef723bd2aae1c722b97695e39c40898807687a6603ad6c080db02f4d87d323b",
    ),
    "fixtures/migration.scn": (
        "345ead670689bb45dbede568622f2184d0df0f209d0680c934b311381184b132",
        "56ed407dc1b9a59bb85d8371a6d1d5a90d6159aed2bd6ba39d359aa4a78fe7b3",
        EMPTY,
        "93437c045b077df78dbf8081616d408459ef7e581a1e766dbea6b4d97960497f",
    ),
    "fixtures/minimal.scn": (
        "56b595ae774e53a97a76e7305694503859d7118bb37178a1dccfcda2e4bc655f",
        "a4c51811a5accd643e530b271a33bd24927b6be94e5fa6b0e639719754bbf100",
        EMPTY,
        "62c1244452b2cc94808079155f99bfa302167968667631fbe0dfbbe7aeed2f79",
    ),
    "fixtures/partition.scn": (
        "b587c10505822602d328206374e0f23a1404016e0cf643b4cad5e584a477c687",
        "6af38c69c949257fdfc0a75fffdef09a9d34c3566ed8101cd4f49cc324892f7a",
        "5b61f51979ae4285a2338b9441160a2455a1c6f31d4f2b45957b0f0e25e29a24",
        "9c084c2cabc2ac589262403f776d02acd0022f1c0c3ba81ce17e927e3c7186a7",
    ),
    "tests/golden/fleet.scn": (
        "e739ecc944d6f1f79bef4c34ced5c2c2f44c6bc8f9aada9c2b3c77646b22d677",
        "864d6f9770213fe4db5da1813d0f95ee7d9bf60cfbadccef4ccced67143721c9",
        "13f5f4ee1e107bab72aa8a4630b1c27a7a51c692581d90409ac6f42e06bfabfc",
        "cf0235a7050b7d762e5856d90e2bf9515c0430c04a035e86ea03c6ddeb76e6fb",
    ),
    "tests/golden/idle.scn": (
        "52038c8e22ad08821ef5284e79ebb5a2134c405eeb3bf412b4743a24567f9eb6",
        "f8114e556688391457567d27c1a9033310f33d89882751092b85b6091f5170d7",
        "cd09abad3dafada9f1af1908203122e4bd4188f5edf64fad7bf700c9ad91dfb1",
        "3d76bf7d88f2744c63569a9038558eed70c8a30916ea6becbb3be8a39b84a053",
    ),
    "tests/golden/roaming.scn": (
        "fbb92c8e0ded9e8fc8bedc4bee7acff4be25b92e6d98c44516d72bb387edc441",
        "0d1bd993cf999b2329996dcee6a0b1a22a54292f639dbac36395913d78cc3ebf",
        "3c39ecb4b5545285f7238fc517dcf0218ed0af33749d0c19cc37d3002c2b6c29",
        "360127f06bc68f65ae30ff8606070d5fd40c6d5e88a2de5e3e757896b34410aa",
    ),
}


@pytest.mark.parametrize("scenario_path", sorted(GOLDEN))
def test_run_outputs_match_pinned_digests(scenario_path, tmp_path):
    scenario = load_scenario(ROOT / scenario_path)
    run(scenario, out_dir=tmp_path)
    digests = tuple(
        hashlib.sha256((tmp_path / f"{scenario.name}.{suffix}").read_bytes()).hexdigest()
        for suffix in OUTPUTS
    )
    assert dict(zip(OUTPUTS, digests)) == dict(zip(OUTPUTS, GOLDEN[scenario_path]))
