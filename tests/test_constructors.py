"""A dataclass whose ``__init__`` is written by hand keeps to what the
generated one would be: one parameter per field, in field order, with the
field's default; a value built through it copies, pickles and replaces as
a dataclass value does; and it stays frozen."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import ploop
from ploop.agents import AgentRole
from ploop.identity import SensorEvent, mint_product_id
from ploop.knowledge import Activity, KnowledgeMode, KnowledgeSource

PID = mint_product_id("px-9", "urn:mfg:acme")

# Arguments for one value of each class; a class that gains a hand-written
# __init__ needs an entry here.
SAMPLES = {
    "AgentState": ("ap-1", AgentRole.PRODUCT, "mfg", PID, ("garage",)),
    "SensorEvent": ("temp", 21.5, "C", 4),
    "SensorBatch": (PID, 2, "use", (SensorEvent("temp", 21.5, "C", 4),), "hot"),
    "KnowledgeRecord": ("kr-1", PID, 2, Activity.CUSTOMER, KnowledgeMode.EXPLICIT,
                        KnowledgeSource.COLLECTIVE, "battery swells", 7),
}


def hand_written_inits(package):
    """Every dataclass defined in package's modules whose __init__ comes
    from its own source file rather than from the dataclass decorator."""
    found = {}
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls) and "__init__" in vars(cls)
                    and cls.__init__.__code__.co_filename == module.__file__):
                found[cls.__name__] = cls
    return found


CLASSES = hand_written_inits(ploop)


def test_the_hot_values_are_found_and_each_has_a_sample():
    assert {"AgentState", "SensorEvent", "SensorBatch", "KnowledgeRecord"} <= set(CLASSES)
    assert set(CLASSES) == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(CLASSES))
class TestHandWrittenInit:
    def test_parameters_are_the_fields_in_order_with_their_defaults(self, name):
        cls = CLASSES[name]
        params = list(inspect.signature(cls).parameters.values())
        fields = [f for f in dataclasses.fields(cls) if f.init]
        assert [p.name for p in params] == [f.name for f in fields]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
        assert [p.default for p in params] == [
            inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
            for f in fields]
        assert all(f.default_factory is dataclasses.MISSING for f in fields)

    def test_value_survives_replace_deepcopy_and_pickle(self, name):
        cls = CLASSES[name]
        value = cls(*SAMPLES[name])
        by_keyword = cls(**{f.name: getattr(value, f.name) for f in dataclasses.fields(cls)})
        for other in (by_keyword, dataclasses.replace(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert type(other) is cls
            assert other == value and hash(other) == hash(value)
            assert tuple(getattr(other, f.name) for f in dataclasses.fields(cls)) == SAMPLES[name]

    def test_assignment_is_refused(self, name):
        value = CLASSES[name](*SAMPLES[name])
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))

