"""The scenario loader against a reference copy of the previous one.

The reference is the previous ``scenario_from_dict`` and the helpers it
calls, kept verbatim below (only the key sets are written out, and
``_field`` names an absent key as missing and a null as null, as the
package's does): one helper call per check, an Enum call per role and
kind, and a dataclass per agent and stimulus. For every input,
``harness.scenario_from_dict`` must give an equal ``Scenario``, with the
same repr, or raise the same exception class with the same message: the
five fixtures and the golden scenarios, every field of every
fixture set to each of ``test_cli.FIELD_VALUES``, dropped, or given the
value of the same field in the previous entry of its list, every object
given an unknown key, and seeded mutations of the golden scenarios of
those kinds, some of which copy one field's value into another.
"""

import json
import random
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, NoReturn

import pytest

from test_cli import FIELD_VALUES, _field_paths, _set

from ploop import harness
from ploop.harness import (
    SCENARIO_FORMAT,
    AgentDecl,
    NodeDecl,
    ProductDecl,
    Scenario,
    ScenarioValidationError,
    Stimulus,
)
from ploop.identity import (
    PEID,
    IntelligenceChannel,
    IntelligenceGranularity,
    IntelligenceLocation,
    PEIDCapability,
    mint_product_id,
)
from ploop.knowledge import TACIT_CATEGORIES
from ploop.lifecycle import ComponentCondition, EOLPolicy, LifecyclePhase
from ploop.runtime import (
    _ROLES,
    AgentRole,
    InvalidRoutingTable,
    LatencyMap,
    NodeKind,
    PartitionWindow,
    RoutingRule,
    RoutingTable,
    SimParams,
    _pair,
    next_generation_id,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted(ROOT.glob("fixtures/*.scn"))
GOLDEN = sorted(ROOT.glob("tests/golden/*.scn"))


# -- the reference loader ----------------------------------------------------------


def _require(cond: bool, message: str, *args: Any) -> None:
    """Raise unless cond; the message is formatted with args only then."""
    if not cond:
        raise ScenarioValidationError(message.format(*args))


def _enum_value(enum_cls: Any, raw: Any, what: str) -> Any:
    try:
        return enum_cls(raw)
    except ValueError:
        choices = ", ".join(member.value for member in enum_cls)
        raise ScenarioValidationError(
            f"{what}: {raw!r} is not one of {choices}"
        ) from None


# The exact types each JSON kind decodes to. Matching the type exactly
# keeps bool, a subclass of int, out of integers and numbers.
_KINDS = {
    "an object": (dict,),
    "a list": (list,),
    "an integer": (int,),
    "a number": (int, float),
    "a boolean": (bool,),
    "a string": (str,),
    "an integer or null": (int, type(None)),
}


def _field(raw: dict[str, Any], key: str, kind: str, default: Any = MISSING,
           what: str = "") -> Any:
    """raw[key], or default when absent, required to be of the named kind.
    An absent key with no default is refused as missing, a null as null."""
    value = raw.get(key, default)
    if type(value) not in _KINDS[kind]:
        if value is MISSING:
            raise ScenarioValidationError(f"{what}{key} is missing")
        got = "null" if value is None else type(value).__name__
        raise ScenarioValidationError(f"{what}{key} must be {kind}, got {got}")
    return value


def _entries(raw: dict[str, Any], key: str, what: str = "",
             known: frozenset[str] | None = None) -> list[dict[str, Any]]:
    """The list under raw[key] (empty when absent), each entry an object
    with no key outside known, when known is given."""
    entries = _field(raw, key, "a list", [], what)
    for i, entry in enumerate(entries):
        if type(entry) is not dict:
            raise ScenarioValidationError(f"{what}{key}[{i}] must be an object")
        if known is not None and not known.issuperset(entry):
            _unknown_keys(entry, known, f"{what}{key}[{i}]")
    return entries


# The keys the parent read from each object, written out, so that the
# reference does not follow the classes of the code under test.
_SCENARIO_KEYS = frozenset(("format", "name", "seed", "horizon", "nodes", "products", "agents",
                            "routing", "latency", "partitions", "stimuli", "params"))
_NODE_KEYS = frozenset(("id", "kind"))
_PRODUCT_KEYS = frozenset(("serial", "uri", "generation", "phase", "node", "components",
                           "capabilities", "memory", "intelligence_location"))
_COMPONENT_KEYS = frozenset(("component", "condition", "hazardous"))
_LOCATION_KEYS = frozenset(("channel", "granularity"))
_AGENT_KEYS = frozenset(("id", "role", "home", "product", "itinerary"))
_RULE_KEYS = frozenset(("pattern", "recipients"))
_LATENCY_KEYS = frozenset(("default", "pairs"))
_PAIR_KEYS = frozenset(("a", "b", "ticks"))
_PARTITION_KEYS = frozenset(("a", "b", "from_tick", "to_tick"))
_EVENT_ORDER = ("sensor", "value", "unit")   # the file's order
_EVENT_KEYS = frozenset(_EVENT_ORDER)
_PARAMS_KEYS = frozenset(("trigger_threshold", "message_latency", "design_ticks",
                          "manufacture_ticks", "disposal_ticks", "trigger_rule_enabled",
                          "eol_policy"))
_POLICY_KEYS = frozenset(("reuse_threshold", "component_threshold", "reclaim_threshold"))
_STIMULUS_KEYS = {
    kind: frozenset(("tick", "node", "kind", "product", *extra))
    for kind, extra in (("sensor_batch", ("category", "note", "events")),
                        ("customer_feedback", ("text",)),
                        ("fault", ("detail",)),
                        ("retirement", ()))
}
STIMULUS_KINDS = tuple(_STIMULUS_KEYS)

# The JSON kind of each annotated field type that _build reads.
_TYPE_KINDS = {"int": "an integer", "float": "a number", "bool": "a boolean", "str": "a string"}

# The fields _build reads for each class: name, JSON kind and whether the
# field is required, having no default. A field of another type is given.
_READS = {
    cls: tuple((f.name, _TYPE_KINDS[f.type], f.default is MISSING)
               for f in fields(cls) if f.type in _TYPE_KINDS)
    for cls in (ComponentCondition, EOLPolicy, SimParams)
}


def _build(cls: Any, raw: dict[str, Any], what: str = "", **given: Any) -> Any:
    """cls from given and the keys of raw, each of its field's JSON kind. A
    field with a default is read only when present, so an absent one takes
    the dataclass's own default."""
    return cls(**given, **{name: _field(raw, name, kind, what=what)
                           for name, kind, required in _READS[cls] if required or name in raw})


def _unknown_keys(raw: dict[str, Any], known: frozenset[str], what: str) -> NoReturn:
    """Refuse the keys of raw outside known, naming them and the object.
    Callers test ``known.issuperset(raw)`` first, so the success path makes
    no call and builds no message."""
    unknown = ", ".join(map(repr, sorted(raw.keys() - known)))
    raise ScenarioValidationError(f"{what}: unknown key {unknown}")


def _known(ref: Any, ids: set[str]) -> bool:
    """Whether ref names a declared id; a non-string never does."""
    return isinstance(ref, str) and ref in ids


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    _require(isinstance(doc, dict), "scenario document must be a JSON object")
    version = doc.get("format")
    _require(type(version) is int and version == SCENARIO_FORMAT,
             "unsupported scenario format {!r}, expected {}", version, SCENARIO_FORMAT)
    if not _SCENARIO_KEYS.issuperset(doc):
        _unknown_keys(doc, _SCENARIO_KEYS, "scenario")
    name = doc.get("name")
    _require(isinstance(name, str) and bool(name), "scenario name must be a non-empty string")
    # The run files are named after it, inside the output directory.
    _require(not any(c in name for c in "/\\\0"),
             "scenario name {!r} must be a file name, without '/', '\\' or NUL", name)
    seed = _field(doc, "seed", "an integer", 0)
    _require(seed >= 0, "seed must be a non-negative integer")
    horizon = _field(doc, "horizon", "an integer")
    _require(horizon >= 1, "horizon must be an integer >= 1")

    nodes: list[NodeDecl] = []
    node_ids: set[str] = set()
    for raw in _entries(doc, "nodes", known=_NODE_KEYS):
        node_id = raw.get("id")
        _require(isinstance(node_id, str) and bool(node_id), "node id must be a non-empty string")
        _require(node_id not in node_ids, "duplicate node id {!r}", node_id)
        node_ids.add(node_id)
        nodes.append(NodeDecl(node_id, _enum_value(NodeKind, raw.get("kind"), f"node {node_id}")))
    _require(bool(nodes), "at least one node is required")

    products: list[ProductDecl] = []
    product_ids: set[str] = set()
    successors: dict[str, str] = {}   # next generation's id -> its parent product
    for raw in _entries(doc, "products", known=_PRODUCT_KEYS):
        serial = _field(raw, "serial", "a string", what="product ")
        what = f"product {serial!r}: "
        uri = _field(raw, "uri", "a string", what=what)
        capabilities = tuple(
            _enum_value(PEIDCapability, c, f"product {serial!r} capability")
            for c in _field(raw, "capabilities", "a list", [m.value for m in PEIDCapability], what)
        )
        try:
            product_id = mint_product_id(serial, uri)
            PEID(product_id, capabilities)   # the device's own rules
        except ValueError as exc:
            raise ScenarioValidationError(f"{what}{exc}") from None
        rendered = product_id.render()
        node = raw.get("node")
        _require(_known(node, node_ids), "product {!r} references unknown node {!r}", serial, node)
        generation = _field(raw, "generation", "an integer", 1, what)
        _require(generation >= 1, "{}generation must be an integer >= 1", what)
        components = []
        for c in _entries(raw, "components", what, _COMPONENT_KEYS):
            try:
                components.append(_build(ComponentCondition, c, f"{what}component "))
            except ValueError as exc:
                raise ScenarioValidationError(f"product {serial!r} component: {exc}") from None
        meta_raw = raw.get("intelligence_location")
        location_meta = None
        if meta_raw is not None:
            _field(raw, "intelligence_location", "an object", what=what)
            if not _LOCATION_KEYS.issuperset(meta_raw):
                _unknown_keys(meta_raw, _LOCATION_KEYS, f"product {serial!r} intelligence_location")
            location_meta = IntelligenceLocation(
                channel=_enum_value(IntelligenceChannel, meta_raw.get("channel"),
                                    f"product {serial!r} intelligence channel"),
                granularity=_enum_value(IntelligenceGranularity, meta_raw.get("granularity"),
                                        f"product {serial!r} intelligence granularity"),
            )
        decl = ProductDecl(
            serial=serial,
            uri=uri,
            generation=generation,
            phase=_enum_value(LifecyclePhase, raw.get("phase"), f"product {serial!r} phase"),
            node=node,
            components=tuple(components),
            capabilities=capabilities,
            memory=dict(_field(raw, "memory", "an object", {}, what)),
            intelligence_location=location_meta,
        )
        _require(rendered not in product_ids, "duplicate product {!r}", rendered)
        product_ids.add(rendered)
        products.append(decl)
        successors[next_generation_id(product_id, generation + 1).render()] = rendered
    for successor, parent in successors.items():
        _require(successor not in product_ids, "product {!r} takes the id that the next "
                 "generation of product {!r} starts under", successor, parent)

    agents: list[AgentDecl] = []
    agent_ids: set[str] = set()
    bound: dict[str, str] = {}   # product -> the AgentProduct that speaks for it
    for raw in _entries(doc, "agents", known=_AGENT_KEYS):
        agent_id = raw.get("id")
        _require(isinstance(agent_id, str) and bool(agent_id), "agent id must be a non-empty string")
        _require(agent_id not in agent_ids, "duplicate agent id {!r}", agent_id)
        agent_ids.add(agent_id)
        role = _enum_value(AgentRole, raw.get("role"), f"agent {agent_id} role")
        home = raw.get("home")
        _require(_known(home, node_ids), "agent {!r} references unknown node {!r}", agent_id, home)
        product = raw.get("product")
        if product is not None:
            _require(_known(product, product_ids),
                     "agent {!r} references unknown product {!r}", agent_id, product)
        _require(role is not AgentRole.PRODUCT or product is not None,
                 "agent {!r}: AgentProduct requires a product binding", agent_id)
        if role is AgentRole.PRODUCT:
            _require(product not in bound, "agent {!r}: product {!r} is already bound to "
                     "AgentProduct {!r}", agent_id, product, bound.get(product))
            bound[product] = agent_id
        itinerary = tuple(_field(raw, "itinerary", "a list", [], f"agent {agent_id!r}: "))
        for stop in itinerary:
            _require(_known(stop, node_ids),
                     "agent {!r} itinerary references unknown node {!r}", agent_id, stop)
        agents.append(AgentDecl(agent_id, role, home, product, itinerary))

    rules = []
    for raw in _entries(doc, "routing", known=_RULE_KEYS):
        pattern = _field(raw, "pattern", "a string", "", "routing rule ")
        recipients = tuple(_field(raw, "recipients", "a list", [], "routing rule "))
        _require(all(type(r) is str for r in recipients),
                 "routing rule recipients must be strings, got {!r}", list(recipients))
        # No agent is spawned after loading, so any other name never matches.
        for r in recipients:
            _require(r in _ROLES or r in agent_ids, "routing rule {!r}: recipient {!r} "
                     "names no role and no declared agent", pattern, r)
        rules.append(RoutingRule(pattern, recipients))
    try:
        routing = RoutingTable(rules=tuple(rules))
    except InvalidRoutingTable as exc:
        raise ScenarioValidationError(f"routing: {exc}") from None

    latency_raw = _field(doc, "latency", "an object", {})
    if not _LATENCY_KEYS.issuperset(latency_raw):
        _unknown_keys(latency_raw, _LATENCY_KEYS, "latency")
    pairs: dict[tuple[str, str], int] = {}
    for raw in _entries(latency_raw, "pairs", "latency ", _PAIR_KEYS):
        a, b = raw.get("a"), raw.get("b")
        _require(_known(a, node_ids) and _known(b, node_ids),
                 "latency pair ({!r}, {!r}) unknown node", a, b)
        _require(a != b, "latency pair ({!r}, {!r}) must name two distinct nodes", a, b)
        ticks_ = _field(raw, "ticks", "an integer", what="latency ")
        _require(ticks_ >= 1, "latency ticks must be an integer >= 1")
        key = _pair(a, b)
        _require(key not in pairs, "duplicate latency pair ({!r}, {!r})", a, b)
        pairs[key] = ticks_
    default_latency = _field(latency_raw, "default", "an integer", LatencyMap.default, "latency ")
    _require(default_latency >= 1, "default latency must be an integer >= 1")
    latency = LatencyMap(default=default_latency, pairs=pairs)

    partitions: list[PartitionWindow] = []
    for raw in _entries(doc, "partitions", known=_PARTITION_KEYS):
        a, b = raw.get("a"), raw.get("b")
        _require(_known(a, node_ids) and _known(b, node_ids),
                 "partition ({!r}, {!r}) unknown node", a, b)
        _require(a != b, "partition ({!r}, {!r}) must name two distinct nodes", a, b)
        what = f"partition ({a!r}, {b!r}): "
        lo = _field(raw, "from_tick", "an integer", what=what)
        hi = _field(raw, "to_tick", "an integer", what=what)
        _require(0 <= lo <= hi, "partition ({!r}, {!r}) needs 0 <= from_tick <= to_tick", a, b)
        partitions.append(PartitionWindow(a=a, b=b, from_tick=lo, to_tick=hi))

    stimuli: list[Stimulus] = []
    for i, raw in enumerate(_entries(doc, "stimuli")):
        kind = raw.get("kind")
        _require(kind in STIMULUS_KINDS,
                 "stimulus kind {!r} is not one of {}", kind, ", ".join(STIMULUS_KINDS))
        if not _STIMULUS_KEYS[kind].issuperset(raw):
            _unknown_keys(raw, _STIMULUS_KEYS[kind], f"stimuli[{i}] ({kind})")
        tick_ = _field(raw, "tick", "an integer", what="stimulus ")
        _require(1 <= tick_ <= horizon, "stimulus tick {!r} must be within 1..{}", tick_, horizon)
        node = raw.get("node")
        _require(_known(node, node_ids), "stimulus references unknown node {!r}", node)
        product = raw.get("product")
        _require(_known(product, product_ids), "stimulus references unknown product {!r}", product)
        events = tuple(_entries(raw, "events", "stimulus ", _EVENT_KEYS))
        stim = Stimulus(**{**raw, "events": events})
        if kind == "sensor_batch":
            _require(stim.category in TACIT_CATEGORIES,
                     "sensor_batch category {!r} must be one of {}",
                     stim.category, ", ".join(TACIT_CATEGORIES))
            _require(type(stim.note) is str, "sensor_batch note must be a string")
            for event in stim.events:
                # No key is unknown, so three keys are all of them.
                _require(len(event) == len(_EVENT_KEYS)
                         and type(event["sensor"]) is str and type(event["unit"]) is str
                         and type(event["value"]) in _KINDS["a number"],
                         "sensor_batch events need sensor and unit strings, "
                         "and the value must be a number")
        if kind == "customer_feedback":
            _require(type(stim.text) is str and bool(stim.text),
                     "customer_feedback requires non-empty text")
        if kind == "fault":
            _require(type(stim.detail) is str and bool(stim.detail),
                     "fault requires a non-empty detail")
        stimuli.append(stim)

    params_raw = _field(doc, "params", "an object", {})
    if not _PARAMS_KEYS.issuperset(params_raw):
        _unknown_keys(params_raw, _PARAMS_KEYS, "params")
    try:
        policy_raw = _field(params_raw, "eol_policy", "an object", {})
        if not _POLICY_KEYS.issuperset(policy_raw):
            _unknown_keys(policy_raw, _POLICY_KEYS, "eol_policy")
        params = _build(SimParams, params_raw, eol_policy=_build(EOLPolicy, policy_raw))
    except Exception as exc:
        raise ScenarioValidationError(f"params: {exc}") from None

    return Scenario(
        name=name,
        seed=seed,
        horizon=horizon,
        nodes=tuple(nodes),
        products=tuple(products),
        agents=tuple(agents),
        routing=routing,
        latency=latency,
        partitions=tuple(partitions),
        stimuli=tuple(stimuli),
        params=params,
    )


# -- the comparison ----------------------------------------------------------------


def _outcome(load, doc):
    """What a loader makes of doc: ("ok", the scenario, its repr) or
    ("raised", the exception class, its message)."""
    try:
        scenario = load(doc)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", scenario, repr(scenario))


def _check(text, mutate=None):
    """Both loaders' outcome on the document in text, after mutate, which
    must be equal; a mutate that returns a value replaces the document."""
    docs = []
    for _ in range(2):   # a fresh document each, so neither sees the other's
        doc = json.loads(text)
        if mutate is not None:
            replaced = mutate(doc)
            doc = doc if replaced is None else replaced
        docs.append(doc)
    outcome = _outcome(harness.scenario_from_dict, docs[0])
    assert outcome == _outcome(scenario_from_dict, docs[1])
    return outcome


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _drop(*path):
    def mutate(doc):
        del _at(doc, path[:-1])[path[-1]]
    return mutate


def _add_unknown(*path):
    def mutate(doc):
        _at(doc, path)["zz"] = 1
    return mutate


def _copy(source, target):
    """Set the field at target to a copy of the value at source."""
    def mutate(doc):
        _set(*target, json.loads(json.dumps(_at(doc, source))))(doc)
    return mutate


def _sibling(doc, path):
    """The path of the same field in the previous entry of the nearest list
    that path is inside, or None: copying its value makes a duplicate."""
    for k in range(len(path) - 1, -1, -1):
        if type(path[k]) is int:
            if path[k] == 0:
                return None
            sibling = (*path[:k], path[k] - 1, *path[k + 1:])
            try:
                _at(doc, sibling)
            except (KeyError, IndexError, TypeError):
                return None
            return sibling
    return None


def _objects(doc):
    """The key path of the document and of every object inside it."""
    return [()] + [path for path in _field_paths(doc) if isinstance(_at(doc, path), dict)]


@pytest.mark.parametrize("path", FIXTURES + GOLDEN, ids=lambda p: p.stem)
def test_saved_scenarios_load_as_the_reference_loads_them(path):
    assert _check(path.read_text())[0] == "ok"


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_every_fixture_field_mutation_loads_as_the_reference_loads_it(path):
    """Each field set to each of FIELD_VALUES, dropped or given the value
    of the same field in the previous entry of its list, each object given
    an unknown key, and the whole document replaced by each value."""
    text = path.read_text()
    doc = json.loads(text)
    for key in _field_paths(doc):
        for value in FIELD_VALUES:
            _check(text, _set(*key, value))
        _check(text, _drop(*key))
        sibling = _sibling(doc, key)
        if sibling is not None:
            _check(text, _copy(sibling, key))
    for key in _objects(doc):
        _check(text, _add_unknown(*key))
    for value in FIELD_VALUES:
        _check(text, lambda _, value=value: value)


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_seeded_golden_mutations_load_as_the_reference_loads_them(path):
    """150 seeded mutations of each golden scenario: a field set to one of
    FIELD_VALUES, dropped, or given the value of another field or of the
    same field in the previous entry of its list, or an object given an
    unknown key."""
    text = path.read_text()
    doc = json.loads(text)
    keys, objects = list(_field_paths(doc)), _objects(doc)
    pairs = [(sibling, key) for key in keys
             for sibling in [_sibling(doc, key)] if sibling is not None]
    rng = random.Random(f"loader-{path.stem}")
    for _ in range(150):
        draw = rng.randrange(5)
        if draw == 0:
            mutate = _set(*rng.choice(keys), rng.choice(FIELD_VALUES))
        elif draw == 1:
            mutate = _drop(*rng.choice(keys))
        elif draw == 2:
            mutate = _copy(rng.choice(keys), rng.choice(keys))
        elif draw == 3:
            mutate = _copy(*rng.choice(pairs))
        else:
            mutate = _add_unknown(*rng.choice(objects))
        _check(text, mutate)
