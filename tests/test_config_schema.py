"""The in-package config schema validator: its keywords and its parity with jsonschema."""

from __future__ import annotations

import copy
import json
import math
import random

import pytest

from tcbayes.cli import PACKAGED_SCENARIOS, packaged_config_text
from tcbayes.scenario import _KEYWORDS, ConfigError, ScenarioConfig, _load_schema, schema_errors


def _schema_keywords(schema: dict):
    """Every keyword of a schema and its subschemas, not the names under properties."""
    for keyword, value in schema.items():
        yield keyword
        if keyword in ("properties", "patternProperties", "definitions"):
            for subschema in value.values():
                yield from _schema_keywords(subschema)
        elif keyword == "items":
            yield from _schema_keywords(value)
        elif keyword in ("oneOf", "allOf"):
            for subschema in value:
                yield from _schema_keywords(subschema)


def test_packaged_schema_uses_only_implemented_keywords():
    used = set(_schema_keywords(_load_schema()))
    assert used - {"$ref"} <= _KEYWORDS
    # the walk reached every kind of subschema
    assert {"oneOf", "allOf", "$ref", "items", "exclusiveMaximum", "maxItems", "enum"} <= used


@pytest.mark.parametrize(
    "schema, instance",
    [
        ({"type": "string", "pattern": "^a"}, "abc"),
        ({"properties": {"x": {"format": "email"}}}, {"x": "a@b"}),
        ({"items": {"uniqueItems": True}}, [1]),
        ({"additionalProperties": {"type": "number"}}, {}),
        ({"anyOf": [{"type": "number"}]}, 1.0),
    ],
)
def test_unimplemented_schema_keyword_raises(schema, instance):
    with pytest.raises(NotImplementedError, match="is not implemented"):
        list(schema_errors(instance, schema))


@pytest.mark.parametrize(
    "schema, instance, valid",
    [
        ({"type": "integer"}, 10.0, True),
        ({"type": "integer"}, 10.5, False),
        ({"type": "integer"}, True, False),
        ({"type": "number"}, False, False),
        ({"type": "number"}, math.nan, True),
        ({"enum": [1, 2, 3]}, True, False),
        ({"enum": [1, 2, 3]}, 1.0, True),
        ({"minimum": 0, "maximum": 1, "exclusiveMinimum": 0, "exclusiveMaximum": 1}, math.nan, True),
        ({"exclusiveMinimum": 0}, 0, False),
        ({"minimum": 0}, True, True),  # a bound applies to numbers only
        ({"minItems": 2}, "a", True),
        ({"allOf": [{"type": "number"}, {"minimum": 0}]}, -1, False),
        ({"allOf": [{"type": "number"}, {"minimum": 0}]}, 1, True),
        ({"allOf": [{"required": ["a"]}, {"required": ["b"]}]}, {"a": 1}, False),
    ],
)
def test_draft7_corner_cases(schema, instance, valid):
    assert (next(schema_errors(instance, schema), None) is None) == valid


def test_all_of_checks_each_subschema_at_the_same_path():
    schema = {"properties": {"s": {"allOf": [{"properties": {"x": {"minimum": 0}}},
                                              {"required": ["k"]}]}}}
    assert list(schema_errors({"s": {"x": -1}}, schema)) == [
        (("s", "x"), "-1 is less than the minimum of 0"),
        (("s",), "'k' is a required property"),
    ]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s: s.pop("kind"), "config invalid at sampler: 'kind' is a required property"),
        (lambda s: s.update(proposal_std=-1.0),
         "config invalid at sampler/proposal_std: -1.0 is less than or equal to the minimum of 0"),
        (lambda s: s.update(bogus=1), "config invalid at sampler: unexpected key 'bogus'"),
    ],
)
def test_sampler_block_messages(edit, message):
    config = json.loads(packaged_config_text("model1"))
    edit(config["sampler"])
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(config)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# parity with jsonschema's Draft7Validator on a seeded corpus of mutated configs
# ---------------------------------------------------------------------------

_ODD_VALUES = [
    math.nan, math.inf, -math.inf, True, False, None, 0, 1, 2, 3, -1, 0.0, 1.0, 10.0, -5.0,
    0.5, 2.5, 1e6, "", "x", "gaussian", "crw", "sinusoidal", [], [1.0], [300.0, 900.0],
    [900.0, 300.0], [1.0, 2.0, 3.0], {}, {"mean": 1.0, "std": 0.1}, {"_note": "x"},
]
_EXTRA_KEYS = ["bogus", "_note", "_", "note_", "mean", "std", "kind", "rule", "low", "n_steps"]


def _nodes(obj, path=()):
    """Path and value of every node below ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _mutate(doc: dict, rng: random.Random) -> None:
    nodes = list(_nodes(doc))
    path, value = rng.choice(nodes)
    kind = rng.randrange(5)
    if kind == 0:  # a wrong type, a bool, a non-finite or out-of-range number
        _parent(doc, path)[path[-1]] = copy.deepcopy(rng.choice(_ODD_VALUES))
    elif kind == 1:  # an integer as an integral float, and back
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            swapped = float(value) if isinstance(value, int) else value
            if isinstance(value, float) and value.is_integer():
                swapped = int(value)
            _parent(doc, path)[path[-1]] = swapped
    elif kind == 2:  # a missing key
        dicts = [p for p, v in nodes if isinstance(_parent(doc, p), dict)]
        path = rng.choice(dicts)
        del _parent(doc, path)[path[-1]]
    elif kind == 3:  # an extra key, `_`-prefixed or not
        dicts = [doc] + [v for _, v in nodes if isinstance(v, dict)]
        rng.choice(dicts)[rng.choice(_EXTRA_KEYS)] = copy.deepcopy(rng.choice(_ODD_VALUES))
    else:  # either branch of germ.strips, whole or broken
        germ = doc.get("germ")
        if isinstance(germ, dict):
            n = rng.randrange(0, 4)
            array = [{"mean": 450.0 + i, "std": 14.0} for i in range(n)]
            rule = {"rule": "sinusoidal", "base_mean": 462.675, "amplitude": 0.18,
                    "relative_std": 0.03}
            germ["strips"] = rng.choice([array, rule, rng.choice(_ODD_VALUES)])


def _corpus(bases: list[dict], size: int, seed: int):
    rng = random.Random(seed)
    for i in range(size):
        doc = copy.deepcopy(bases[i % len(bases)])
        for _ in range(rng.randint(1, 3)):
            _mutate(doc, rng)
        yield doc


def test_validator_matches_jsonschema(tiny_model1_dict, tiny_model2_dict):
    jsonschema = pytest.importorskip("jsonschema")
    schema = _load_schema()
    reference = jsonschema.Draft7Validator(schema)
    bases = [json.loads(packaged_config_text(name)) for name in PACKAGED_SCENARIOS]
    model3_array = copy.deepcopy(bases[2])
    model3_array["germ"]["strips"] = [{"mean": 462.675, "std": 13.88} for _ in range(4)]
    bases += [model3_array, tiny_model1_dict, tiny_model2_dict]
    for base in bases:
        assert next(schema_errors(base, schema), None) is None

    n_valid = 0
    for doc in _corpus(bases, 5000, seed=20261019):
        ours = sorted(schema_errors(doc, schema), key=lambda error: error[0])
        theirs = sorted(reference.iter_errors(doc), key=lambda error: list(error.absolute_path))
        assert bool(ours) == bool(theirs), (doc, ours, [e.message for e in theirs])
        if ours:
            assert list(ours[0][0]) == list(theirs[0].absolute_path), (doc, ours[0])
        n_valid += not ours
    # both outcomes are well represented
    assert 500 < n_valid < 4500
