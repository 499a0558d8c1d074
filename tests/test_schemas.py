"""The shipped JSON schemas must accept what the package actually produces."""

import dataclasses
import json
from pathlib import Path

import jsonschema
import pytest

import worlds

from btcrs import engine, metrics, synth
from btcrs import topology as tp

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def scenario_schema():
    return json.loads((ROOT / "docs" / "scenario.schema.json").read_text())


@pytest.fixture(scope="module")
def report_schema():
    return json.loads((ROOT / "docs" / "report.schema.json").read_text())


@pytest.mark.parametrize("name", ["paperlike.scn", "delaynode.scn", "twohalves.scn"])
def test_shipped_scenarios_validate(name, scenario_schema):
    jsonschema.validate(json.loads((ROOT / "scenarios" / name).read_text()), scenario_schema)


def test_shipped_synthetic_scenarios_equal_their_generators():
    # scripts/make_scenarios.py writes these two files from the generators
    for name, raw in (("twohalves.scn", synth.two_halves(1000, 40)), ("delaynode.scn", synth.delay_node_scenario())):
        assert json.loads((ROOT / "scenarios" / name).read_text()) == raw, name


def test_params_schema_matches_the_parameter_table(scenario_schema):
    props = scenario_schema["properties"]["params"]["properties"]
    table = {f.name: f for f in dataclasses.fields(tp.SimParams)}
    assert set(props) == set(table)
    for key, f in table.items():
        floor = {k: v for k, v in props[key].items() if k in ("minimum", "exclusiveMinimum")}
        assert {"type": props[key]["type"], **floor} == dict(f.metadata), key
        assert tp.param_problem(key, f.default) is None, key


def test_attack_params_schema_matches_the_key_table(scenario_schema):
    attack = scenario_schema["properties"]["attack"]
    params = attack["properties"]["params"]
    assert attack["additionalProperties"] is False and params["additionalProperties"] is False
    kind_of = {key: kind for kind, keys in tp.ATTACK_PARAMS.items() for key in keys}
    assert set(params["properties"]) == set(kind_of)
    for key, spec in params["properties"].items():
        assert spec["description"].startswith(f"{kind_of[key]} only"), key


def test_entry_schemas_match_the_key_table(scenario_schema):
    lists = scenario_schema["properties"]
    assert set(lists) == set(tp.ENTRY_KEYS) | {"params", "attack"}
    for key, keys in tp.ENTRY_KEYS.items():
        items = lists[key]["items"]
        assert items["additionalProperties"] is False, key
        assert set(items["properties"]) == set(keys), key


def test_generated_scenarios_validate(scenario_schema):
    jsonschema.validate(worlds.random_partition_case(seed=3), scenario_schema)
    jsonschema.validate(synth.two_halves(n_nodes=60, n_as=6), scenario_schema)
    jsonschema.validate(synth.delay_node_scenario(), scenario_schema)


def test_run_report_validates(report_schema):
    raw = json.loads((ROOT / "scenarios" / "paperlike.scn").read_text())
    reports = [metrics.summarize(engine.run_scenario(tp.load_topology(raw), s)) for s in (0, 1)]
    # a perfect partition with an end writes a cross_partition_series: heal's run, as in test_engine
    halves = tp.load_topology(synth.two_halves(n_nodes=120, n_as=8))
    attack = tp.Attack("perfect", tp.read_attack(halves.attack, halves).target, 1800.0, 5400.0)
    reports.append(metrics.summarize(engine.Simulation(halves, 0, attack=attack, end_time=41401.0).run()))
    assert reports[-1].cross_partition_series
    jsonschema.validate(json.loads(metrics.emit(reports)), report_schema)


def test_partition_report_validates(report_schema):
    raw = worlds.random_partition_case(seed=3)
    rep = metrics.summarize(engine.run_scenario(tp.load_topology(raw), seed=3))
    assert rep.partition is not None
    jsonschema.validate(json.loads(metrics.emit(rep)), report_schema)
