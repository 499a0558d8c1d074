"""Command-line front-end: exit codes, artifact shapes, reproducibility."""

import hashlib
import json
from pathlib import Path

import pytest

from btcrs import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PAPERLIKE = str(SCENARIOS / "paperlike.scn")
DELAYNODE = str(SCENARIOS / "delaynode.scn")
TWOHALVES = str(SCENARIOS / "twohalves.scn")


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------- exit codes --


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli() == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_plan_partition_without_scenario_is_usage_error():
    assert run_cli("plan-partition", "--power", "0.45:0.55") == 2


def test_missing_scenario_file_is_scenario_error(capsys):
    assert run_cli("run", "--scenario", "no-such-file.scn") == 3
    assert capsys.readouterr().err.startswith("error: scenario not found")


def test_invalid_scenario_content_is_scenario_error(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text('{"ases": []}')
    assert run_cli("run", "--scenario", str(bad)) == 3


def test_bad_seed_range_is_usage_error():
    assert run_cli("run", "--scenario", PAPERLIKE, "--seeds", "5..1") == 2
    assert run_cli("run", "--scenario", PAPERLIKE, "--seeds", "abc") == 2


def test_unknown_override_is_usage_error(capsys):
    assert run_cli("run", "--scenario", PAPERLIKE, "--set", "warp_speed=9") == 2
    assert "warp_speed" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("block_interval_mean", 0), ("per_hop_delay", -3),
                                       ("base_delay", -0.5), ("base_delay", "NaN"),
                                       ("churn", 5), ("connections", 5), ("blocks", "x"),
                                       ("connections", [["victim", "nope"]]),
                                       ("churn", {"lifetime_table": [[0.1, 10.0]]}),
                                       ("restore_margin", 50)])
def test_out_of_range_scenario_param_is_scenario_error(tmp_path, capsys, key, value):
    raw = json.loads(Path(PAPERLIKE).read_text())
    raw["params"][key] = float(value) if value == "NaN" else value
    bad = tmp_path / "bad.scn"
    bad.write_text(json.dumps(raw))
    assert run_cli("run", "--scenario", str(bad), "--seeds", "0") == 3
    assert f"params.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("pair", ["block_interval_mean=0", "per_hop_delay=-3", "base_delay=fast",
                                  "churn=5", "connections=5", "blocks=x",
                                  'connections=[["A","nope"]]', 'churn={"lifetime_table":[[0.1,10.0]]}',
                                  "restore_margin=50"])
def test_out_of_range_override_is_usage_error(capsys, pair):
    assert run_cli("run", "--scenario", PAPERLIKE, "--seeds", "0", "--set", pair) == 2
    assert f"params.{pair.split('=')[0]}" in capsys.readouterr().err


def test_plan_partition_takes_no_seeds_or_overrides():
    # the planner runs no simulation, so a seed range or override would be ignored
    for extra in (("--set", "warp_speed=9"), ("--seeds", "99"), ("--set", "blocks=3")):
        assert run_cli("plan-partition", "--scenario", PAPERLIKE, "--power", "0.45:0.55", *extra) == 2


def test_bad_power_window_is_usage_error():
    assert run_cli("plan-partition", "--scenario", PAPERLIKE, "--power", "0.9") == 2
    assert run_cli("plan-partition", "--scenario", PAPERLIKE, "--power", "0.8:0.2") == 2


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "plan-partition" in capsys.readouterr().out


# ---------------------------------------------------------------- run --


def test_run_writes_report_and_is_idempotent(tmp_path):
    out = tmp_path / "r.json"
    args = ("run", "--scenario", PAPERLIKE, "--seeds", "1..3", "--out", str(out))
    assert run_cli(*args) == 0
    first = out.read_bytes()
    body = json.loads(first)
    assert [r["seed"] for r in body["runs"]] == [1, 2, 3]
    assert all(len(r["config"]) == 16 for r in body["runs"])
    assert run_cli(*args) == 0
    assert out.read_bytes() == first


def test_run_single_seed_to_stdout(capsys):
    assert run_cli("run", "--scenario", PAPERLIKE, "--seeds", "7") == 0
    body = json.loads(capsys.readouterr().out)
    assert [r["seed"] for r in body["runs"]] == [7]


def test_run_csv_format(capsys):
    assert run_cli("run", "--scenario", PAPERLIKE, "--seeds", "0..1", "--format", "csv") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "config,seed,metric,value"
    assert len(lines) > 2


def test_thread_count_does_not_change_output(tmp_path, monkeypatch):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("BTCRS_THREADS", threads)
        out = tmp_path / f"r{threads}.json"
        assert run_cli("run", "--scenario", PAPERLIKE, "--seeds", "0..1",
                       "--set", "blocks=3", "--out", str(out)) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_overrides_reach_the_engine(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("run", "--scenario", PAPERLIKE, "--seeds", "0",
                   "--set", "blocks=3", "--out", str(out)) == 0
    body = json.loads(out.read_text())
    assert sum(body["runs"][0]["blocks_mined"].values()) == 3


# ---------------------------------------------------------------- planning --


def test_plan_partition_lists_plans_with_digest(tmp_path):
    out = tmp_path / "plans.json"
    assert run_cli("plan-partition", "--scenario", PAPERLIKE,
                   "--power", "0.4:0.6", "--out", str(out)) == 0
    plans = json.loads(out.read_text())
    assert plans, "paperlike has pools inside that power window"
    for p in plans:
        assert set(p) >= {"nodes", "announcements", "prefix_count", "mining_power",
                          "pools", "config", "approximate", "partial_coverage"}
    counts = [p["prefix_count"] for p in plans]
    assert counts == sorted(counts)


def test_plan_partition_empty_window(tmp_path):
    out = tmp_path / "plans.json"
    assert run_cli("plan-partition", "--scenario", PAPERLIKE,
                   "--power", "0.0:0.0", "--out", str(out)) == 0
    plans = json.loads(out.read_text())
    assert [p["nodes"] for p in plans] == [[]]
    assert plans[0]["prefix_count"] == 0


# ---------------------------------------------------------------- sweeps --


def test_delay_node_emits_one_row_per_cell(tmp_path):
    out = tmp_path / "dn.csv"
    assert run_cli("delay-node", "--scenario", DELAYNODE, "--interception", "0,1.0",
                   "--seeds", "0..2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "config,seed,metric,value"
    assert len(lines) == 1 + 2 * 3
    assert all("uninformed_fraction" in ln for ln in lines[1:])
    zero_rows = [ln for ln in lines[1:] if "interception=0.0" in ln]
    assert all(float(ln.rsplit(",", 1)[1]) == 0.0 for ln in zero_rows)


def test_delay_node_rejects_scenarios_without_a_victim():
    assert run_cli("delay-node", "--scenario", PAPERLIKE) == 3


@pytest.mark.parametrize("change", ["no ref", "coalition"])
def test_delay_node_rejects_a_scenario_it_cannot_measure_before_any_seed_runs(tmp_path, capsys, monkeypatch,
                                                                              change):
    raw = json.loads(Path(DELAYNODE).read_text())
    if change == "no ref":  # the victim's uninformed fraction is measured against node `ref`
        raw["nodes"] = [n for n in raw["nodes"] if n["id"] != "ref"]
        raw["params"]["connections"] = [c for c in raw["params"]["connections"] if "ref" not in c]
    else:  # a coalition attack intercepts routes, not one victim's connections
        raw["attack"]["params"]["coalition"] = [raw["nodes"][0]["as"]]
    bad = tmp_path / "bad.scn"
    bad.write_text(json.dumps(raw))
    monkeypatch.setattr(cli, "_report_job", lambda *task: pytest.fail("a seed ran"))
    assert run_cli("delay-node", "--scenario", str(bad), "--seeds", "0", "--interception", "0") == 3
    err = capsys.readouterr().err
    assert ("nodes: " in err) if change == "no ref" else ("single-victim" in err)


@pytest.mark.parametrize("fractions", ["0,1.5", "nan"])
def test_delay_node_interception_outside_unit_interval_is_usage_error(fractions):
    assert run_cli("delay-node", "--scenario", DELAYNODE, "--interception", fractions) == 2


@pytest.mark.parametrize("where", ["attack", "attack.params"])
def test_delay_node_validates_the_attack_before_reading_it(tmp_path, capsys, where):
    raw = json.loads(Path(DELAYNODE).read_text())
    owner = raw if where == "attack" else raw["attack"]
    owner[where.rsplit(".", 1)[-1]] = [1]
    bad = tmp_path / "bad.scn"
    bad.write_text(json.dumps(raw))
    assert run_cli("delay-node", "--scenario", str(bad), "--seeds", "0", "--interception", "0") == 3
    assert f"{where}: must be an object" in capsys.readouterr().err


def test_misspelled_attack_key_is_scenario_error(tmp_path, capsys):
    # if it were ignored, the run would go on silently at the default interception 1.0
    raw = json.loads(Path(DELAYNODE).read_text())
    raw["attack"]["params"]["interceptoin"] = raw["attack"]["params"].pop("interception")
    bad = tmp_path / "bad.scn"
    bad.write_text(json.dumps(raw))
    assert run_cli("run", "--scenario", str(bad), "--seeds", "0") == 3
    assert "attack.params.interceptoin: unknown key" in capsys.readouterr().err


def test_misspelled_entry_key_is_scenario_error(tmp_path, capsys):
    # if it were ignored, the run would go on without the pool's private peering
    raw = json.loads(Path(PAPERLIKE).read_text())
    raw["pools"][0]["private_peerz"] = raw["pools"][0].pop("private_peers")
    bad = tmp_path / "bad.scn"
    bad.write_text(json.dumps(raw))
    assert run_cli("run", "--scenario", str(bad), "--seeds", "0") == 3
    assert "pools[0].private_peerz: unknown key" in capsys.readouterr().err


def test_multihoming_sweep_row_grid(tmp_path):
    out = tmp_path / "mh.csv"
    assert run_cli("multihoming-sweep", "--scenario", PAPERLIKE, "--degrees", "1,3",
                   "--coalition", "US", "--seeds", "0..1", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert all("orphan_rate" in ln for ln in lines[1:])
    assert {ln.split(",")[0].rsplit(":", 1)[1] for ln in lines[1:]} == {"degree=1", "degree=3"}


@pytest.mark.parametrize("argv", [
    ("delay-node", "--scenario", DELAYNODE, "--interception", "0,1", "--seeds", "0..1", "--set", "blocks=3"),
    ("multihoming-sweep", "--scenario", PAPERLIKE, "--degrees", "1,3", "--coalition", "US", "--seeds", "0..1",
     "--set", "blocks=3"),
], ids=["delay-node", "multihoming-sweep"])
def test_sweep_submits_every_cell_and_seed_to_one_pool(tmp_path, monkeypatch, argv):
    calls = []
    map_tasks = cli.engine._map_tasks
    monkeypatch.setattr(cli.engine, "_map_tasks", lambda fn, tasks: calls.append(len(tasks)) or map_tasks(fn, tasks))
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("BTCRS_THREADS", threads)
        out = tmp_path / f"sweep{threads}.csv"
        assert run_cli(*argv, "--out", str(out)) == 0
        outputs.append(out.read_bytes())
    assert calls == [4, 4]
    assert outputs[0] == outputs[1]


def test_multihoming_sweep_unknown_coalition_is_scenario_error():
    assert run_cli("multihoming-sweep", "--scenario", PAPERLIKE, "--degrees", "1",
                   "--coalition", "ZZ", "--seeds", "0") == 3


# ---------------------------------------------------------------- healing --


def test_heal_reports_ratios(tmp_path):
    out = tmp_path / "heal.json"
    scn = tmp_path / "small.scn"
    from btcrs import synth
    scn.write_text(json.dumps(synth.two_halves(n_nodes=80, n_as=8)))
    assert run_cli("heal", "--scenario", str(scn), "--onpath", "0.3",
                   "--seeds", "0..1", "--out", str(out)) == 0
    body = json.loads(out.read_text())
    assert body["onpath"] == 0.3
    assert len(body["results"]) == 2
    assert 0 <= body["mean_final_ratio"] <= 2


def _small_halves(tmp_path, **attack):
    from btcrs import synth
    raw = synth.two_halves(n_nodes=40, n_as=4)
    raw["attack"].update(attack)
    scn = tmp_path / "halves.scn"
    scn.write_text(json.dumps(raw))
    return str(scn)


@pytest.mark.parametrize("which", ["paperlike", "delaynode", "empty-target"])
def test_heal_needs_a_partition_attack_on_a_target(tmp_path, capsys, which):
    scn = {"paperlike": PAPERLIKE, "delaynode": DELAYNODE}.get(which) or _small_halves(tmp_path, target=[])
    assert run_cli("heal", "--scenario", scn, "--seeds", "0") == 3
    assert "partition attack" in capsys.readouterr().err


@pytest.mark.parametrize("onpath", ["7", "-0.1", "nan"])
def test_heal_onpath_outside_unit_interval_is_usage_error(tmp_path, capsys, onpath):
    assert run_cli("heal", "--scenario", _small_halves(tmp_path), "--seeds", "0", "--onpath", onpath) == 2
    assert "--onpath" in capsys.readouterr().err


# ---------------------------------------------------------------- other usage errors --


@pytest.mark.parametrize("threads", ["abc", "-3", "0"])
def test_bad_thread_cap_is_usage_error(monkeypatch, capsys, threads):
    monkeypatch.setenv("BTCRS_THREADS", threads)
    assert run_cli("run", "--scenario", PAPERLIKE, "--seeds", "0") == 2
    assert "BTCRS_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("degrees", ["0", "-2", "1,0"])
def test_multihoming_degree_below_one_is_usage_error(capsys, degrees):
    assert run_cli("multihoming-sweep", "--degrees", degrees, "--coalition", "US", "--seeds", "0") == 2
    assert "--degrees" in capsys.readouterr().err


# ---------------------------------------------------------------- byte identity --

# SHA-256 of each artifact as written with BTCRS_THREADS=1.  A change to any
# output byte of these commands fails here; re-pin only a change that means
# to alter output, and say why.
PINNED_ARTIFACTS = {
    ("run", "--scenario", PAPERLIKE, "--seeds", "0..1"):
        "36da1fd1d196fbb178b2979610d083a08cdb6016b46489a78479147165977108",
    ("run", "--scenario", PAPERLIKE, "--seeds", "0", "--format", "csv"):
        "289cbb38cf24486dad8c3e359e5627b31fdb9035580f5c9c13249d9f30d1bd54",
    ("run", "--scenario", DELAYNODE, "--seeds", "0..1"):
        "ce838ce18bc7ed191b81852a58bb381ba274322c70c9efbdf58e6842c463962c",
    ("run", "--scenario", TWOHALVES, "--seeds", "0"):
        "9da618f47fbec42ac858310d47522f286f5e9668056fe6b898aadc2480841339",
    ("heal", "--scenario", TWOHALVES, "--seeds", "0", "--onpath", "0.3"):
        "cb7f10a4ba5d0398c7c23aba47403375c5389c49955535e82996fb7926c5290f",
    ("delay-node", "--scenario", DELAYNODE, "--seeds", "0", "--interception", "0,1"):
        "b23936afc3b17877671ca96fcb09498820624f94fc022b978536bf06f86ec169",
    ("multihoming-sweep", "--scenario", PAPERLIKE, "--seeds", "0", "--degrees", "1,3", "--coalition", "US"):
        "38d30e840d4ff618903888db3442dee13ce2b60d5d0e4d20187644002c6e61d6",
    ("plan-partition", "--scenario", PAPERLIKE, "--power", "0:1"):
        "688260dc3502e73530158198fbaf9dd1d7093486737ed8793f5bf785c7f17ffd",
}


def test_cli_artifacts_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setenv("BTCRS_THREADS", "1")
    changed = []
    for i, (argv, digest) in enumerate(PINNED_ARTIFACTS.items()):
        out = tmp_path / f"artifact{i}"
        assert run_cli(*argv, "--out", str(out)) == 0, argv
        if hashlib.sha256(out.read_bytes()).hexdigest() != digest:
            changed.append(" ".join(argv[:1] + argv[3:]))
    assert changed == []
