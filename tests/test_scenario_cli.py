"""Scenario loading, execution records, and the dexsim command line."""

import json
import pathlib
import shlex

import pytest

from dexsim import cli, cpmm, fa12
from dexsim.address import contract, user
from dexsim.chain import Call, Deploy, ExecOrder
from dexsim.checks import run_all_checks
from dexsim.cli import main
from dexsim.harness import CheckReport, ScenarioConfig, gen_trace
from dexsim.scenario import (
    ScenarioError,
    check_scenario,
    load_scenario,
    run_scenario,
)

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples"
WIRING = EXAMPLES / "wiring.json"

DFS = ExecOrder.DEPTH_FIRST


def minimal(blocks, users=None):
    return json.dumps({"users": users or {"alice": 1000}, "blocks": blocks})


# -- loading ------------------------------------------------------------------


def test_load_assigns_user_and_deploy_aliases():
    text = minimal(
        [[{"type": "deploy", "from": "alice", "name": "t", "contract": "fa2",
           "setup": "{ledger: {(@alice, 0): 5}}"},
          {"type": "call", "from": "alice", "to": "t",
           "msg": "transfer({from: @alice, to: @t, tokenId: 0, value: 1})"}]],
        users={"alice": 1000, "bob": 7},
    )
    sc = load_scenario(text)
    assert sc.aliases["alice"] == user(0)
    assert sc.aliases["bob"] == user(1)
    assert sc.aliases["t"] == contract(1)
    assert sc.users == [(user(0), 1000), (user(1), 7)]
    deploy, call = sc.blocks[0]
    assert isinstance(deploy.body, Deploy)
    assert isinstance(call.body, Call) and call.body.to == contract(1)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        json.dumps({"users": {}}),
        minimal([[{"type": "warp", "from": "alice"}]]),
        minimal([[{"type": "transfer", "from": "nobody", "to": "alice", "amount": 1}]]),
        minimal([[{"type": "transfer", "from": "alice", "to": "alice", "amount": -1}]]),
        minimal([[{"type": "deploy", "from": "alice", "contract": "fa2"}]]),
        minimal([[{"type": "deploy", "from": "alice", "name": "x", "contract": "nope"}]]),
        minimal([[{"type": "call", "from": "alice", "to": "alice", "msg": "(1,"}]]),
        json.dumps({"users": {"a": -5}, "blocks": []}),
    ],
)
def test_load_rejects_malformed_scenarios(text):
    with pytest.raises(ScenarioError):
        load_scenario(text)


def test_duplicate_deploy_name_rejected():
    block = [
        {"type": "deploy", "from": "alice", "name": "x", "contract": "sink"},
        {"type": "deploy", "from": "alice", "name": "x", "contract": "sink"},
    ]
    with pytest.raises(ScenarioError):
        load_scenario(minimal([block]))


# -- execution ----------------------------------------------------------------


def test_run_scenario_records_and_rejections():
    text = minimal(
        [
            [{"type": "transfer", "from": "alice", "to": "bob", "amount": 100}],
            [{"type": "transfer", "from": "alice", "to": "bob", "amount": 10**9}],
        ],
        users={"alice": 1000, "bob": 0},
    )
    result = run_scenario(load_scenario(text), DFS)
    assert result.rejected_blocks == 1
    kinds = [r["event"] for r in result.records]
    assert kinds == ["tx", "rejected"]
    assert result.final_state.balance(user(1)) == 100
    # The rejected block left no snapshots behind.
    assert {s.block for s in result.snapshots} == {0}


def test_wiring_example_checks_clean():
    sc = load_scenario(WIRING.read_text())
    result = run_scenario(sc, DFS)
    assert result.rejected_blocks == 0
    from dexsim.checks import summarize

    summary = summarize(check_scenario(result, sc))
    assert summary, "no exchange found to check"
    assert all(r.passed for r in summary.values())


def test_wiring_example_matches_frozen_trace(tmp_path):
    sc = load_scenario(WIRING.read_text())
    result = run_scenario(sc, DFS)
    got = [json.dumps(r, sort_keys=True) for r in result.records]
    frozen = (EXAMPLES / "wiring.trace.jsonl").read_text().splitlines()
    assert got == frozen


# -- command line -------------------------------------------------------------


def test_cli_run_ok(capsys):
    assert main(["run", "--scenario", str(WIRING), "--check"]) == 0
    out = capsys.readouterr()
    assert '"event": "tx"' in out.out
    assert "check tez_pool: pass" in out.err


def test_cli_run_trace_out(tmp_path, capsys):
    out_file = tmp_path / "t.jsonl"
    assert main(["run", "--scenario", str(WIRING), "--trace-out", str(out_file)]) == 0
    frozen = (EXAMPLES / "wiring.trace.jsonl").read_text()
    assert out_file.read_text() == frozen


def test_cli_run_without_check_keeps_no_snapshots_and_writes_the_same_trace(tmp_path, capsys):
    plain, checked = tmp_path / "plain.jsonl", tmp_path / "checked.jsonl"
    assert main(["run", "--scenario", str(WIRING), "--trace-out", str(plain)]) == 0
    assert main(["run", "--scenario", str(WIRING), "--trace-out", str(checked), "--check"]) == 0
    assert plain.read_bytes() == checked.read_bytes()

    sc = load_scenario(WIRING.read_text())
    kept, bare = run_scenario(sc, DFS), run_scenario(sc, DFS, keep_snapshots=False)
    assert kept.snapshots and not bare.snapshots
    assert bare.records == kept.records


def test_cli_run_missing_file_is_io_error(capsys):
    assert main(["run", "--scenario", "/nonexistent.json"]) == 1


def test_cli_run_malformed_file_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["run", "--scenario", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_run_strict_blocks_flags_rejections(tmp_path, capsys):
    doc = minimal(
        [[{"type": "transfer", "from": "alice", "to": "alice", "amount": 10**9}]]
    )
    p = tmp_path / "r.json"
    p.write_text(doc)
    assert main(["run", "--scenario", str(p)]) == 0
    assert main(["run", "--scenario", str(p), "--strict-blocks"]) == 2


def test_cli_fuzz_clean_and_deterministic(capsys):
    assert main(["fuzz", "--seed", "3", "--runs", "2", "--blocks", "6"]) == 0
    first = capsys.readouterr().out
    assert "2 run(s), 0 failing" in first
    assert main(["fuzz", "--seed", "3", "--runs", "2", "--blocks", "6"]) == 0
    assert capsys.readouterr().out == first


def test_cli_fuzz_mutation_fails_with_exit_2(capsys):
    code = main(
        ["fuzz", "--seed", "0", "--runs", "8", "--blocks", "10",
         "--mutate", "default_no_credit"]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "replay:" in out


@pytest.mark.parametrize("mutation", cpmm.MUTATIONS + fa12.MUTATIONS)
def test_cli_fuzz_replay_lines_reproduce_failures(mutation, capsys):
    assert main(["fuzz", "--seed", "0", "--runs", "10", "--mutate", mutation]) == 2
    prefix = "  replay: dexsim "
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith(prefix)]
    assert lines
    for line in lines:
        assert main(shlex.split(line[len(prefix):])) == 2, line


def test_cli_fuzz_unknown_mutation_rejected():
    with pytest.raises(SystemExit):
        main(["fuzz", "--mutate", "nope"])


def test_cli_replay_whole_trace(capsys):
    assert main(["replay", "--seed", "1", "--prefix", "0", "--blocks", "6"]) == 0
    out = capsys.readouterr().out
    assert "block 0 step 0: deploy" in out


def test_cli_replay_prefix_limits_output(capsys):
    assert main(["replay", "--seed", "1", "--prefix", "2", "--blocks", "6"]) == 0
    out = capsys.readouterr().out
    assert len([l for l in out.splitlines() if l.startswith("block ")]) == 2


def test_cli_replay_prefix_beyond_trace_is_error(capsys):
    assert main(["replay", "--seed", "1", "--prefix", "99999"]) == 1


def test_cli_replay_mutation_fails_with_exit_2(capsys):
    code = main(
        ["replay", "--seed", "0", "--prefix", "0", "--mutate", "default_no_credit"]
    )
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_replay_counts_violations_it_does_not_print(capsys):
    # Each per-snapshot report keeps all of its (at most two) messages.
    config = ScenarioConfig(seed=0, blocks=10, cpmm_mutation="default_no_credit")
    found = sum(len(r.violations) for r in run_all_checks(gen_trace(config)) if r.name == "tez_pool")
    assert found > 10
    assert main(["replay", "--seed", "0", "--prefix", "0", "--mutate", "default_no_credit"]) == 2
    out = capsys.readouterr().out.splitlines()
    at = out.index("check tez_pool: FAIL")
    assert all(line.startswith("  block ") for line in out[at + 1 : at + 11])
    assert out[at + 11] == f"  … {found - 10} more"


def test_cli_run_check_counts_violations_it_does_not_print(monkeypatch, capsys):
    report = CheckReport("tez_pool", False, [f"v{i}" for i in range(10)], 25)
    monkeypatch.setattr(cli, "check_scenario", lambda result, scenario: [report])
    assert main(["run", "--scenario", str(WIRING), "--check"]) == 2
    assert capsys.readouterr().err.splitlines()[-2:] == ["  v9", "  … 15 more"]


def test_cli_seed_env_default(monkeypatch):
    from dexsim.cli import _default_seed, build_parser

    monkeypatch.setenv("SIM_SEED", "17")
    args = build_parser().parse_args(["fuzz"])
    assert args.seed == 17
    assert _default_seed() == 17
    monkeypatch.setenv("SIM_SEED", "junk")
    assert _default_seed() == 0
