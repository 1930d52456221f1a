"""Scenario loading, execution records, and the dexsim command line."""

import json
import pathlib
import runpy
import shlex

import pytest

from dexsim import cli, cpmm, fa12, scenario
from dexsim.address import contract, user
from dexsim.chain import Call, Deploy, ExecOrder
from dexsim.checks import run_all_checks
from dexsim.cli import main
from dexsim.harness import CheckReport, ScenarioConfig, gen_trace
from dexsim.payload import parse
from dexsim.scenario import (
    ScenarioError,
    check_scenario,
    load_scenario,
    run_scenario,
)

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples"
WIRING = EXAMPLES / "wiring.json"
SCENARIO_GEN = EXAMPLES.parent.parent / "bench" / "scenario_gen.py"

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


def test_a_payload_text_parses_once_per_file_and_only_where_it_parses(monkeypatch):
    deploy = {"type": "deploy", "from": "alice", "name": "tok", "contract": "sink"}
    call = {"type": "call", "from": "alice", "to": "alice", "msg": "f({to: @tok})"}
    # Named before its deploy, the alias is unknown, whatever follows.
    with pytest.raises(ScenarioError, match=r"^block 0 action 0: unknown address '@tok' at offset"):
        load_scenario(minimal([[call], [deploy], [call]]))
    parsed = []
    monkeypatch.setattr(scenario, "parse", lambda text, aliases: parsed.append(text) or parse(text, aliases))
    sc = load_scenario(minimal([[deploy], [call, call], [call]]))
    msgs = [a.body.payload for block in sc.blocks[1:] for a in block]
    assert msgs == [parse("f({to: @c1})")] * 3
    assert parsed == ["unit", call["msg"]]


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
        json.dumps({"users": {"a": True}, "blocks": []}),
        json.dumps({"users": ["alice"], "blocks": []}),
        json.dumps({"users": {"a": 5}, "blocks": 5}),
        minimal([[{"type": "transfer", "from": "alice", "to": "alice", "amount": True}]]),
        minimal([[{"type": "call", "from": "alice", "to": "alice", "msg": "{a: 1, a: 2}"}]]),
        # A key the action type does not read, misspelled or misplaced.
        minimal([[{"type": "transfer", "from": "alice", "to": "alice", "amout": 5}]]),
        minimal([[{"type": "call", "from": "alice", "to": "alice", "mgs": "foo"}]]),
        minimal([[{"type": "transfer", "from": "alice", "to": "alice", "msg": "unit"}]]),
        minimal([[{"type": "deploy", "from": "alice", "name": "x", "contract": "sink",
                   "to": "alice"}]]),
        minimal([[{"type": ["call"], "from": "alice", "to": "alice"}]]),
    ],
)
def test_load_rejects_malformed_scenarios(text):
    with pytest.raises(ScenarioError):
        load_scenario(text)


BAD_VALUES = [None, True, -1, 10**40, "", "x", [], {}, [1], {"a": 1}]


def test_load_returns_or_refuses_any_value_at_any_key_of_the_wiring():
    # Any exception but ScenarioError escapes and fails the test.
    doc = json.loads(WIRING.read_text())
    for bi, block in enumerate(doc["blocks"]):
        for ai, action in enumerate(block):
            for key in sorted(scenario.ACTION_KEYS[action["type"]]):
                for value in BAD_VALUES:
                    bad = json.loads(json.dumps(doc))
                    bad["blocks"][bi][ai][key] = value
                    try:
                        load_scenario(json.dumps(bad))
                    except ScenarioError:
                        pass


def test_duplicate_deploy_name_rejected():
    block = [
        {"type": "deploy", "from": "alice", "name": "x", "contract": "sink"},
        {"type": "deploy", "from": "alice", "name": "x", "contract": "sink"},
    ]
    with pytest.raises(ScenarioError):
        load_scenario(minimal([block]))


@pytest.mark.parametrize("name", ["u1", "c1", "u0", "c12"])
def test_names_that_read_as_raw_addresses_are_rejected(name):
    # Otherwise ``@c1`` in a payload would name this user or deploy, not contract @c1.
    with pytest.raises(ScenarioError, match="reads as a raw address"):
        load_scenario(minimal([], users={"alice": 1, name: 1}))
    deploy = {"type": "deploy", "from": "alice", "name": name, "contract": "sink"}
    with pytest.raises(ScenarioError, match="reads as a raw address"):
        load_scenario(minimal([[deploy]]))
    for alike in (name + "x", "x" + name, name.upper()):
        assert load_scenario(minimal([], users={"alice": 1, alike: 1})).aliases[alike] == user(1)


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
    kinds = [json.loads(line)["event"] for line in result.records]
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


def test_checking_a_scenario_never_encodes_a_state():
    # ``dexsim run --check`` reads each exchange's wiring from the state its
    # payload holds, as the checkers do.
    sc = load_scenario(WIRING.read_text())
    result = run_scenario(sc, DFS)
    check_scenario(result, sc)
    states = [p for snap in result.snapshots for p in snap.state.states.values()]
    assert states
    assert not [p for p in states if "entries" in vars(p)]


def test_wiring_example_matches_frozen_trace(tmp_path):
    sc = load_scenario(WIRING.read_text())
    result = run_scenario(sc, DFS)
    frozen = (EXAMPLES / "wiring.trace.jsonl").read_text().splitlines()
    assert result.records == frozen


@pytest.mark.parametrize("order", list(ExecOrder))
def test_records_are_the_bytes_json_writes(order):
    # The benchmark's scenarios hold every record shape; their stale-deadline
    # blocks are rejected.
    generate = runpy.run_path(str(SCENARIO_GEN))["generate"]
    shapes = set()
    for seed in (0, 5, 13):
        for line in run_scenario(load_scenario(generate(seed)), order, keep_snapshots=False).records:
            record = json.loads(line)
            assert line == json.dumps(record, sort_keys=True)
            shapes.add((record["event"], record.get("payload", "") is None))
    assert shapes == {("deployed", False), ("tx", False), ("tx", True), ("rejected", False)}


def test_a_rejected_record_escapes_its_reason_as_json_does():
    reason = 'refused "a\\b"\n\tcaf\u00e9 \u2028 end'
    record = {"block": 7, "event": "rejected", "index": 2, "reason": reason}
    assert scenario.rejected_record(7, 2, reason) == json.dumps(record, sort_keys=True)


REJECTED_DEPLOY_BLOCKS = [
    # fa2 takes no tez, so ``init`` refuses this deploy and @c1 stays free.
    [{"type": "deploy", "from": "alice", "name": "tokA", "contract": "fa2", "amount": 5,
      "setup": "{ledger: {(@alice, 0): 10}}"}],
    [{"type": "deploy", "from": "alice", "name": "tokB", "contract": "fa2",
      "setup": "{ledger: {(@alice, 0): 10}}"}],
    [{"type": "call", "from": "alice", "to": "tokB",
      "msg": "transfer({from: @alice, to: @alice, tokenId: 0, value: 1})"}],
]


def test_deploy_committed_away_from_its_alias_is_an_error():
    sc = load_scenario(minimal(REJECTED_DEPLOY_BLOCKS))
    assert sc.aliases["tokB"] == contract(2)
    with pytest.raises(ScenarioError, match=r"block 1: deploy 'tokB' committed at @c1, .* @c2"):
        run_scenario(sc, DFS)


def test_rejected_deploy_without_a_later_deploy_runs():
    pay = [{"type": "transfer", "from": "alice", "to": "alice", "amount": 1}]
    result = run_scenario(load_scenario(minimal(REJECTED_DEPLOY_BLOCKS[:1] + [pay])), DFS)
    assert [json.loads(line)["event"] for line in result.records] == ["rejected", "tx"]


def test_unnamed_deploys_are_not_checked_against_aliases():
    # Deploys built in code carry no scenario name, so nothing binds them.
    deploy = load_scenario(minimal(REJECTED_DEPLOY_BLOCKS[:2])).blocks
    sc = load_scenario(minimal([]))
    sc.blocks = deploy
    assert run_scenario(sc, DFS).final_state.contracts.keys() == {contract(1)}


# -- command line -------------------------------------------------------------


def test_cli_run_ok(capsys):
    assert main(["run", "--scenario", str(WIRING), "--check"]) == 0
    out = capsys.readouterr()
    assert '"event": "tx"' in out.out
    assert "check tez_pool: pass" in out.err


def test_cli_run_check_reports_an_lqt_address_that_is_not_fa12(tmp_path, capsys):
    # main's liquidity token is the FA2 token: its state is no FA1.2 state.
    bad = tmp_path / "token_as_lqt.json"
    bad.write_text(WIRING.read_text().replace("addr: @lqt", "addr: @token"))
    assert main(["run", "--scenario", str(bad), "--check"]) == 2
    err = capsys.readouterr().err.splitlines()
    for name, message in (("lqt_condition", "undecodable lqt state"),
                          ("lqt_supply_direct", "undecodable state"),
                          ("lqt_supply_composed", "undecodable state")):
        at = err.index(f"check {name}: FAIL")
        assert err[at + 1].endswith(message), name


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


def _call(msg):
    return minimal([[{"type": "call", "from": "alice", "to": "alice", "msg": msg}]]).encode()


@pytest.mark.parametrize(
    "content, prefix",
    [
        (b"\xff\xfe{}", "error: "),
        (b"[" * 100_000 + b"]" * 100_000, "error: invalid JSON: "),
        (b'{"users": {"alice": 1' + b"0" * 5000 + b'}, "blocks": []}', "error: invalid JSON: "),
        (_call("[" * 5000 + "]" * 5000), "error: block 0 action 0: "),
        (_call("9" * 5000), "error: block 0 action 0: "),
    ],
    ids=["not-utf8", "json-too-deep", "json-int-too-long", "payload-too-deep", "payload-int-too-long"],
)
def test_cli_run_input_past_a_parser_limit_is_one_error_line(tmp_path, capsys, content, prefix):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["run", "--scenario", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith(prefix)


@pytest.mark.parametrize("ref", [[], {}], ids=["list", "object"])
def test_cli_run_a_contract_that_is_not_a_name_is_one_error_line(tmp_path, capsys, ref):
    bad = tmp_path / "bad.json"
    bad.write_text(minimal([[{"type": "deploy", "from": "alice", "name": "s", "contract": ref}]]))
    assert main(["run", "--scenario", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: block 0 action 0: unknown contract {ref!r}\n"


def test_cli_run_duplicate_map_key_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "dup.json"
    bad.write_text(minimal([[{"type": "call", "from": "alice", "to": "alice",
                              "msg": "{a: 1, a: 2}"}]]))
    assert main(["run", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: block 0 action 0: duplicate map key")


def test_cli_run_unknown_action_key_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "typo.json"
    bad.write_text(minimal([[{"type": "transfer", "from": "alice", "to": "alice", "amout": 5}]]))
    assert main(["run", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: block 0 action 0: unknown key(s) amout")


def test_cli_run_users_not_an_object_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "users.json"
    bad.write_text(json.dumps({"users": ["alice"], "blocks": []}))
    assert main(["run", "--scenario", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_run_deploy_away_from_its_alias_is_error(tmp_path, capsys):
    p = tmp_path / "shifted.json"
    p.write_text(minimal(REJECTED_DEPLOY_BLOCKS))
    out = tmp_path / "t.jsonl"
    assert main(["run", "--scenario", str(p), "--trace-out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: block 1: deploy 'tokB'") and "@c2" in err
    assert not out.exists()


def test_cli_run_contract_as_root_sender_is_parse_error(tmp_path, capsys):
    # The bad action is the block's second: the error names it, not action 0.
    bad = tmp_path / "from_contract.json"
    bad.write_text(minimal([[
        {"type": "deploy", "from": "alice", "name": "s", "contract": "sink"},
        {"type": "transfer", "from": "s", "to": "alice", "amount": 0},
    ]]))
    assert main(["run", "--scenario", str(bad)]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: block 0 action 1: 's' is not a user") and not out.out


def test_cli_run_fa2_setup_with_an_owner_for_a_key_is_a_rejected_deploy(tmp_path, capsys):
    # fa2's ``init`` reads a setup through its state codec: a key must be (owner, tokenId).
    p = tmp_path / "bad_setup.json"
    p.write_text(minimal([[{"type": "deploy", "from": "alice", "name": "t", "contract": "fa2",
                            "setup": "{ledger: {@alice: 5}}"}]]))
    assert main(["run", "--scenario", str(p)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records == [{"block": 0, "event": "rejected", "index": 0,
                        "reason": "contract init rejected the deployment"}]


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


@pytest.mark.parametrize("mutation", [*cpmm.MUTATIONS, *fa12.MUTATIONS])
def test_cli_fuzz_replay_lines_reproduce_failures(mutation, capsys):
    assert main(["fuzz", "--seed", "0", "--runs", "10", "--mutate", mutation]) == 2
    prefix = "  replay: dexsim "
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith(prefix)]
    assert lines
    for line in lines:
        assert main(shlex.split(line[len(prefix):])) == 2, line


@pytest.mark.parametrize("command", [["fuzz"], ["replay", "--prefix", "0"]], ids=["fuzz", "replay"])
def test_cli_fuzz_unknown_mutation_rejected(command, capsys):
    assert main([*command, "--mutate", "nope"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: unknown mutation 'nope'; known: default_no_credit, drop_min_tokens_guard,"
        " floor_tokens_deposited, keep_allowance, open_mint_or_burn\n"
    )


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


def test_cli_replay_negative_prefix_is_error(capsys):
    assert main(["replay", "--seed", "1", "--prefix", "-1", "--blocks", "2"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "--users", "0"],
        ["fuzz", "--runs", "-1"],
        ["fuzz", "--runs", "1", "--blocks", "-3"],
        ["replay", "--users", "0", "--prefix", "0"],
        ["replay", "--blocks", "-1", "--prefix", "0"],
    ],
)
def test_cli_out_of_range_sizes_are_errors(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --")


def test_cli_fuzz_zero_runs_is_not_an_error(capsys):
    assert main(["fuzz", "--runs", "0"]) == 0
    assert capsys.readouterr().out == "0 run(s), 0 failing\n"


def test_cli_replay_mutation_fails_with_exit_2(capsys):
    code = main(
        ["replay", "--seed", "0", "--prefix", "0", "--mutate", "default_no_credit"]
    )
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_replay_counts_violations_it_does_not_print(capsys):
    # Each per-snapshot report keeps all of its (at most two) messages.
    config = ScenarioConfig(seed=0, blocks=10, mutation="default_no_credit")
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


def test_cli_seed_defaults_to_0_whatever_the_environment(monkeypatch):
    from dexsim.cli import build_parser

    # No environment variable picks the seed: the replay line names it.
    monkeypatch.setenv("SIM_SEED", "7")
    assert build_parser().parse_args(["fuzz"]).seed == 0
    assert build_parser().parse_args(["replay", "--prefix", "0"]).seed == 0


def test_cli_help_keeps_the_usage_synopsis():
    from dexsim.cli import build_parser

    lines = build_parser().format_help().splitlines()
    assert "    dexsim run    --scenario FILE [--order dfs|bfs] [--trace-out FILE]" in lines
