import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys

import pytest

import rmwreg
from rmwreg import kv
from rmwreg.cli import check_result, default_scripts, load_scripts, main
from rmwreg.core import Config, Mode
from rmwreg.messages import ReqKind, Status
from rmwreg.sim import (PROPOSER_BASE, ClientScript, OpSpec, SimConfig, run_workload,
                        trace_to_jsonl)


def test_fuzz_clean_campaign_exits_zero(capsys):
    rc = main(["fuzz", "--mode", "sequence", "--seeds", "0:20",
               "--no-fifo", "--drop", "0.1", "--dup", "0.05"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "20 seeds, 0 with violations" in out


def test_fuzz_single_seed_spelling(capsys):
    rc = main(["fuzz", "--mode", "rmw", "--seeds", "7"])
    assert rc == 0
    assert "1 seeds" in capsys.readouterr().out


def test_fuzz_mutation_fails_and_writes_artifacts(tmp_path, capsys):
    trace = tmp_path / "cex.jsonl"
    report = tmp_path / "report.json"
    rc = main(["fuzz", "--mode", "sequence", "--seeds", "0:30",
               "--mutate", "vote_below_promise", "--no-fifo", "--drop", "0.1",
               "--trace-out", str(trace), "--report", str(report)])
    assert rc == 1
    rec = json.loads(report.read_text())
    assert rec["mutations"] == ["vote_below_promise"]
    assert rec["seeds"] == [0, 30]
    bad = [s for s, v in rec["verdicts"].items() if v != "ok"]
    assert bad
    assert rec["first_counterexample"] == str(trace)
    assert trace.exists()

    # the saved counterexample replays cleanly
    rc = main(["replay", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "send" in out and "acceptor" in out


def test_fuzz_report_on_clean_run(tmp_path):
    report = tmp_path / "r.json"
    rc = main(["fuzz", "--mode", "write-once", "--seeds", "0:5",
               "--crashes", "1", "--report", str(report)])
    assert rc == 0
    rec = json.loads(report.read_text())
    assert all(v == "ok" for v in rec["verdicts"].values())
    assert rec["first_counterexample"] is None
    assert rec["fault_profile"]["crashes"] == 1


def test_fuzz_with_script_file(tmp_path, capsys):
    script = tmp_path / "w.json"
    script.write_text(json.dumps({
        "clients": [
            {"client": 0, "ops": [{"op": "set", "value": 1},
                                  {"op": "add", "delta": 2},
                                  {"op": "read"}]},
            {"client": 1, "ops": [{"op": "read"}], "start_tick": 40},
        ],
        "crash_plan": [[10, 0, "crash"], [80, 0, "recover"]],
    }))
    rc = main(["fuzz", "--mode", "rmw", "--seeds", "0:10", "--script", str(script)])
    assert rc == 0
    assert "0 with violations" in capsys.readouterr().out


def test_fuzz_script_append_ops_are_checked(tmp_path, capsys):
    """Scripted appends write unique tokens, so the sequence checker runs:
    clean on RMW, and it catches a lost update under a mutation."""
    script = tmp_path / "w.json"
    script.write_text(json.dumps({"clients": [
        {"client": c, "ops": [{"op": "append"}, {"op": "read"}]} for c in range(2)]}))
    assert main(["fuzz", "--mode", "rmw", "--seeds", "0:5", "--script", str(script)]) == 0
    assert "5 seeds, 0 with violations" in capsys.readouterr().out
    report = tmp_path / "report.json"
    rc = main(["fuzz", "--mode", "sequence", "--seeds", "0:20", "--no-fifo", "--drop", "0.1",
               "--mutate", "vote_below_promise", "--script", str(script),
               "--report", str(report)])
    assert rc == 1
    verdicts = json.loads(report.read_text())["verdicts"].values()
    assert any(v.startswith("CS-Update-Visibility") for found in verdicts if found != "ok"
               for v in found)


def test_fuzz_script_mixes_kv_commands(tmp_path, capsys):
    """Every kv command is scriptable by its field names: a set, a cas on
    its value and a read run clean in RMW mode, and the read sees the cas."""
    script = tmp_path / "w.json"
    script.write_text(json.dumps({"clients": [{"client": 0, "ops": [
        {"op": "set", "value": 1}, {"op": "cas", "expect": 1, "new": 2}, {"op": "read"}]}]}))
    rc = main(["fuzz", "--mode", "rmw", "--seeds", "0:3", "--script", str(script)])
    assert rc == 0
    assert "3 seeds, 0 with violations, 0 out of steps" in capsys.readouterr().out
    scripts, crash_plan = load_scripts(str(script))
    assert scripts[0].ops[1].cmd == kv.CasCmd(1, 2)
    res = run_workload(Config(n_acceptors=3, register_mode=Mode.RMW),
                       SimConfig(seed=0, crash_plan=crash_plan), scripts)
    assert [(e.status, e.value) for e in res.histories[b"r"] if e.kind == "respond"] == [
        (Status.DONE, kv.to_payload(1)), (Status.DONE, kv.to_payload(2)),
        (Status.DONE, kv.to_payload(2))]


def test_fuzz_script_appends_beside_other_commands_on_one_key(tmp_path, capsys):
    """A key whose writes are not all appends holds values that are no
    append log, so the sequence checkers skip it; the run is clean."""
    script = tmp_path / "w.json"
    script.write_text(json.dumps({"clients": [{"client": 0, "ops": [
        {"op": "set", "value": 1}, {"op": "cas", "expect": 1, "new": 2}, {"op": "append"},
        {"op": "read"}]}]}))
    rc = main(["fuzz", "--mode", "rmw", "--seeds", "0:5", "--script", str(script)])
    assert "5 seeds, 0 with violations, 0 out of steps" in capsys.readouterr().out
    assert rc == 0


@pytest.mark.parametrize("mode", [Mode.SEQUENCE, Mode.RMW])
def test_corrupted_read_of_an_append_key_is_flagged(mode):
    """On a key whose every write is a tokened append the sequence checkers
    still run: a read answered with a value that is no append log is
    flagged."""
    scripts = [ClientScript(client=c, proposer=PROPOSER_BASE + c,
                            ops=(OpSpec(ReqKind.WRITE, make_cmd=kv.append_token),
                                 OpSpec(ReqKind.READ))) for c in range(2)]
    res = run_workload(Config(n_acceptors=3, register_mode=mode), SimConfig(seed=0), scripts)
    assert check_result(mode, res, 3).ok
    history = res.history()
    i = next(i for i, e in enumerate(history) if e.kind == "respond" and e.op is ReqKind.READ)
    history[i] = dataclasses.replace(history[i], value=kv.to_payload(2))
    assert {v.prop for v in check_result(mode, res, 3).violations} == {"NotCheckable"}


def test_fuzz_seed_out_of_steps_is_not_clean(tmp_path, capsys):
    """A seed cut by --max-steps was checked on a prefix only: it is
    counted, listed in the report, and fails the campaign."""
    report = tmp_path / "r.json"
    rc = main(["fuzz", "--mode", "sequence", "--seeds", "0:2", "--max-steps", "5",
               "--report", str(report)])
    assert rc == 1
    assert "2 seeds, 0 with violations, 2 out of steps" in capsys.readouterr().out
    assert json.loads(report.read_text())["out_of_steps"] == [0, 1]


def test_replay_renders_duplicates_crashes_and_recoveries(tmp_path, capsys):
    from rmwreg.cli import default_scripts
    from rmwreg.trace import write_trace
    sim = SimConfig(seed=3, fifo=False, drop=0.1, dup=0.3,
                    crash_plan=((10, 0, "crash"), (60, 0, "recover")))
    res = run_workload(Config(n_acceptors=3, register_mode=Mode.SEQUENCE), sim,
                       default_scripts(Mode.SEQUENCE, n_clients=2))
    path = tmp_path / "t.jsonl"
    with path.open("wb") as fp:
        write_trace(res.trace, fp)
    assert main(["replay", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.endswith("] crash 0") for line in lines)
    assert any(line.endswith("] recover 0") for line in lines)
    assert any("] dup     #" in line for line in lines)


def test_replay_renders_full_run(tmp_path, capsys):
    from rmwreg.cli import default_scripts
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    res = run_workload(cfg, SimConfig(seed=3, fifo=True),
                       default_scripts(Mode.RMW, n_clients=2))
    path = tmp_path / "t.jsonl"
    path.write_bytes(trace_to_jsonl(res.trace))
    rc = main(["replay", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "invoke op 0" in out
    assert "deliver" in out
    assert "DONE" in out
    # state snapshots show promise, value, voted round per acceptor
    assert "acceptor 0" in out and "acceptor 2" in out


def test_replay_corrupt_trace_reports_offset(tmp_path, capsys):
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    from rmwreg.cli import default_scripts
    res = run_workload(cfg, SimConfig(seed=3, fifo=True),
                       default_scripts(Mode.RMW, n_clients=1))
    data = trace_to_jsonl(res.trace)
    cut = len(data) // 2
    broken = data[:cut] + b"garbage\n" + data[cut:]
    path = tmp_path / "bad.jsonl"
    path.write_bytes(broken)
    rc = main(["replay", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot read trace" in err
    assert "offset" in err


BAD_RECORDS = (
    b'{"depth":0,"dst":0,"idx":0,"kind":"send","msg":"ff","src":1000,"tick":0}',
    b"[1,2]",
    b'{"kind":"deliver","send_idx":[1],"tick":0}',
)


@pytest.mark.parametrize("bad_line, sep", [
    *(pytest.param(bad, b"\n", id=bad.decode()) for bad in BAD_RECORDS),
    *(pytest.param(bad, b"\r\n", id=bad.decode() + "-crlf") for bad in BAD_RECORDS),
])
def test_replay_malformed_record_reports_offset(tmp_path, capsys, bad_line, sep):
    from rmwreg.cli import default_scripts
    res = run_workload(Config(n_acceptors=3, register_mode=Mode.RMW),
                       SimConfig(seed=3, fifo=True), default_scripts(Mode.RMW, n_clients=1))
    data = trace_to_jsonl(res.trace).replace(b"\n", sep)
    cut = data.index(sep, len(data) // 2) + len(sep)
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data[:cut] + bad_line + sep + data[cut:])
    rc = main(["replay", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"cannot read trace: corrupt trace at byte offset {cut}:" in err


def test_replay_missing_file(tmp_path, capsys):
    rc = main(["replay", str(tmp_path / "nope.jsonl")])
    assert rc == 2


def test_unknown_scripted_op_rejected(tmp_path, capsys):
    script = tmp_path / "w.json"
    script.write_text(json.dumps(
        {"clients": [{"client": 0, "ops": [{"op": "explode"}]}]}))
    assert main(["fuzz", "--seeds", "0:1", "--script", str(script)]) == 2
    out, err = capsys.readouterr()
    assert err == "error: unknown scripted op 'explode'\n"
    assert out == ""


MISSING = "missing"  # as `script`: --script names a file that does not exist


@pytest.mark.parametrize("argv, script, message", [
    pytest.param(["--delay", "0"], None, "max_delay must be at least 1 tick", id="delay-0"),
    pytest.param(["--crashes", "5", "--replicas", "3"], None,
                 "max_crashes must be between 0 and n_acceptors (3), got 5",
                 id="more-crashes-than-replicas"),
    pytest.param(["--crashes", "-1"], None, "max_crashes must be between 0",
                 id="negative-crashes"),
    pytest.param(["--replicas", "0"], None, "need at least one acceptor", id="replicas-0"),
    pytest.param(["--retries", "-1"], None, "read retry limit must be non-negative",
                 id="retries-negative"),
    pytest.param(["--batch-interval", "-1"], None, "batch interval must be non-negative",
                 id="batch-interval-negative"),
    pytest.param(["--mode", "rmw", "--no-fifo"], None, "RMW mode requires reliable FIFO links",
                 id="rmw-without-fifo"),
    pytest.param(["--mode", "sequence", "--no-fifo", "--drop", "1.5"], None,
                 "drop must be a probability in [0, 1], got 1.5", id="drop-above-1"),
    pytest.param(["--mode", "sequence", "--no-fifo", "--dup", "-0.1"], None,
                 "dup must be a probability in [0, 1], got -0.1", id="dup-below-0"),
    pytest.param(["--mode", "sequence", "--drop", "0.9"], None,
                 "FIFO links neither lose nor duplicate, got drop=0.9", id="fifo-with-drop"),
    pytest.param(["--max-steps", "0"], None, "--max-steps must be at least 1, got 0",
                 id="max-steps-0"),
    pytest.param([], MISSING, "No such file or directory", id="script-missing"),
    pytest.param([], {"crash_plan": []}, "missing field 'clients'",
                 id="script-without-clients"),
    pytest.param([], {"clients": [{"client": 0, "ops": [], "loop_until": 50}]},
                 "client 0 loops until tick 50 over an empty op list",
                 id="script-empty-looping-client"),
    pytest.param([], {"clients": [{"client": 0, "ops": [{"op": "read"}]}],
                      "crash_plan": [[5, 0, "explode"]]},
                 "crash plan action must be 'crash' or 'recover', got 'explode'",
                 id="script-unknown-crash-action"),
    pytest.param([], {"clients": [{"client": 0, "ops": [{"op": "read"}]},
                                  {"client": 0, "proposer": 1, "ops": [{"op": "read"}]}]},
                 "client 0 has two scripts", id="script-client-twice"),
    pytest.param([], "not json{", "not JSON: Expecting value", id="script-not-json"),
    pytest.param([], {"clients": 5}, "malformed: 'int' object is not iterable",
                 id="script-clients-not-a-list"),
    pytest.param([], {"clients": [{"client": 0, "ops": [{"op": "read"}]}],
                      "crash_plan": [["x", 0, "crash"]]},
                 "crash plan tick must be an int, got 'x'", id="script-crash-tick-not-int"),
    pytest.param([], {"clients": [{"client": 0, "ops": [{"op": "read"}], "start_tick": "5"}]},
                 "client 0's start_tick and think must be ints, got '5' and 0",
                 id="script-start-tick-not-int"),
    pytest.param([], {"clients": [{"client": 0, "ops": [{"op": "read"}] * 2, "think": -30}]},
                 "client 0's think must be non-negative, got -30", id="script-negative-think"),
    pytest.param([], {"clients": [{"client": 0, "ops": [{"op": "read"}], "proposer": -1000}]},
                 "client 0's proposer pid 0 is not an int above the acceptor pids 0..2",
                 id="script-proposer-is-an-acceptor"),
])
def test_bad_fuzz_input_exits_2_before_any_seed(tmp_path, capsys, argv, script, message):
    if script is not None:
        path = tmp_path / "w.json"
        if script != MISSING:  # a str is written as it is, anything else as JSON
            path.write_text(script if isinstance(script, str) else json.dumps(script))
        argv = [*argv, "--script", str(path)]
    try:
        rc = main(["fuzz", "--seeds", "0:2", *argv])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""  # no seed ran
    [line] = err.splitlines()
    assert line.startswith("error: ") and message in line


def test_mode_flag_validated(capsys):
    with pytest.raises(SystemExit):
        main(["fuzz", "--mode", "bogus"])


@pytest.mark.parametrize("seeds", ["5:3", "0:0"])
def test_fuzz_empty_seed_range_rejected(capsys, seeds):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--seeds", seeds])
    assert exc.value.code == 2
    assert "empty seed range" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["client", "--replicas", "127.0.0.1:1", "add"],
                 "add expects 1 argument", id="missing-operand"),
    pytest.param(["client", "--replicas", "127.0.0.1:1", "set", "notjson"],
                 "Expecting value", id="operand-not-json"),
    pytest.param(["client", "--replicas", "127.0.0.1:1", "--connect", "5", "get"],
                 "--connect 5 is not a replica index", id="connect-out-of-range"),
    pytest.param(["client", "--replicas", "127.0.0.1:1", "--retries", "-1", "get"],
                 "--retries must be at least 0, got -1", id="client-retries-negative"),
    pytest.param(["serve", "--replicas", "127.0.0.1:1", "--index", "1"],
                 "replica index 1 is outside a group of 1", id="serve-index-out-of-range"),
    pytest.param(["client", "--replicas", "foo", "get", "k"],
                 "'foo' is not host:port", id="replicas-without-port"),
    pytest.param(["serve", "--replicas", "127.0.0.1:x", "--index", "0"],
                 "port 'x' is not an integer", id="replicas-port-not-integer"),
    pytest.param(["serve", "--replicas", "127.0.0.1:99999", "--index", "0"],
                 "port 99999 in '127.0.0.1:99999' is outside 1-65535",
                 id="replicas-port-out-of-range"),
])
def test_bad_serve_and_client_input_exits_2(capsys, argv, message):
    # Bad input is reported before any socket is opened.
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--retries", "-1"], "read retry limit must be non-negative",
                 id="retries-negative"),
    pytest.param(["--batch-interval", "-1"], "batch interval must be non-negative",
                 id="batch-interval-negative"),
])
def test_bad_serve_config_is_one_error_line(capsys, argv, message):
    rc = main(["serve", "--replicas", "127.0.0.1:1", "--index", "0", *argv])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""  # no replica started
    assert err.splitlines() == [f"error: {message}"]


def test_serve_on_a_port_in_use_is_one_error_line(capsys):
    with socket.create_server(("127.0.0.1", 0)) as held:
        port = held.getsockname()[1]
        rc = main(["serve", "--replicas", f"127.0.0.1:{port}", "--index", "0"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""  # no replica started
    [line] = err.splitlines()
    assert line.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")


def test_client_reports_a_command_the_replica_could_not_apply(capsys):
    from test_net import free_addresses, start_group

    addrs = free_addresses(3)
    replicas = start_group(addrs)
    client = ["client", "--replicas", ",".join(f"{h}:{p}" for h, p in addrs)]
    try:
        assert main(client + ["set", '"abc"']) == 0
        assert main(client + ["add", "1"]) == 1
        assert "error: add requires a numeric register" in capsys.readouterr().err
        assert main(client + ["get"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == '"abc"'
    finally:
        for r in replicas:
            r.stop()


def test_serve_processes_form_a_group(capsys):
    # The deployment `serve` gives: one replica, and so one loop, per process.
    from test_net import free_addresses

    addrs = free_addresses(3)
    group = ",".join(f"{h}:{p}" for h, p in addrs)
    src = os.path.dirname(os.path.dirname(rmwreg.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    servers = [subprocess.Popen(
        [sys.executable, "-m", "rmwreg.cli", "serve", "--replicas", group, "--index", str(i)],
        stdout=subprocess.PIPE, text=True, env=env) for i in range(3)]
    try:
        for i, server in enumerate(servers):
            assert server.stdout.readline().startswith(f"replica {i} listening on ")
        client = ["client", "--replicas", group, "--connect"]
        assert main(client + ["0", "set", "41"]) == 0
        assert main(client + ["1", "add", "1"]) == 0
        assert main(client + ["2", "get"]) == 0
        assert capsys.readouterr().out.splitlines() == ["done 41", "done 42", "42"]
    finally:
        for server in servers:
            server.send_signal(signal.SIGINT)
        try:
            codes = [server.wait(5) for server in servers]
        finally:
            for server in servers:
                server.kill()  # only one still running after its 5 s
                server.wait()
                server.stdout.close()
    assert codes == [0, 0, 0]


def test_long_write_once_history_is_checked():
    """Eight writers make a 24-op write-once history; it is checked in full
    and passes."""
    res = run_workload(Config(n_acceptors=3, register_mode=Mode.WRITE_ONCE),
                       SimConfig(seed=0), default_scripts(Mode.WRITE_ONCE, 8))
    assert [e.kind for e in res.history()].count("respond") == 24
    verdict = check_result(Mode.WRITE_ONCE, res, 3)
    assert verdict.ok, verdict.violations


def test_fuzz_long_write_once_script_exits_zero(tmp_path, capsys):
    script = tmp_path / "w.json"
    script.write_text(json.dumps({"clients": [
        {"client": c, "ops": [{"op": "read"}, {"op": "set", "value": c}, {"op": "read"}]}
        for c in range(5)]}))
    rc = main(["fuzz", "--mode", "write-once", "--seeds", "0:3", "--script", str(script)])
    assert "3 seeds, 0 with violations" in capsys.readouterr().out
    assert rc == 0
