#!/bin/sh
# The CI serving smoke: boots a real mbsp_serve daemon on an ephemeral port,
# checks that a `random` family too wide to generate is refused with a typed
# frame, drives a scripted client session (register / schedule with streamed
# incumbents and the schedule embedded / an instance whose costs overflow /
# mutate / graceful shutdown), then restarts the daemon on the same state
# directory and asserts the checkpointed session restored — the pending set
# survived, an edge closing a cycle through the restored DAG is refused and a
# repair completes. Before each shutdown the daemon `status` must report no
# running session: an idle instance holds no thread. After the restart the
# state directory must hold one instance file per registered instance and no registry.
# Python's `json` reads every frame, so the daemon's frame writer is checked by an
# independent parser. Exits non-zero on any failed step. Run via `make serve-smoke`.
set -eu

cargo build --release -q -p mbsp_serve

STATE=$(mktemp -d)
BIN=target/release/mbsp_serve
trap 'kill $DAEMON_PID 2>/dev/null || true; rm -rf "$STATE"' EXIT

# One `{name}.session.mbio` per registered instance (`smoke`, `overflow`),
# and no `registry.mbio`: each instance's state is its own file.
check_state_dir() {
    files=$(cd "$STATE" && ls -- *.session.mbio | tr '\n' ' ')
    [ "$files" = "overflow.session.mbio smoke.session.mbio " ] ||
        { echo "serve_smoke: state dir holds [$files]" >&2; exit 1; }
    [ ! -e "$STATE/registry.mbio" ] ||
        { echo "serve_smoke: state dir holds a registry.mbio" >&2; exit 1; }
}

wait_addr() {
    i=0
    while [ ! -s "$STATE/addr" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "serve_smoke: daemon never bound" >&2; exit 1; }
        sleep 0.1
    done
}

"$BIN" --listen 127.0.0.1:0 --state-dir "$STATE" --addr-file "$STATE/addr" &
DAEMON_PID=$!
wait_addr

python3 - "$(cat "$STATE/addr")" "$STATE/pending" <<'EOF'
import json, socket, sys, time

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=60)
rfile = sock.makefile("r")

def send(obj):
    sock.sendall((json.dumps(obj) + "\n").encode())

def recv():
    frame = json.loads(rfile.readline())
    print("<<", json.dumps(frame))
    return frame

def recv_done():
    while True:
        frame = recv()
        if frame.get("event") == "done":
            return frame

def assert_no_session_runs():
    # An idle instance holds no drain thread. A thread puts its session back
    # just after its last frame, so the count may lag the reply briefly.
    for _ in range(100):
        send({"op": "status"})
        frame = recv()
        if frame["running_sessions"] == 0:
            assert frame["queued_jobs"] == 0, frame
            return
        time.sleep(0.05)
    raise AssertionError("an idle instance still holds a drain thread")

def check_schedule(schedule):
    # The embedded schedule, read by a parser that shares no code with the
    # daemon's writer: 4 processors, each with its four phase lists in every
    # superstep, and no node computed twice.
    assert schedule["processors"] == 4, schedule["processors"]
    computed = []
    for step in schedule["supersteps"]:
        assert len(step["procs"]) == 4, step
        for phases in step["procs"]:
            assert sorted(phases) == ["compute", "delete", "load", "save"], phases
            computed += [op["Compute"] for op in phases["compute"] if "Compute" in op]
    assert computed and len(computed) == len(set(computed)), "a node computed twice"

# A `random` family inside the node cap whose (layers - 1) * width^2 edge
# trials are not: refused with a typed frame before anything is generated,
# well within the socket timeout, and the name stays free.
send({"id": 0, "op": "register", "instance": "wide",
      "family": {"kind": "random", "layers": 2, "width": 20000,
                 "edge_probability": 0.0},
      "processors": 2})
frame = recv()
assert not frame["ok"] and frame["error"]["code"] == "bad_request", frame

send({"id": 1, "op": "register", "instance": "smoke",
      "family": {"kind": "cg", "n": 4, "k": 2},
      "processors": 4, "cache_factor": 3.0,
      "num_shards": 4, "seed": 11, "max_rounds": 5,
      "moves_per_round": 6, "iterations": 1})
assert recv()["event"] == "registered", "register failed"

send({"id": 2, "op": "schedule", "instance": "smoke", "stream": True,
      "return_schedule": True})
done = recv_done()
assert done["ok"] and done["stop_reason"] == "completed", done
check_schedule(done["schedule"])

# A finite `g` whose costs overflow: the `done` frame still comes, with
# `"cost": null`.
send({"id": 6, "op": "register", "instance": "overflow",
      "family": {"kind": "cg", "n": 4, "k": 2},
      "processors": 4, "g": 1e308, "num_shards": 4, "seed": 11,
      "max_rounds": 5, "moves_per_round": 6, "iterations": 1})
assert recv()["event"] == "registered", "register failed"
send({"id": 7, "op": "schedule", "instance": "overflow", "stream": False})
done = recv_done()
assert done["ok"] and done["cost"] is None, done

send({"id": 3, "op": "mutate", "instance": "smoke", "deltas": [
    {"add_node": {"compute": 2.0, "memory": 1.0}},
    {"add_edge": {"from": 0, "to": 252}}]})
done = recv_done()
assert done["ok"] and done["applied"] == 2, done

send({"id": 4, "op": "status", "instance": "smoke"})
while True:
    frame = recv()
    if frame.get("event") == "status" and "pending" in frame:
        with open(sys.argv[2], "w") as f:
            f.write(str(frame["pending"]))
        break

assert_no_session_runs()
send({"id": 5, "op": "shutdown"})
assert recv()["event"] == "shutting_down"
EOF

wait "$DAEMON_PID"
DAEMON_PID=""
echo "serve_smoke: first daemon shut down cleanly"

rm -f "$STATE/addr"
"$BIN" --listen 127.0.0.1:0 --state-dir "$STATE" --addr-file "$STATE/addr" &
DAEMON_PID=$!
wait_addr
check_state_dir

python3 - "$(cat "$STATE/addr")" "$STATE/pending" <<'EOF'
import json, socket, sys, time

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=60)
rfile = sock.makefile("r")

def send(obj):
    sock.sendall((json.dumps(obj) + "\n").encode())

def recv():
    frame = json.loads(rfile.readline())
    print("<<", json.dumps(frame))
    return frame

def assert_no_session_runs():
    # An idle instance holds no drain thread. A thread puts its session back
    # just after its last frame, so the count may lag the reply briefly.
    for _ in range(100):
        send({"op": "status"})
        frame = recv()
        if frame["running_sessions"] == 0:
            assert frame["queued_jobs"] == 0, frame
            return
        time.sleep(0.05)
    raise AssertionError("an idle instance still holds a drain thread")

def check_schedule(schedule):
    # The embedded schedule, read by a parser that shares no code with the
    # daemon's writer: 4 processors, each with its four phase lists in every
    # superstep, and no node computed twice.
    assert schedule["processors"] == 4, schedule["processors"]
    computed = []
    for step in schedule["supersteps"]:
        assert len(step["procs"]) == 4, step
        for phases in step["procs"]:
            assert sorted(phases) == ["compute", "delete", "load", "save"], phases
            computed += [op["Compute"] for op in phases["compute"] if "Compute" in op]
    assert computed and len(computed) == len(set(computed)), "a node computed twice"

expected_pending = int(open(sys.argv[2]).read())

def status(id):
    send({"id": id, "op": "status", "instance": "smoke"})
    while True:
        frame = recv()
        if frame.get("event") == "status" and "pending" in frame:
            return frame

restored = status(1)
assert restored["pending"] == expected_pending, (
    f"restart lost pending set: {restored['pending']} != {expected_pending}")

# The checkpoint holds no topological order: the restored session rebuilt
# its cycle check from the DAG. The first daemon added `0 -> 252`, so
# `252 -> 0` closes a cycle and is refused with nothing applied.
send({"id": 4, "op": "mutate", "instance": "smoke",
      "deltas": [{"add_edge": {"from": 252, "to": 0}}]})
while True:
    frame = recv()
    if not frame["ok"] or frame.get("event") == "done":
        break
assert frame["error"]["code"] == "bad_delta", frame
assert "after 0 applied" in frame["error"]["message"], frame
after = status(5)
assert (after["edges"], after["pending"]) == (restored["edges"], expected_pending), after

send({"id": 2, "op": "repair", "instance": "smoke", "return_schedule": True})
while True:
    frame = recv()
    if frame.get("event") == "done":
        assert frame["ok"] and frame["stop_reason"] == "completed", frame
        check_schedule(frame["schedule"])
        break

assert_no_session_runs()
send({"id": 3, "op": "shutdown"})
assert recv()["event"] == "shutting_down"
EOF

wait "$DAEMON_PID"
DAEMON_PID=""
check_state_dir
echo "serve_smoke: restart restored the checkpointed session — PASS"
