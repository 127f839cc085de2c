"""One lifecycle for the three TCP endpoints (repro.service.endpoint).

The compile service, the cache peer and the gateway start, drain, stop
and answer signals the same way:

* the serving commands run as real processes: SIGTERM (or a ``shutdown``
  op, where the endpoint has one) ends them cleanly (exit 0, no traceback)
  after they stopped every worker process they started;
* ``stop()`` on each background-thread harness hangs up a connection that
  is only waiting for its next request instead of waiting on it;
* ``address`` before ``start()`` raises ``RuntimeError`` everywhere.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.gateway import Gateway, GatewayClient, GatewayThread
from repro.service import (
    CachePeer,
    CachePeerThread,
    Client,
    CompileService,
    RemoteCache,
    ServiceThread,
)
from repro.sweep import CompileCache

SRC = str(Path(repro.__file__).resolve().parent.parent)
WORKLOAD = "ising_2d_4x4"
#: host and port in the first announce line of every serving command.
ADDRESS = re.compile(r" on (?:http://)?([\d.]+):(\d+)")

proc_children = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="child pids come from /proc"
)


def _launch(tmp_path, *args):
    """Start ``python -m repro <args>``; return (process, host, port).

    The process's stderr goes to ``tmp_path / "stderr.txt"``.
    """
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    with open(tmp_path / "stderr.txt", "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=env,
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
        )
    line = proc.stdout.readline()
    match = ADDRESS.search(line)
    if match is None:
        proc.kill()
        proc.wait(timeout=30)
        raise AssertionError(f"no announce line from {args}: {line!r}")
    return proc, match.group(1), int(match.group(2))


def _children(pid):
    """Pids of the live direct children of ``pid``."""
    found = set()
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            found.update(int(p) for p in (task / "children").read_text().split())
        except OSError:
            pass  # the thread exited meanwhile
    return found


def _alive(pid):
    """True while ``pid`` runs (a zombie nobody reaped counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _finish(tmp_path, proc, children):
    """Wait for ``proc`` to exit; assert a clean exit and no orphaned child.

    A worker still alive at interpreter exit is terminated by
    multiprocessing and prints a traceback, so an empty stderr also
    shows the server stopped its pool itself.
    """
    try:
        code = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait(timeout=30)
    proc.stdout.close()
    deadline = time.monotonic() + 10
    while any(_alive(pid) for pid in children) and time.monotonic() < deadline:
        time.sleep(0.05)
    leftover = [pid for pid in children if _alive(pid)]
    for pid in leftover:
        os.kill(pid, signal.SIGKILL)
    assert code == 0
    assert not leftover, f"worker processes outlived their server: {leftover}"
    assert "Traceback" not in (tmp_path / "stderr.txt").read_text()


@proc_children
class TestSignals:
    def test_serve_sigterm_joins_the_worker_pool(self, tmp_path):
        proc, host, port = _launch(
            tmp_path, "serve", "--port", "0", "--no-cache"
        )
        with Client(host, port) as client:
            client.compile(workload=WORKLOAD, routing_paths=3)
        children = _children(proc.pid)
        assert children  # the compile ran in a pool worker
        proc.send_signal(signal.SIGTERM)
        _finish(tmp_path, proc, children)

    def test_cache_serve_sigterm(self, tmp_path):
        proc, host, port = _launch(
            tmp_path, "cache-serve", "--port", "0",
            "--cache-dir", str(tmp_path / "store"),
        )
        with RemoteCache(host, port) as remote:
            assert remote.ping()
        proc.send_signal(signal.SIGTERM)
        _finish(tmp_path, proc, _children(proc.pid))

    def test_gateway_sigterm_stops_the_fleet(self, tmp_path):
        proc, host, port = _launch(
            tmp_path, "gateway", "--port", "0", "--shards", "1",
            "--cache-dir", str(tmp_path / "fleet"),
        )
        with GatewayClient(host, port) as client:
            assert client.compile(workload=WORKLOAD)["status"] == "done"
        children = _children(proc.pid)
        assert children  # the shard's pool worker
        proc.send_signal(signal.SIGTERM)
        _finish(tmp_path, proc, children)

    @pytest.mark.parametrize("command", ["serve", "cache-serve"])
    def test_shutdown_op_exits_zero(self, tmp_path, command):
        store = (
            ["--no-cache"] if command == "serve"
            else ["--cache-dir", str(tmp_path / "store")]
        )
        proc, host, port = _launch(tmp_path, command, "--port", "0", *store)
        with Client(host, port) as client:
            client.ping()
            children = _children(proc.pid)
            client.shutdown()
        _finish(tmp_path, proc, children)


@pytest.fixture
def backend():
    with ServiceThread(jobs=1) as thread:
        yield thread


#: each thread harness, and the client that pings it once and then idles.
HARNESSES = {
    "service": (lambda tmp_path, backend: ServiceThread(jobs=1), Client),
    "peer": (
        lambda tmp_path, backend: CachePeerThread(cache=CompileCache(tmp_path)),
        RemoteCache,
    ),
    "gateway": (
        lambda tmp_path, backend: GatewayThread(backends=[backend.address]),
        GatewayClient,
    ),
}


@pytest.mark.parametrize("which", sorted(HARNESSES))
def test_stop_hangs_up_an_idle_connection(tmp_path, backend, which):
    make, client_class = HARNESSES[which]
    thread = make(tmp_path, backend).start()
    client = client_class(*thread.address)
    try:
        assert client.ping()
        started = time.monotonic()
        thread.stop()
        assert time.monotonic() - started < 2.0
        assert not thread._thread.is_alive()
    finally:
        client.close()


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp_path: CompileService(port=0),
        lambda tmp_path: CachePeer(port=0, cache=CompileCache(tmp_path)),
        lambda tmp_path: Gateway(backends=[("127.0.0.1", 1)], port=0),
        lambda tmp_path: ServiceThread(),
        lambda tmp_path: CachePeerThread(cache=CompileCache(tmp_path)),
        lambda tmp_path: GatewayThread(backends=[("127.0.0.1", 1)]),
    ],
    ids=["service", "peer", "gateway", "service-thread", "peer-thread",
         "gateway-thread"],
)
def test_address_before_start_raises(tmp_path, make):
    endpoint = make(tmp_path)
    with pytest.raises(RuntimeError, match="not started"):
        endpoint.address
