"""Fixture suite for repro-check (RC001–RC009).

One must-flag snippet and one near-miss per rule, written into a
tmp tree whose layout satisfies each rule's path scoping, plus the
machinery tests: suppression comments (own line and line-above),
baseline round-trip, and CLI exit codes on seeded violations.  The
final test runs the analyzer over the real repo — the committed
baseline must absorb everything, i.e. the tree stays clean.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.checks import (
    load_baseline,
    main,
    run_checks,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.rules import RULES_BY_ID

REPO_ROOT = Path(__file__).resolve().parents[2]


def scan(tmp_path: Path, rel: str, source: str, rule_id: str):
    """Write ``source`` at ``rel`` under tmp_path and run one rule."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    findings, scanned = run_checks(
        [str(target)], root=str(tmp_path), rules=[RULES_BY_ID[rule_id]]
    )
    assert scanned == 1
    return findings


# ----------------------------------------------------------------------
# RC001 — blocking call inside async def (gateway only)
# ----------------------------------------------------------------------
def test_rc001_flags_blocking_in_async(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/gateway/server.py",
        """
        import time

        async def handle(reader, writer):
            time.sleep(0.1)
        """,
        "RC001",
    )
    assert [f.rule for f in findings] == ["RC001"]
    assert "async def handle" in findings[0].message


def test_rc001_near_miss_awaited_and_sync(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/gateway/server.py",
        """
        import asyncio
        import time

        async def handle(reader, writer):
            await asyncio.sleep(0.1)

        def blocking_is_fine_off_the_loop():
            time.sleep(0.1)
        """,
        "RC001",
    )
    assert findings == []


def test_rc001_covers_the_cluster_tier(tmp_path):
    # The router is event-loop code too: a blocking call in
    # serving/cluster/ stalls every client behind the cluster.
    findings = scan(
        tmp_path,
        "src/repro/serving/cluster/router.py",
        """
        import time

        async def _heartbeat(node_id):
            time.sleep(0.1)
        """,
        "RC001",
    )
    assert [f.rule for f in findings] == ["RC001"]
    assert "async def _heartbeat" in findings[0].message


def test_rc001_scoped_to_gateway(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/engine.py",
        """
        import time

        async def helper():
            time.sleep(0.1)
        """,
        "RC001",
    )
    assert findings == []


# ----------------------------------------------------------------------
# RC002 — lock held across a blocking / dispatch boundary
# ----------------------------------------------------------------------
def test_rc002_flags_io_under_lock(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/pool.py",
        """
        import shutil
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def clear(self):
                with self._lock:
                    shutil.rmtree("/tmp/arena")
        """,
        "RC002",
    )
    assert [f.rule for f in findings] == ["RC002"]
    assert "rmtree" in findings[0].message


def test_rc002_near_miss_collect_then_act(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/pool.py",
        """
        import shutil
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def clear(self):
                with self._lock:
                    doomed = list(self._bundles)
                    self._bundles.clear()
                for path in doomed:
                    shutil.rmtree(path)
        """,
        "RC002",
    )
    assert findings == []


def test_rc002_propagates_through_helpers(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/pool.py",
        """
        import shutil
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def _delete_bundle(self, path):
                shutil.rmtree(path)

            def clear(self):
                with self._lock:
                    self._delete_bundle("/tmp/arena")
        """,
        "RC002",
    )
    # Two sites: the root rmtree inside the (unlocked) helper is fine,
    # but calling the helper under the lock is flagged with the chain.
    assert [f.rule for f in findings] == ["RC002"]
    assert "_delete_bundle" in findings[0].message


def test_rc002_locked_suffix_convention(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/pool.py",
        """
        import shutil

        def _retire_locked(path):
            shutil.rmtree(path)
        """,
        "RC002",
    )
    assert [f.rule for f in findings] == ["RC002"]
    assert "_retire_locked" in findings[0].message


def test_rc002_nonblocking_variants_pass(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/pool.py",
        """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self._side = threading.Lock()

            def poke(self, worker):
                with self._lock:
                    worker.thread.join(timeout=0)
                    got = self._side.acquire(blocking=False)
                    parts = ", ".join(["a", "b"])
                    return got, parts
        """,
        "RC002",
    )
    assert findings == []


# ----------------------------------------------------------------------
# RC003 — user callback invoked under a lock
# ----------------------------------------------------------------------
def test_rc003_flags_callback_under_lock(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/hub.py",
        """
        import threading

        class Hub:
            def __init__(self, callback):
                self._lock = threading.Lock()
                self.callback = callback

            def notify(self, event):
                with self._lock:
                    self.callback(event)
        """,
        "RC003",
    )
    assert [f.rule for f in findings] == ["RC003"]
    assert "callback" in findings[0].message


def test_rc003_near_miss_snapshot_then_call(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/hub.py",
        """
        import threading

        class Hub:
            def __init__(self, callback):
                self._lock = threading.Lock()
                self.callback = callback

            def notify(self, event):
                with self._lock:
                    fire = self.callback
                self.callback_count = 1
                fire(event)
        """,
        "RC003",
    )
    assert findings == []


# ----------------------------------------------------------------------
# RC004 — wall clock in serving latency paths
# ----------------------------------------------------------------------
def test_rc004_flags_wall_clock_in_serving(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/scheduler.py",
        """
        import time

        def observe():
            start = time.time()
            return start
        """,
        "RC004",
    )
    assert [f.rule for f in findings] == ["RC004"]
    assert "monotonic" in findings[0].message


def test_rc004_near_miss_monotonic_clocks(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/scheduler.py",
        """
        import time

        def observe():
            return time.perf_counter(), time.monotonic()
        """,
        "RC004",
    )
    assert findings == []


def test_rc004_scoped_to_serving(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/core/trainer.py",
        """
        import time

        def stamp():
            return time.time()
        """,
        "RC004",
    )
    assert findings == []


# ----------------------------------------------------------------------
# RC005 — pickling / mutating arena-backed models in backend code
# ----------------------------------------------------------------------
def test_rc005_flags_pickle_and_send_of_arena(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/backends/shipper.py",
        """
        import pickle

        def ship(conn, bundle, key):
            system = load_system_flat(bundle, key)
            blob = pickle.dumps(system)
            conn.send(system)
            return blob
        """,
        "RC005",
    )
    assert [f.rule for f in findings] == ["RC005", "RC005"]
    assert "mmap" in findings[0].message or "arena" in findings[0].message


def test_rc005_flags_mutation_through_arena_binding(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/backends/shipper.py",
        """
        def patch(bundle, key):
            system = load_system_flat(bundle, key)
            system.weights[0] = 0.0
        """,
        "RC005",
    )
    assert [f.rule for f in findings] == ["RC005"]
    assert "copy-on-write" in findings[0].message


def test_rc005_near_miss_ship_by_reference(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/backends/shipper.py",
        """
        def ship(conn, bundle, key):
            system = load_system_flat(bundle, key)
            conn.send((bundle, key))
            return system
        """,
        "RC005",
    )
    assert findings == []


def test_rc005_scoped_to_backend_and_worker_code(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/core/export.py",
        """
        import pickle

        def snapshot(obj):
            return pickle.dumps(obj)
        """,
        "RC005",
    )
    assert findings == []


# ----------------------------------------------------------------------
# RC006 — thread hygiene
# ----------------------------------------------------------------------
def test_rc006_flags_daemonless_thread_and_swallows(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/super.py",
        """
        import threading

        def start(run):
            thread = threading.Thread(target=run)
            thread.start()
            while True:
                try:
                    run()
                except Exception:
                    continue

        def legacy():
            try:
                return 1
            except:
                return 0
        """,
        "RC006",
    )
    assert [f.rule for f in findings] == ["RC006", "RC006", "RC006"]
    messages = " | ".join(f.message for f in findings)
    assert "daemon=" in messages
    assert "swallowed" in messages
    assert "bare `except:`" in messages


def test_rc006_near_miss_explicit_daemon_and_recorded_errors(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/super.py",
        """
        import threading

        def start(run, log):
            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            while True:
                try:
                    run()
                except Exception as error:
                    log(error)

        def once(run):
            # Swallowing outside a loop is not the spins-dead pattern.
            try:
                run()
            except Exception:
                pass
        """,
        "RC006",
    )
    assert findings == []


# ----------------------------------------------------------------------
# RC007 — ad-hoc telemetry: bare print(), unbounded list-append stats
# ----------------------------------------------------------------------
def test_rc007_flags_print_and_unbounded_append(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/stats.py",
        """
        class Engine:
            def __init__(self):
                self.latencies = []

            def observe(self, latency):
                self.latencies.append(latency)
                print("latency", latency)
        """,
        "RC007",
    )
    assert sorted(f.rule for f in findings) == ["RC007", "RC007"]
    messages = " ".join(f.message for f in findings)
    assert "print" in messages
    assert "self.latencies.append" in messages


def test_rc007_flags_extend_and_list_call(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/stats.py",
        """
        class Log:
            def __init__(self):
                self.events = list()

            def record(self, batch):
                self.events.extend(batch)
        """,
        "RC007",
    )
    assert [f.rule for f in findings] == ["RC007"]


def test_rc007_near_miss_bounded_and_drained(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/stats.py",
        """
        from collections import deque

        class Window:
            def __init__(self):
                # deque(maxlen=...) is bounded: not a list literal.
                self.window = deque(maxlen=256)
                self.pending = []
                self.trimmed = []

            def observe(self, value):
                self.window.append(value)
                self.pending.append(value)
                self.trimmed.append(value)
                # Slice-trim bounds the window in place.
                self.trimmed[:-128] = []

            def drain(self):
                out = list(self.pending)
                self.pending.clear()
                return out
        """,
        "RC007",
    )
    assert findings == []


def test_rc007_flags_metric_inc_in_serving(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/gateway/widgets.py",
        """
        class Server:
            def __init__(self, metrics):
                self.submits = 0
                self._m_submits = metrics.counter("repro_submits_total", "h")

            def on_submit(self):
                self.submits += 1
                self._m_submits.labels("tenant").inc()
        """,
        "RC007",
    )
    assert [f.rule for f in findings] == ["RC007"]
    assert "count in the stats object; the exporter publishes it" in findings[0].message


def test_rc007_near_miss_inc_in_observability_and_gauge_set(tmp_path):
    exporter = scan(
        tmp_path,
        "src/repro/serving/observability/widgets.py",
        """
        def publish(counter, done, total):
            counter.labels().inc(total - done)
        """,
        "RC007",
    )
    gauges = scan(
        tmp_path,
        "src/repro/serving/engine_widgets.py",
        """
        class Engine:
            def collect(self, gauge):
                self.requests += 1  # a stats field, not a metric
                gauge.set(len(self.pending))
        """,
        "RC007",
    )
    assert exporter == [] and gauges == []


def test_rc007_scoped_to_serving(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/cli.py",
        """
        def main():
            print("reports are allowed outside serving/")
        """,
        "RC007",
    )
    assert findings == []


def test_rc007_suppression(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/stats.py",
        """
        def debug(value):
            print(value)  # repro-check: ignore[RC007]
        """,
        "RC007",
    )
    assert findings == []


# ----------------------------------------------------------------------
# RC008 — public serving surface must carry docstrings
# ----------------------------------------------------------------------
def test_rc008_flags_bare_public_surface(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/gateway/widgets.py",
        """
        class Widget:
            \"\"\"Documented class, undocumented method.\"\"\"

            def spin(self):
                return 1

        def make_widget():
            return Widget()

        class Gadget:
            pass
        """,
        "RC008",
    )
    messages = sorted(f.message for f in findings)
    assert len(messages) == 3
    assert "class `Gadget`" in messages[0]
    assert "function `make_widget`" in messages[1]
    assert "method `Widget.spin`" in messages[2]
    assert all("no docstring" in m for m in messages)


def test_rc008_near_miss_documented_private_and_nested(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/cluster/widgets.py",
        """
        class Widget:
            \"\"\"Documented.\"\"\"

            def spin(self):
                \"\"\"Documented too.\"\"\"
                def helper():  # nested defs are implementation detail
                    return 1
                return helper()

            def _internal(self):
                return 2

            def __repr__(self):
                return "Widget()"

        def _module_private():
            pass
        """,
        "RC008",
    )
    assert findings == []


def test_rc008_scoped_to_public_serving_tiers(tmp_path):
    source = """
    def bare():
        pass
    """
    for rel in (
        "src/repro/core/pipeline.py",
        "src/repro/serving/engine.py",
        "src/repro/analysis/rules.py",
    ):
        assert scan(tmp_path, rel, source, "RC008") == []
    flagged = scan(tmp_path, "src/repro/serving/gateway/x.py", source, "RC008")
    assert [f.rule for f in flagged] == ["RC008"]


def test_rc008_suppression(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/gateway/y.py",
        """
        def bare():  # repro-check: ignore[RC008]
            pass
        """,
        "RC008",
    )
    assert findings == []


# ----------------------------------------------------------------------
# RC009 — asyncio.start_server only in serving/listener.py
# ----------------------------------------------------------------------
def test_rc009_flags_start_server_outside_the_listener(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/cluster/sidecar.py",
        """
        import asyncio
        from asyncio import start_server

        class Sidecar:
            async def start(self, host, port):
                self._server = await asyncio.start_server(self._on_client, host, port)
                self._admin = await start_server(self._on_admin, host, port + 1)
        """,
        "RC009",
    )
    assert [f.rule for f in findings] == ["RC009", "RC009"]
    assert "subclass FrameListener instead" in findings[0].message


def test_rc009_near_miss_listener_home_and_clients(tmp_path):
    home = scan(
        tmp_path,
        "src/repro/serving/listener.py",
        """
        import asyncio

        async def bind(handler, host, port):
            return await asyncio.start_server(handler, host, port)
        """,
        "RC009",
    )
    clients = scan(
        tmp_path,
        "src/repro/serving/gateway/dialer.py",
        """
        import asyncio

        async def dial(host, port):
            return await asyncio.open_connection(host, port)
        """,
        "RC009",
    )
    assert home == [] and clients == []


def test_rc009_suppression(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/probe.py",
        """
        import asyncio

        async def mute(handler):
            # repro-check: ignore[RC009]
            return await asyncio.start_server(handler, "127.0.0.1", 0)
        """,
        "RC009",
    )
    assert findings == []


def test_rc001_and_rc008_cover_the_listener(tmp_path):
    source = """
    import time

    async def handshake():
        time.sleep(0.1)
    """
    rules = [f.rule for rule_id in ("RC001", "RC008")
             for f in scan(tmp_path, "src/repro/serving/listener.py", source, rule_id)]
    assert rules == ["RC001", "RC008"]


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
SUPPRESSIBLE = """
import shutil
import threading

class Pool:
    def __init__(self):
        self._lock = threading.Lock()

    def clear(self):
        with self._lock:
            shutil.rmtree("/tmp/arena"){inline}
"""


def test_suppression_on_offending_line(tmp_path):
    source = SUPPRESSIBLE.format(inline="  # repro-check: ignore[RC002]")
    assert scan(tmp_path, "src/repro/serving/a.py", source, "RC002") == []


def test_suppression_on_line_above(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/b.py",
        """
        import shutil
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def clear(self):
                with self._lock:
                    # held only by tests; see docs.  # repro-check: ignore[RC002]
                    shutil.rmtree("/tmp/arena")
        """,
        "RC002",
    )
    assert findings == []


def test_suppression_wrong_rule_does_not_apply(tmp_path):
    source = SUPPRESSIBLE.format(inline="  # repro-check: ignore[RC001]")
    findings = scan(tmp_path, "src/repro/serving/c.py", source, "RC002")
    assert [f.rule for f in findings] == ["RC002"]


def test_suppression_star_applies_to_all_rules(tmp_path):
    source = SUPPRESSIBLE.format(inline="  # repro-check: ignore[*]")
    assert scan(tmp_path, "src/repro/serving/d.py", source, "RC002") == []


def test_suppressed_root_clears_propagated_chain(tmp_path):
    findings = scan(
        tmp_path,
        "src/repro/serving/e.py",
        """
        import shutil
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def _delete_bundle(self, path):
                shutil.rmtree(path)  # repro-check: ignore[RC002]

            def clear(self):
                with self._lock:
                    self._delete_bundle("/tmp/arena")
        """,
        "RC002",
    )
    assert findings == []


# ----------------------------------------------------------------------
# Baseline round-trip
# ----------------------------------------------------------------------
def seeded_findings(tmp_path):
    source = SUPPRESSIBLE.format(inline="")
    return scan(tmp_path, "src/repro/serving/seed.py", source, "RC002")


def test_baseline_round_trip(tmp_path):
    findings = seeded_findings(tmp_path)
    assert findings
    baseline_path = tmp_path / "baseline.json"
    write_baseline(findings, str(baseline_path))
    baseline = load_baseline(str(baseline_path))
    new, accepted, stale = split_by_baseline(findings, baseline)
    assert new == []
    assert accepted == findings
    assert not stale


def test_baseline_reports_stale_entries_after_fix(tmp_path):
    findings = seeded_findings(tmp_path)
    baseline_path = tmp_path / "baseline.json"
    write_baseline(findings, str(baseline_path))
    baseline = load_baseline(str(baseline_path))
    # The code was "fixed": no findings remain, the entry is stale.
    new, accepted, stale = split_by_baseline([], baseline)
    assert new == [] and accepted == []
    assert sum(stale.values()) == len(findings)


def test_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(str(tmp_path / "absent.json")) == {}


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
def test_cli_exits_nonzero_on_seeded_violation(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "serving" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(SUPPRESSIBLE.format(inline="")))
    code = main([str(target), "--root", str(tmp_path), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RC002" in out


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "serving" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(SUPPRESSIBLE.format(inline="")))
    assert main([str(target), "--root", str(tmp_path), "--write-baseline"]) == 0
    assert main([str(target), "--root", str(tmp_path)]) == 0
    capsys.readouterr()


def test_cli_json_report_shape(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "serving" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(SUPPRESSIBLE.format(inline="")))
    report_path = tmp_path / "report.json"
    code = main(
        [
            str(target),
            "--root",
            str(tmp_path),
            "--no-baseline",
            "--json",
            str(report_path),
        ]
    )
    capsys.readouterr()
    assert code == 1
    import json

    report = json.loads(report_path.read_text())
    assert report["scanned_files"] == 1
    assert [entry["rule"] for entry in report["new"]] == ["RC002"]
    assert report["baselined"] == [] and report["stale_baseline"] == []


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RC001", "RC002", "RC003", "RC004", "RC005", "RC006", "RC008"):
        assert rule_id in out


# ----------------------------------------------------------------------
# The real repo stays clean under the committed baseline
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not (REPO_ROOT / "src" / "repro").is_dir(), reason="source tree not present"
)
def test_repository_is_clean_under_committed_baseline(capsys):
    code = main(["src/repro", "--root", str(REPO_ROOT)])
    capsys.readouterr()
    assert code == 0
