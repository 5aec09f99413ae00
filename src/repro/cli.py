"""Command-line interface for the GesturePrint reproduction.

Subcommands::

    python -m repro.cli info                         # radar + library info
    python -m repro.cli render  --out data.npz ...   # render a dataset
    python -m repro.cli train   --data data.npz --model-dir model/
    python -m repro.cli evaluate --data data.npz --model-dir model/
    python -m repro.cli demo    --model-dir model/   # stream a live gesture
    python -m repro.cli session --data data.npz --model-dir model/
                                                     # multi-gesture identification
    python -m repro.cli serve   --model-dir model/ --streams 8
                                                     # micro-batched multi-stream serving
    python -m repro.cli serve   --model-dir model/ --listen 0.0.0.0:7433 \
                                --tenants tenants.json
                                                     # network gateway (TCP, SLO classes)
    python -m repro.cli serve   --model-dir model/ --listen 0.0.0.0:7433 \
                                --backend process --workers 4
                                                     # multi-process worker pool behind
                                                     # the gateway (mmap-shared weights)

Datasets are exchanged as ``.npz`` archives with the arrays of
:class:`repro.datasets.GestureDataset`.  Model checkpoints are loaded
through a process-wide :class:`repro.serving.ModelRegistry`, so repeated
in-process invocations (tests, notebooks) share fitted systems instead
of re-reading weights from disk.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.core import (
    GesturePrint,
    GesturePrintConfig,
    GesturePrintRuntime,
    IdentificationMode,
    TrainConfig,
    WorkZone,
    ZoneAdvisory,
    identify_session,
)
from repro.core.gesidnet import GesIDNetConfig
from repro.core.trainer import train_test_split
from repro.datasets import load_dataset, save_dataset
from repro.radar.config import IWR6843_CONFIG
from repro.serving import ModelRegistry, StreamHub

#: Process-wide checkpoint cache shared by every subcommand.
REGISTRY = ModelRegistry(capacity=4)

DATASET_BUILDERS = {
    "selfcollected": "build_selfcollected",
    "pantomime": "build_pantomime",
    "mhomeges": "build_mhomeges",
    "mtranssee": "build_mtranssee",
}


def _cmd_info(_args: argparse.Namespace) -> int:
    import repro

    config = IWR6843_CONFIG
    print(f"repro {repro.__version__} — GesturePrint reproduction (ICDCS 2024)")
    print(f"radar: {config.start_frequency_hz/1e9:.0f} GHz band, "
          f"{config.num_tx}x{config.num_rx} antennas, {config.frame_rate_hz:.0f} fps")
    print(f"range: {config.range_resolution_m:.3f} m resolution, "
          f"{config.max_range_m:.1f} m max")
    print(f"velocity: +/-{config.max_velocity_ms:.2f} m/s, "
          f"{config.velocity_resolution_ms:.2f} m/s resolution")
    print(f"datasets: {', '.join(DATASET_BUILDERS)}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    import repro.datasets as datasets_module

    builder = getattr(datasets_module, DATASET_BUILDERS[args.dataset])
    dataset = builder(
        num_users=args.users,
        num_gestures=args.gestures,
        reps=args.reps,
        num_points=args.points,
        seed=args.seed,
    )
    save_dataset(dataset, args.out)
    print(f"rendered {dataset.num_samples} samples "
          f"({args.users} users x {args.gestures} gestures) -> {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    train_idx, test_idx = train_test_split(dataset.num_samples, args.test_fraction,
                                           seed=args.seed)
    config = GesturePrintConfig(
        network=GesIDNetConfig.small() if args.small else GesIDNetConfig(),
        training=TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                             learning_rate=args.learning_rate, seed=args.seed),
        mode=IdentificationMode(args.mode),
        augment_copies=args.augment_copies,
    )
    system = GesturePrint(config).fit(
        dataset.inputs[train_idx],
        dataset.gesture_labels[train_idx],
        dataset.user_labels[train_idx],
    )
    REGISTRY.save(system, args.model_dir)
    metrics = system.evaluate(
        dataset.inputs[test_idx],
        dataset.gesture_labels[test_idx],
        dataset.user_labels[test_idx],
    )
    print(json.dumps({k: round(v, 4) for k, v in metrics.items()}, indent=2))
    print(f"saved model to {args.model_dir}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    system = REGISTRY.load(args.model_dir)
    metrics = system.evaluate(
        dataset.inputs, dataset.gesture_labels, dataset.user_labels
    )
    print(json.dumps({k: round(v, 4) for k, v in metrics.items()}, indent=2))
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    system = REGISTRY.load(args.model_dir)
    rng = np.random.default_rng(args.seed)
    user = args.user
    idx = np.flatnonzero(dataset.user_labels == user)
    if idx.size < args.gestures:
        print(f"user {user} has only {idx.size} samples; need {args.gestures}")
        return 1
    chosen = rng.choice(idx, size=args.gestures, replace=False)
    estimate = identify_session(system, dataset.inputs[chosen])
    print(json.dumps(
        {
            "true_user": int(user),
            "identified_user": estimate.user,
            "confidence": round(estimate.confidence, 4),
            "gestures_fused": estimate.num_gestures,
        },
        indent=2,
    ))
    return 0 if estimate.user == user else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.gestures import ASL_GESTURES, ENVIRONMENTS, generate_users, perform_gesture
    from repro.radar import FastRadar

    system = REGISTRY.load(args.model_dir)
    zone = WorkZone() if args.work_zone else None
    runtime = GesturePrintRuntime(system, seed=args.seed, work_zone=zone)
    users = generate_users(max(args.user + 1, 1), seed=args.user_seed)
    radar = FastRadar(IWR6843_CONFIG, seed=args.seed)
    template = ASL_GESTURES[args.gesture]
    recording = perform_gesture(
        users[args.user], template, radar, ENVIRONMENTS[args.environment],
        distance_m=args.distance,
        rng=np.random.default_rng(args.seed),
    )
    events = []
    for frame in recording.frames:
        event = runtime.push_frame(frame)
        if event:
            events.append(event)
        if args.work_zone and runtime.zone_advisory is not ZoneAdvisory.IN_ZONE:
            advisory = runtime.zone_advisory
            if advisory is not ZoneAdvisory.NO_PRESENCE:
                print(f"advisory: {advisory.value}")
    tail = runtime.flush()
    if tail:
        events.append(tail)
    if not events:
        print("no gesture detected in the stream")
        return 1
    for event in events:
        print(
            f"frames [{event.start_frame}, {event.end_frame}): "
            f"gesture #{event.gesture} (p={event.gesture_confidence:.2f}), "
            f"user #{event.user} (p={event.user_confidence:.2f}), "
            f"{event.num_points} points"
        )
    return 0


def _build_backend(args: argparse.Namespace):
    """The execution backend named by ``--backend``/``--workers``.

    A process backend exports each system it serves as an mmap bundle at
    the ``--precision`` storage dtype; a hot reload (a new system object)
    gets a fresh bundle, and the pool deletes the superseded one once
    its airborne batches land and its workers let go.  The pool is
    supervised: ``--heartbeat-ms`` paces the worker health checks,
    ``--max-respawns`` budgets crash recovery, and ``--pin-cores`` pins
    workers round-robin across the process's allowed CPUs.
    """
    from repro.serving import create_backend

    if args.backend == "process":
        return create_backend(
            "process",
            workers=args.workers,
            heartbeat_ms=args.heartbeat_ms,
            max_respawns=args.max_respawns,
            precision=args.precision,
            pin_cores=args.pin_cores,
        )
    return create_backend(args.backend, workers=args.workers)


def _hedge_arg(text: str | None) -> float | str | None:
    """``--hedge-ms`` spelling -> engine ``hedge_ms`` value."""
    if text is None:
        return None
    if str(text).strip().lower() == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise SystemExit(
            "error: --hedge-ms needs a number of milliseconds or 'auto', "
            f"got {text!r}"
        ) from None


def _apply_serve_precision(args: argparse.Namespace, system):
    """Fidelity-gate (and, for in-process backends, convert) the system.

    ``--precision float32/int8`` must not silently serve a degraded
    model: the converted candidate is compared against the float64
    reference on a random probe batch and refused (FidelityError) if the
    posterior drift exceeds the per-precision bound.  In-process
    backends then serve the converted copy; a process backend keeps the
    float64 master — its workers attach the reduced-precision arena the
    pool exports, which the gate's candidate round-trips exactly.
    """
    if args.precision == "float64":
        return system
    from repro.serving.precision import (
        apply_precision,
        assert_fidelity,
        fidelity_report,
    )

    candidate = apply_precision(system, args.precision)
    channels = max(3, system.config.network.in_feature_channels)
    rng = np.random.default_rng(args.seed)
    probe = rng.standard_normal((16, 32, channels))
    report = assert_fidelity(fidelity_report(system, candidate, probe))
    print(json.dumps({"precision_gate": report.to_dict()}), flush=True)
    return system if args.backend == "process" else candidate


def _build_observability(args: argparse.Namespace):
    """``(metrics_server, tracer, trace_log)`` per the serve flags.

    ``--metrics-port`` opens the Prometheus ``/metrics`` side port over
    the process-global registry (which every serving component reports
    to by default); ``--trace-log`` tees each ticket's terminal
    :class:`TraceRecord` to a JSONL file.  The tracer itself is always
    on for the gateway (its ring is cheap and the TRACE frame drains it
    remotely).
    """
    from repro.serving.observability import MetricsServer, TraceLog, Tracer

    metrics_server = None
    if args.metrics_port is not None:
        metrics_server = MetricsServer(args.metrics_port)
        print(json.dumps({"metrics": metrics_server.url}), flush=True)
    trace_log = TraceLog(args.trace_log) if args.trace_log else None
    tracer = Tracer(capacity=2048, sink=trace_log)
    return metrics_server, tracer, trace_log


def _graceful_sigterm() -> None:
    """Arm SIGTERM to cancel the running serve task.

    Process managers stop children with SIGTERM, whose default action
    skips every ``finally`` — the quota ledger would lose its unsynced
    charges and no exit snapshot would print.  Cancelling the task
    instead routes shutdown through the same drain path as Ctrl-C.
    Best-effort: unavailable loops (non-main thread, Windows Proactor)
    keep the default behaviour.
    """
    import asyncio
    import signal

    loop = asyncio.get_running_loop()
    task = asyncio.current_task()
    if task is None:
        return
    try:
        loop.add_signal_handler(signal.SIGTERM, task.cancel)
    except (NotImplementedError, RuntimeError):
        pass


def _listener_ssl(args: argparse.Namespace, *, client_ca: str | None = None):
    """Server-side TLS context per the ``--tls-*`` flags (None = plaintext).

    ``--tls-cert``/``--tls-key`` are this listener's identity.  When
    ``client_ca`` is given, the listener additionally demands client
    certificates signed by it (mutual TLS) — ``serve`` passes its
    ``--tls-ca`` here (a shard accepts only its router), while ``route``
    does not: the router's ``--tls-ca`` pins the *shards'* certificates
    for the upstream hop, and its public edge authenticates clients
    with bearer tokens, not certificates.
    """
    if not args.tls_cert and not args.tls_key:
        return None
    if not (args.tls_cert and args.tls_key):
        raise SystemExit("error: --tls-cert and --tls-key must be given together")
    from repro.serving.gateway.security import server_ssl_context

    return server_ssl_context(args.tls_cert, args.tls_key, cafile=client_ca)


def _read_token_file(path: str | None) -> str | None:
    """The bearer token stored (stripped) in ``path``, if given.

    Tokens travel in files, never argv: a command line is visible to
    every user on the host via ``ps``.
    """
    if not path:
        return None
    with open(path, encoding="utf-8") as handle:
        token = handle.read().strip()
    if not token:
        raise SystemExit(f"error: token file {path!r} is empty")
    return token


def _host_port(text: str) -> tuple[str, int] | None:
    """``HOST:PORT`` as ``(host, port)`` (the host may be empty); None
    when there is no colon or the port is not an int."""
    host, colon, port_text = text.rpartition(":")
    try:
        return (host, int(port_text)) if colon else None
    except ValueError:
        return None


def _listen_address(args: argparse.Namespace) -> tuple[str, int] | None:
    """``--listen HOST:PORT`` as ``(host, port)``, an empty host meaning
    every interface; None, after an error line, when malformed."""
    address = _host_port(args.listen)
    if address is None:
        print(f"error: --listen needs HOST:PORT, got {args.listen!r}",
              file=sys.stderr)
        return None
    return address[0] or "0.0.0.0", address[1]


def _run_listener(listener, address, banner: dict, serve_seconds: float | None,
                  *, closing=(), background=()) -> int:
    """Serve ``listener`` (a gateway or a router) on ``address``.

    Prints ``banner`` with the bound address as the first stdout line,
    serves until ``--serve-seconds`` elapse (forever without it), Ctrl-C
    or SIGTERM, then closes the listener and prints its snapshot.
    ``background`` coroutine functions run alongside; ``closing`` holds
    resources (None allowed) closed on the way out.
    """
    import asyncio

    async def _serve() -> None:
        _graceful_sigterm()
        bound_host, bound_port = await listener.start(*address)
        print(json.dumps({"listening": f"{bound_host}:{bound_port}", **banner}),
              flush=True)
        tasks = [asyncio.create_task(run()) for run in background]
        try:
            if serve_seconds is None:
                await listener.serve_forever()
            else:
                await asyncio.sleep(serve_seconds)
        except asyncio.CancelledError:
            pass
        finally:
            for task in tasks:
                task.cancel()
            await listener.aclose()
            print(json.dumps(listener.snapshot(), indent=2))

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        for resource in closing:
            if resource is not None:
                resource.close()
    return 0


def _cmd_serve_gateway(args: argparse.Namespace) -> int:
    """Expose the engine over TCP: the async gateway with SLO classes."""
    import asyncio

    from repro.serving import GatewayServer
    from repro.serving.gateway import TenantDirectory

    address = _listen_address(args)
    if address is None:
        return 2
    tenants = TenantDirectory()
    if args.tenants:
        with open(args.tenants, encoding="utf-8") as handle:
            tenants = TenantDirectory.from_config(json.load(handle))
    ssl_context = _listener_ssl(args, client_ca=args.tls_ca)
    quota = None
    if args.quota_state or tenants.quotas or tenants.default_quota is not None:
        from repro.serving.gateway.quota import QuotaLedger

        # Policies are read through the directory at check time, so a
        # tenants-config reload rebudgets without touching the ledger.
        quota = QuotaLedger(tenants.quota_policy, state_path=args.quota_state)
    system = _apply_serve_precision(args, REGISTRY.load(args.model_dir))
    slo_ms = args.slo_ms if args.slo_ms is not None else 50.0
    backend = _build_backend(args)
    metrics_server, tracer, trace_log = _build_observability(args)
    tenant_registry = None
    if args.tenant_cache:
        from repro.serving import ModelRegistry

        tenant_registry = ModelRegistry(capacity=args.tenant_cache)
    server = GatewayServer(
        system,
        backend=backend,
        hedge_ms=_hedge_arg(args.hedge_ms),
        tenants=tenants,
        max_batch_size=args.max_batch,
        slo_ms=slo_ms,
        tracer=tracer,
        node_id=args.node_id,
        tenant_registry=tenant_registry,
        ssl_context=ssl_context,
        quota=quota,
    )

    def reload_hook() -> int:
        # Registry-backed hot reload: a RELOAD frame (or the periodic
        # watcher) re-checks the checkpoint; an overwritten manifest is
        # swapped in without dropping pending requests.  The tenants
        # config re-reads on the same trigger, so new SLO classes, auth
        # tokens, and quota budgets apply without a restart.
        REGISTRY.load(args.model_dir, on_change=server.engine.swap_system)
        if args.tenants:
            with open(args.tenants, encoding="utf-8") as handle:
                server.reload_tenants(json.load(handle))
        return server.engine.model_version

    server.reload_hook = reload_hook

    async def _watch() -> None:
        while True:
            await asyncio.sleep(max(float(args.watch_every), 0.1))
            try:
                reload_hook()
            # A checkpoint caught mid-write fails to parse; the next
            # tick re-reads it whole.  Deliberate swallow.
            # repro-check: ignore[RC006]
            except Exception:
                pass

    banner = {
        "slo_ms": slo_ms,
        "classes": sorted(server.tenants.classes),
        "default_class": server.tenants.default_class,
    }
    return _run_listener(
        server, address, banner, args.serve_seconds,
        closing=(backend, metrics_server, trace_log),
        background=[_watch] if args.watch_model else [],
    )


def _parse_shard_specs(specs: list[str]) -> dict[str, tuple[str, int]]:
    """``ID=HOST:PORT`` pairs -> ``{node_id: (host, port)}``."""
    shards: dict[str, tuple[str, int]] = {}
    for spec in specs:
        node_id, eq, text = spec.partition("=")
        address = _host_port(text)
        if not eq or address is None or not node_id or not address[0]:
            raise SystemExit(
                f"error: --shard needs ID=HOST:PORT, got {spec!r}"
            )
        if node_id in shards:
            raise SystemExit(f"error: duplicate shard id {node_id!r}")
        shards[node_id] = address
    return shards


def _cmd_route(args: argparse.Namespace) -> int:
    """Front N gateway shards with the consistent-hash cluster router."""
    from repro.serving.cluster import ClusterRouter

    address = _listen_address(args)
    if address is None:
        return 2
    shards = _parse_shard_specs(args.shard)
    metrics_server, tracer, trace_log = _build_observability(args)
    ssl_context = _listener_ssl(args)
    upstream_ssl = None
    if args.tls_ca:
        from repro.serving.gateway.security import client_ssl_context

        # --tls-ca pins the shards' certificate; the router's own cert
        # doubles as its client identity for mutual-TLS shards.
        upstream_ssl = client_ssl_context(
            args.tls_ca, certfile=args.tls_cert, keyfile=args.tls_key
        )
    auth = None
    if args.tenants:
        from repro.serving.gateway.security import TenantAuthenticator

        with open(args.tenants, encoding="utf-8") as handle:
            auth = TenantAuthenticator.from_config(json.load(handle))
    router = ClusterRouter(
        shards,
        vnodes=args.vnodes,
        heartbeat_s=args.heartbeat_ms / 1000.0,
        miss_limit=args.miss_limit,
        affinity=not args.spread,
        probe_tenant=args.probe_tenant,
        tracer=tracer,
        ssl_context=ssl_context,
        upstream_ssl=upstream_ssl,
        shard_token=_read_token_file(args.shard_token_file),
        auth=auth,
    )

    banner = {
        "role": "router",
        "shards": sorted(shards),
        "policy": "spread" if args.spread else "affinity",
    }
    return _run_listener(router, address, banner, args.serve_seconds,
                         closing=(metrics_server, trace_log))


def _cmd_quota(args: argparse.Namespace) -> int:
    """Inspect or reset the quota ledger a gateway persists.

    ``repro quota --state quota.json [--tenants tenants.json]`` prints
    every tenant's window usage against its policy (policies come from
    the tenants config when given, so ``exhausted`` is meaningful);
    ``--reset [--tenant ID]`` zeroes one tenant's counters, or all of
    them.  Run it against a stopped gateway — or accept that a live
    one's file trails its memory by up to ``sync_every`` charges.
    """
    from repro.serving.gateway.quota import QuotaLedger
    from repro.serving.gateway.tenants import TenantDirectory

    lookup = lambda _tenant_id: None  # noqa: E731 - no config, no policy
    if args.tenants:
        with open(args.tenants, encoding="utf-8") as handle:
            lookup = TenantDirectory.from_config(json.load(handle)).quota_policy
    ledger = QuotaLedger(lookup, state_path=args.state)
    if args.reset:
        ledger.reset(args.tenant)
        scope = f"tenant {args.tenant!r}" if args.tenant else "all tenants"
        print(json.dumps({"reset": scope, "state": args.state}))
        return 0
    report = ledger.snapshot()
    if args.tenant is not None:
        if args.tenant not in report:
            print(f"error: no usage recorded for tenant {args.tenant!r}",
                  file=sys.stderr)
            return 1
        report = {args.tenant: report[args.tenant]}
    print(json.dumps(report, indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve N simulated concurrent streams through the shared engine."""
    import time

    if args.listen:
        return _cmd_serve_gateway(args)

    from repro.gestures import ASL_GESTURES, ENVIRONMENTS, generate_users, perform_gesture
    from repro.radar import FastRadar
    from repro.serving import BatchScheduler, InferenceEngine

    if args.streams < 1:
        print("error: --streams must be >= 1", file=sys.stderr)
        return 2
    system = _apply_serve_precision(args, REGISTRY.load(args.model_dir))
    users = generate_users(args.streams, seed=args.user_seed)
    radar = FastRadar(IWR6843_CONFIG, seed=args.seed)
    gesture_names = sorted(ASL_GESTURES)

    # One recorded gesture stream per simulated device/user.
    streams: dict[str, list] = {}
    for i in range(args.streams):
        template = ASL_GESTURES[gesture_names[i % len(gesture_names)]]
        recording = perform_gesture(
            users[i % len(users)], template, radar, ENVIRONMENTS[args.environment],
            distance_m=args.distance,
            rng=np.random.default_rng(args.seed + i),
        )
        streams[f"device-{i}"] = list(recording.frames)
    num_rounds = max(len(frames) for frames in streams.values())

    backend = _build_backend(args)
    metrics_server, tracer, trace_log = _build_observability(args)
    engine = InferenceEngine(
        system,
        max_batch_size=args.max_batch,
        scheduler=BatchScheduler(slo_ms=args.slo_ms),
        backend=backend,
        hedge_ms=_hedge_arg(args.hedge_ms),
        tracer=tracer,
    )
    hub = StreamHub(engine=engine, slo_ms=args.slo_ms, base_seed=args.seed)
    for stream_id in streams:
        hub.open_stream(stream_id)

    start = time.perf_counter()
    events = []
    try:
        for round_idx in range(num_rounds):
            frames = {
                stream_id: frames[round_idx]
                for stream_id, frames in streams.items()
                if round_idx < len(frames)
            }
            events.extend(hub.push_round(frames))
            if args.watch_model and (round_idx + 1) % args.watch_every == 0:
                # Registry-backed hot reload: an overwritten checkpoint is
                # picked up between rounds; pending spans finish on the old
                # weights, later results carry the bumped model_version.
                REGISTRY.load(args.model_dir, on_change=hub.engine.swap_system)
        events.extend(hub.flush_streams())
    finally:
        backend.close()
        if metrics_server is not None:
            metrics_server.close()
        if trace_log is not None:
            trace_log.close()
    elapsed = time.perf_counter() - start

    stats = engine.stats
    snap = engine.scheduler.snapshot()
    p95 = snap["queue_p95_ms"]
    summary = {
        "streams": args.streams,
        "rounds": num_rounds,
        "backend": backend.name,
        "backend_slots": backend.slots,
        "events": len(events),
        "events_per_sec": round(len(events) / elapsed, 2) if elapsed > 0 else None,
        "engine_batches": stats.batches,
        "mean_batch": round(stats.mean_batch, 2),
        "classification_errors": len(hub.pop_errors()),
        "model_version": hub.engine.model_version,
        "model_swaps": stats.swaps,
        "slo_ms": args.slo_ms,
        "batch_limit": snap["batch_limit"],
        "deadline_flushes": snap["deadline_flushes"],
        "depth_flushes": snap["depth_flushes"],
        "idle_flushes": snap["idle_flushes"],
        "queue_p95_ms": round(p95, 3) if p95 is not None else None,
    }
    print(json.dumps(summary, indent=2))
    for stream_event in events:
        event = stream_event.event
        inner = event.event if hasattr(event, "event") else event
        print(
            f"{stream_event.stream_id}: frames [{inner.start_frame}, {inner.end_frame}): "
            f"gesture #{inner.gesture} (p={inner.gesture_confidence:.2f}), "
            f"user #{inner.user} (p={inner.user_confidence:.2f})"
        )
    return 0 if events else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print radar/library configuration")

    render = sub.add_parser("render", help="render a synthetic dataset to .npz")
    render.add_argument("--dataset", choices=sorted(DATASET_BUILDERS), default="selfcollected")
    render.add_argument("--out", required=True)
    render.add_argument("--users", type=int, default=4)
    render.add_argument("--gestures", type=int, default=4)
    render.add_argument("--reps", type=int, default=10)
    render.add_argument("--points", type=int, default=64)
    render.add_argument("--seed", type=int, default=0)

    train = sub.add_parser("train", help="train GesturePrint on a rendered dataset")
    train.add_argument("--data", required=True)
    train.add_argument("--model-dir", required=True)
    train.add_argument("--mode", choices=["serialized", "parallel"], default="serialized")
    train.add_argument("--epochs", type=int, default=20)
    train.add_argument("--batch-size", type=int, default=32)
    train.add_argument("--learning-rate", type=float, default=3e-3)
    train.add_argument("--augment-copies", type=int, default=2)
    train.add_argument("--test-fraction", type=float, default=0.2)
    train.add_argument("--small", action="store_true", default=True,
                       help="use the laptop-scale network (default)")
    train.add_argument("--seed", type=int, default=0)

    evaluate = sub.add_parser("evaluate", help="evaluate a saved model on a dataset")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--model-dir", required=True)

    demo = sub.add_parser("demo", help="stream one simulated gesture through a saved model")
    demo.add_argument("--model-dir", required=True)
    demo.add_argument("--gesture", default="push")
    demo.add_argument("--environment", default="office")
    demo.add_argument("--user", type=int, default=0)
    demo.add_argument("--user-seed", type=int, default=11)
    demo.add_argument("--distance", type=float, default=1.2)
    demo.add_argument("--work-zone", action="store_true",
                      help="print step-closer advisories (SVI-B2)")
    demo.add_argument("--seed", type=int, default=0)

    session = sub.add_parser(
        "session", help="identify one user from several fused gestures"
    )
    session.add_argument("--data", required=True)
    session.add_argument("--model-dir", required=True)
    session.add_argument("--user", type=int, default=0)
    session.add_argument("--gestures", type=int, default=3)
    session.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="micro-batch N simulated concurrent streams over one engine, "
                      "or expose it over TCP with --listen"
    )
    serve.add_argument("--model-dir", required=True)
    serve.add_argument("--listen", metavar="HOST:PORT", default=None,
                       help="start the network gateway instead of the "
                            "simulated-stream loop (port 0 picks a free port)")
    serve.add_argument("--tenants", metavar="CFG_JSON", default=None,
                       help="tenant/SLO-class config for the gateway "
                            "(classes, assignments, default_class)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="expose a Prometheus /metrics endpoint on this "
                            "side port (text exposition 0.0.4; scrape with "
                            "curl or a Prometheus job)")
    serve.add_argument("--trace-log", metavar="PATH", default=None,
                       help="append one JSON line per finished request "
                            "trace (submit->terminal lifecycle with "
                            "per-stage latencies) to PATH")
    serve.add_argument("--serve-seconds", type=float, default=None,
                       help="gateway mode: stop after this many seconds "
                            "(default: serve until interrupted)")
    serve.add_argument("--streams", type=int, default=8)
    serve.add_argument("--environment", default="office")
    serve.add_argument("--distance", type=float, default=1.2)
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--backend", choices=["inline", "thread", "process"],
                       default="inline",
                       help="where batches execute: inline (default, in "
                            "the serving thread), a thread pool, or a "
                            "process pool whose workers attach the model "
                            "as a read-only mmap'd weight arena")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker count for --backend thread/process "
                            "(defaults: 2 threads / 4 processes)")
    serve.add_argument("--heartbeat-ms", type=float, default=100.0,
                       help="process-pool supervision: idle workers "
                            "heartbeat at this interval; a silent or "
                            "SIGKILLed worker is detected, its batch "
                            "redispatched once, and a replacement spawned")
    serve.add_argument("--max-respawns", type=int, default=8,
                       help="lifetime worker-respawn budget for "
                            "--backend process; past it the pool serves "
                            "on survivors and fails cleanly when none "
                            "remain")
    serve.add_argument("--precision", choices=["float64", "float32", "int8"],
                       default="float64",
                       help="serving weight precision: float32/int8 run the "
                            "low-precision fast path (wire inputs are float32 "
                            "anyway) behind a fidelity gate that refuses to "
                            "serve a model whose posterior drift or EER delta "
                            "exceeds the per-precision bound")
    serve.add_argument("--hedge-ms", default=None, metavar="MS|auto",
                       help="duplicate a batch to a second backend slot once "
                            "it has been airborne this many ms; first result "
                            "wins, the loser is cancelled; 'auto' derives the "
                            "threshold from the scheduler's observed p95")
    serve.add_argument("--pin-cores", action="store_true",
                       help="--backend process: pin workers round-robin to "
                            "the allowed CPUs (os.sched_setaffinity; no-op "
                            "where unsupported)")
    serve.add_argument("--slo-ms", type=float, default=None,
                       help="p95 span-close -> event-delivery latency target "
                            "of the batch scheduler (adaptive batch limit, "
                            "deadline flushes); gateway mode defaults to 50")
    serve.add_argument("--watch-model", action="store_true",
                       help="re-check the checkpoint between rounds and "
                            "hot-swap an overwritten model without dropping "
                            "pending spans")
    serve.add_argument("--watch-every", type=int, default=10,
                       help="rounds between checkpoint staleness checks "
                            "(with --watch-model); in gateway mode, seconds")
    serve.add_argument("--user-seed", type=int, default=11)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--node-id", default=None,
                       help="cluster identity this shard reports in "
                            "handshakes, results, and STATS snapshots "
                            "(set by the router's spawner)")
    serve.add_argument("--tenant-cache", type=int, default=None, metavar="N",
                       help="track per-tenant model residency in an "
                            "N-slot LRU; STATS then reports the hit "
                            "rate the router's tenant affinity buys")
    serve.add_argument("--tls-cert", metavar="PEM", default=None,
                       help="serve TLS with this certificate (needs "
                            "--tls-key; wire protocol unchanged on top)")
    serve.add_argument("--tls-key", metavar="PEM", default=None,
                       help="private key for --tls-cert")
    serve.add_argument("--tls-ca", metavar="PEM", default=None,
                       help="require client certificates signed by this "
                            "CA (mutual TLS — e.g. only the cluster "
                            "router may connect to this shard)")
    serve.add_argument("--quota-state", metavar="PATH", default=None,
                       help="persist per-tenant quota counters to this "
                            "JSON file so calendar budgets survive "
                            "restarts; budgets come from the quotas "
                            "section of --tenants (inspect/reset with "
                            "`repro quota`)")

    route = sub.add_parser(
        "route", help="front N gateway shards with one consistent-hash "
                      "router endpoint"
    )
    route.add_argument("--listen", metavar="HOST:PORT", required=True,
                       help="router bind address (port 0 picks a free port)")
    route.add_argument("--shard", metavar="ID=HOST:PORT", action="append",
                       required=True,
                       help="a shard gateway to route to (repeatable)")
    route.add_argument("--vnodes", type=int, default=64,
                       help="virtual nodes per shard on the hash ring")
    route.add_argument("--heartbeat-ms", type=float, default=500.0,
                       help="per-shard STATS heartbeat interval; a shard "
                            "missing --miss-limit consecutive beats is "
                            "declared dead and leaves the ring")
    route.add_argument("--miss-limit", type=int, default=3,
                       help="consecutive missed heartbeats before a shard "
                            "is declared dead")
    route.add_argument("--spread", action="store_true",
                       help="round-robin instead of tenant-affine "
                            "consistent hashing (control/debug mode)")
    route.add_argument("--probe-tenant", default="cluster-probe",
                       help="tenant id the router's heartbeat connections "
                            "authenticate as")
    route.add_argument("--metrics-port", type=int, default=None,
                       help="expose a Prometheus /metrics endpoint on "
                            "this side port")
    route.add_argument("--trace-log", metavar="PATH", default=None,
                       help="append one JSON line per finished request "
                            "trace to PATH")
    route.add_argument("--serve-seconds", type=float, default=None,
                       help="stop after this many seconds (default: "
                            "serve until interrupted)")
    route.add_argument("--tls-cert", metavar="PEM", default=None,
                       help="serve TLS to clients with this certificate "
                            "(needs --tls-key); with --tls-ca it also "
                            "becomes the router's client certificate "
                            "for mutual-TLS shards")
    route.add_argument("--tls-key", metavar="PEM", default=None,
                       help="private key for --tls-cert")
    route.add_argument("--tls-ca", metavar="PEM", default=None,
                       help="trust pin for the shards' certificates; "
                            "giving it turns on TLS for every "
                            "router->shard hop")
    route.add_argument("--shard-token-file", metavar="PATH", default=None,
                       help="file holding the bearer token the router "
                            "presents upstream; provision it as a "
                            "service token in the shards' --tenants "
                            "config (a file, not argv: command lines "
                            "are world-readable)")
    route.add_argument("--tenants", metavar="CFG_JSON", default=None,
                       help="tenant config whose auth section the "
                            "router enforces at its own edge (client "
                            "tokens checked before any shard is "
                            "contacted)")

    quota = sub.add_parser(
        "quota", help="inspect or reset a gateway's persisted quota ledger"
    )
    quota.add_argument("--state", metavar="PATH", required=True,
                       help="the quota state file a gateway was started "
                            "with (--quota-state)")
    quota.add_argument("--tenants", metavar="CFG_JSON", default=None,
                       help="tenant config supplying the quota policies, "
                            "so the report can mark exhausted budgets")
    quota.add_argument("--tenant", metavar="ID", default=None,
                       help="restrict the report (or the reset) to one "
                            "tenant")
    quota.add_argument("--reset", action="store_true",
                       help="zero the counters instead of reporting "
                            "(all tenants, or --tenant's)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "render": _cmd_render,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "demo": _cmd_demo,
        "session": _cmd_session,
        "serve": _cmd_serve,
        "route": _cmd_route,
        "quota": _cmd_quota,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
