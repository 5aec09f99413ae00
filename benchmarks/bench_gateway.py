"""Gateway throughput/latency per tenant class over localhost TCP.

The network front-end must not give back what the serving layer won:
this bench drives a real :class:`~repro.serving.GatewayServer` over
loopback sockets and measures the frontier per SLO class:

* **serial phase** — one blocking client, one synchronous round trip at
  a time (``deadline_ms=0``: flush immediately).  This is the remote
  equivalent of per-event inference: every request rides a batch of 1.
* **per-class serial legs** — one blocking client per SLO class
  (premium, standard, batch), each sending *without* a ``deadline_ms``
  override, so the class's own SLO applies.  The gateway dispatches the
  moment a backend slot is free, so a lone request never lingers toward
  its deadline: each leg's p50 round trip must stay within 1.5x of an
  in-process ``predict_one`` of the same sample, timed alternately
  with the round trips so host-speed drift hits both sides.
* **concurrent phase** — 8 async TCP clients, each pipelining its
  requests (several in flight per connection).  The in-flight requests
  coalesce in the gateway's flush loop into depth-triggered
  micro-batches, so per-event throughput must reach >= 2x the serial
  client — the batching amortisation surviving the wire.
* **fidelity** — a gateway RESULT must be byte-identical to an
  in-process ``predict_one`` of the same (float32-quantised) cloud.
* **TLS leg** — the serial phase repeated against a TLS listener
  (self-signed loopback certificate, pinned client context): the wire
  stays byte-identical and the p95 round trip may cost at most 15%
  over plaintext — transport security must not eat the latency budget.
* **overload phase** — 4 ``batch``-class flooders paced to ~2x the
  measured capacity, against one interactive ``premium`` client.  The
  admission queue fills; shedding must land on the batch class only
  (oldest first), and the premium client's observed p95 must stay
  inside its 50 ms SLO while the flood rages.

Wall-clock bars (TLS overhead, premium p95, the per-class serial p50
ratios) are asserted only in strict mode — ``BENCH_GATEWAY_STRICT=1``,
the default; shared CI runners set ``0`` (same convention as
``bench_slo.py``).  The throughput ratio, fidelity, and shed confinement
are asserted unconditionally.  Results land in
``benchmarks/results/bench_gateway.json`` (a CI artifact).
"""

import asyncio
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.common import (
    RESULTS_DIR,
    cached_fitted_system,
    cached_selfcollected,
    emit,
    format_row,
    percentile,
)
from repro.serving import BatchScheduler, InferenceEngine
from repro.serving.gateway import (
    AsyncGatewayClient,
    BackgroundGateway,
    GatewayClient,
    GatewayError,
    GatewayServer,
    TenantDirectory,
    client_ssl_context,
    generate_self_signed_cert,
    quantise_sample,
    server_ssl_context,
)

NUM_CLIENTS = 8
SERIAL_EVENTS = 64
EVENTS_PER_CLIENT = 24  # concurrent phase: 8 x 24 = 192 events
SLO_MS = 50.0
MAX_BATCH = 32
QUEUE_LIMIT = 256
#: Acceptance bar: concurrent TCP clients must at least double the
#: serial client's per-event throughput.
MIN_SPEEDUP = 2.0
#: Overload phase: offered load as a multiple of measured capacity.
OVERLOAD_FACTOR = 2.0
OVERLOAD_SECONDS = 3.0
NUM_FLOODERS = 4
PREMIUM_EVENTS = 36
#: Acceptance bar: TLS may add at most this fraction to the serial p95.
MAX_TLS_P95_OVERHEAD = 0.15
#: Per-class serial legs: round trips per class, and the bar on each
#: leg's p50 over in-process ``predict_one`` (strict mode only).
CLASS_EVENTS = 32
MAX_CLASS_P50_RATIO = 1.5
#: One probe tenant per stock SLO class ("serial-standard" is unassigned
#: and falls to the directory's default class).
CLASS_TENANTS = {
    "premium": "serial-premium",
    "standard": "serial-standard",
    "batch": "serial-batch",
}


def _samples(count: int, seed: int = 3) -> np.ndarray:
    dataset = cached_selfcollected()
    rng = np.random.default_rng(seed)
    return dataset.inputs[rng.integers(0, dataset.num_samples, size=count)]


def _server(system, ssl_context=None) -> GatewayServer:
    """Gateway over a warmed engine (fitted latency model, BLAS pools)."""
    # safety 0.25: cap a batch's *execution* at ~25% of the tightest
    # connected SLO.  The flush runs on the event loop, so one batch
    # execution is also the window a newly-arrived premium frame can sit
    # unread; a premium round trip crosses ~two such windows plus its
    # own batch, and 3 x 25% leaves wire/GIL headroom inside the SLO.
    scheduler = BatchScheduler(slo_ms=SLO_MS, safety=0.25, margin_ms=10.0)
    engine = InferenceEngine(system, max_batch_size=MAX_BATCH, scheduler=scheduler)
    warm = _samples(3 * NUM_CLIENTS, seed=17)
    engine.predict_one(warm[0])
    for start in range(0, len(warm), NUM_CLIENTS):
        engine.predict_many(warm[start : start + NUM_CLIENTS])
    scheduler.stats.queue_window.clear()
    tenants = TenantDirectory(
        assignments={
            "premium-panel": "premium",
            "serial-premium": "premium",
            "serial-batch": "batch",
            **{f"backfill-{i}": "batch" for i in range(NUM_FLOODERS)},
        },
    )
    return GatewayServer(
        engine=engine,
        tenants=tenants,
        queue_limit=QUEUE_LIMIT,
        ssl_context=ssl_context,
    )


def _p95_ms(latencies_s: list[float]) -> float | None:
    p95 = percentile(latencies_s, 95)
    return None if p95 is None else p95 * 1e3


# ----------------------------------------------------------------------
def _serial_phase(
    host: str, port: int, samples: np.ndarray, ssl_context=None
) -> dict:
    """One blocking client, batch-of-1 round trips."""
    with GatewayClient(
        host, port, tenant="serial-probe", ssl_context=ssl_context
    ) as client:
        latencies = []
        start = time.perf_counter()
        for i in range(SERIAL_EVENTS):
            t0 = time.perf_counter()
            client.classify(samples[i % len(samples)], deadline_ms=0.0)
            latencies.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
    return {
        "events": SERIAL_EVENTS,
        "eps": SERIAL_EVENTS / elapsed,
        "rtt_p95_ms": _p95_ms(latencies),
    }


def _class_legs(host: str, port: int, system, samples: np.ndarray) -> dict:
    """Serial round trips per SLO class against in-process predict_one.

    Each wire round trip is paired with a ``predict_one`` of the same
    quantised sample, timed just before it, so both sides of a leg's
    ratio see the same host speed.
    """
    reference = InferenceEngine(system)
    legs = {}
    for slo_class, tenant in CLASS_TENANTS.items():
        wire_s: list[float] = []
        local_s: list[float] = []
        with GatewayClient(host, port, tenant=tenant) as client:
            assert client.slo_class == slo_class, (tenant, client.slo_class)
            for i in range(CLASS_EVENTS):
                sample = samples[i % len(samples)]
                t0 = time.perf_counter()
                reference.predict_one(quantise_sample(sample))
                local_s.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                client.classify(sample)  # no override: the class SLO applies
                wire_s.append(time.perf_counter() - t0)
        wire_p50 = percentile(wire_s, 50) * 1e3
        local_p50 = percentile(local_s, 50) * 1e3
        legs[slo_class] = {
            "tenant": tenant,
            "slo_ms": client.slo_ms,
            "events": CLASS_EVENTS,
            "rtt_p50_ms": wire_p50,
            "predict_one_p50_ms": local_p50,
            "p50_ratio": wire_p50 / local_p50,
        }
    return {"max_p50_ratio": MAX_CLASS_P50_RATIO, "classes": legs}


def _concurrent_phase(host: str, port: int, samples: np.ndarray) -> dict:
    """8 async clients, each pipelining its events on one connection."""

    async def run() -> tuple[int, float]:
        clients = [
            await AsyncGatewayClient.connect(host, port, tenant=f"edge-{i}")
            for i in range(NUM_CLIENTS)
        ]

        async def one_client(index: int, client: AsyncGatewayClient) -> int:
            futures = []
            for j in range(EVENTS_PER_CLIENT):
                sample = samples[(index * EVENTS_PER_CLIENT + j) % len(samples)]
                futures.append(client.submit_nowait(sample)[1])
            await client.drain()
            return len(await asyncio.gather(*futures))

        start = time.perf_counter()
        try:
            counts = await asyncio.gather(
                *(one_client(i, c) for i, c in enumerate(clients))
            )
        finally:
            for client in clients:
                await client.aclose()
        return sum(counts), time.perf_counter() - start

    events, elapsed = asyncio.run(run())
    return {"clients": NUM_CLIENTS, "events": events, "eps": events / elapsed}


def _fidelity_check(
    host: str, port: int, system, samples: np.ndarray, ssl_context=None
) -> dict:
    """Wire results must be byte-identical to in-process predict_one."""
    reference = InferenceEngine(system)
    identical = 0
    with GatewayClient(
        host, port, tenant="fidelity-probe", ssl_context=ssl_context
    ) as client:
        for sample in samples[:8]:
            wire = client.classify(sample, deadline_ms=0.0)
            local = reference.predict_one(quantise_sample(sample))
            assert wire.gesture == local.gesture and wire.user == local.user
            assert np.array_equal(wire.gesture_probs, local.gesture_probs)
            assert np.array_equal(wire.user_probs, local.user_probs)
            identical += 1
    return {"checked": identical, "byte_identical": True}


def _overload_phase(
    host: str, port: int, samples: np.ndarray, capacity_eps: float
) -> dict:
    """Flood at ~2x capacity from the batch class; measure premium p95.

    The flooders run on an asyncio loop in a background thread; the
    premium client is a *blocking* socket in this thread, so its
    measured round trips reflect the server's priority scheduling, not
    queueing behind flooder bookkeeping in a shared client loop.
    """
    import threading

    flood_rate_hz = OVERLOAD_FACTOR * capacity_eps / NUM_FLOODERS

    async def flooder(index: int) -> dict:
        client = await AsyncGatewayClient.connect(
            host, port, tenant=f"backfill-{index}"
        )
        loop = asyncio.get_running_loop()
        interval = 1.0 / flood_rate_hz
        futures = []
        counts = {"offered": 0, "delivered": 0, "shed": 0, "rejected": 0}
        try:
            next_send = loop.time()
            end = next_send + OVERLOAD_SECONDS
            i = 0
            while loop.time() < end:
                _, future = client.submit_nowait(samples[i % len(samples)])
                futures.append(future)
                counts["offered"] += 1
                i += 1
                await client.drain()
                next_send += interval
                delay = next_send - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
            for future in futures:
                try:
                    await future
                    counts["delivered"] += 1
                except GatewayError as error:
                    counts["shed" if error.code == "shed" else "rejected"] += 1
        finally:
            await client.aclose()
        return counts

    flood_counts: list[dict] = []

    def flood_thread() -> None:
        async def run():
            return await asyncio.gather(*(flooder(i) for i in range(NUM_FLOODERS)))

        flood_counts.extend(asyncio.run(run()))

    thread = threading.Thread(target=flood_thread, daemon=True)
    thread.start()
    time.sleep(0.4)  # let the flood ramp before measuring premium
    premium_latencies: list[float] = []
    premium_errors = 0
    with GatewayClient(host, port, tenant="premium-panel") as client:
        for i in range(PREMIUM_EVENTS):
            t0 = time.perf_counter()
            try:
                # Half the SLO as the scheduling deadline: headroom for
                # the wire and the flood.
                client.classify(samples[i % len(samples)], deadline_ms=SLO_MS / 2)
            except GatewayError:
                premium_errors += 1
                continue
            premium_latencies.append(time.perf_counter() - t0)
    thread.join(timeout=60.0)
    assert not thread.is_alive(), "flooders never drained"
    totals = {
        key: sum(counts[key] for counts in flood_counts)
        for key in ("offered", "delivered", "shed", "rejected")
    }
    return {
        "offered_factor": OVERLOAD_FACTOR,
        "flood_rate_hz_total": flood_rate_hz * NUM_FLOODERS,
        "premium_events": PREMIUM_EVENTS,
        "premium_errors": premium_errors,
        "premium_p95_ms": _p95_ms(premium_latencies),
        "batch": totals,
    }


def _tls_phase(system, samples: np.ndarray, plaintext_serial: dict) -> dict:
    """The serial phase again, through a TLS listener on a fresh
    (identically warmed) engine — apples-to-apples against plaintext."""
    workdir = Path(tempfile.mkdtemp(prefix="bench-gateway-tls-"))
    cert, key = generate_self_signed_cert(workdir)
    server = _server(system, ssl_context=server_ssl_context(cert, key))
    client_ctx = client_ssl_context(cert)
    with BackgroundGateway(server) as (host, port):
        serial = max(
            (_serial_phase(host, port, samples, client_ctx) for _ in range(2)),
            key=lambda phase: phase["eps"],
        )
        fidelity = _fidelity_check(host, port, system, samples, client_ctx)
    overhead = serial["rtt_p95_ms"] / plaintext_serial["rtt_p95_ms"] - 1.0
    return {
        "serial": serial,
        "fidelity": fidelity,
        "rtt_p95_overhead": overhead,
        "max_overhead": MAX_TLS_P95_OVERHEAD,
    }


# ----------------------------------------------------------------------
def _experiment() -> dict:
    system = cached_fitted_system(epochs=4)
    samples = _samples(NUM_CLIENTS * EVENTS_PER_CLIENT)
    server = _server(system)
    with BackgroundGateway(server) as (host, port):
        # Serial runs first, then the concurrent runs back-to-back: the
        # adaptive batch limit re-learns per-sample cost from whatever it
        # just served, so interleaving the phases would make every
        # concurrent run pay the batch-1 -> batched adaptation ramp
        # again.  Best-of-N on each side rides out machine-wide noise.
        serial = max(
            (_serial_phase(host, port, samples) for _ in range(2)),
            key=lambda phase: phase["eps"],
        )
        class_legs = _class_legs(host, port, system, samples)
        concurrent = max(
            (_concurrent_phase(host, port, samples) for _ in range(3)),
            key=lambda phase: phase["eps"],
        )
        fidelity = _fidelity_check(host, port, system, samples)
        overload = _overload_phase(host, port, samples, concurrent["eps"])
        with GatewayClient(host, port, tenant="snapshot-probe") as probe:
            snapshot = probe.stats()
    tls = _tls_phase(system, samples, serial)
    return {
        "slo_ms": SLO_MS,
        "serial": serial,
        "class_legs": class_legs,
        "concurrent": concurrent,
        "speedup": concurrent["eps"] / serial["eps"],
        "fidelity": fidelity,
        "tls": tls,
        "overload": overload,
        "server": {
            "engine": snapshot["engine"],
            "scheduler": snapshot["scheduler"],
            "gateway": snapshot["gateway"],
            "tenants": {
                tenant_id: counters
                for tenant_id, counters in snapshot["tenants"].items()
                if tenant_id == "premium-panel" or tenant_id.startswith("backfill")
            },
        },
    }


def _report(results: dict) -> list[str]:
    serial, concurrent = results["serial"], results["concurrent"]
    overload = results["overload"]
    widths = (34, 14)
    return [
        f"Gateway frontier — {NUM_CLIENTS} TCP clients over loopback, "
        f"{SLO_MS:.0f} ms premium SLO",
        format_row(("metric", "value"), widths),
        format_row(("serial (batch=1) eps", f"{serial['eps']:.1f}"), widths),
        format_row(("serial rtt p95", f"{serial['rtt_p95_ms']:.1f} ms"), widths),
        *(
            format_row(
                (f"{name} serial p50 / predict_one",
                 f"{leg['rtt_p50_ms']:.1f}/{leg['predict_one_p50_ms']:.1f} ms "
                 f"({leg['p50_ratio']:.2f}x)"),
                widths,
            )
            for name, leg in results["class_legs"]["classes"].items()
        ),
        format_row(("concurrent eps", f"{concurrent['eps']:.1f}"), widths),
        format_row(("speedup", f"{results['speedup']:.2f}x"), widths),
        format_row(("wire fidelity", "byte-identical"), widths),
        format_row(("tls serial rtt p95",
                    f"{results['tls']['serial']['rtt_p95_ms']:.1f} ms"), widths),
        format_row(("tls p95 overhead",
                    f"{results['tls']['rtt_p95_overhead']:+.1%}"), widths),
        format_row(("overload offered", f"{overload['flood_rate_hz_total']:.0f} /s "
                                        f"({OVERLOAD_FACTOR:.0f}x capacity)"), widths),
        format_row(("premium p95 under overload",
                    f"{overload['premium_p95_ms']:.1f} ms"), widths),
        format_row(("premium errors", overload["premium_errors"]), widths),
        format_row(("batch shed / offered",
                    f"{overload['batch']['shed']}/{overload['batch']['offered']}"),
                   widths),
        format_row(("batch rejected (caps)", overload["batch"]["rejected"]), widths),
        format_row(("engine mean batch",
                    f"{results['server']['engine']['mean_batch']:.1f}"), widths),
    ]


def _emit_json(results: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_gateway.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )


def _check(results: dict) -> None:
    overload = results["overload"]
    assert results["fidelity"]["byte_identical"]
    assert results["speedup"] >= MIN_SPEEDUP, (
        f"{NUM_CLIENTS} concurrent clients only reached "
        f"{results['speedup']:.2f}x the serial client (need >= {MIN_SPEEDUP}x)"
    )
    # Shedding is confined to the batch class: the flood was shed, the
    # premium client never was.
    assert overload["batch"]["shed"] >= 1, "the 2x-capacity flood was never shed"
    assert overload["premium_errors"] == 0, (
        f"premium saw {overload['premium_errors']} rejections under overload"
    )
    premium = results["server"]["tenants"]["premium-panel"]
    assert premium["shed"] == 0 and premium["rejected"] == 0
    assert results["tls"]["fidelity"]["byte_identical"]
    # Absolute tail latency only in strict mode (shared-runner noise).
    if os.environ.get("BENCH_GATEWAY_STRICT", "1") != "0":
        overhead = results["tls"]["rtt_p95_overhead"]
        assert overhead <= MAX_TLS_P95_OVERHEAD, (
            f"TLS added {overhead:+.1%} to the serial p95 "
            f"(budget {MAX_TLS_P95_OVERHEAD:.0%})"
        )
        assert overload["premium_p95_ms"] <= SLO_MS, (
            f"premium p95 {overload['premium_p95_ms']:.1f} ms broke the "
            f"{SLO_MS:.0f} ms SLO under the batch flood"
        )
        for name, leg in results["class_legs"]["classes"].items():
            assert leg["p50_ratio"] <= MAX_CLASS_P50_RATIO, (
                f"{name}-class serial p50 {leg['rtt_p50_ms']:.1f} ms is "
                f"{leg['p50_ratio']:.2f}x in-process predict_one "
                f"(bar {MAX_CLASS_P50_RATIO}x)"
            )


@pytest.mark.benchmark(group="serving")
def test_gateway_frontier(benchmark):
    results = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    emit("gateway_frontier", _report(results))
    _emit_json(results)
    _check(results)


if __name__ == "__main__":
    results = _experiment()
    print("\n".join(_report(results)))
    _emit_json(results)
    _check(results)
