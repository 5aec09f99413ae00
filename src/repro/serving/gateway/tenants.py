"""Per-tenant SLO classes, weighted priority admission, and shedding.

The gateway serves many tenants from one engine, and they are not equal:
an interactive smart-home controller needs its 50 ms p95 held even while
an analytics backfill replays a day of recordings.  This module is the
*policy* half of that story — pure data structures with no sockets and
no engine, so every decision is unit-testable with a fake clock:

* :class:`SLOClass` — a named service tier: drain priority and weight,
  per-request latency budget (``slo_ms``), a per-tenant in-flight cap,
  an optional per-tenant token-bucket rate (``rate_per_s``/``burst``),
  and whether queued requests of this class may be shed under overload.
* :class:`TokenBucket` — the rate limiter: refills ``rate_per_s`` tokens
  per second up to ``burst``; a SUBMIT that finds the bucket empty is
  rejected with the distinct ``rate_limited`` error code *before* the
  in-flight caps or the waiting room are consulted, so a tenant blowing
  its contracted rate is told so explicitly instead of burning queue
  seats it would only get shed out of.
* :class:`TenantDirectory` — maps tenant ids to classes (static
  assignments plus a default class), materialising per-tenant counters
  lazily; built from a plain dict so ``repro serve --tenants cfg.json``
  can define deployments declaratively.
* :class:`AdmissionQueue` — the waiting room between the socket layer
  and the engine.  ``offer`` enforces the per-tenant in-flight cap and,
  when the room is full, sheds the **oldest request of the most
  sheddable (lowest-priority) class first**, so overload lands on the
  ``batch`` tier while ``premium`` requests keep their seats.
  ``take_front_class`` drains class-pure batches in weighted priority
  order — classes spend ``weight`` cycle credits highest-priority
  first, then the credits refill — so premium dominates the engine's
  drain without starving batch traffic outright, and no premium request
  ever shares (and waits out) a batch-class vectorised call.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Iterable, Mapping

from repro.serving.gateway.quota import QuotaPolicy, parse_quota_policies
from repro.serving.gateway.security import TenantAuthenticator
from repro.serving.observability.metrics import LatencyWindow


class TokenBucket:
    """Classic token bucket: ``rate_per_s`` refill, ``burst`` capacity.

    Starts full (a tenant's first burst is honoured), refills lazily on
    each :meth:`try_take` from the supplied ``now`` — the caller's clock,
    so tests drive it deterministically and the gateway reuses each
    request's arrival timestamp instead of re-reading the clock.
    """

    __slots__ = ("rate_per_s", "burst", "tokens", "updated")

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0.0:
            raise ValueError("rate_per_s must be > 0")
        if burst < 1.0:
            raise ValueError("burst must be >= 1")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated: float | None = None

    def try_take(self, now: float) -> bool:
        """Spend one token if available; refill from elapsed time first."""
        if self.updated is not None and now > self.updated:
            self.tokens = min(
                self.burst, self.tokens + (now - self.updated) * self.rate_per_s
            )
        if self.updated is None or now > self.updated:
            self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class SLOClass:
    """One service tier of the gateway.

    ``priority`` orders classes for draining (lower value drains first);
    ``weight`` is the class's share of drain *cycles* (class-pure
    batches) per weighted round, so two classes one priority apart still
    share throughput ``weight_hi : weight_lo`` instead of strict
    starvation.  ``rate_per_s``/``burst`` configure a *per-tenant* token
    bucket checked ahead of the in-flight caps (None = unlimited;
    ``burst`` defaults to one second's worth of tokens, floor 1).
    """

    name: str
    priority: int
    weight: int = 1
    slo_ms: float | None = None
    max_in_flight: int = 64
    sheddable: bool = False
    rate_per_s: float | None = None
    burst: float | None = None

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError("weight must be >= 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.slo_ms is not None and self.slo_ms < 0:
            raise ValueError("slo_ms must be >= 0")
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be > 0")
        if self.burst is not None:
            if self.burst < 1:
                raise ValueError("burst must be >= 1")
            if self.rate_per_s is None:
                raise ValueError("burst without rate_per_s has no meaning")

    def make_bucket(self) -> TokenBucket | None:
        """A fresh per-tenant bucket, or None when the class is unmetered."""
        if self.rate_per_s is None:
            return None
        burst = self.burst if self.burst is not None else max(self.rate_per_s, 1.0)
        return TokenBucket(self.rate_per_s, burst)


def default_classes() -> dict[str, SLOClass]:
    """The stock three-tier deployment (premium / standard / batch)."""
    classes = (
        SLOClass("premium", priority=0, weight=4, slo_ms=50.0, max_in_flight=128),
        SLOClass("standard", priority=1, weight=2, slo_ms=200.0, max_in_flight=64),
        SLOClass(
            "batch", priority=2, weight=1, slo_ms=None, max_in_flight=512,
            sheddable=True,
        ),
    )
    return {cls.name: cls for cls in classes}


@dataclass
class TenantStats:
    """Admission/delivery counters of one tenant, plus a small sliding
    window of delivered latencies (seconds) for SLO attainment."""

    submitted: int = 0
    delivered: int = 0
    failed: int = 0
    shed: int = 0
    rejected: int = 0
    rate_limited: int = 0
    in_flight: int = 0
    latency_window: LatencyWindow = field(
        default_factory=lambda: LatencyWindow(maxlen=256), repr=False
    )

    def record_latency(self, latency_s: float) -> None:
        """Push one delivery latency into the sliding p95 window."""
        self.latency_window.append(latency_s)

    @property
    def p95_ms(self) -> float | None:
        """p95 delivery latency (ms) over the sliding window, or None."""
        p95 = self.latency_window.p95()
        return None if p95 is None else p95 * 1e3

    def as_dict(self) -> dict:
        """JSON-ready counters (one tenant row of the STATS reply)."""
        return {
            "submitted": self.submitted,
            "delivered": self.delivered,
            "failed": self.failed,
            "shed": self.shed,
            "rejected": self.rejected,
            "rate_limited": self.rate_limited,
            "in_flight": self.in_flight,
            "p95_ms": self.p95_ms,
        }


@dataclass
class Tenant:
    """One named tenant bound to its SLO class, with live counters and
    (when the class meters submissions) its own token bucket."""

    tenant_id: str
    slo_class: SLOClass
    stats: TenantStats = field(default_factory=TenantStats)
    bucket: TokenBucket | None = None


class TenantDirectory:
    """Tenant id -> :class:`Tenant`, with declarative construction.

    Parameters
    ----------
    classes:
        Name -> :class:`SLOClass`; defaults to :func:`default_classes`.
    assignments:
        Static tenant id -> class-name map.
    default_class:
        Class for tenants with no static assignment.  ``None`` makes
        unknown tenants a handshake error instead.
    auth:
        A :class:`~repro.serving.gateway.security.TenantAuthenticator`
        verifying HELLO bearer tokens; None serves unauthenticated
        (trusted-LAN posture).
    quotas / default_quota:
        Per-tenant :class:`~repro.serving.gateway.quota.QuotaPolicy`
        budgets (plus the fallback for unlisted tenants), consulted by
        the server's :class:`~repro.serving.gateway.quota.QuotaLedger`
        through :meth:`quota_policy` on every check — so a
        :meth:`reload` applies new budgets without a restart.

    Thread-safety: construction and :meth:`reload` must happen on the
    serving event loop (or before the server starts); ``resolve`` and
    the snapshot methods are loop-confined like the rest of admission.
    """

    def __init__(
        self,
        *,
        classes: Mapping[str, SLOClass] | None = None,
        assignments: Mapping[str, str] | None = None,
        default_class: str | None = "standard",
        auth: TenantAuthenticator | None = None,
        quotas: Mapping[str, QuotaPolicy] | None = None,
        default_quota: QuotaPolicy | None = None,
    ) -> None:
        self.classes = dict(classes) if classes is not None else default_classes()
        self.assignments = {str(k): str(v) for k, v in (assignments or {}).items()}
        unknown = sorted(set(self.assignments.values()) - set(self.classes))
        if unknown:
            raise ValueError(f"assignments name undefined SLO classes: {unknown}")
        if default_class is not None and default_class not in self.classes:
            raise ValueError(f"default_class {default_class!r} is not defined")
        self.default_class = default_class
        self.auth = auth
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota
        self._tenants: dict[str, Tenant] = {}

    @staticmethod
    def _classes_from_config(config: Mapping[str, Any]) -> dict[str, SLOClass]:
        """The effective class table: overrides merged over stock tiers."""
        classes = default_classes()
        for name, spec in dict(config.get("classes", {})).items():
            base = classes.get(name)
            merged = {
                "priority": spec.get(
                    "priority", base.priority if base else len(classes)
                ),
                "weight": spec.get("weight", base.weight if base else 1),
                "slo_ms": spec.get("slo_ms", base.slo_ms if base else None),
                "max_in_flight": spec.get(
                    "max_in_flight", base.max_in_flight if base else 64
                ),
                "sheddable": spec.get("sheddable", base.sheddable if base else False),
                "rate_per_s": spec.get(
                    "rate_per_s", base.rate_per_s if base else None
                ),
                "burst": spec.get("burst", base.burst if base else None),
            }
            classes[name] = SLOClass(name=name, **merged)
        return classes

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "TenantDirectory":
        """Build from the ``--tenants cfg.json`` schema::

            {"classes": {"premium": {"priority": 0, "weight": 4,
                                     "slo_ms": 50, "max_in_flight": 128,
                                     "sheddable": false,
                                     "rate_per_s": 200, "burst": 50}, ...},
             "tenants": {"device-7": "premium", ...},
             "default_class": "standard",
             "auth": {"required": true,
                      "tokens": {"device-7": "sha256:<salt>:<digest>"},
                      "service_tokens": ["sha256:<salt>:<digest>"]},
             "quotas": {"default": {"daily_requests": 100000},
                        "device-7": {"daily_requests": 500,
                                     "monthly_compute_s": 120.0}}}

        ``classes`` may be omitted (stock tiers) or partial (overrides
        merge over the stock tiers).  ``rate_per_s``/``burst`` define the
        per-tenant token bucket (omit for unmetered classes).  ``auth``
        and ``quotas`` are optional: absent, the directory serves
        unauthenticated and unmetered (the pre-hardening posture).
        """
        quotas, default_quota = parse_quota_policies(config)
        return cls(
            classes=cls._classes_from_config(config),
            assignments=config.get("tenants"),
            default_class=config.get("default_class", "standard"),
            auth=TenantAuthenticator.from_config(config),
            quotas=quotas,
            default_quota=default_quota,
        )

    def reload(self, config: Mapping[str, Any]) -> None:
        """Apply a changed ``--tenants`` config to a *live* directory.

        Semantics (documented contract, tested by
        ``tests/serving/test_security.py``):

        * **Connected tenants keep their connections.**  A handshake is
          authenticated once; reload never severs established sessions.
        * **Class changes apply to materialised tenants immediately**:
          each already-seen tenant is re-pointed at its (possibly new)
          class, its stats intact.  Its token bucket is rebuilt only
          when the class's rate terms actually changed, so an unchanged
          bucket keeps its current fill instead of granting a free
          burst.
        * **Auth changes apply to the next handshake**: the
          authenticator is swapped wholesale, so a revoked token can no
          longer open *new* connections (drop existing sockets to evict
          a live session).
        * **Quota changes apply to the next request**: the server's
          ledger resolves policies through :meth:`quota_policy` at
          check time, so new budgets bind without restart — usage
          counters are never reset by a reload.

        Raises ValueError (directory unchanged) when the new config is
        invalid, mirroring construction-time validation.
        """
        replacement = TenantDirectory.from_config(config)
        self.classes = replacement.classes
        self.assignments = replacement.assignments
        self.default_class = replacement.default_class
        self.auth = replacement.auth
        self.quotas = replacement.quotas
        self.default_quota = replacement.default_quota
        stale = [
            tenant_id
            for tenant_id, tenant in self._tenants.items()
            if self.assignments.get(tenant_id, self.default_class) is None
        ]
        for tenant_id in stale:
            # The new config rejects this tenant outright; forget the
            # record so the next handshake sees `unknown_tenant`.
            del self._tenants[tenant_id]
        for tenant in self._tenants.values():
            class_name = self.assignments.get(tenant.tenant_id, self.default_class)
            new_class = self.classes[class_name]
            old_class = tenant.slo_class
            tenant.slo_class = new_class
            if (new_class.rate_per_s, new_class.burst) != (
                old_class.rate_per_s,
                old_class.burst,
            ):
                tenant.bucket = new_class.make_bucket()

    # ------------------------------------------------------------------
    def resolve(self, tenant_id: str) -> Tenant | None:
        """The tenant record for ``tenant_id``; None when unknown tenants
        are rejected (no assignment and no default class)."""
        tenant_id = str(tenant_id)
        tenant = self._tenants.get(tenant_id)
        if tenant is not None:
            return tenant
        class_name = self.assignments.get(tenant_id, self.default_class)
        if class_name is None:
            return None
        slo_class = self.classes[class_name]
        tenant = Tenant(
            tenant_id=tenant_id,
            slo_class=slo_class,
            bucket=slo_class.make_bucket(),
        )
        self._tenants[tenant_id] = tenant
        return tenant

    def quota_policy(self, tenant_id: str) -> QuotaPolicy | None:
        """The quota budget binding ``tenant_id`` right now (explicit
        row, else the ``default`` row, else None = unmetered).  Called
        by the server's ledger on every check, so :meth:`reload` takes
        effect on the next request."""
        return self.quotas.get(str(tenant_id), self.default_quota)

    @property
    def tenants(self) -> list[Tenant]:
        """Every tenant materialised so far (resolution order)."""
        return list(self._tenants.values())

    def snapshot(self) -> dict[str, dict]:
        """Per-tenant counters, keyed by tenant id."""
        return {
            tenant.tenant_id: {
                "slo_class": tenant.slo_class.name,
                **tenant.stats.as_dict(),
            }
            for tenant in self._tenants.values()
        }


class AdmissionQueue:
    """Bounded waiting room with class-aware shedding and weighted drain.

    Items are anything carrying a ``tenant`` attribute (the gateway's
    request records).  The queue never touches the engine: ``offer``
    decides *whether* a request waits, ``take_front_class`` decides *in
    what order* admitted requests reach the engine.
    """

    def __init__(
        self,
        classes: Iterable[SLOClass],
        *,
        queue_limit: int = 256,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.queue_limit = queue_limit
        self.clock = clock
        #: Drain order: highest priority (lowest value) first.
        self._classes = sorted(classes, key=lambda cls: (cls.priority, cls.name))
        self._queues: dict[str, Deque] = {cls.name: deque() for cls in self._classes}
        #: Weighted-cycle credits (see :meth:`take_front_class`).
        self._credits: dict[str, int] = {cls.name: cls.weight for cls in self._classes}

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    @property
    def depths(self) -> dict[str, int]:
        """Queued requests per class name (the STATS ``queue_depths``)."""
        return {name: len(queue) for name, queue in self._queues.items()}

    def rebind(self, classes: Iterable[SLOClass]) -> None:
        """Adopt a reloaded class table without dropping queued work.

        Every queued request is re-bucketed under its tenant's *current*
        class (the directory re-pointed tenants during its reload), so
        requests survive class renames/removals and new classes drain
        correctly.  Credits restart at a fresh weighted round — a
        one-off, bounded unfairness.
        """
        self._classes = sorted(classes, key=lambda cls: (cls.priority, cls.name))
        pending = [
            request for queue in self._queues.values() for request in queue
        ]
        self._queues = {cls.name: deque() for cls in self._classes}
        self._credits = {cls.name: cls.weight for cls in self._classes}
        for request in pending:
            self._queues[request.tenant.slo_class.name].append(request)

    # ------------------------------------------------------------------
    def offer(self, request, *, now: float | None = None) -> tuple[bool, str | None, list]:
        """Admit one request, possibly at another's expense.

        Returns ``(admitted, reject_code, shed_victims)``:

        * a metered tenant (its class sets ``rate_per_s``) whose token
          bucket is empty is rejected with ``rate_limited`` **before**
          any other check — rate is a contract on *offered* load, so it
          must not depend on how much room or in-flight headroom happens
          to be left; ``now`` (default: this queue's clock) drives the
          bucket refill, and the gateway passes each request's arrival
          timestamp so admission and scheduling share one time base;
        * the tenant's in-flight cap rejects outright (``over_capacity``)
          — explicit backpressure to that client;
        * a full room sheds the oldest request of the lowest-priority
          sheddable class to make space; the victims are returned so the
          caller can notify their clients;
        * a full room with nothing sheddable (and an unsheddable
          arrival) rejects the arrival with ``queue_full``; a sheddable
          arrival is itself the preferred victim (``shed``).
        """
        tenant: Tenant = request.tenant
        slo_class = tenant.slo_class
        if tenant.bucket is not None:
            if not tenant.bucket.try_take(self.clock() if now is None else now):
                tenant.stats.rate_limited += 1
                return False, "rate_limited", []
        if tenant.stats.in_flight >= slo_class.max_in_flight:
            tenant.stats.rejected += 1
            return False, "over_capacity", []
        victims: list = []
        while len(self) >= self.queue_limit:
            victim = self._pop_shed_victim(max_priority=slo_class.priority)
            if victim is None:
                if slo_class.sheddable:
                    tenant.stats.shed += 1
                    return False, "shed", victims
                tenant.stats.rejected += 1
                return False, "queue_full", victims
            victims.append(victim)
        self._queues[slo_class.name].append(request)
        tenant.stats.submitted += 1
        tenant.stats.in_flight += 1
        return True, None, victims

    def _pop_shed_victim(self, *, max_priority: int):
        """Oldest queued request of the most sheddable class, or None.

        Only classes strictly *less important* than ``max_priority`` — or
        equally important but sheddable — may lose their seat to the
        arrival, so a batch flood can never evict a premium request.
        """
        for cls in reversed(self._classes):  # lowest priority first
            if not cls.sheddable or cls.priority < max_priority:
                continue
            queue = self._queues[cls.name]
            if queue:
                victim = queue.popleft()
                victim.tenant.stats.in_flight -= 1
                victim.tenant.stats.shed += 1
                return victim
        return None

    # ------------------------------------------------------------------
    def take_front_class(self, max_items: int) -> list:
        """Drain up to ``max_items`` from one class — the weighted pick.

        Batch composition is **class-pure**: the engine executes a flush
        as one vectorised call, so a premium request sharing a batch
        with batch-class riders would wait out their rows too.  Weights
        apportion the *cycles* instead of the rows: each class holds
        ``weight`` cycle credits; every call picks the most important
        non-empty class with credit left and spends one, and when no
        non-empty class has credit the credits refill.  With premium
        (weight 4) and batch (weight 1) both backlogged, premium gets 4
        consecutive class-pure batches, then batch gets 1 — a 4:1 cycle
        share with no starvation and no mixed executions.
        """
        if max_items < 1:
            return []
        chosen = None
        for cls in self._classes:
            if self._queues[cls.name] and self._credits[cls.name] > 0:
                chosen = cls
                break
        if chosen is None:
            # Every non-empty class is out of credit (or holds none
            # because only credit-less empty classes remain funded):
            # start a fresh weighted round.
            self._credits = {cls.name: cls.weight for cls in self._classes}
            for cls in self._classes:
                if self._queues[cls.name]:
                    chosen = cls
                    break
        if chosen is None:
            return []
        self._credits[chosen.name] -= 1
        queue = self._queues[chosen.name]
        count = min(max_items, len(queue))
        return [queue.popleft() for _ in range(count)]

    def purge(self, predicate: Callable[[Any], bool]) -> list:
        """Remove (and return) every queued request matching ``predicate``,
        releasing its tenant's in-flight slot — the disconnect path."""
        removed: list = []
        for queue in self._queues.values():
            kept = deque()
            while queue:
                request = queue.popleft()
                if predicate(request):
                    request.tenant.stats.in_flight -= 1
                    removed.append(request)
                else:
                    kept.append(request)
            queue.extend(kept)
        return removed
