"""Admission control for the cluster front end.

Production serving never lets offered load hit the accelerators raw: a
front-end *admission controller* decides, per request, whether capacity
exists — and rejects with an explicit, typed error when it does not, so
clients can back off instead of timing out.  Three mechanisms compose:

* **Token-bucket rate limiting** per :class:`PriorityClass` — sustained
  rate plus a burst allowance, refilled on the cluster's *virtual*
  clock, so chaos scenarios exercise it deterministically.
* **Bounded queues with backpressure** — each class has a queue depth
  limit; a full queue rejects (:class:`QueueFull`) rather than growing
  without bound.  Dequeue order is strict priority, FIFO within class.
* **Per-replica circuit breakers** — consecutive
  :class:`~repro.mesh.faults.MeshFault`\\ s open the breaker (dispatch
  stops), a cooldown later it half-opens and admits one probe; a probe
  success closes it, a probe failure re-opens it.

Every admission, rejection, limit change and breaker transition is
recorded once, to the ``journal`` the component is given — on a cluster
control plane its write-ahead :class:`~repro.cluster.journal.Journal`,
from which the trace marks are derived; standalone, any
:class:`~repro.events.EventLog` — so shed load is as visible as served
load.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

from repro.events import (
    ADMISSION_LIMITS_CHANGED,
    ADMISSION_REJECTED,
    BREAKER_TRANSITION,
    REQUEST_ADMITTED,
    EventLog,
)


class AdmissionError(RuntimeError):
    """Base class for typed admission rejections (never a timeout)."""

    def __init__(self, message: str, *, request_id: int,
                 priority_class: str):
        super().__init__(message)
        self.request_id = request_id
        self.priority_class = priority_class


class RateLimited(AdmissionError):
    """The class's token bucket is empty: offered rate exceeds the limit."""


class QueueFull(AdmissionError):
    """The class's bounded queue is at capacity: backpressure."""


class NoHealthyReplica(AdmissionError):
    """Dispatch found no replica both healthy and breaker-admissible."""


class ClassShed(AdmissionError):
    """The class is temporarily shed (brownout); re-offer after recovery.

    Raised only for *new* submissions while :meth:`AdmissionController.
    set_limits` has marked the class non-accepting — requests already in
    the queue are never evicted."""


@dataclass(frozen=True)
class PriorityClass:
    """One traffic class: its rate limit, burst and queue bound.

    ``priority`` orders dispatch (lower value wins); ``rate``/``burst``
    parameterize the token bucket; ``queue_limit`` bounds the backlog.
    """

    name: str
    priority: int = 0
    rate: float = 100.0          # sustained admissions per second
    burst: int = 16              # bucket capacity (instantaneous burst)
    queue_limit: int = 64        # bounded backlog

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}")


#: Default single-class policy: generous limits, mostly a pass-through.
DEFAULT_CLASSES = (PriorityClass("default"),)


class TokenBucket:
    """Deterministic token bucket on an externally-supplied clock."""

    def __init__(self, rate: float, burst: int):
        self.rate = rate
        self.burst = burst
        self.level = float(burst)
        self._last_s = 0.0

    def try_take(self, now_s: float) -> bool:
        """Refill to ``now_s`` and take one token if available."""
        if now_s > self._last_s:
            self.level = min(self.burst,
                             self.level + (now_s - self._last_s) * self.rate)
            self._last_s = now_s
        if self.level >= 1.0:
            self.level -= 1.0
            return True
        return False


class AdmissionController:
    """Token buckets + bounded priority queues over the virtual clock."""

    def __init__(self, classes=DEFAULT_CLASSES,
                 journal: EventLog | None = None):
        self.classes = {c.name: c for c in classes}
        if len(self.classes) != len(classes):
            raise ValueError("duplicate priority class names")
        self.journal = journal if journal is not None else EventLog()
        self._buckets = {c.name: TokenBucket(c.rate, c.burst)
                         for c in classes}
        self._queues: dict[str, deque] = {c.name: deque() for c in classes}
        self._accepting = {c.name: True for c in classes}
        self.admitted = 0
        self.rejected: dict[str, int] = {}

    def _reject(self, error_cls, message: str, request_id: int,
                class_name: str, now_s: float) -> AdmissionError:
        error = error_cls(message, request_id=request_id,
                          priority_class=class_name)
        self.rejected[error_cls.__name__] = \
            self.rejected.get(error_cls.__name__, 0) + 1
        self.journal.record(ADMISSION_REJECTED, t_s=now_s,
                            request_id=request_id,
                            priority_class=class_name,
                            error=error_cls.__name__, detail=message)
        return error

    def submit(self, item, request_id: int, now_s: float,
               class_name: str = "default") -> None:
        """Admit ``item`` into its class queue or raise a typed rejection.

        ``item`` is opaque to the controller (the control plane enqueues
        its wrapped requests); ``request_id`` is only used for the event
        record and the error payload.
        """
        cls = self.classes.get(class_name)
        if cls is None:
            raise ValueError(f"unknown priority class {class_name!r}; "
                             f"have {sorted(self.classes)}")
        if not self._accepting[class_name]:
            raise self._reject(
                ClassShed,
                f"class {class_name!r} is shed (brownout) at "
                f"t={now_s:.4f}s",
                request_id, class_name, now_s)
        if not self._buckets[class_name].try_take(now_s):
            raise self._reject(
                RateLimited,
                f"class {class_name!r} over its {cls.rate:g}/s rate "
                f"(burst {cls.burst}) at t={now_s:.4f}s",
                request_id, class_name, now_s)
        queue = self._queues[class_name]
        if len(queue) >= cls.queue_limit:
            raise self._reject(
                QueueFull,
                f"class {class_name!r} queue at its bound "
                f"{cls.queue_limit} at t={now_s:.4f}s",
                request_id, class_name, now_s)
        queue.append(item)
        self.admitted += 1
        self.journal.record(REQUEST_ADMITTED, t_s=now_s,
                            request_id=request_id,
                            priority_class=class_name)

    def backlog(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def backlog_per_class(self) -> dict[str, int]:
        """Queue depth per class (every class, zeros included)."""
        return {name: len(q) for name, q in self._queues.items()}

    def heads(self) -> list:
        """Head item of each non-empty queue, in strict priority order.

        The first entry is exactly what the next :meth:`next_batch` call
        will dequeue first; the control plane peeks it to age-trigger
        partial-group dispatch.
        """
        return [self._queues[cls.name][0]
                for cls in self._ordered_classes()
                if self._queues[cls.name]]

    def _ordered_classes(self) -> list[PriorityClass]:
        return sorted(self.classes.values(),
                      key=lambda c: (c.priority, c.name))

    def next_batch(self, max_items: int,
                   key: Callable | None = None) -> list:
        """Dequeue up to ``max_items`` in strict priority order.

        FIFO within a class; a higher-priority class always drains
        before a lower one (priority inversion is the chaos scenarios'
        job to disprove).

        With ``key``, the batch is additionally *homogeneous* under
        ``key(item)`` — the control plane batches by prompt length so
        every group can merge its KV caches.  The key of the overall
        head item (highest priority, oldest) defines the batch, so
        keying never starves a higher-priority class; non-matching
        items are left queued in their original order.
        """
        out: list = []
        batch_key = None
        for cls in self._ordered_classes():
            queue = self._queues[cls.name]
            skipped = []
            while queue and len(out) < max_items:
                item = queue.popleft()
                if key is not None:
                    item_key = key(item)
                    if not out:
                        batch_key = item_key
                    elif item_key != batch_key:
                        skipped.append(item)
                        continue
                out.append(item)
            for item in reversed(skipped):
                queue.appendleft(item)
            if len(out) >= max_items:
                break
        return out

    def set_limits(self, class_name: str, *, rate: float | None = None,
                   burst: int | None = None,
                   queue_limit: int | None = None,
                   accept: bool | None = None, now_s: float = 0.0,
                   reason: str = "") -> None:
        """Retune one class's limits mid-run, without losing anything.

        Tightening applies to *future* submissions only: items already
        queued are never evicted (they were admitted under the old
        contract), and a queue above a lowered ``queue_limit`` simply
        drains without accepting new entries.  ``accept=False`` sheds
        the class entirely (new submissions raise :class:`ClassShed`)
        until a later ``accept=True`` — the brownout ladder's last rung.
        Every call is one typed :data:`~repro.events.
        ADMISSION_LIMITS_CHANGED` record carrying the class's resulting
        ``accept`` flag — the one piece of replayable *state* here (the
        rate/burst knobs only shape future admissions, which are
        recorded individually).
        """
        cls = self.classes.get(class_name)
        if cls is None:
            raise ValueError(f"unknown priority class {class_name!r}; "
                             f"have {sorted(self.classes)}")
        updates = {}
        if rate is not None:
            updates["rate"] = rate
        if burst is not None:
            updates["burst"] = burst
        if queue_limit is not None:
            updates["queue_limit"] = queue_limit
        if updates:
            self.classes[class_name] = replace(cls, **updates)
            bucket = self._buckets[class_name]
            if rate is not None:
                bucket.rate = rate
            if burst is not None:
                bucket.burst = burst
                bucket.level = min(bucket.level, float(burst))
        if accept is not None:
            self._accepting[class_name] = accept
        self.journal.record(
            ADMISSION_LIMITS_CHANGED, t_s=now_s, priority_class=class_name,
            accept=self._accepting[class_name], reason=reason, **updates)


class BreakerState(str, Enum):
    CLOSED = "closed"          # normal dispatch
    OPEN = "open"              # failures tripped it; no dispatch
    HALF_OPEN = "half_open"    # cooldown elapsed; one probe allowed


class CircuitBreaker:
    """Per-replica breaker: open on consecutive faults, probe to close."""

    def __init__(self, name: str, *, failure_threshold: int = 3,
                 cooldown_s: float = 1.0,
                 journal: EventLog | None = None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.journal = journal if journal is not None else EventLog()
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._opened_at_s = 0.0

    def _transition(self, state: BreakerState, now_s: float,
                    reason: str) -> None:
        if state is self.state:
            return
        old, self.state = self.state, state
        self.journal.record(BREAKER_TRANSITION, t_s=now_s,
                            breaker=self.name, old=old.value,
                            new=state.value, reason=reason)

    def allow(self, now_s: float) -> bool:
        """May a request be dispatched through this breaker at ``now_s``?

        In ``OPEN``, cooldown expiry transitions to ``HALF_OPEN`` and the
        answer becomes yes — but exactly as a probe: the next recorded
        failure re-opens immediately, a success closes.
        """
        if self.state is BreakerState.OPEN:
            if now_s - self._opened_at_s >= self.cooldown_s:
                self._transition(BreakerState.HALF_OPEN, now_s,
                                 f"cooldown {self.cooldown_s:g}s elapsed")
            else:
                return False
        return True

    def record_success(self, now_s: float) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED, now_s, "probe succeeded")

    def record_failure(self, now_s: float, reason: str = "") -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN or \
                self.consecutive_failures >= self.failure_threshold:
            self._opened_at_s = now_s
            self._transition(
                BreakerState.OPEN, now_s,
                reason or f"{self.consecutive_failures} consecutive "
                          f"failures")
