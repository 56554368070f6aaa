"""Query-helper coverage for :class:`repro.events.EventLog`."""

import pytest

from repro.cluster.journal import Journal
from repro.events import (
    FAULT_DETECTED,
    JOURNAL_TRUNCATED,
    REPLANNED,
    REQUEST_RETRIED,
    Event,
    EventLog,
)


@pytest.fixture
def log():
    log = EventLog()
    log.record(FAULT_DETECTED, chip=(0, 1, 0), op="all_gather")
    log.record(REPLANNED, plan="2x1x2")
    log.record(REQUEST_RETRIED, request_id=3)
    log.record(REQUEST_RETRIED, request_id=5)
    return log


class TestEvent:
    def test_getitem_and_get(self):
        event = Event(kind="k", seq=0, data={"a": 1})
        assert event["a"] == 1
        assert event.get("a") == 1
        assert event.get("missing", "fallback") == "fallback"
        with pytest.raises(KeyError):
            event["missing"]

    def test_seq_is_append_order(self, log):
        assert [e.seq for e in log] == [0, 1, 2, 3]


class TestQueries:
    def test_of_kind(self, log):
        retried = log.of_kind(REQUEST_RETRIED)
        assert [e["request_id"] for e in retried] == [3, 5]
        assert log.of_kind("nonexistent") == []

    def test_query_by_kind_and_predicate(self, log):
        out = log.query(REQUEST_RETRIED,
                        where=lambda e: e["request_id"] > 4)
        assert [e["request_id"] for e in out] == [5]

    def test_query_predicate_only(self, log):
        out = log.query(where=lambda e: "chip" in e.data)
        assert [e.kind for e in out] == [FAULT_DETECTED]

    def test_query_no_filters_copies(self, log):
        out = log.query()
        assert out == log.events
        out.append("sentinel")
        assert len(log) == 4  # the returned list is a copy

    def test_kinds_timeline(self, log):
        assert log.kinds() == [FAULT_DETECTED, REPLANNED,
                               REQUEST_RETRIED, REQUEST_RETRIED]

    def test_assert_sequence_in_order(self, log):
        log.assert_sequence(FAULT_DETECTED, REPLANNED, REQUEST_RETRIED)
        log.assert_sequence(FAULT_DETECTED, REQUEST_RETRIED)

    def test_assert_sequence_rejects_wrong_order(self, log):
        with pytest.raises(AssertionError, match="not found in order"):
            log.assert_sequence(REPLANNED, FAULT_DETECTED)

    def test_assert_sequence_counts_repeats(self, log):
        log.assert_sequence(REQUEST_RETRIED, REQUEST_RETRIED)
        with pytest.raises(AssertionError):
            log.assert_sequence(REQUEST_RETRIED, REQUEST_RETRIED,
                                REQUEST_RETRIED)

    def test_len_and_record_returns_event(self):
        log = EventLog()
        event = log.record("custom", value=1)
        assert len(log) == 1
        assert event.kind == "custom" and event["value"] == 1


class TestRingBuffer:
    """A plain :class:`EventLog` is unbounded; the one bounded log is the
    :class:`Journal` ring, which drops its oldest records loudly: the
    first drop appends one ``journal_truncated`` notice (itself a record
    that takes a seq and a slot) and ``truncated`` counts every drop."""

    def test_unbounded_by_default(self):
        for log in (EventLog(), Journal()):
            for i in range(100):
                log.record("k", i=i)
            assert len(log) == 100
            assert [e["i"] for e in log] == list(range(100))
        assert log.truncated == 0

    def test_bound_drops_oldest(self):
        log = Journal(max_records=3)
        for i in range(5):
            log.record("k", i=i)
        assert len(log) == 3
        assert [e["i"] for e in log.of_kind("k")] == [3, 4]
        assert log.truncated == 3

    def test_seq_keeps_counting_past_drops(self):
        log = Journal(max_records=2)
        for i in range(5):
            log.record("k", i=i)
        # The surviving events carry their true lifetime emission index
        # (seq 3 went to the truncation notice, itself since dropped).
        assert [(e.seq, e["i"]) for e in log] == [(4, 3), (5, 4)]
        assert log.next_seq == 6

    def test_queries_see_only_retained_events(self):
        log = Journal(max_records=2)
        log.record(FAULT_DETECTED)
        log.record(REPLANNED)
        log.record(REQUEST_RETRIED, request_id=1)
        assert log.kinds() == [REQUEST_RETRIED, JOURNAL_TRUNCATED]
        assert log.of_kind(FAULT_DETECTED) == []
        with pytest.raises(AssertionError):
            log.assert_sequence(FAULT_DETECTED, REPLANNED)

    def test_bound_of_one(self):
        log = Journal(max_records=1)
        log.record("a")
        log.record("b")
        # The notice takes the only slot at the first drop.
        assert log.kinds() == [JOURNAL_TRUNCATED] and log.truncated == 2
        log.record("c")
        assert log.kinds() == ["c"] and log.truncated == 3

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_invalid_bound_rejected(self, bad):
        with pytest.raises(ValueError, match="max_records must be >= 1"):
            Journal(max_records=bad)


class TestTimestamps:
    def test_t_s_is_a_field_not_data(self):
        log = EventLog()
        event = log.record("k", t_s=0.25, value=1)
        assert event.t_s == 0.25
        assert event.data == {"value": 1}

    def test_unstamped_without_a_clock(self, log):
        assert all(e.t_s is None for e in log)

    def test_clock_stamps_only_when_the_emitter_gives_none(self):
        log = EventLog()
        now = {"t": 1.5}
        log.clock = lambda: now["t"]
        first = log.record("a")
        now["t"] = 2.0
        second = log.record("b", t_s=0.5)
        assert (first.t_s, second.t_s) == (1.5, 0.5)

    def test_next_seq_counts_records(self, log):
        assert log.next_seq == len(log) == 4
