"""Unit tests for the serving building blocks.

Covers the HTTP/1.1 codec (both directions share it, so these tests pin
the framing contract), the admission machinery (token buckets, the rate
limiter's bounded client table, the EDF planning slots), the wire
protocol decoder, and the fixed-bucket histogram.  Everything here is
deterministic: clocks are injected, and the only event loop used is a
throwaway ``asyncio.run`` per test (no pytest-asyncio in this repo).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import GatewayProtocolError, ValidationError
from repro.profiles.serialization import profile_to_dict
from repro.runtime.metrics import Histogram
from repro.serve import admission
from repro.serve.admission import DeadlineQueue, RateLimiter, TokenBucket
from repro.serve.http11 import (
    read_request,
    read_response,
    render_request,
    render_response,
)
from repro.serve.protocol import (
    decode_plan_request,
    encode_payload,
    error_payload,
)
from repro.workloads.synthetic import SyntheticConfig, generate_scenario


def parse_request(data: bytes, **kwargs):
    async def inner():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(inner())


def parse_response(data: bytes):
    async def inner():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_response(reader)

    return asyncio.run(inner())


class TestHttpCodec:
    def test_request_round_trip(self):
        wire = render_request("POST", "/plan", b'{"x":1}')
        request = parse_request(wire)
        assert request.method == "POST"
        assert request.path == "/plan"
        assert request.body == b'{"x":1}'
        assert request.keep_alive

    def test_response_round_trip(self):
        wire = render_response(429, b'{"status":"shed"}',
                               headers={"Retry-After": "0.5"})
        response = parse_response(wire)
        assert response.status == 429
        assert response.headers["retry-after"] == "0.5"
        assert response.body == b'{"status":"shed"}'

    def test_connection_close_disables_keep_alive(self):
        request = parse_request(render_request("GET", "/healthz",
                                               keep_alive=False))
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert parse_request(b"") is None

    def test_malformed_request_line_raises(self):
        with pytest.raises(GatewayProtocolError):
            parse_request(b"GARBAGE\r\n\r\n")

    def test_non_http_version_raises(self):
        with pytest.raises(GatewayProtocolError):
            parse_request(b"GET /x SPDY/3\r\n\r\n")

    def test_malformed_header_raises(self):
        with pytest.raises(GatewayProtocolError):
            parse_request(b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n")

    def test_bad_content_length_raises(self):
        with pytest.raises(GatewayProtocolError):
            parse_request(b"GET /x HTTP/1.1\r\ncontent-length: ten\r\n\r\n")
        # Only ASCII digits (RFC 9110 1*DIGIT), although int() takes the
        # rest; requests and responses share the rule.
        for value in ("+2", "0_2", "-0", " 2 2", "", "\u00b2", "2.0"):
            field = f"content-length: {value}\r\n\r\nab".encode("latin-1")
            with pytest.raises(GatewayProtocolError):
                parse_request(b"POST /x HTTP/1.1\r\n" + field)
            with pytest.raises(GatewayProtocolError):
                parse_response(b"HTTP/1.1 200 OK\r\n" + field)

    def test_oversized_body_rejected_without_reading_it(self):
        head = b"POST /plan HTTP/1.1\r\ncontent-length: 100\r\n\r\n"
        with pytest.raises(GatewayProtocolError) as excinfo:
            parse_request(head + b"x" * 100, max_body=10)
        assert excinfo.value.status == 413

    def test_chunked_encoding_rejected(self):
        wire = b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
        with pytest.raises(GatewayProtocolError):
            parse_request(wire)

    def test_truncated_body_raises(self):
        wire = b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort"
        with pytest.raises(GatewayProtocolError):
            parse_request(wire)

    def test_truncated_response_raises(self):
        with pytest.raises(GatewayProtocolError):
            parse_response(b"")


class TestTokenBucket:
    def test_burst_then_refuses(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=3)
        assert [bucket.try_acquire(0.0) for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_with_time(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=1)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.1)  # one token refilled

    def test_retry_after_is_time_to_one_token(self):
        bucket = TokenBucket(rate_per_s=2.0, burst=1)
        bucket.try_acquire(0.0)
        assert bucket.retry_after_s(0.0) == pytest.approx(0.5)

    def test_burst_caps_the_refill(self):
        bucket = TokenBucket(rate_per_s=100.0, burst=2)
        bucket.try_acquire(0.0)
        # A long idle period still leaves only ``burst`` tokens.
        assert [bucket.try_acquire(100.0) for _ in range(3)] == [
            True, True, False,
        ]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            TokenBucket(rate_per_s=0.0, burst=1)
        with pytest.raises(ValidationError):
            TokenBucket(rate_per_s=1.0, burst=0)


class TestRateLimiter:
    def test_disabled_admits_everything(self):
        limiter = RateLimiter(rate_per_s=0.0, burst=1)
        assert not limiter.enabled
        for _ in range(100):
            admitted, retry = limiter.check("greedy", 0.0)
            assert admitted and retry == 0.0

    def test_per_client_isolation(self):
        limiter = RateLimiter(rate_per_s=1.0, burst=1)
        assert limiter.check("a", 0.0) == (True, 0.0)
        admitted, retry = limiter.check("a", 0.0)
        assert not admitted and retry > 0
        # Client b has its own bucket and is unaffected by a's burst.
        assert limiter.check("b", 0.0) == (True, 0.0)

    def test_invalid_config_fails_at_construction(self):
        # Buckets are created lazily per client, but a misconfigured
        # limiter must fail when the daemon starts, not on the first
        # request.
        with pytest.raises(ValidationError):
            RateLimiter(rate_per_s=1.0, burst=0.5)
        with pytest.raises(ValidationError):
            RateLimiter(rate_per_s=-1.0, burst=10)
        # Disabled limiting ignores burst entirely.
        assert not RateLimiter(rate_per_s=0.0, burst=0.0).enabled

    def test_client_table_bounded_by_evicting_oldest(self, monkeypatch):
        monkeypatch.setattr(admission, "MAX_CLIENTS", 2)
        limiter = RateLimiter(rate_per_s=1.0, burst=1)
        limiter.check("old", 0.0)
        limiter.check("mid", 1.0)
        limiter.check("new", 2.0)  # evicts "old"
        # "old" returns with a fresh, full bucket: admitted again.
        admitted, _ = limiter.check("old", 2.0)
        assert admitted


class TestDeadlineQueue:
    """Planning slots, granted earliest deadline first."""

    def test_grants_in_deadline_order(self):
        async def scenario():
            queue = DeadlineQueue(maxsize=8, slots=1)
            holder = queue.enter(0.0)
            waiting = {
                name: queue.enter(deadline)
                for name, deadline in (("late", 3.0), ("early", 1.0), ("mid", 2.0))
            }
            order = []
            for _ in waiting:
                queue.leave()
                order.extend(
                    name
                    for name, ticket in waiting.items()
                    if ticket.done() and name not in order
                )
            return holder.result(), order

        granted_at_once, order = asyncio.run(scenario())
        assert granted_at_once is True
        assert order == ["early", "mid", "late"]

    def test_full_queue_sheds(self):
        async def scenario():
            queue = DeadlineQueue(maxsize=2, slots=1)
            queue.enter(1.0)
            queue.enter(2.0)
            queue.enter(3.0)
            return queue.enter(4.0), len(queue)

        shed, waiting = asyncio.run(scenario())
        assert shed is None
        assert waiting == 2

    def test_leave_hands_the_slot_to_one_waiter(self):
        async def scenario():
            queue = DeadlineQueue(maxsize=8, slots=1)
            queue.enter(0.0)
            first = queue.enter(5.0)
            queue.leave()
            # The slot went to the waiter: a newcomer still waits.
            second = queue.enter(1.0)
            handed = first.result(), second.done()
            queue.leave()
            queue.leave()
            # Nobody waits now: the slot is free for the next arrival.
            return handed, second.result(), queue.enter(9.0).result()

        handed, second, newcomer = asyncio.run(scenario())
        assert handed == (True, False)
        assert second is True
        assert newcomer is True

    def test_drain_pending_turns_every_waiter_away(self):
        async def scenario():
            queue = DeadlineQueue(maxsize=8, slots=1)
            holder = queue.enter(0.0)
            waiting = [queue.enter(2.0), queue.enter(1.0)]
            queue.drain_pending()
            return holder.result(), [t.result() for t in waiting], len(queue)

        holder, waiting, remaining = asyncio.run(scenario())
        assert holder is True
        assert waiting == [False, False]
        assert remaining == 0

    def test_leave_skips_a_cancelled_waiter(self):
        async def scenario():
            queue = DeadlineQueue(maxsize=8, slots=1)
            queue.enter(0.0)
            gone = queue.enter(1.0)
            later = queue.enter(2.0)
            gone.cancel()
            queue.leave()
            return later.result()

        assert asyncio.run(scenario()) is True

    def test_cancel_after_the_grant_gives_the_slot_back(self):
        # The gateway's request task holds the slot from the grant on,
        # even if it is cancelled before it resumes.
        from repro.serve.gateway import GatewayConfig, PlanningGateway
        from repro.serve.http11 import HttpRequest

        scenario_ = generate_scenario(
            SyntheticConfig(seed=7, n_services=10, n_formats=6, n_nodes=6)
        )

        async def scenario():
            gateway = PlanningGateway(scenario_, GatewayConfig(port=0, workers=1))
            queue = gateway._queue
            queue.enter(0.0)
            task = asyncio.get_running_loop().create_task(
                gateway._admit_plan(
                    HttpRequest("POST", "/plan", body=b"{}"), decode_plan_request
                )
            )
            await asyncio.sleep(0)  # the request now waits for the slot
            queue.leave()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return queue.enter(9.0).done()

        assert asyncio.run(scenario()) is True

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValidationError):
            DeadlineQueue(maxsize=0, slots=1)
        with pytest.raises(ValidationError):
            DeadlineQueue(maxsize=1, slots=0)


class TestPlanRequestDecoding:
    @pytest.fixture(scope="class")
    def scenario(self):
        return generate_scenario(SyntheticConfig(seed=3, n_services=6,
                                                 n_formats=5, n_nodes=4))

    def test_minimal_body_defaults(self, scenario):
        envelope = decode_plan_request(b"{}", scenario.registry, 1000.0)
        assert envelope.client == "anonymous"
        assert envelope.deadline_ms is None
        assert envelope.device is None

    def test_inline_device_profile_decodes(self, scenario):
        body = encode_payload({
            "client": "tests",
            "deadline_ms": 100,
            "device": profile_to_dict(scenario.device),
        })
        envelope = decode_plan_request(body, scenario.registry, 1000.0)
        assert envelope.client == "tests"
        assert envelope.deadline_ms == 100.0
        assert envelope.device == scenario.device

    def test_not_json_raises(self, scenario):
        with pytest.raises(ValidationError):
            decode_plan_request(b"not json", scenario.registry, 1000.0)

    def test_non_object_raises(self, scenario):
        with pytest.raises(ValidationError):
            decode_plan_request(b"[1,2]", scenario.registry, 1000.0)

    def test_bad_client_raises(self, scenario):
        with pytest.raises(ValidationError):
            decode_plan_request(b'{"client": ""}', scenario.registry, 1000.0)

    def test_deadline_bounds_enforced(self, scenario):
        for bad in ('{"deadline_ms": 0}', '{"deadline_ms": -5}',
                    '{"deadline_ms": 5000}', '{"deadline_ms": true}',
                    '{"deadline_ms": "fast"}'):
            with pytest.raises(ValidationError):
                decode_plan_request(bad.encode(), scenario.registry, 1000.0)

    def test_wrong_profile_tag_raises(self, scenario):
        body = encode_payload({"device": profile_to_dict(scenario.user)})
        with pytest.raises(ValidationError):
            decode_plan_request(body, scenario.registry, 1000.0)

    def test_non_object_profile_raises(self, scenario):
        with pytest.raises(ValidationError):
            decode_plan_request(b'{"device": 7}', scenario.registry, 1000.0)

    def test_bad_endpoint_raises(self, scenario):
        with pytest.raises(ValidationError):
            decode_plan_request(b'{"sender": 3}', scenario.registry, 1000.0)


class TestPayloads:
    def test_error_payload_shape(self):
        payload = error_payload("shed", "queue full", queue_ms=1.25)
        assert payload == {"status": "shed", "detail": "queue full",
                           "queue_ms": 1.25}

    def test_encode_is_canonical(self):
        a = encode_payload({"b": 1, "a": 2})
        b = encode_payload({"a": 2, "b": 1})
        assert a == b == b'{"a":2,"b":1}'


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = Histogram((1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.to_dict()["counts"] == [1, 1, 1, 1]
        assert hist.count == 4

    def test_quantiles_report_bucket_bounds(self):
        hist = Histogram((1.0, 10.0, 100.0))
        for _ in range(99):
            hist.observe(0.5)
        hist.observe(50.0)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(1.0) == 100.0

    def test_overflow_reports_last_finite_bound(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(100.0)
        assert hist.quantile(0.99) == 2.0

    def test_empty_histogram(self):
        hist = Histogram((1.0,))
        assert hist.quantile(0.99) == 0.0
        assert hist.mean() == 0.0

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValidationError):
            Histogram((2.0, 1.0))

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValidationError):
            Histogram((1.0,)).quantile(0.0)


class TestLoadgenValidation:
    def test_requests_must_be_positive(self):
        from repro.serve.loadgen import LoadgenConfig, run_loadgen

        scenario = generate_scenario(SyntheticConfig(seed=1, n_services=4,
                                                     n_formats=4, n_nodes=3))
        with pytest.raises(ValidationError):
            asyncio.run(run_loadgen(scenario,
                                    LoadgenConfig(requests=0)))
