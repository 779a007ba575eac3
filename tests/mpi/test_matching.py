"""Tests for the receive-matching engine."""

import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, Envelope, MatchingEngine
from repro.sim import Simulator


def _env(src=0, tag=0, nbytes=100, payload=None):
    return Envelope(src=src, dst=1, tag=tag, nbytes=nbytes, payload=payload)


def test_posted_recv_matches_arriving_message():
    engine = MatchingEngine(Simulator(), rank=1)
    request = engine.post(source=0, tag=7)
    assert not request.complete
    engine.deliver(_env(src=0, tag=7, payload="hi"))
    assert request.complete
    assert request.envelope.payload == "hi"
    assert request.status.source == 0
    assert request.status.tag == 7


def test_unexpected_message_matched_by_later_recv():
    engine = MatchingEngine(Simulator(), rank=1)
    engine.deliver(_env(src=3, tag=9, payload="early"))
    assert engine.unexpected_count == 1
    request = engine.post(source=3, tag=9)
    assert request.complete
    assert request.envelope.payload == "early"
    assert engine.unexpected_count == 0


def test_wrong_source_does_not_match():
    engine = MatchingEngine(Simulator(), rank=1)
    request = engine.post(source=2, tag=0)
    engine.deliver(_env(src=3, tag=0))
    assert not request.complete
    assert engine.unexpected_count == 1


def test_wrong_tag_does_not_match():
    engine = MatchingEngine(Simulator(), rank=1)
    request = engine.post(source=0, tag=1)
    engine.deliver(_env(src=0, tag=2))
    assert not request.complete


def test_any_source_wildcard():
    engine = MatchingEngine(Simulator(), rank=1)
    request = engine.post(source=ANY_SOURCE, tag=4)
    engine.deliver(_env(src=9, tag=4))
    assert request.complete
    assert request.status.source == 9


def test_any_tag_wildcard():
    engine = MatchingEngine(Simulator(), rank=1)
    request = engine.post(source=5, tag=ANY_TAG)
    engine.deliver(_env(src=5, tag=77))
    assert request.complete
    assert request.status.tag == 77


def test_full_wildcard():
    engine = MatchingEngine(Simulator(), rank=1)
    request = engine.post(source=ANY_SOURCE, tag=ANY_TAG)
    engine.deliver(_env(src=2, tag=3))
    assert request.complete


def test_fifo_matching_of_posted_receives():
    """Two identical posts match in post order."""
    engine = MatchingEngine(Simulator(), rank=1)
    first = engine.post(source=0, tag=0)
    second = engine.post(source=0, tag=0)
    engine.deliver(_env(src=0, tag=0, payload="a"))
    engine.deliver(_env(src=0, tag=0, payload="b"))
    assert first.envelope.payload == "a"
    assert second.envelope.payload == "b"


def test_fifo_matching_of_unexpected_messages():
    """A wildcard recv takes the oldest matching unexpected message."""
    engine = MatchingEngine(Simulator(), rank=1)
    engine.deliver(_env(src=0, tag=0, payload="old"))
    engine.deliver(_env(src=0, tag=0, payload="new"))
    request = engine.post(source=ANY_SOURCE, tag=ANY_TAG)
    assert request.envelope.payload == "old"


def test_selective_match_skips_nonmatching_unexpected():
    engine = MatchingEngine(Simulator(), rank=1)
    engine.deliver(_env(src=0, tag=1, payload="skip"))
    engine.deliver(_env(src=0, tag=2, payload="take"))
    request = engine.post(source=0, tag=2)
    assert request.envelope.payload == "take"
    assert engine.unexpected_count == 1


def test_counters():
    engine = MatchingEngine(Simulator(), rank=1)
    engine.post(source=0, tag=0)
    engine.post(source=0, tag=1)
    assert engine.posted_count == 2
    engine.deliver(_env(src=0, tag=0))
    assert engine.posted_count == 1


def test_delivery_timestamps_envelope():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    sim.run()
    engine = MatchingEngine(sim, rank=1)
    envelope = _env()
    engine.deliver(envelope)
    assert envelope.delivered_at == 3.0


def test_request_kind_validation():
    from repro.mpi import Request

    with pytest.raises(ValueError):
        Request(Simulator(), "bogus")
