"""Property: the cached witness iteration traffic equals its definition.

:func:`repro.core.witness.witness_round_traffic` computes the quiescence
traffic of one witness iteration once per distinct
``(n, t, round_number, tuple(participants))`` and hands the same result to
every later caller.  The reference below is the uncached definition: it sizes
one explicitly built :class:`~repro.net.message.Message` per originator and
kind with :func:`~repro.net.message.message_bits` and scales by the fan-out.
Round numbers are drawn around the powers of two where the round field
(``ceil(log2(round + 2))`` bits) and the integer tag (``bit_length``) widen.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.witness import REPORT_KIND, witness_round_traffic
from repro.net.message import Message, message_bits
from repro.net.rbc import echo_quorum

ROUND_BOUNDARIES = sorted(
    {
        round_number
        for k in range(1, 13)
        for round_number in (2**k - 2, 2**k - 1, 2**k, 2**k + 1)
        if round_number >= 1
    }
)


def reference_traffic(n, t, round_number, participants):
    """``(by_kind, bits_by_kind, sends_per_participant, completes)``, uncached."""
    count = len(participants)
    by_kind, bits_by_kind = {}, {}
    if count == 0:
        return by_kind, bits_by_kind, 0, False

    def instance_bits(kind):
        return sum(
            message_bits(Message(kind=kind, value=0.0, tag=(round_number, s)))
            for s in participants
        )

    by_kind["RBC_INIT"] = count * n
    bits_by_kind["RBC_INIT"] = n * instance_bits("RBC_INIT")
    by_kind["RBC_ECHO"] = count * count * n
    bits_by_kind["RBC_ECHO"] = count * n * instance_bits("RBC_ECHO")
    sends = n + count * n
    if count >= echo_quorum(n, t):
        by_kind["RBC_READY"] = count * count * n
        bits_by_kind["RBC_READY"] = count * n * instance_bits("RBC_READY")
        sends += count * n
    completes = count >= n - t
    if completes:
        report = Message(
            kind=REPORT_KIND,
            round=round_number,
            value=tuple(sorted(participants)[: n - t]),
        )
        by_kind[REPORT_KIND] = count * n
        bits_by_kind[REPORT_KIND] = count * n * message_bits(report)
        sends += n
    return by_kind, bits_by_kind, sends, completes


@st.composite
def traffic_keys(draw):
    """``(n, t, round_number, participants)`` with participants in any order."""
    n = draw(st.integers(min_value=4, max_value=40))
    t = draw(st.integers(min_value=0, max_value=(n - 1) // 3))
    round_number = draw(
        st.sampled_from(ROUND_BOUNDARIES) | st.integers(min_value=1, max_value=5000)
    )
    # Empty, just below the echo quorum (no READY), just below n - t (a stall
    # with or without READY), exactly n - t, everybody, or anything.
    count = draw(
        st.sampled_from([0, echo_quorum(n, t) - 1, n - t - 1, n - t, n])
        | st.integers(min_value=0, max_value=n)
    )
    order = draw(st.permutations(range(n)))
    return n, t, round_number, list(order[:count])


def assert_matches_reference(traffic, key):
    by_kind, bits_by_kind, sends, completes = reference_traffic(*key)
    assert dict(traffic.by_kind) == by_kind
    assert dict(traffic.bits_by_kind) == bits_by_kind
    assert traffic.sends_per_participant == sends
    assert traffic.completes == completes
    assert traffic.messages == sum(by_kind.values())
    assert traffic.bits == sum(bits_by_kind.values())


class TestCachedTraffic:
    @given(traffic_keys())
    def test_cold_and_warm_cache_match_the_definition(self, key):
        witness_round_traffic.cache_clear()
        cold = witness_round_traffic(*key)
        assert_matches_reference(cold, key)
        warm = witness_round_traffic(*key)
        assert warm is cold
        assert_matches_reference(warm, key)

    @given(traffic_keys())
    def test_shared_result_is_read_only(self, key):
        traffic = witness_round_traffic(*key)
        with pytest.raises(TypeError):
            traffic.by_kind["RBC_INIT"] = 0
        with pytest.raises(TypeError):
            traffic.bits_by_kind["RBC_INIT"] = 0
        assert_matches_reference(witness_round_traffic(*key), key)
