"""Unit tests for message types and wire-size accounting."""

from __future__ import annotations

import pytest

from repro.net.message import (
    FLOAT_BITS,
    KIND_BITS,
    MESSAGE_BITS_CACHE_SIZE,
    Message,
    _payload_bits,
    _remembered_bits,
    message_bits,
)


class TestMessage:
    def test_equality_is_value_based(self):
        assert Message("VALUE", round=1, value=0.5) == Message("VALUE", round=1, value=0.5)
        assert Message("VALUE", round=1, value=0.5) != Message("VALUE", round=2, value=0.5)

    def test_messages_are_hashable(self):
        messages = {Message("A"), Message("A"), Message("B")}
        assert len(messages) == 2

    def test_messages_are_immutable(self):
        message = Message("VALUE", round=1, value=0.5)
        with pytest.raises(AttributeError):
            message.value = 0.7  # type: ignore[misc]

    def test_with_round_copies_other_fields(self):
        message = Message("VALUE", value=0.5, tag=("x", 3))
        tagged = message.with_round(7)
        assert tagged.round == 7
        assert tagged.value == 0.5
        assert tagged.tag == ("x", 3)
        assert message.round is None  # original untouched

    def test_repr_contains_kind(self):
        assert "VALUE" in repr(Message("VALUE", round=2, value=1.0, tag="t"))


class TestMessageBits:
    def test_bare_message_costs_kind_only(self):
        assert message_bits(Message("HALT")) == KIND_BITS

    def test_float_payload_costs_a_word(self):
        assert message_bits(Message("X", value=1.25)) == KIND_BITS + FLOAT_BITS

    def test_round_tag_grows_logarithmically(self):
        small = message_bits(Message("X", round=1))
        large = message_bits(Message("X", round=1000))
        assert small < large
        assert large - KIND_BITS <= 16

    def test_integer_payload_costs_bit_length(self):
        assert message_bits(Message("X", value=0)) == KIND_BITS + 2
        assert message_bits(Message("X", value=255)) == KIND_BITS + 9

    def test_bool_payload(self):
        assert message_bits(Message("X", value=True)) == KIND_BITS + 1

    def test_container_payload_sums_elements(self):
        single = message_bits(Message("X", value=(1,)))
        double = message_bits(Message("X", value=(1, 1)))
        assert double > single

    def test_string_payload(self):
        assert message_bits(Message("X", value="ab")) == KIND_BITS + 16

    def test_dict_payload(self):
        bits = message_bits(Message("X", value={"a": 1}))
        assert bits > KIND_BITS

    def test_tag_contributes(self):
        untagged = message_bits(Message("X", value=1.0))
        tagged = message_bits(Message("X", value=1.0, tag=(3, 4)))
        assert tagged > untagged

    def test_unknown_payload_charged_a_word(self):
        class Opaque:
            pass

        assert message_bits(Message("X", value=Opaque())) == KIND_BITS + FLOAT_BITS


class TestMessageBitsMemo:
    """:func:`message_bits` remembers sizes without merging equal payloads."""

    @pytest.mark.parametrize("tag, tag_bits", [(None, 0), ((0, 1), 8)])
    def test_equal_payloads_of_different_types_keep_their_sizes(self, tag, tag_bits):
        # 1, 1.0 and True compare and hash equal, so the three messages do
        # too; each is charged for its own type, whichever comes first.
        payloads = (1, 1.0, True)
        for order in (payloads, payloads[::-1]):
            for payload in order * 2:
                expected = {int: 12, float: 74, bool: 11}[type(payload)] + tag_bits
                message = Message("VALUE", round=1, value=payload, tag=tag)
                assert message_bits(message) == expected

    def test_equal_tuples_of_different_item_types_keep_their_sizes(self):
        for value, tag in (((1,), None), ((1.0,), None), (None, (1, 2)), (None, (1.0, 2))):
            message = Message("X", value=value, tag=tag)
            assert message_bits(message) == KIND_BITS + _payload_bits(value) + _payload_bits(tag)

    @pytest.mark.parametrize(
        "payload",
        [[1, 2.0], {1, 2.5}, {"a": 1, 2: [True]}, ([1],), frozenset({1, 9.0}), frozenset({9, 1.0})],
    )
    def test_containers_are_charged_what_payload_bits_charges(self, payload):
        for _ in range(2):
            assert message_bits(Message("X", value=payload)) == KIND_BITS + _payload_bits(payload)
            assert message_bits(Message("X", tag=payload)) == KIND_BITS + _payload_bits(payload)

    def test_memo_stays_bounded(self):
        for index in range(100_000):
            message_bits(Message("RBC_ECHO", value=float(index), tag=(index % 7, 3)))
        assert _remembered_bits.cache_info().currsize == MESSAGE_BITS_CACHE_SIZE
