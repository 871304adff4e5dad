"""Tests for the one ServiceConfig surface: keyword construction and replace()."""

import dataclasses

import pytest

from repro.protocol.matching import MATCHING_STRATEGIES, TOKEN_ORDERS, MatchingOptions
from repro.service import ServiceConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.scheme == "huffman"

    def test_outcome_reuse_has_no_switch(self):
        # Remembered outcomes are the engine's only behaviour, not an option.
        with pytest.raises(TypeError):
            ServiceConfig(incremental=True)
        assert "incremental" not in {field.name for field in dataclasses.fields(MatchingOptions)}

    def test_scheme_aliases_are_normalised(self):
        assert ServiceConfig(scheme="bary").scheme == "huffman-bary"
        assert ServiceConfig(scheme=" Canonical ").scheme == "huffman-canonical"

    @pytest.mark.parametrize(
        "kwargs,choices",
        [
            ({"scheme": "morse"}, "huffman"),
            ({"matching_strategy": "quantum"}, "planned"),
            ({"token_order": "slowest"}, "cheapest"),
            ({"crypto_backend": "openssl"}, "reference"),
        ],
    )
    def test_bad_choice_errors_list_alternatives(self, kwargs, choices):
        """Every choice validator names all recognised values in its error."""
        with pytest.raises(ValueError) as excinfo:
            ServiceConfig(**kwargs)
        message = str(excinfo.value)
        bad_value = next(iter(kwargs.values()))
        assert repr(bad_value) in message
        assert choices in message

    def test_strategy_error_lists_every_strategy(self):
        with pytest.raises(ValueError) as excinfo:
            ServiceConfig(matching_strategy="nope")
        for strategy in MATCHING_STRATEGIES:
            assert strategy in str(excinfo.value)

    def test_order_error_lists_every_order(self):
        with pytest.raises(ValueError) as excinfo:
            ServiceConfig(token_order="nope")
        for order in TOKEN_ORDERS:
            assert order in str(excinfo.value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alphabet_size": 1},
            {"prime_bits": 8},
            {"max_age_seconds": 0},
            {"max_age_seconds": -5.0},
            {"faults": "torn_snapshot=-1"},
            {"alphabet_size": 0},
            {"prime_bits": 15},
            {"faults": "fsync_delay=2"},
            # Lane, ack and spool fault sites went with the worker tiers.
            {"faults": "kill=0.1"},
            {"faults": "corrupt_spool=1"},
            {"net": "127.0.0.1:7425"},
            {"net": {"host": ""}},
            {"net": {"port": -1}},
            {"net": {"port": 65536}},
            {"net": {"max_inflight": 0}},
            {"net": {"max_inflight": 8, "low_water": 8}},
            {"net": {"low_water": -1}},
            {"net": {"batch_max": 0}},
            {"net": {"batch_window_ms": -0.5}},
            {"net": {"max_frame_bytes": 1023}},
            {"net": {"wire_format": "xml"}},
            {"net": {"drain_timeout_seconds": -1.0}},
            {"net": {"max_inflight_per_conn": 0}},
            {"net": {"max_inflight": 4, "max_inflight_per_conn": 5}},
            {"net": {"codec_threads": -1}},
            {"net": {"codec_offload_bytes": -1}},
        ],
    )
    def test_numeric_bounds(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestDerivedViews:
    def test_matching_options_round_trip(self):
        config = ServiceConfig(
            matching_strategy="naive",
            token_order="declared",
            dedupe=False,
            subsume=False,
        )
        options = config.matching_options()
        assert options.strategy == "naive"
        assert options.order == "declared"
        assert options.dedupe is False
        assert options.subsume is False


class TestReplace:
    """``dataclasses.replace`` is the one way to derive a variant config."""

    def test_replace_derives_a_variant(self):
        base = ServiceConfig(scheme="bary", alphabet_size=4)
        config = dataclasses.replace(base, prime_bits=48, dedupe=False, max_age_seconds=60.0)
        assert config.scheme == "huffman-bary"
        assert config.alphabet_size == 4
        assert config.prime_bits == 48
        assert config.dedupe is False
        assert config.max_age_seconds == 60.0

    def test_untouched_fields_keep_defaults(self):
        assert dataclasses.replace(ServiceConfig(), prime_bits=32) == ServiceConfig(prime_bits=32)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="token order"):
            dataclasses.replace(ServiceConfig(), token_order="fastest")
