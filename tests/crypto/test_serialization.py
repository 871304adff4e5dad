"""Tests for the wire-format serialization of keys, ciphertexts and tokens."""

import random

import pytest

from repro.crypto.group import BilinearGroup
from repro.crypto.hve import HVE
from repro.crypto.serialization import (
    deserialize_ciphertext,
    deserialize_public_key,
    deserialize_secret_key,
    deserialize_token,
    from_json,
    payload_size_bytes,
    serialize_ciphertext,
    serialize_public_key,
    serialize_secret_key,
    serialize_token,
    to_json,
)


@pytest.fixture(scope="module")
def setup():
    group = BilinearGroup(prime_bits=32, rng=random.Random(11))
    hve = HVE(width=3, group=group, rng=random.Random(12))
    keys = hve.setup()
    ciphertext = hve.encrypt(keys.public, "101")
    token = hve.generate_token(keys.secret, "1*1")
    return group, hve, keys, ciphertext, token


class TestRoundTrips:
    def test_public_key_round_trip(self, setup):
        group, hve, keys, _, _ = setup
        payload = serialize_public_key(keys.public)
        restored = deserialize_public_key(group, payload)
        # The restored key must encrypt messages that still match correctly.
        ciphertext = hve.encrypt(restored, "011")
        token = hve.generate_token(keys.secret, "0**")
        assert hve.matches(ciphertext, token)

    def test_secret_key_round_trip(self, setup):
        group, hve, keys, ciphertext, _ = setup
        payload = serialize_secret_key(keys.secret)
        restored = deserialize_secret_key(group, payload)
        token = hve.generate_token(restored, "10*")
        assert hve.matches(ciphertext, token)

    def test_ciphertext_round_trip(self, setup):
        group, hve, keys, ciphertext, token = setup
        payload = serialize_ciphertext(ciphertext)
        restored = deserialize_ciphertext(group, payload)
        assert hve.matches(restored, token)

    def test_token_round_trip(self, setup):
        group, hve, keys, ciphertext, token = setup
        payload = serialize_token(token)
        restored = deserialize_token(group, payload)
        assert restored.pattern == token.pattern
        assert hve.matches(ciphertext, restored)

    def test_json_round_trip(self, setup):
        _, _, _, ciphertext, _ = setup
        payload = serialize_ciphertext(ciphertext)
        assert from_json(to_json(payload)) == payload


class TestValidation:
    def test_kind_mismatch_rejected(self, setup):
        group, _, keys, ciphertext, token = setup
        with pytest.raises(ValueError):
            deserialize_public_key(group, serialize_ciphertext(ciphertext))
        with pytest.raises(ValueError):
            deserialize_ciphertext(group, serialize_token(token))
        with pytest.raises(ValueError):
            deserialize_token(group, serialize_public_key(keys.public))
        with pytest.raises(ValueError):
            deserialize_secret_key(group, serialize_public_key(keys.public))

    def test_from_json_rejects_non_objects(self):
        with pytest.raises(ValueError):
            from_json("[1, 2, 3]")


class TestPayloadSizes:
    def test_ciphertext_size_grows_with_width(self):
        group = BilinearGroup(prime_bits=32, rng=random.Random(21))
        sizes = {}
        for width in (2, 8):
            hve = HVE(width=width, group=group, rng=random.Random(22))
            keys = hve.setup()
            ciphertext = hve.encrypt(keys.public, "01" * (width // 2))
            sizes[width] = payload_size_bytes(serialize_ciphertext(ciphertext))
        assert sizes[8] > sizes[2]

    def test_token_size_grows_with_non_star_count(self, setup):
        _, hve, keys, _, _ = setup
        sparse = hve.generate_token(keys.secret, "1**")
        dense = hve.generate_token(keys.secret, "101")
        assert payload_size_bytes(serialize_token(dense)) > payload_size_bytes(serialize_token(sparse))
