"""Wire-format serialization for HVE keys, ciphertexts and tokens.

In the deployed system (Fig. 1 / Fig. 3 of the paper) three kinds of payloads
travel between parties:

* the **public key** published by the trusted authority to all mobile users;
* **ciphertexts** uploaded by users to the service provider;
* **search tokens** sent by the trusted authority to the service provider when
  an alert zone is declared.

This module provides a deterministic, dependency-free wire format for each of
them (nested dictionaries of hex-encoded big integers that round-trip through
JSON), plus helpers to measure payload sizes -- useful for the communication
overhead analysis accompanying Section 5.

The representation encodes group elements by their discrete logarithm, which
is an artefact of the ideal-group-model backend (see ``DESIGN.md``,
substitution 1).  With a real pairing backend, the same structure would carry
curve-point encodings instead; the *shape and count* of the transported
components is identical.
"""

from __future__ import annotations

import json
from typing import Any

from repro.crypto.group import BilinearGroup, GroupElement, GTElement
from repro.crypto.hve import HVECiphertext, HVEPublicKey, HVESecretKey, HVEToken

__all__ = [
    "serialize_public_key",
    "deserialize_public_key",
    "serialize_secret_key",
    "deserialize_secret_key",
    "serialize_ciphertext",
    "deserialize_ciphertext",
    "serialize_token",
    "deserialize_token",
    "to_json",
    "from_json",
    "payload_size_bytes",
]


def _encode_int(value: int) -> str:
    return hex(value)


def _decode_int(value: str) -> int:
    return int(value, 16)


def _encode_g(element: GroupElement) -> str:
    return _encode_int(element._discrete_log())


def _encode_gt(element: GTElement) -> str:
    return _encode_int(element._discrete_log())


def _decode_g(group: BilinearGroup, value: str) -> GroupElement:
    return group.element_from_exponent(_decode_int(value))


def _decode_gt(group: BilinearGroup, value: str) -> GTElement:
    return group.gt_element_from_exponent(_decode_int(value))


# ----------------------------------------------------------------------
# Public key
# ----------------------------------------------------------------------
def serialize_public_key(public_key: HVEPublicKey) -> dict[str, Any]:
    """Serialize an HVE public key into a JSON-compatible dictionary."""
    return {
        "kind": "hve_public_key",
        "width": public_key.width,
        "g_q": _encode_g(public_key.g_q),
        "v_blinded": _encode_g(public_key.v_blinded),
        "a_pair": _encode_gt(public_key.a_pair),
        "u_blinded": [_encode_g(e) for e in public_key.u_blinded],
        "h_blinded": [_encode_g(e) for e in public_key.h_blinded],
        "w_blinded": [_encode_g(e) for e in public_key.w_blinded],
    }


def deserialize_public_key(group: BilinearGroup, payload: dict[str, Any]) -> HVEPublicKey:
    """Rebuild an HVE public key from :func:`serialize_public_key` output."""
    if payload.get("kind") != "hve_public_key":
        raise ValueError("payload is not a serialized HVE public key")
    return HVEPublicKey(
        group=group,
        width=int(payload["width"]),
        g_q=_decode_g(group, payload["g_q"]),
        v_blinded=_decode_g(group, payload["v_blinded"]),
        a_pair=_decode_gt(group, payload["a_pair"]),
        u_blinded=tuple(_decode_g(group, e) for e in payload["u_blinded"]),
        h_blinded=tuple(_decode_g(group, e) for e in payload["h_blinded"]),
        w_blinded=tuple(_decode_g(group, e) for e in payload["w_blinded"]),
    )


# ----------------------------------------------------------------------
# Secret key
# ----------------------------------------------------------------------
def serialize_secret_key(secret_key: HVESecretKey) -> dict[str, Any]:
    """Serialize an HVE secret key (trusted-authority storage / backup)."""
    return {
        "kind": "hve_secret_key",
        "width": secret_key.width,
        "g_q": _encode_g(secret_key.g_q),
        "a": _encode_int(secret_key.a),
        "g": _encode_g(secret_key.g),
        "v": _encode_g(secret_key.v),
        "u": [_encode_g(e) for e in secret_key.u],
        "h": [_encode_g(e) for e in secret_key.h],
        "w": [_encode_g(e) for e in secret_key.w],
    }


def deserialize_secret_key(group: BilinearGroup, payload: dict[str, Any]) -> HVESecretKey:
    """Rebuild an HVE secret key from :func:`serialize_secret_key` output."""
    if payload.get("kind") != "hve_secret_key":
        raise ValueError("payload is not a serialized HVE secret key")
    return HVESecretKey(
        group=group,
        width=int(payload["width"]),
        g_q=_decode_g(group, payload["g_q"]),
        a=_decode_int(payload["a"]),
        g=_decode_g(group, payload["g"]),
        v=_decode_g(group, payload["v"]),
        u=tuple(_decode_g(group, e) for e in payload["u"]),
        h=tuple(_decode_g(group, e) for e in payload["h"]),
        w=tuple(_decode_g(group, e) for e in payload["w"]),
    )


# ----------------------------------------------------------------------
# Ciphertext
# ----------------------------------------------------------------------
def serialize_ciphertext(ciphertext: HVECiphertext) -> dict[str, Any]:
    """Serialize a ciphertext as uploaded by a mobile user."""
    return {
        "kind": "hve_ciphertext",
        "width": ciphertext.width,
        "c_prime": _encode_gt(ciphertext.c_prime),
        "c0": _encode_g(ciphertext.c0),
        "c1": [_encode_g(e) for e in ciphertext.c1],
        "c2": [_encode_g(e) for e in ciphertext.c2],
    }


def deserialize_ciphertext(group: BilinearGroup, payload: dict[str, Any]) -> HVECiphertext:
    """Rebuild a ciphertext from :func:`serialize_ciphertext` output."""
    if payload.get("kind") != "hve_ciphertext":
        raise ValueError("payload is not a serialized HVE ciphertext")
    return HVECiphertext(
        width=int(payload["width"]),
        c_prime=_decode_gt(group, payload["c_prime"]),
        c0=_decode_g(group, payload["c0"]),
        c1=tuple(_decode_g(group, e) for e in payload["c1"]),
        c2=tuple(_decode_g(group, e) for e in payload["c2"]),
    )


# ----------------------------------------------------------------------
# Token
# ----------------------------------------------------------------------
def serialize_token(token: HVEToken) -> dict[str, Any]:
    """Serialize a search token as sent by the trusted authority to the SP."""
    return {
        "kind": "hve_token",
        "pattern": token.pattern,
        "k0": _encode_g(token.k0),
        "k1": {str(i): _encode_g(e) for i, e in token.k1.items()},
        "k2": {str(i): _encode_g(e) for i, e in token.k2.items()},
    }


def deserialize_token(group: BilinearGroup, payload: dict[str, Any]) -> HVEToken:
    """Rebuild a search token from :func:`serialize_token` output."""
    if payload.get("kind") != "hve_token":
        raise ValueError("payload is not a serialized HVE token")
    return HVEToken(
        pattern=payload["pattern"],
        k0=_decode_g(group, payload["k0"]),
        k1={int(i): _decode_g(group, e) for i, e in payload["k1"].items()},
        k2={int(i): _decode_g(group, e) for i, e in payload["k2"].items()},
    )


# ----------------------------------------------------------------------
# Generic helpers
# ----------------------------------------------------------------------
def to_json(payload: dict[str, Any]) -> str:
    """Render a serialized payload as canonical (sorted-key) JSON."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> dict[str, Any]:
    """Parse a payload previously rendered with :func:`to_json`."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object payload")
    return payload


def payload_size_bytes(payload: dict[str, Any]) -> int:
    """Size in bytes of the canonical JSON encoding of ``payload``."""
    return len(to_json(payload).encode("utf-8"))
