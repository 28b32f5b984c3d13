"""The HMAC challenge–response primitives (``repro.net.auth``)."""

from __future__ import annotations

import pytest

from repro.net import (
    AuthError,
    NONCE_BYTES,
    client_proof,
    from_hex,
    make_nonce,
    server_proof,
    verify_proof,
)


class TestProofs:
    def test_proofs_are_deterministic_and_distinct(self):
        sn, cn = b"s" * NONCE_BYTES, b"c" * NONCE_BYTES
        assert client_proof("tok", sn, cn) == client_proof("tok", sn, cn)
        # Domain separation: a reflected client proof can never satisfy
        # a peer waiting for the server's answering proof.
        assert client_proof("tok", sn, cn) != server_proof("tok", sn, cn)

    def test_proof_binds_token_and_both_nonces(self):
        sn, cn = make_nonce(), make_nonce()
        base = client_proof("tok", sn, cn)
        assert client_proof("other", sn, cn) != base
        assert client_proof("tok", make_nonce(), cn) != base
        assert client_proof("tok", sn, make_nonce()) != base

    def test_bytes_token_equals_utf8_str_token(self):
        sn, cn = b"s" * NONCE_BYTES, b"c" * NONCE_BYTES
        assert client_proof("tok", sn, cn) == client_proof(b"tok", sn, cn)

    def test_short_nonce_is_rejected(self):
        with pytest.raises(AuthError, match=str(NONCE_BYTES)):
            client_proof("tok", b"short", b"c" * NONCE_BYTES)


class TestVerify:
    def test_accepts_the_right_proof_only(self):
        sn, cn = make_nonce(), make_nonce()
        proof = client_proof("tok", sn, cn)
        assert verify_proof(proof, proof)
        assert verify_proof(proof, bytearray(proof))
        assert not verify_proof(proof, proof[:-1])
        assert not verify_proof(proof, client_proof("wrong", sn, cn))

    def test_malformed_input_is_false_not_an_exception(self):
        proof = client_proof("tok", make_nonce(), make_nonce())
        for garbage in (None, "hexstring", 42, [1, 2], {}):
            assert not verify_proof(proof, garbage)


class TestNonces:
    def test_fresh_and_sized(self):
        nonces = {make_nonce() for _ in range(64)}
        assert len(nonces) == 64
        assert all(len(n) == NONCE_BYTES for n in nonces)


class TestFromHex:
    def test_round_trips_a_nonce(self):
        nonce = make_nonce()
        assert from_hex(nonce.hex(), NONCE_BYTES) == nonce
        assert from_hex(nonce.hex()) == nonce

    @pytest.mark.parametrize("value", [None, 7, b"ab", "xyz", "abc", "ab" * 31])
    def test_anything_else_is_none(self, value):
        assert from_hex(value, NONCE_BYTES) is None
