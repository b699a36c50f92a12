"""AES-128 validation: FIPS-197/AESAVS vectors plus properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.aes import AES128, INV_SBOX, SBOX, aes_ctr_keystream


# --------------------------------------------------------------------------- #
# Known-answer tests                                                           #
# --------------------------------------------------------------------------- #
def test_sbox_known_entries():
    # FIPS-197 Figure 7 spot checks.
    assert SBOX[0x00] == 0x63
    assert SBOX[0x01] == 0x7C
    assert SBOX[0x53] == 0xED
    assert SBOX[0xFF] == 0x16


def _gf_mul(a: int, b: int) -> int:
    """Scalar GF(2^8) multiply, shift-and-add."""
    p = 0
    for _ in range(8):
        if b & 1:
            p ^= a
        hi = a & 0x80
        a = (a << 1) & 0xFF
        if hi:
            a ^= 0x1B
        b >>= 1
    return p


def _brute_force_sbox():
    """The oracle: inverses by exhaustive search, then the affine
    transform bit by bit (FIPS-197 §5.1.1)."""
    inv = [0] * 256
    for a in range(1, 256):
        for b in range(1, 256):
            if _gf_mul(a, b) == 1:
                inv[a] = b
                break
    sbox = []
    for a in range(256):
        x = inv[a]
        y = 0
        for bit in range(8):
            y |= (
                ((x >> bit) & 1)
                ^ ((x >> ((bit + 4) % 8)) & 1)
                ^ ((x >> ((bit + 5) % 8)) & 1)
                ^ ((x >> ((bit + 6) % 8)) & 1)
                ^ ((x >> ((bit + 7) % 8)) & 1)
                ^ ((0x63 >> bit) & 1)
            ) << bit
        sbox.append(y)
    inv_sbox = [0] * 256
    for a, y in enumerate(sbox):
        inv_sbox[y] = a
    return sbox, inv_sbox


def test_sbox_tables_match_brute_force_oracle():
    sbox, inv_sbox = _brute_force_sbox()
    assert SBOX.dtype == np.uint8 and INV_SBOX.dtype == np.uint8
    assert [int(v) for v in SBOX] == sbox
    assert [int(v) for v in INV_SBOX] == inv_sbox


def test_inv_sbox_is_inverse():
    idx = np.arange(256, dtype=np.uint8)
    assert np.array_equal(INV_SBOX[SBOX[idx]], idx)
    assert np.array_equal(SBOX[INV_SBOX[idx]], idx)


def test_fips197_appendix_b():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    ct = AES128(key).encrypt_blocks(pt)
    assert bytes(ct).hex() == "3925841d02dc09fbdc118597196a0b32"


def test_fips197_appendix_c1():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    cipher = AES128(key)
    ct = cipher.encrypt_blocks(pt)
    assert bytes(ct).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
    assert bytes(cipher.decrypt_blocks(ct)) == pt


def test_aesavs_gfsbox_vectors():
    # NIST AESAVS GFSbox: zero key, known plaintext/ciphertext pairs.
    cipher = AES128(bytes(16))
    vectors = [
        ("f34481ec3cc627bacd5dc3fb08f273e6", "0336763e966d92595a567cc9ce537f5e"),
        ("9798c4640bad75c7c3227db910174e72", "a9a1631bf4996954ebc093957b234589"),
        ("96ab5c2ff612d9dfaae8c31f30c42168", "ff4f8391a6a40ca5b25d23bedd44a597"),
    ]
    for pt_hex, ct_hex in vectors:
        ct = cipher.encrypt_blocks(bytes.fromhex(pt_hex))
        assert bytes(ct).hex() == ct_hex


def test_aesavs_varkey_vector():
    # Key 80000...0, zero plaintext.
    key = bytes.fromhex("80000000000000000000000000000000")
    ct = AES128(key).encrypt_blocks(bytes(16))
    assert bytes(ct).hex() == "0edd33d3c621e546455bd8ba1418bec8"


def test_key_schedule_first_last_round_keys():
    # FIPS-197 Appendix A.1 expansion of the Appendix B key.
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    rk = AES128(key).round_keys
    assert bytes(rk[0]).hex() == key.hex()
    assert bytes(rk[10]).hex() == "d014f9a8c9ee2589e13f0cc8b6630ca6"


# --------------------------------------------------------------------------- #
# Interface errors                                                             #
# --------------------------------------------------------------------------- #
def test_wrong_key_length_rejected():
    with pytest.raises(ValueError):
        AES128(b"short")


def test_non_multiple_of_16_rejected():
    c = AES128(bytes(16))
    with pytest.raises(ValueError):
        c.encrypt_blocks(b"x" * 17)
    with pytest.raises(ValueError):
        c.decrypt_blocks(b"x" * 15)


def test_empty_input():
    c = AES128(bytes(16))
    assert c.encrypt_blocks(b"").size == 0
    assert c.ctr_crypt(b"", b"12345678").size == 0


def test_ctr_nonce_length():
    c = AES128(bytes(16))
    with pytest.raises(ValueError):
        c.ctr_crypt(b"x" * 16, b"short")


# --------------------------------------------------------------------------- #
# Properties                                                                    #
# --------------------------------------------------------------------------- #
@given(data=st.binary(min_size=16, max_size=1024).map(lambda b: b[: len(b) - len(b) % 16]),
       key=st.binary(min_size=16, max_size=16))
@settings(max_examples=40, deadline=None)
def test_ecb_roundtrip_property(data, key):
    c = AES128(key)
    assert bytes(c.decrypt_blocks(c.encrypt_blocks(data))) == data


@given(data=st.binary(min_size=0, max_size=600),
       key=st.binary(min_size=16, max_size=16),
       nonce=st.binary(min_size=8, max_size=8))
@settings(max_examples=40, deadline=None)
def test_ctr_roundtrip_any_length(data, key, nonce):
    c = AES128(key)
    assert bytes(c.ctr_crypt(c.ctr_crypt(data, nonce), nonce)) == data


@given(nblocks=st.integers(min_value=1, max_value=32),
       split=st.integers(min_value=0, max_value=32))
@settings(max_examples=30, deadline=None)
def test_ctr_chunk_independence(nblocks, split):
    """Encrypting in two chunks at the right counter offsets equals one
    pass — the property the SPU chunking relies on."""
    split = min(split, nblocks)
    data = bytes(range(256)) * ((nblocks * 16) // 256 + 1)
    data = data[: nblocks * 16]
    c = AES128(b"k" * 16)
    whole = bytes(c.ctr_crypt(data, b"n" * 8))
    p1 = bytes(c.ctr_crypt(data[: split * 16], b"n" * 8, initial_counter=0))
    p2 = bytes(c.ctr_crypt(data[split * 16 :], b"n" * 8, initial_counter=split))
    assert p1 + p2 == whole


def test_ecb_distinct_blocks_encrypt_distinctly():
    c = AES128(bytes(16))
    data = bytes(16) + bytes([1] + [0] * 15)
    ct = bytes(c.encrypt_blocks(data))
    assert ct[:16] != ct[16:]


def test_ecb_equal_blocks_encrypt_equally():
    c = AES128(bytes(16))
    ct = bytes(c.encrypt_blocks(bytes(32)))
    assert ct[:16] == ct[16:]


def test_vectorized_matches_blockwise():
    """Encrypting N blocks at once equals encrypting them one at a time —
    the SIMD batch is semantically transparent."""
    c = AES128(b"0123456789abcdef")
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, 16 * 33, dtype=np.uint8).tobytes()
    batched = bytes(c.encrypt_blocks(data))
    single = b"".join(bytes(c.encrypt_blocks(data[i : i + 16])) for i in range(0, len(data), 16))
    assert batched == single


def test_keystream_counter_wraps_into_distinct_blocks():
    c = AES128(bytes(16))
    ks = aes_ctr_keystream(c, b"\x00" * 8, 0, 4).reshape(4, 16)
    assert len({bytes(b) for b in ks}) == 4
