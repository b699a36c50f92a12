"""AES-128, NumPy-vectorized across blocks.

The paper's data-intensive workload is "a 128 bits key AES encryption
algorithm ... The Cell accelerated AES encryption code is based on
[Siewior's SPU implementation]" (§IV-A). This is a complete from-scratch
implementation — S-box construction from GF(2^8) arithmetic, key
schedule, ECB and CTR modes — written the way an SPU kernel is: the
cipher state of *many* blocks advances in lockstep through vectorized
table lookups and XORs, one round at a time. Validated against FIPS-197
Appendix B and NIST AESAVS vectors in the test suite.

This is the *functional* kernel: it proves the reproduction encrypts
correctly. Throughput in the simulation comes from the calibrated models
(Python table lookups are obviously not 700 MB/s).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["AES128", "aes_ctr_keystream", "SBOX", "INV_SBOX"]

BLOCK_BYTES = 16
NROUNDS = 10
NK = 4  # 128-bit key words


# --------------------------------------------------------------------------- #
# GF(2^8) arithmetic and table construction                                   #
# --------------------------------------------------------------------------- #
def _xtime(a: np.ndarray) -> np.ndarray:
    """Multiply by x in GF(2^8) mod x^8+x^4+x^3+x+1 (vectorized)."""
    a = a.astype(np.uint16)
    out = (a << 1) ^ np.where(a & 0x80, 0x1B, 0)
    return (out & 0xFF).astype(np.uint8)


def _build_sbox() -> tuple[np.ndarray, np.ndarray]:
    """Construct the S-box from first principles: multiplicative inverse
    in GF(2^8) followed by the affine transform (FIPS-197 §5.1.1).

    Inverses come from log/antilog tables over the generator 3: with
    ``a = 3^k``, ``a^-1 = 3^(255-k)``. Building both tables is one pass
    over the 255 powers, so the import pays well under a millisecond.
    """
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for k in range(255):
        exp[k] = x
        log[x] = k
        # x * 3 = x * 2 ^ x, with x * 2 reduced mod x^8+x^4+x^3+x+1.
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
    sbox = np.zeros(256, dtype=np.uint8)
    for a in range(256):
        x = exp[(255 - log[a]) % 255] if a else 0
        # b_i ^ b_(i+4) ^ b_(i+5) ^ b_(i+6) ^ b_(i+7) ^ c_i, as rotations.
        y = x
        for shift in range(1, 5):
            y ^= ((x << shift) | (x >> (8 - shift))) & 0xFF
        sbox[a] = y ^ 0x63
    inv_sbox = np.zeros(256, dtype=np.uint8)
    inv_sbox[sbox] = np.arange(256, dtype=np.uint8)
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()

RCON = np.array([0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36], dtype=np.uint8)


# --------------------------------------------------------------------------- #
# Cipher                                                                       #
# --------------------------------------------------------------------------- #
class AES128:
    """AES with a 128-bit key; block-parallel ECB/CTR.

    Parameters
    ----------
    key: exactly 16 bytes.
    """

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
        self.key = bytes(key)
        self.round_keys = self._expand_key(np.frombuffer(key, dtype=np.uint8))

    # -- key schedule ---------------------------------------------------------
    @staticmethod
    def _expand_key(key: np.ndarray) -> np.ndarray:
        """FIPS-197 §5.2: 44 words → 11 round keys of 16 bytes.

        Returns shape (11, 16) with round key bytes in input order.
        """
        words = [key[4 * i : 4 * i + 4].copy() for i in range(NK)]
        for i in range(NK, 4 * (NROUNDS + 1)):
            temp = words[i - 1].copy()
            if i % NK == 0:
                temp = np.roll(temp, -1)           # RotWord
                temp = SBOX[temp]                  # SubWord
                temp[0] ^= RCON[i // NK - 1]       # Rcon
            words.append(words[i - NK] ^ temp)
        flat = np.concatenate(words)
        return flat.reshape(NROUNDS + 1, 16)

    # -- round primitives (vectorized over the block axis) ----------------------
    @staticmethod
    def _to_state(blocks: np.ndarray) -> np.ndarray:
        """(N, 16) input-order bytes → (N, 4, 4) state, column-major:
        state[:, r, c] = input[:, r + 4c] (FIPS-197 §3.4)."""
        return blocks.reshape(-1, 4, 4).transpose(0, 2, 1)

    @staticmethod
    def _from_state(state: np.ndarray) -> np.ndarray:
        return state.transpose(0, 2, 1).reshape(-1, 16)

    @staticmethod
    def _shift_rows(state: np.ndarray) -> np.ndarray:
        out = state.copy()
        for r in range(1, 4):
            out[:, r, :] = np.roll(state[:, r, :], -r, axis=1)
        return out

    @staticmethod
    def _inv_shift_rows(state: np.ndarray) -> np.ndarray:
        out = state.copy()
        for r in range(1, 4):
            out[:, r, :] = np.roll(state[:, r, :], r, axis=1)
        return out

    @staticmethod
    def _mix_columns(state: np.ndarray) -> np.ndarray:
        a0, a1, a2, a3 = state[:, 0], state[:, 1], state[:, 2], state[:, 3]
        x0, x1, x2, x3 = _xtime(a0), _xtime(a1), _xtime(a2), _xtime(a3)
        out = np.empty_like(state)
        out[:, 0] = x0 ^ (x1 ^ a1) ^ a2 ^ a3
        out[:, 1] = a0 ^ x1 ^ (x2 ^ a2) ^ a3
        out[:, 2] = a0 ^ a1 ^ x2 ^ (x3 ^ a3)
        out[:, 3] = (x0 ^ a0) ^ a1 ^ a2 ^ x3
        return out

    @staticmethod
    def _inv_mix_columns(state: np.ndarray) -> np.ndarray:
        # Multiply columns by the inverse matrix {0e,0b,0d,09} using
        # xtime chains: 9=8+1, b=8+2+1, d=8+4+1, e=8+4+2.
        a = state
        x1 = np.empty_like(a)
        for r in range(4):
            x1[:, r] = _xtime(a[:, r])
        x2 = np.empty_like(a)
        for r in range(4):
            x2[:, r] = _xtime(x1[:, r])
        x4 = np.empty_like(a)
        for r in range(4):
            x4[:, r] = _xtime(x2[:, r])
        m9 = x4 ^ a
        mB = x4 ^ x1 ^ a
        mD = x4 ^ x2 ^ a
        mE = x4 ^ x2 ^ x1
        out = np.empty_like(a)
        out[:, 0] = mE[:, 0] ^ mB[:, 1] ^ mD[:, 2] ^ m9[:, 3]
        out[:, 1] = m9[:, 0] ^ mE[:, 1] ^ mB[:, 2] ^ mD[:, 3]
        out[:, 2] = mD[:, 0] ^ m9[:, 1] ^ mE[:, 2] ^ mB[:, 3]
        out[:, 3] = mB[:, 0] ^ mD[:, 1] ^ m9[:, 2] ^ mE[:, 3]
        return out

    def _round_key_state(self, rnd: int) -> np.ndarray:
        return self._to_state(self.round_keys[rnd].reshape(1, 16))[0]

    # -- block operations ---------------------------------------------------------
    def encrypt_blocks(self, data: bytes | np.ndarray) -> np.ndarray:
        """ECB-encrypt a multiple-of-16-byte buffer; returns uint8 array."""
        arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, dtype=np.uint8)
        if arr.size % BLOCK_BYTES != 0:
            raise ValueError(f"ECB input must be a multiple of 16 bytes, got {arr.size}")
        if arr.size == 0:
            return np.empty(0, dtype=np.uint8)
        state = self._to_state(arr.reshape(-1, 16))
        state = state ^ self._round_key_state(0)
        for rnd in range(1, NROUNDS):
            state = SBOX[state]
            state = self._shift_rows(state)
            state = self._mix_columns(state)
            state = state ^ self._round_key_state(rnd)
        state = SBOX[state]
        state = self._shift_rows(state)
        state = state ^ self._round_key_state(NROUNDS)
        return self._from_state(state).reshape(-1)

    def decrypt_blocks(self, data: bytes | np.ndarray) -> np.ndarray:
        """ECB-decrypt a multiple-of-16-byte buffer; returns uint8 array."""
        arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, dtype=np.uint8)
        if arr.size % BLOCK_BYTES != 0:
            raise ValueError(f"ECB input must be a multiple of 16 bytes, got {arr.size}")
        if arr.size == 0:
            return np.empty(0, dtype=np.uint8)
        state = self._to_state(arr.reshape(-1, 16))
        state = state ^ self._round_key_state(NROUNDS)
        for rnd in range(NROUNDS - 1, 0, -1):
            state = self._inv_shift_rows(state)
            state = INV_SBOX[state]
            state = state ^ self._round_key_state(rnd)
            state = self._inv_mix_columns(state)
        state = self._inv_shift_rows(state)
        state = INV_SBOX[state]
        state = state ^ self._round_key_state(0)
        return self._from_state(state).reshape(-1)

    # -- CTR mode --------------------------------------------------------------------
    def ctr_crypt(self, data: bytes | np.ndarray, nonce: bytes, initial_counter: int = 0) -> np.ndarray:
        """CTR encrypt/decrypt (self-inverse); handles any length.

        ``nonce`` is 8 bytes; the counter occupies the trailing 8 bytes
        big-endian, starting at ``initial_counter`` — which lets each
        4 KB SPU chunk be processed independently at its own counter
        offset, the property the Cell kernel depends on for parallelism.
        """
        if len(nonce) != 8:
            raise ValueError("nonce must be 8 bytes")
        arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, dtype=np.uint8)
        if arr.size == 0:
            return np.empty(0, dtype=np.uint8)
        nblocks = -(-arr.size // BLOCK_BYTES)
        stream = aes_ctr_keystream(self, nonce, initial_counter, nblocks)
        return arr ^ stream[: arr.size]


def aes_ctr_keystream(cipher: AES128, nonce: bytes, initial_counter: int, nblocks: int) -> np.ndarray:
    """Generate ``nblocks`` blocks of CTR keystream as a flat uint8 array."""
    if nblocks < 0:
        raise ValueError("nblocks must be non-negative")
    if nblocks == 0:
        return np.empty(0, dtype=np.uint8)
    counters = np.arange(initial_counter, initial_counter + nblocks, dtype=np.uint64)
    blocks = np.zeros((nblocks, 16), dtype=np.uint8)
    blocks[:, :8] = np.frombuffer(nonce, dtype=np.uint8)
    # Big-endian counter in bytes 8..15.
    for i in range(8):
        blocks[:, 8 + i] = ((counters >> np.uint64(8 * (7 - i))) & np.uint64(0xFF)).astype(np.uint8)
    return cipher.encrypt_blocks(blocks.reshape(-1))
