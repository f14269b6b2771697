"""Kronecker substitution: a Laurent polynomial with int coefficients as one int.

A coefficient P(q) = Σ c_e q^e is one packed entry (o, N): N·2^o = P(2^unit),
where o = unit·e0 and e0 is P's lowest exponent. Evaluation at 2^unit is a
ring map, so the sum and product of two entries are exact big-int operations:
multiplying adds the offsets and multiplies the ints, and adding shifts the
entry with the larger offset left by the difference. The coefficients c_e
are the balanced (signed) digits of N, one per slot of w = step·unit bits,
where step is 1, or 2 when the exponents of P all have one parity (then the
odd slots stay empty and need no room). Decoding is exact when every
coefficient lies below 2^(w-1) in absolute value; intermediate entries need
no bound.

The shuffle kernel (algebra) and the family walk (catalan) both pack their
coefficients with pack, choose w with slot_width from a bound computed
before they start, and decode their results with unpacker, which reads
64-bit slots with one cast and wider ones one slot at a time.
"""

from __future__ import annotations

import sys


def pack(p: dict, unit: int) -> tuple:
    """The packed entry (o, N) of an {exp: int} coefficient: N·2^o is the
    coefficient at q = 2^unit, and o is unit times its lowest exponent."""
    e0 = min(p)
    return e0 * unit, sum(c << unit * (e - e0) for e, c in p.items())


def slot_width(bound: int) -> int:
    """The smallest power of two w from 64 up with bound < 2^(w-1): the slot
    width that decodes every coefficient of absolute value at most bound."""
    w = 64
    while bound >= 1 << (w - 1):
        w *= 2
    return w


def unpacker(unit: int, step: int):
    """The decoder (o, N) -> {exp: int} for entries packed at this unit whose
    exponents step by ``step``, so that the coefficients are the balanced
    digits of N in slots of w = step·unit bits.

    Adding 2^(w-1) to every slot makes every digit non-negative, and flipping
    the top bit of every slot back leaves each slot the two's complement of
    its digit. 64-bit slots are read with one cast of the bytes to signed
    64-bit words; wider slots are read one slot at a time.
    """
    w = step * unit
    size = w // 8
    cast = w == 64 and sys.byteorder == "little"
    biases: dict = {}  # slot count -> 2^(w-1) in every slot

    def unpack(o: int, n: int) -> dict:
        slots = abs(n).bit_length() // w + 1
        bias = biases.get(slots)
        if bias is None:
            bias = biases[slots] = ((1 << w * slots) - 1) // ((1 << w) - 1) << (w - 1)
        raw = ((n + bias) ^ bias).to_bytes(slots * size, "little")
        if cast:
            digits = memoryview(raw).cast("q")
        else:
            digits = [int.from_bytes(raw[i:i + size], "little", signed=True)
                      for i in range(0, len(raw), size)]
        e0 = o // unit
        out = dict(zip(range(e0, e0 + step * len(digits), step), digits))
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return out

    return unpack
