"""The integer semantics both fast engines share, as Python source text.

The ISS fast path (:mod:`repro.iss.fastpath`) and the fast LEON3 core
(:mod:`repro.leon3.fastcore`) each compile their per-instruction handlers
from this table once at import, one function per mnemonic, and their block
compilers inline the same formulas into compiled blocks.  Each engine only
adds how it reaches its state (register reads and writes, Y, the condition
codes) and in which order.  The reference engines (:mod:`repro.iss.emulator`
with :mod:`repro.isa.ccodes`; :mod:`repro.leon3.alu` with
:mod:`repro.leon3.iu`) stay the executable specifications the fast engines
are checked against; this table is not one of them.

Operands are u32 values (``a``: rs1, ``b``: operand 2), ``c`` is the
incoming carry and ``y`` the 32-bit result.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Mapping

MASK = "0xFFFFFFFF"

#: ALU results over operands ``{a}``/``{b}``, keyed by mnemonic base (the
#: ``cc`` form computes the same result).
ALU_RESULTS: Dict[str, str] = {
    "add": "({a} + {b}) & " + MASK,
    "addx": "({a} + {b} + c) & " + MASK,
    "sub": "({a} - {b}) & " + MASK,
    "subx": "({a} - {b} - c) & " + MASK,
    "and": "{a} & {b}",
    "andn": "{a} & ({b} ^ " + MASK + ")",
    "or": "{a} | {b}",
    "orn": "{a} | ({b} ^ " + MASK + ")",
    "xor": "{a} ^ {b}",
    "xnor": "({a} ^ {b}) ^ " + MASK,
    "sll": "({a} << ({b} & 31)) & " + MASK,
    "srl": "{a} >> ({b} & 31)",
    "sra": "((({a} ^ 0x80000000) - 0x80000000) >> ({b} & 31)) & " + MASK,
}

#: The ALU rows that read the incoming carry ``c``.
CARRY_READERS = tuple(
    base for base, result in ALU_RESULTS.items() if re.search(r"\bc\b", result)
)

#: V and C updates of the ``cc`` forms, over operands a/b and result y (N and
#: Z are common to every row; the other rows clear V and C).
ICC_UPDATES: Dict[str, str] = {
    "add": "v = ((a ^ y) & (b ^ y)) >> 31; c = (a + b) >> 32",
    "addx": "v = ((a ^ y) & (b ^ y)) >> 31; c = (a + b + c) >> 32",
    "sub": "v = ((a ^ b) & (a ^ y)) >> 31; c = 1 if b > a else 0",
    "subx": "v = ((a ^ b) & (a ^ y)) >> 31; c = 1 if b + c > a else 0",
}
LOGIC_ICC = "v = 0; c = 0"

#: 64-bit products over ``{a}``/``{b}``: the low word is the result, the
#: high word goes to Y.
PRODUCTS: Dict[str, str] = {
    "umul": "{a} * {b}",
    "smul": "(({a} ^ 0x80000000) - 0x80000000) * (({b} ^ 0x80000000) - 0x80000000)",
}

#: Quotients of the 64-bit dividend Y:a by b, saturated to 32 bits, as
#: statements over a, b and ``{hi}`` (Y) that leave the quotient in y.  A
#: zero divisor raises ZeroDivisionError from ``//`` before any state is
#: written: the division trap of both engines.
QUOTIENTS: Dict[str, str] = {
    "udiv": "y = min((({hi} << 32) | a) // b, " + MASK + ")",
    "sdiv": (
        "d = ((({hi} << 32) | a) ^ 0x8000000000000000) - 0x8000000000000000; "
        "s = (b ^ 0x80000000) - 0x80000000; q = abs(d) // abs(s); "
        "y = max(min(-q if (d < 0) != (s < 0) else q, 0x7FFFFFFF), -0x80000000)"
        " & " + MASK
    ),
}

#: Bicc conditions 0..7 over the flags n/z/v/c; 8..15 are their complements.
CONDITIONS = ("False", "z", "(z or n ^ v)", "(n ^ v)", "(c or z)", "c", "n", "v")


def arithmetic_rows(carry: str, y_register: str) -> Dict[str, Dict[str, str]]:
    """The ``compute`` and ``icc`` statements of every ALU, product and
    quotient row, keyed by mnemonic base, for a handler whose locals a/b
    hold the operands.  *carry* and *y_register* are the engine's source for
    the incoming carry and the Y register.  ``compute`` leaves the result in
    y (a product writes Y there too); ``icc`` sets v and c."""
    rows: Dict[str, Dict[str, str]] = {}
    for base, result in ALU_RESULTS.items():
        compute = "y = " + result.format(a="a", b="b")
        if base in CARRY_READERS:
            compute = f"c = {carry}; {compute}"
        rows[base] = {"compute": compute, "icc": ICC_UPDATES.get(base, LOGIC_ICC)}
    for base, product in PRODUCTS.items():
        rows[base] = {
            "compute": f"p = {product.format(a='a', b='b')}; y = p & {MASK}; "
                       f"{y_register} = (p >> 32) & {MASK}",
            "icc": LOGIC_ICC,
        }
    for base, quotient in QUOTIENTS.items():
        rows[base] = {"compute": quotient.format(hi=y_register), "icc": LOGIC_ICC}
    return rows


def compile_handlers(
    source: str, rows: Mapping[str, Mapping[str, object]], namespace: dict
) -> Dict[str, Callable]:
    """Compile one handler per row: *source* formatted with the row's fields
    and ``name`` (the row key) defines ``_h_<name>``.  The handlers share
    *namespace* as their globals; its ``__name__`` becomes their module."""
    handlers: Dict[str, Callable] = {}
    module = namespace["__name__"]
    for name, fields in rows.items():
        scope: Dict[str, Callable] = {}
        text = source.format(name=name, **fields)
        exec(compile(text, f"<{module}._h_{name}>", "exec"), namespace, scope)
        handlers[name] = scope[f"_h_{name}"]
    return handlers
