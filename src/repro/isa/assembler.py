"""Two-pass SPARCv8 assembler.

The workloads used in the study (EEMBC-AutoBench-like kernels and synthetic
benchmarks) are written in a small but realistic SPARC assembly dialect and
assembled into flat binary images that both the ISS and the structural Leon3
model execute.  Supported features:

* sections: ``.text`` (default base ``0x40000000``) and ``.data``
  (default base ``0x40020000``),
* labels, ``.word``, ``.half``, ``.byte``, ``.space``/``.skip``, ``.align``,
* ``%hi(expr)`` / ``%lo(expr)`` relocation operators,
* synthetic (pseudo) instructions: ``set``, ``mov``, ``cmp``, ``tst``,
  ``clr``, ``inc``, ``dec``, ``nop``, ``not``, ``neg``, ``ret``, ``retl``,
  ``b``/``ba`` and friends, ``ta`` (trap-always, used to halt the simulators),
* register aliases ``%sp`` (= ``%o6``) and ``%fp`` (= ``%i6``).

The assembler performs two passes: the first pass lays out sections and
records label addresses, the second emits machine words.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa import encoding
from repro.isa.encoding import (
    OP_ARITH,
    OP_MEMORY,
)
from repro.isa.instructions import BRANCH_CONDITIONS, INSTRUCTION_SET

DEFAULT_TEXT_BASE = 0x40000000
DEFAULT_DATA_BASE = 0x40020000

#: Software trap number used by the workloads to signal normal termination.
EXIT_TRAP = 0


class AssemblyError(ValueError):
    """Raised on malformed assembly input."""

    def __init__(self, message: str, line_number: Optional[int] = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass
class Program:
    """An assembled program image."""

    text: List[int] = field(default_factory=list)
    data: bytes = b""
    text_base: int = DEFAULT_TEXT_BASE
    data_base: int = DEFAULT_DATA_BASE
    symbols: Dict[str, int] = field(default_factory=dict)
    entry_point: int = DEFAULT_TEXT_BASE
    name: str = "program"

    @property
    def text_bytes(self) -> bytes:
        """The text section as big-endian bytes (SPARC is big-endian)."""
        return b"".join(word.to_bytes(4, "big") for word in self.text)

    @property
    def size_words(self) -> int:
        return len(self.text)

    def symbol(self, name: str) -> int:
        """Return the address of label *name*."""
        return self.symbols[name]


_REGISTER_ALIASES = {"sp": 14, "fp": 30}


def parse_register(token: str) -> int:
    """Parse a register operand (``%g0`` ... ``%i7``, ``%r31``, ``%sp``, ``%fp``)."""
    token = token.strip().lower()
    if not token.startswith("%"):
        raise AssemblyError(f"expected register, got {token!r}")
    name = token[1:]
    if name in _REGISTER_ALIASES:
        return _REGISTER_ALIASES[name]
    match = re.fullmatch(r"([gloir])(\d+)", name)
    if not match:
        raise AssemblyError(f"unknown register {token!r}")
    kind, num_str = match.groups()
    num = int(num_str)
    if kind == "r":
        if num > 31:
            raise AssemblyError(f"register {token!r} out of range")
        return num
    if num > 7:
        raise AssemblyError(f"register {token!r} out of range")
    base = {"g": 0, "o": 8, "l": 16, "i": 24}[kind]
    return base + num


def _split_operands(text: str) -> List[str]:
    """Split an operand string on commas, respecting brackets and parentheses."""
    parts: List[str] = []
    depth = 0
    current = ""
    for char in text:
        if char in "[(":
            depth += 1
        elif char in "])":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current.strip())
    return parts


@dataclass
class _Statement:
    """One instruction or data directive attributed to a source line."""

    line_number: int
    mnemonic: str
    operands: List[str]
    address: int = 0


class Assembler:
    """Two-pass assembler producing :class:`Program` images."""

    def __init__(
        self,
        text_base: int = DEFAULT_TEXT_BASE,
        data_base: int = DEFAULT_DATA_BASE,
    ):
        self.text_base = text_base
        self.data_base = data_base

    # -- public API ---------------------------------------------------------

    def assemble(self, source: str, name: str = "program") -> Program:
        """Assemble *source* and return the program image."""
        text_stmts, data_items, symbols = self._first_pass(source)
        text_words = [self._encode(stmt, symbols) for stmt in text_stmts]
        data_bytes = self._layout_data(data_items)
        return Program(
            text=text_words,
            data=data_bytes,
            text_base=self.text_base,
            data_base=self.data_base,
            symbols=symbols,
            entry_point=self.text_base,
            name=name,
        )

    # -- pass 1: layout -------------------------------------------------------

    def _first_pass(
        self, source: str
    ) -> Tuple[List[_Statement], List[Tuple[str, int, int]], Dict[str, int]]:
        symbols: Dict[str, int] = {}
        text_stmts: List[_Statement] = []
        data_items: List[Tuple[str, int, int]] = []  # (kind, value, size)
        section = "text"
        text_addr = self.text_base
        data_addr = self.data_base

        for line_number, raw_line in enumerate(source.splitlines(), start=1):
            line = raw_line.split("!")[0].split("#")[0].strip()
            if not line:
                continue
            # labels (possibly several on one line)
            while True:
                match = re.match(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$", line)
                if not match:
                    break
                label, line = match.groups()
                address = text_addr if section == "text" else data_addr
                if label in symbols:
                    raise AssemblyError(f"duplicate label {label!r}", line_number)
                symbols[label] = address
            if not line:
                continue

            parts = line.split(None, 1)
            mnemonic = parts[0].lower()
            operand_text = parts[1] if len(parts) > 1 else ""

            if mnemonic == ".text":
                section = "text"
                continue
            if mnemonic == ".data":
                section = "data"
                continue
            if mnemonic in (".global", ".globl", ".type", ".size", ".proc"):
                continue
            if mnemonic == ".align":
                alignment = self._parse_number(operand_text, line_number)
                if alignment < 1:
                    raise AssemblyError(".align expects a positive alignment",
                                        line_number)
                if section == "text":
                    # Pad with nop words: text word i must sit at
                    # text_base + 4 * i, or code after the padding would load
                    # below its labels.
                    while text_addr % alignment:
                        text_stmts.append(
                            _Statement(line_number, "sethi", ["%hi(0)", "%g0"],
                                       text_addr)
                        )
                        text_addr += 4
                else:
                    while data_addr % alignment:
                        data_items.append(("byte", 0, 1))
                        data_addr += 1
                continue
            if mnemonic in (".word", ".long"):
                for value_text in _split_operands(operand_text):
                    value = self._parse_number(value_text, line_number)
                    data_items.append(("word", value, 4))
                    data_addr += 4
                self._require_data_section(section, mnemonic, line_number)
                continue
            if mnemonic in (".half", ".short"):
                for value_text in _split_operands(operand_text):
                    value = self._parse_number(value_text, line_number)
                    data_items.append(("half", value, 2))
                    data_addr += 2
                self._require_data_section(section, mnemonic, line_number)
                continue
            if mnemonic == ".byte":
                for value_text in _split_operands(operand_text):
                    value = self._parse_number(value_text, line_number)
                    data_items.append(("byte", value, 1))
                    data_addr += 1
                self._require_data_section(section, mnemonic, line_number)
                continue
            if mnemonic in (".space", ".skip"):
                size = self._parse_number(operand_text, line_number)
                for _ in range(size):
                    data_items.append(("byte", 0, 1))
                data_addr += size
                self._require_data_section(section, mnemonic, line_number)
                continue
            if mnemonic.startswith("."):
                raise AssemblyError(f"unsupported directive {mnemonic!r}", line_number)

            if section != "text":
                raise AssemblyError(
                    f"instruction {mnemonic!r} outside the .text section", line_number
                )

            operands = _split_operands(operand_text)
            expanded = self._expand_pseudo(mnemonic, operands, line_number)
            for exp_mnemonic, exp_operands in expanded:
                text_stmts.append(
                    _Statement(line_number, exp_mnemonic, exp_operands, text_addr)
                )
                text_addr += 4
        return text_stmts, data_items, symbols

    @staticmethod
    def _require_data_section(section: str, directive: str, line_number: int) -> None:
        if section != "data":
            raise AssemblyError(
                f"{directive} is only supported in the .data section", line_number
            )

    def _layout_data(self, items: List[Tuple[str, int, int]]) -> bytes:
        chunks: List[bytes] = []
        for _kind, value, size in items:
            mask_bits = size * 8
            chunks.append((value & ((1 << mask_bits) - 1)).to_bytes(size, "big"))
        return b"".join(chunks)

    # -- pseudo-instruction expansion -----------------------------------------

    def _expand_pseudo(
        self, mnemonic: str, operands: List[str], line_number: int
    ) -> List[Tuple[str, List[str]]]:
        """Expand pseudo instructions into real ones (possibly several)."""
        if mnemonic == "nop":
            return [("sethi", ["%hi(0)", "%g0"])]
        if mnemonic == "set":
            if len(operands) != 2:
                raise AssemblyError("set expects <value>, <reg>", line_number)
            value_text, reg = operands
            return [
                ("sethi", [f"%hi({value_text})", reg]),
                ("or", [reg, f"%lo({value_text})", reg]),
            ]
        if mnemonic == "mov":
            if len(operands) != 2:
                raise AssemblyError("mov expects <src>, <reg>", line_number)
            if operands[1].lower() == "%y":
                return [("wr", [operands[0], "0", "%y"])]
            if operands[0].lower() == "%y":
                return [("rd", ["%y", operands[1]])]
            return [("or", ["%g0", operands[0], operands[1]])]
        if mnemonic == "cmp":
            return [("subcc", [operands[0], operands[1], "%g0"])]
        if mnemonic == "tst":
            return [("orcc", ["%g0", operands[0], "%g0"])]
        if mnemonic == "clr":
            return [("or", ["%g0", "%g0", operands[0]])]
        if mnemonic == "not":
            if len(operands) == 1:
                operands = [operands[0], operands[0]]
            return [("xnor", [operands[0], "%g0", operands[1]])]
        if mnemonic == "neg":
            if len(operands) == 1:
                operands = [operands[0], operands[0]]
            return [("sub", ["%g0", operands[0], operands[1]])]
        if mnemonic == "inc":
            amount = "1" if len(operands) == 1 else operands[0]
            reg = operands[-1]
            return [("add", [reg, amount, reg])]
        if mnemonic == "dec":
            amount = "1" if len(operands) == 1 else operands[0]
            reg = operands[-1]
            return [("sub", [reg, amount, reg])]
        if mnemonic == "ret":
            return [("jmpl", ["%i7", "8", "%g0"])]
        if mnemonic == "retl":
            return [("jmpl", ["%o7", "8", "%g0"])]
        if mnemonic == "b":
            return [("ba", operands)]
        if mnemonic in ("blu", "blu,a"):
            return [(mnemonic.replace("blu", "bcs"), operands)]
        if mnemonic in ("bgeu", "bgeu,a"):
            return [(mnemonic.replace("bgeu", "bcc"), operands)]
        if mnemonic in ("save", "restore") and not operands:
            return [(mnemonic, ["%g0", "%g0", "%g0"])]
        if mnemonic in ("ta", "trap"):
            return [("ticc", operands if operands else ["0"])]
        return [(mnemonic, operands)]

    # -- pass 2: encoding ------------------------------------------------------

    def _encode(self, stmt: _Statement, symbols: Dict[str, int]) -> int:
        mnemonic, operands = stmt.mnemonic, stmt.operands
        try:
            return self._encode_inner(mnemonic, operands, stmt, symbols)
        except AssemblyError:
            raise
        except (KeyError, IndexError, ValueError, OverflowError) as exc:
            # The concrete ways malformed source escapes _encode_inner without
            # its own AssemblyError: unknown mnemonic/register table lookups
            # (KeyError), missing operands (IndexError), unparsable immediates
            # (ValueError), and encoding-field range overflow (OverflowError).
            # Anything else — a TypeError, an AttributeError — is an assembler
            # bug and must surface as itself, not masquerade as bad input.
            raise AssemblyError(
                f"cannot encode {mnemonic} {', '.join(operands)}: {exc}",
                stmt.line_number,
            ) from exc

    def _encode_inner(
        self,
        mnemonic: str,
        operands: List[str],
        stmt: _Statement,
        symbols: Dict[str, int],
    ) -> int:
        annul = False
        if "," in mnemonic:
            mnemonic, flag = mnemonic.split(",", 1)
            annul = flag.strip() == "a"
        base_mnemonic = mnemonic

        if base_mnemonic in BRANCH_CONDITIONS:
            if len(operands) != 1:
                raise AssemblyError(
                    f"{base_mnemonic} expects a single label", stmt.line_number
                )
            target = self._resolve(operands[0], symbols, stmt.line_number)
            disp_words = (target - stmt.address) // 4
            return encoding.Format2Branch(
                cond=BRANCH_CONDITIONS[base_mnemonic],
                disp22=disp_words,
                annul=annul,
            ).encode()

        if base_mnemonic == "call":
            target = self._resolve(operands[0], symbols, stmt.line_number)
            disp_words = (target - stmt.address) // 4
            return encoding.Format1(disp30=disp_words).encode() | (
                encoding.OP_CALL << 30
            )

        if base_mnemonic == "sethi":
            value_text, reg_text = operands
            value = self._resolve_hi_lo(value_text, symbols, stmt.line_number)
            return encoding.Format2Sethi(
                rd=parse_register(reg_text), imm22=value & 0x3FFFFF
            ).encode()

        if base_mnemonic == "rd":
            # rd %y, %rd
            if operands[0].lower() != "%y":
                raise AssemblyError("only 'rd %y, reg' is supported", stmt.line_number)
            defn = INSTRUCTION_SET.by_mnemonic("rd")
            return encoding.Format3Reg(
                op=OP_ARITH, op3=defn.op3, rd=parse_register(operands[1]), rs1=0, rs2=0
            ).encode()

        if base_mnemonic == "wr":
            # wr %rs1, reg_or_imm, %y
            if operands[-1].lower() != "%y":
                raise AssemblyError("only 'wr rs1, src2, %y' is supported", stmt.line_number)
            defn = INSTRUCTION_SET.by_mnemonic("wr")
            rs1 = parse_register(operands[0])
            return self._encode_format3(
                defn.op3, OP_ARITH, 0, rs1, operands[1], symbols, stmt.line_number
            )

        if base_mnemonic == "ticc":
            trap_number = self._resolve(operands[0], symbols, stmt.line_number)
            defn = INSTRUCTION_SET.by_mnemonic("ticc")
            return encoding.Format3Imm(
                op=OP_ARITH, op3=defn.op3, rd=8, rs1=0, simm13=trap_number
            ).encode()

        if base_mnemonic == "jmpl":
            # jmpl %rs1, src2, %rd  (also produced by ret/retl expansion)
            defn = INSTRUCTION_SET.by_mnemonic("jmpl")
            rs1 = parse_register(operands[0])
            rd = parse_register(operands[2])
            return self._encode_format3(
                defn.op3, OP_ARITH, rd, rs1, operands[1], symbols, stmt.line_number
            )

        if base_mnemonic in INSTRUCTION_SET:
            defn = INSTRUCTION_SET.by_mnemonic(base_mnemonic)
            if defn.op == OP_MEMORY:
                return self._encode_memory(defn, operands, stmt, symbols)
            if defn.op == OP_ARITH:
                rs1 = parse_register(operands[0])
                rd = parse_register(operands[2])
                return self._encode_format3(
                    defn.op3, OP_ARITH, rd, rs1, operands[1], symbols, stmt.line_number
                )
        raise AssemblyError(f"unknown mnemonic {base_mnemonic!r}", stmt.line_number)

    def _encode_memory(
        self,
        defn,
        operands: List[str],
        stmt: _Statement,
        symbols: Dict[str, int],
    ) -> int:
        if defn.writes_memory:
            reg_text, address_text = operands[0], operands[1]
        else:
            address_text, reg_text = operands[0], operands[1]
        rd = parse_register(reg_text)
        rs1, src2 = self._parse_address(address_text, stmt.line_number)
        return self._encode_format3(
            defn.op3, OP_MEMORY, rd, rs1, src2, symbols, stmt.line_number
        )

    def _parse_address(self, text: str, line_number: int) -> Tuple[int, str]:
        """Parse a ``[%reg + offset]`` / ``[%reg + %reg]`` memory operand."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise AssemblyError(f"expected memory operand, got {text!r}", line_number)
        inner = text[1:-1].strip()
        match = re.match(r"^(%\w+)\s*([+-])\s*(.+)$", inner)
        if match:
            base, sign, rest = match.groups()
            rest = rest.strip()
            if sign == "-":
                rest = f"-{rest}"
            return parse_register(base), rest
        return parse_register(inner), "0"

    def _encode_format3(
        self,
        op3: int,
        op: int,
        rd: int,
        rs1: int,
        src2: str,
        symbols: Dict[str, int],
        line_number: int,
    ) -> int:
        src2 = src2.strip()
        if src2.startswith("%") and not src2.startswith(("%hi", "%lo")):
            return encoding.Format3Reg(
                op=op, op3=op3, rd=rd, rs1=rs1, rs2=parse_register(src2)
            ).encode()
        value = self._resolve_hi_lo(src2, symbols, line_number)
        if not -4096 <= value <= 4095:
            raise AssemblyError(
                f"immediate {value} does not fit in simm13", line_number
            )
        return encoding.Format3Imm(
            op=op, op3=op3, rd=rd, rs1=rs1, simm13=value
        ).encode()

    # -- expression resolution --------------------------------------------------

    def _resolve_hi_lo(
        self, text: str, symbols: Dict[str, int], line_number: int
    ) -> int:
        text = text.strip()
        match = re.fullmatch(r"%hi\((.+)\)", text)
        if match:
            value = self._resolve(match.group(1), symbols, line_number)
            return (value >> 10) & 0x3FFFFF
        match = re.fullmatch(r"%lo\((.+)\)", text)
        if match:
            value = self._resolve(match.group(1), symbols, line_number)
            return value & 0x3FF
        return self._resolve(text, symbols, line_number)

    def _resolve(self, text: str, symbols: Dict[str, int], line_number: int) -> int:
        text = text.strip()
        try:
            return self._parse_number(text, line_number)
        except AssemblyError:
            pass
        # simple label +/- constant expressions
        match = re.fullmatch(r"([A-Za-z_.$][\w.$]*)\s*([+-])\s*(\d+)", text)
        if match:
            label, sign, offset = match.groups()
            if label not in symbols:
                raise AssemblyError(f"undefined label {label!r}", line_number)
            delta = int(offset) if sign == "+" else -int(offset)
            return symbols[label] + delta
        if text in symbols:
            return symbols[text]
        raise AssemblyError(f"cannot resolve expression {text!r}", line_number)

    @staticmethod
    def _parse_number(text: str, line_number: int) -> int:
        text = text.strip()
        try:
            return int(text, 0)
        except ValueError as exc:
            raise AssemblyError(f"invalid number {text!r}", line_number) from exc


def assemble(source: str, name: str = "program", **kwargs) -> Program:
    """Convenience wrapper: assemble *source* with default section bases."""
    return Assembler(**kwargs).assemble(source, name=name)
