"""SPARCv8 instruction-set substrate.

This package implements the instruction-set level building blocks shared by
both the instruction set simulator (:mod:`repro.iss`) and the structural
RTL-style Leon3 model (:mod:`repro.leon3`):

* instruction formats and bit-field encoders (:mod:`repro.isa.encoding`),
* the opcode table, instruction categories and the mapping from opcodes to the
  functional units they exercise (:mod:`repro.isa.instructions`),
* a binary decoder (:mod:`repro.isa.decoder`),
* a two-pass assembler (:mod:`repro.isa.assembler`),
* the windowed register file (:mod:`repro.isa.registers`),
* integer condition-code helpers (:mod:`repro.isa.ccodes`) and
* the integer semantics table the fast engines generate their handlers
  from (:mod:`repro.isa.semantics`).
"""

from repro.isa.assembler import Assembler, AssemblyError, Program
from repro.isa.decoder import DecodeError, decode
from repro.isa.instructions import (
    FunctionalUnit,
    InstructionCategory,
    InstructionDef,
    instruction_set,
    lookup,
)
from repro.isa.registers import RegisterFile, RegisterWindowError

__all__ = [
    "Assembler",
    "AssemblyError",
    "Program",
    "DecodeError",
    "decode",
    "FunctionalUnit",
    "InstructionCategory",
    "InstructionDef",
    "instruction_set",
    "lookup",
    "RegisterFile",
    "RegisterWindowError",
]
