"""repro — RTL/ISS fault-injection correlation framework.

A from-scratch reproduction of *"Analysis and RTL Correlation of Instruction
Set Simulators for Automotive Microcontroller Robustness Verification"*
(Espinosa et al., DAC 2015).

The package provides:

* :mod:`repro.isa` — a SPARCv8 (subset) instruction-set substrate: encoder,
  decoder, assembler and register-file model shared by the simulators.
* :mod:`repro.iss` — an instruction set simulator (functional emulator plus a
  lightweight timing model) with architectural-level fault injection.
* :mod:`repro.rtl` / :mod:`repro.leon3` — a structural, net-accurate Leon3-like
  microcontroller model (7-stage integer unit and cache memory) on top of a
  small RTL-style simulation substrate with per-bit fault sites.
* :mod:`repro.engine` — the campaign execution engine: a uniform
  :class:`ExecutionBackend` API over both simulators, picklable injection
  jobs, pluggable serial/multiprocessing schedulers with per-worker
  golden-run caching, and :class:`CampaignEngine`, the one entry point for
  every fault-injection campaign.
* :mod:`repro.faultinjection` — off-core-boundary failure detection and the
  per-fault-model campaign results.
* :mod:`repro.workloads` — EEMBC-AutoBench-like automotive kernels and
  synthetic benchmarks written in SPARC assembly.
* :mod:`repro.core` — the paper's contribution: the instruction-diversity
  metric, the area-weighted failure model and the RTL/ISS correlation
  analysis, plus report generators for every table and figure.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
