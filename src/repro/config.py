"""Processor configuration (the paper's Table 1) and experiment knobs.

:class:`SMTConfig` collects every parameter of the simulated SMT processor.
``SMTConfig()`` with no arguments *is* the paper's baseline configuration:

===========================  =============================
Processor depth              10 stages
Processor width              8-way
Reorder buffer               512 shared entries
INT / FP physical registers  320 / 320
INT / FP / LS issue queues   64 / 64 / 64 entries
INT / FP / LdSt units        6 / 3 / 4
Branch predictor             perceptron
I-cache                      64 KB, 4-way, 1-cycle, pipelined
D-cache                      64 KB, 4-way, 3-cycle
L2 cache                     1 MB, 8-way, 20-cycle
Line size                    64 bytes
Main memory                  400 cycles
===========================  =============================

The remaining fields configure the fetch policy, the Runahead Threads
mechanism and its ablations (paper §6), and measurement parameters.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Tuple

from .errors import ConfigError

#: Environment switch for the simulation-kernel tier (which
#: implementation of the pipeline run loop drives a cell; see
#: :mod:`repro.sim.kernels`).  Values: ``auto`` / ``python``.
KERNEL_ENV_VAR = "REPRO_KERNEL"

_KERNEL_MODES = ("auto", "python")


def kernel_mode() -> str:
    """Resolve the kernel-tier switch: ``auto|python``.

    * ``python`` — the portable pure-Python run loop (the fallback tier
      every other tier must match bit for bit).
    * ``auto`` (default) — the derived kernel
      (:mod:`repro.core.kernel_gen`): a run loop derived from the python
      tier's source and compiled per machine shape, with the machine
      constants folded in.  A policy/config the derivation does not
      cover falls back to the python tier — selection is a request,
      never an error.

    Deliberately an environment knob rather than an :class:`SMTConfig`
    field: the frozen config's ``to_dict`` is the canonical cache-key
    encoding, and a new field would re-key every cached cell for a
    switch that — by the bit-identity contract — cannot change any
    result.  No cache salt bump is needed for the same reason.
    """
    value = os.environ.get(KERNEL_ENV_VAR, "auto").strip().lower()
    if value not in _KERNEL_MODES:
        raise ConfigError(
            f"{KERNEL_ENV_VAR} must be one of {_KERNEL_MODES}, "
            f"got {value!r}")
    return value

#: Paper §5.1/§5.2 evaluate ICOUNT with 2 threads fetching up to 8
#: instructions per cycle (the classic ICOUNT.2.8 configuration).
DEFAULT_FETCH_THREADS = 2


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int
    latency: int

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.assoc

    def to_dict(self) -> Dict[str, int]:
        """Canonical JSON-ready form (stable field order via sort_keys)."""
        return {"size_bytes": self.size_bytes, "assoc": self.assoc,
                "line_bytes": self.line_bytes, "latency": self.latency}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "CacheConfig":
        return cls(**data)

    def validate(self, name: str) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ConfigError(f"{name}: sizes must be positive")
        if self.size_bytes % self.line_bytes != 0:
            raise ConfigError(f"{name}: size not a multiple of line size")
        if self.num_lines % self.assoc != 0:
            raise ConfigError(f"{name}: lines not divisible by associativity")
        sets = self.num_sets
        if sets & (sets - 1) != 0:
            raise ConfigError(f"{name}: number of sets ({sets}) not a power of 2")
        if self.latency < 0:
            raise ConfigError(f"{name}: negative latency")


@dataclasses.dataclass(frozen=True)
class SMTConfig:
    """Full configuration of the simulated SMT processor.

    Defaults reproduce the paper's Table 1 baseline.  Frozen so a config can
    be hashed and used as a cache key for single-thread reference runs.
    """

    # --- processor core (Table 1) -------------------------------------
    pipeline_depth: int = 10
    width: int = 8
    rob_size: int = 512
    int_regs: int = 320
    fp_regs: int = 320
    int_iq_size: int = 64
    fp_iq_size: int = 64
    ls_iq_size: int = 64
    int_units: int = 6
    fp_units: int = 3
    ldst_units: int = 4

    # --- front end ------------------------------------------------------
    fetch_threads: int = DEFAULT_FETCH_THREADS
    fetch_buffer_size: int = 32
    #: Cycles from a fetch redirect (mispredict, flush, runahead exit) until
    #: the first corrected-path instruction re-enters the fetch buffer.
    #: Roughly the front-end half of the 10-stage pipe.
    redirect_penalty: int = 5

    # --- branch predictor -------------------------------------------------
    predictor_entries: int = 1024
    predictor_history: int = 24
    btb_entries: int = 2048

    # --- memory subsystem (Table 1) ----------------------------------
    icache: CacheConfig = CacheConfig(64 * 1024, 4, 64, 1)
    dcache: CacheConfig = CacheConfig(64 * 1024, 4, 64, 3)
    l2: CacheConfig = CacheConfig(1024 * 1024, 8, 64, 20)
    memory_latency: int = 400
    mshr_entries: int = 32

    # --- policy -----------------------------------------------------------
    #: Fetch/resource policy name, resolved via repro.policies.registry.
    policy: str = "icount"

    # --- Runahead Threads (paper §3) ------------------------------------
    #: Invalidate FP instructions at decode during runahead (§3.3).
    rat_fp_invalidation: bool = True
    #: Model the runahead cache for store->load validity forwarding.  The
    #: paper measured no significant impact and left it out (§3.3); we default
    #: off but keep it for the ablation bench.
    rat_runahead_cache: bool = False
    rat_runahead_cache_bytes: int = 4096
    #: Figure 4 "Prefetching" ablation: when False, runahead loads/ifetches
    #: do not touch L2/memory (no prefetch benefit), and loads that would
    #: have missed do not re-trigger runahead after recovery.
    rat_prefetch: bool = True
    #: Figure 4 "Resource availability" ablation: when True, a runahead
    #: thread stops fetching once an L2-missing load is seen in runahead
    #: mode, isolating the early-resource-release benefit.
    rat_stop_fetch_in_runahead: bool = False

    # --- STALL/FLUSH policy details (Tullsen & Brown [17]) ----------------
    #: Nothing reads this field: the long-latency handlers (stall, flush,
    #: the runahead trigger) act on each detected L2 miss, whatever its
    #: value.  It stays only because it is part of ``to_dict()``, which
    #: keys every cached cell and every pinned benchmark cell; deleting
    #: it re-keys them all.
    long_latency_threshold: int = 1

    # --- DCRA ---------------------------------------------------------------
    dcra_slow_weight: float = 2.0
    dcra_sample_interval: int = 64

    # --- Hill climbing ------------------------------------------------------
    hill_epoch_cycles: int = 512
    hill_delta: float = 0.10
    hill_min_share: float = 0.10

    # --- MLP-aware policy (related work [15], extension) --------------------
    mlp_predictor_entries: int = 256
    mlp_max_extra: int = 64

    # --- measurement ---------------------------------------------------------
    #: Hard cap on simulated cycles (deadlock guard).
    max_cycles: int = 5_000_000
    #: Functionally warm caches, BTB and branch predictor with one trace
    #: pass before the timed run, so short traces measure steady-state
    #: behaviour rather than pure cold-start (the paper measures 300M-
    #: instruction SimPoint slices, which are self-warming).
    warmup: bool = True

    def validate(self) -> "SMTConfig":
        """Raise :class:`ConfigError` if any field is inconsistent.

        Returns self so calls can be chained.
        """
        if self.pipeline_depth < 5:
            raise ConfigError("pipeline_depth must be >= 5")
        if self.width < 1:
            raise ConfigError("width must be >= 1")
        if self.rob_size < self.width:
            raise ConfigError("rob_size must be >= width")
        for name in ("int_regs", "fp_regs"):
            value = getattr(self, name)
            if value < 64:
                # 32 architectural registers per thread; fewer than 2
                # threads' worth of registers cannot run any Table 2 workload.
                raise ConfigError(f"{name} must be >= 64 (got {value})")
        for name in (
            "int_iq_size", "fp_iq_size", "ls_iq_size",
            "int_units", "fp_units", "ldst_units",
            "fetch_threads", "fetch_buffer_size",
            "predictor_entries", "predictor_history", "btb_entries",
            "memory_latency", "mshr_entries", "max_cycles",
            # Divisors of the DCRA / hill-climbing / MLP policies.
            "dcra_sample_interval", "hill_epoch_cycles",
            "mlp_predictor_entries",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.redirect_penalty < 0:
            raise ConfigError("redirect_penalty must be >= 0")
        if self.long_latency_threshold < 1:
            raise ConfigError("long_latency_threshold must be >= 1")
        if not 0.0 < self.hill_delta < 1.0:
            raise ConfigError("hill_delta must be in (0, 1)")
        if not 0.0 < self.hill_min_share <= 1.0 / 2:
            raise ConfigError("hill_min_share must be in (0, 0.5]")
        if self.dcra_slow_weight < 1.0:
            raise ConfigError("dcra_slow_weight must be >= 1.0")
        self.icache.validate("icache")
        self.dcache.validate("dcache")
        self.l2.validate("l2")
        if self.dcache.latency < 1:
            # A zero-latency load would complete in its own issue cycle,
            # whose events were already processed: it never completes.
            raise ConfigError("dcache.latency must be >= 1")
        if not (self.icache.line_bytes == self.dcache.line_bytes
                == self.l2.line_bytes):
            raise ConfigError("all cache levels must share one line size")
        return self

    def with_policy(self, policy: str, **overrides) -> "SMTConfig":
        """Return a copy with a different policy (and optional overrides)."""
        return dataclasses.replace(self, policy=policy, **overrides)

    def with_registers(self, int_regs: int, fp_regs: int = -1) -> "SMTConfig":
        """Return a copy with a different register file size (Figure 6)."""
        if fp_regs < 0:
            fp_regs = int_regs
        return dataclasses.replace(self, int_regs=int_regs, fp_regs=fp_regs)

    def to_dict(self) -> Dict:
        """Canonical nested-dict form, suitable for JSON and cache keying.

        Every field is a JSON scalar or a :class:`CacheConfig` dict, so
        ``json.dumps(config.to_dict(), sort_keys=True)`` is a stable
        canonical encoding: equal configs always serialize identically.
        Built field by field: ``dataclasses.asdict`` deep-copies every
        scalar, and every cell key pays for this encoding.
        """
        data = {name: getattr(self, name) for name in _CONFIG_FIELDS}
        for level in _CACHE_LEVELS:
            data[level] = data[level].to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "SMTConfig":
        data = dict(data)
        for level in _CACHE_LEVELS:
            if isinstance(data.get(level), dict):
                data[level] = CacheConfig.from_dict(data[level])
        return cls(**data)

    def max_threads(self) -> int:
        """Threads supportable given architectural-state register reservation.

        With N logical registers per thread, N physical registers per thread
        are reserved for precise state (paper §6.2); a small margin of
        renaming registers beyond that is required for any forward progress
        at all, so the Figure 6 sweep clamps tiny register files with
        :func:`min_registers_for`.
        """
        per_thread = 32
        margin = 16
        return min((self.int_regs - margin) // per_thread,
                   (self.fp_regs - margin) // per_thread)

    def table1_rows(self) -> Tuple[Tuple[str, str], ...]:
        """The configuration as (parameter, value) rows, mirroring Table 1."""
        def _kb(byte_count: int) -> str:
            if byte_count % (1024 * 1024) == 0:
                return f"{byte_count // (1024 * 1024)} MB"
            return f"{byte_count // 1024} KB"

        return (
            ("Processor depth", f"{self.pipeline_depth} stages"),
            ("Processor width", f"{self.width} way"),
            ("Reorder buffer size", f"{self.rob_size} shared entries"),
            ("INT/FP registers", f"{self.int_regs} / {self.fp_regs}"),
            ("INT/FP/LS issue queues",
             f"{self.int_iq_size} / {self.fp_iq_size} / {self.ls_iq_size}"),
            ("INT/FP/LdSt units",
             f"{self.int_units} / {self.fp_units} / {self.ldst_units}"),
            ("Branch predictor", "Perceptron"),
            ("Icache",
             f"{_kb(self.icache.size_bytes)}, {self.icache.assoc}-way, "
             f"{self.icache.latency} cyc pipelined"),
            ("Dcache",
             f"{_kb(self.dcache.size_bytes)}, {self.dcache.assoc}-way, "
             f"{self.dcache.latency} cyc latency"),
            ("L2 Cache",
             f"{_kb(self.l2.size_bytes)}, {self.l2.assoc}-way, "
             f"{self.l2.latency} cyc latency"),
            ("Caches line size", f"{self.l2.line_bytes} bytes"),
            ("Main memory latency", f"{self.memory_latency} cycles"),
        )


#: SMTConfig field names in declaration order, and the nested
#: CacheConfig fields among them (for the to_dict/from_dict encoders).
_CONFIG_FIELDS = tuple(field.name for field in dataclasses.fields(SMTConfig))
_CACHE_LEVELS = ("icache", "dcache", "l2")


def baseline() -> SMTConfig:
    """The paper's Table 1 baseline configuration, validated."""
    return SMTConfig().validate()


def min_registers_for(num_threads: int, margin: int = 16) -> int:
    """Smallest register-file size that can run ``num_threads`` threads.

    32 architectural registers per thread are reserved; ``margin`` renaming
    registers keep dispatch from deadlocking.  The Figure 6 sweep clamps
    requested sizes with this (documented in EXPERIMENTS.md): e.g. a
    4-thread workload cannot run with 64 or 128 physical registers in this
    model, so those points are measured at 144.
    """
    if num_threads < 1:
        raise ConfigError("num_threads must be >= 1")
    return 32 * num_threads + margin
