"""The three workloads: set-up, measured windows, and their ledgers.

* ``compile-paper`` / ``compile-large``: one client in a closed loop
  over ``repro.compiler.compile_kernel`` (lift + compile, validation
  on), whole passes over a fixed kernel list in a seeded order.
* ``serve-mix``: two closed-loop clients on ``CompileGateway.submit``
  over an isolated ``CompileService`` with a fresh on-disk
  ``ArtifactCache``; three requests in every five repeat a warm hot key
  (cache reads), two carry a fresh ``CompileOptions.seed`` (a forked
  compile and a cache write).

Every compile runs with ``time_limit=None`` so the emitted code does
not depend on machine load.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import CompileOptions, compile_kernel
from repro.kernels import extra_kernels, get_kernel, make_qr, table1_kernels
from repro.rules import build_ruleset
from repro.service import ArtifactCache, CompileService
from repro.service.gateway import CompileGateway, GatewayConfig

from oracle import Oracle, compile_facts, compile_timings, derive_seed, failure_of, stop_reasons

#: Table-1 kernels that compile monolithically in under ~1.5 s, plus
#: the six extension kernels (division, sqrt, negation).
PAPER_KERNELS = (
    "matmul-2x2-2x2", "matmul-2x3-3x3", "matmul-3x3-3x3", "matmul-4x4-4x4",
    "matmul-8x8-8x8", "2dconv-3x3-2x2", "2dconv-3x3-3x3", "2dconv-3x5-3x3",
    "2dconv-4x4-3x3", "2dconv-8x8-3x3", "2dconv-10x10-2x2", "2dconv-10x10-3x3",
    "qprod-4-3-4-3", "batchdot-4x4", "matvec-3x3", "xcorr-6x6-3x3",
    "inverse-2x2", "normalize-8", "quat2rot",
)
#: The two kernels past the phase threshold, and a QR decomposition,
#: whose sqrt/division lanes validation samples at random.  (QR 3x3 is
#: a single ~20 s compile: one sample per run, too noisy to gate on.)
LARGE_KERNELS = ("2dconv-8x8-4x4", "matmul-16x16-16x16", "qrdecomp-2x2")
#: The five fastest-compiling matmul/conv kernels.
SERVE_KERNELS = (
    "matmul-2x2-2x2", "matmul-2x3-3x3", "matmul-3x3-3x3", "2dconv-3x3-2x2",
    "matmul-4x4-4x4",
)
#: Compiles per pass of the kernels that are fast for their workload;
#: every other kernel compiles once.  The medians of these kernels set
#: compile_s_geomean and request_p50_ms, so they get more samples for
#: little pass time: the ten paper kernels under ~0.1 s (~15% more
#: pass time), and the two large kernels besides matmul-16x16.
REPEATS = {
    **dict.fromkeys((
        "matmul-2x2-2x2", "matmul-2x3-3x3", "matmul-3x3-3x3", "matmul-4x4-4x4",
        "2dconv-3x3-2x2", "batchdot-4x4", "matvec-3x3", "inverse-2x2",
        "normalize-8", "quat2rot",
    ), 3),
    "2dconv-8x8-4x4": 2,
    "qrdecomp-2x2": 2,
}
#: Kernels of each compile workload, and the wall seconds one pass over
#: them takes at the reference speed (``speed.py``).
WORKLOADS = {
    "compile-paper": (PAPER_KERNELS, 5.5),
    "compile-large": (LARGE_KERNELS, 9.75),
}
WARMUP_KERNEL = "matmul-2x2-2x2"
#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 5
#: serve-mix: hot requests per block of ``BLOCK`` requests.
HOT_PER_BLOCK, BLOCK = 3, 5
SERVE_CLIENTS = 2
#: serve-mix: seconds of load between two speed samplings.
SLICE_SECONDS = 2.0


def options(seed: Optional[int] = None) -> CompileOptions:
    if seed is None:
        return CompileOptions(time_limit=None)
    return CompileOptions(time_limit=None, seed=seed)


def fresh_kernels(names: Sequence[str]) -> List:
    """New (unlifted) kernel objects for ``names``, in that order."""
    known = {k.name: k for k in table1_kernels() + extra_kernels() + [make_qr(2)]}
    return [known[n] if n in known else get_kernel(n) for n in names]


# ----------------------------------------------------------------------
# Ledger: what one measured window produced
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    kernel: str
    latency: float
    failure: Optional[str] = None
    hit: bool = False
    program: object = None
    fingerprint: str = ""
    cycles: float = 0.0
    wrong: bool = False
    facts: Dict[str, float] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    stops: Tuple[str, ...] = ()


@dataclass
class Ledger:
    outcomes: List[Outcome] = field(default_factory=list)
    wall: float = 0.0
    passes: int = 0

    def add_result(self, kernel: str, latency: float, result) -> None:
        """Keep what the checks need; the oracle runs in :meth:`finish`,
        after the window, so simulation never counts as load."""
        self.outcomes.append(Outcome(
            kernel, latency,
            failure=failure_of(result),
            hit=result.diagnostics.cache_hit,
            program=result.program,
            facts=compile_facts(result),
            timings=compile_timings(result),
            stops=tuple(stop_reasons(result)),
        ))

    def add_error(self, kernel: str, latency: float, exc: BaseException) -> None:
        self.outcomes.append(
            Outcome(kernel, latency, failure=f"raised {type(exc).__name__}: {exc}")
        )

    def finish(self, oracle: Oracle) -> None:
        for o in self.outcomes:
            if o.program is None:
                continue
            o.fingerprint = o.program.fingerprint()
            verdict = oracle.check(o.kernel, o.program, o.fingerprint)
            o.cycles = verdict.cycles
            o.program = None
            if not verdict.ok:
                o.wrong = True
                o.failure = o.failure or "wrong outputs: " + verdict.why

    @property
    def completed(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.fingerprint]

    def fingerprints(self) -> Dict[str, set]:
        prints: Dict[str, set] = {}
        for o in self.completed:
            prints.setdefault(o.kernel, set()).add(o.fingerprint)
        return prints


# ----------------------------------------------------------------------
# compile-paper / compile-large
# ----------------------------------------------------------------------


class CompileWorkload:
    def __init__(self, names: Sequence[str], pass_seconds: float, seed: int) -> None:
        self.names = tuple(names)
        self.pass_seconds = pass_seconds
        self.seed = seed
        self.rng = random.Random(derive_seed(seed, "order"))
        self.kernels: List = []

    async def setup_once(self) -> None:
        """Ruleset build, lifting every spec, one warm-up compile."""
        build_ruleset(width=4)
        self.kernels = fresh_kernels(self.names)
        for kernel in self.kernels:
            kernel.spec()
        (warm,) = fresh_kernels([WARMUP_KERNEL])
        compile_kernel(warm.name, warm.reference, warm.inputs, warm.outputs, options())

    def oracle(self) -> Oracle:
        return Oracle(self.kernels, self.seed)

    async def window(self, seconds: float, speedometer, recorder=None) -> Ledger:
        """The number of whole passes over the kernels that takes about
        ``seconds`` at the reference speed (at least one).  A fixed pass
        count keeps every run's sample mix, and so its latency
        percentiles, the same whatever the machine's speed.  The
        machine's speed is sampled between compiles, outside their
        timing.  (It never awaits: the compiles block, as a single
        in-process client does.)"""
        ledger = Ledger()
        opts = options()
        latency = 0.0
        for _ in range(max(1, round(seconds / self.pass_seconds))):
            order = [k for k in self.kernels for _ in range(REPEATS.get(k.name, 1))]
            self.rng.shuffle(order)
            for k in order:
                # A full collection between compiles makes the collector's
                # passes inside each compile independent of the order the
                # kernels ran in.
                gc.collect()
                speedometer.sample_for(latency)
                span = recorder.span("request") if recorder else contextlib.nullcontext()
                with span:
                    t0 = time.perf_counter()
                    try:
                        result = compile_kernel(k.name, k.reference, k.inputs, k.outputs, opts)
                    except Exception as exc:  # noqa: BLE001 - counted as failed
                        ledger.add_error(k.name, time.perf_counter() - t0, exc)
                        continue
                    latency = time.perf_counter() - t0
                ledger.add_result(k.name, latency, result)
            ledger.passes += 1
        speedometer.sample_for(latency)
        ledger.wall = sum(o.latency for o in ledger.outcomes)
        return ledger

    def stats(self) -> Dict[str, float]:
        return {}

    async def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------


class ServeWorkload:
    """Gateway + isolated service + fresh artifact cache.  All methods
    run on one asyncio loop owned by the caller."""

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.kernels: List = []
        self.hot: Dict[str, CompileOptions] = {}
        self.cache = None
        self.service = None
        self.gateway = None
        self._setups = 0
        self._windows = 0
        self._cold = 0

    async def setup_once(self) -> None:
        """Ruleset build, lifting every spec, service and gateway start
        (the first ``ArtifactCache`` also takes the first
        ``code_fingerprint``), and one warm-up compile per hot key."""
        build_ruleset(width=4)
        self.kernels = fresh_kernels(SERVE_KERNELS)
        for kernel in self.kernels:
            kernel.spec()
        self._setups += 1
        self.cache = ArtifactCache(os.path.join(self.workdir, f"cache-{self._setups}"))
        self.service = CompileService(cache=self.cache, max_workers=SERVE_CLIENTS, seed=self.seed)
        self.gateway = CompileGateway(self.service, GatewayConfig(concurrency=SERVE_CLIENTS))
        await self.gateway.start()
        # Hot option seeds sit below 2**31, cold ones at or above it.
        self.hot = {
            k.name: options(derive_seed(self.seed, "hot", k.name) & 0x7FFFFFFF)
            for k in self.kernels
        }
        for k in self.kernels:
            await self.gateway.submit(k.spec(), self.hot[k.name])

    def oracle(self) -> Oracle:
        return Oracle(self.kernels, self.seed)

    def _cold_options(self) -> CompileOptions:
        self._cold += 1
        base = derive_seed(self.seed, "cold")
        return options(2**31 + (base + self._cold) % 2**31)

    async def window(self, seconds: float, speedometer, recorder=None) -> Ledger:
        """Slices of ``SLICE_SECONDS`` until ``seconds`` of load have
        run.  Between slices every request has returned and every
        worker has been reaped; the machine's speed is sampled there,
        outside the window's wall time."""
        ledger = Ledger()
        self._windows += 1
        window = self._windows
        rngs = [random.Random(derive_seed(self.seed, "client", i, window)) for i in range(SERVE_CLIENTS)]
        blocks: List[List[bool]] = [[] for _ in range(SERVE_CLIENTS)]

        async def client(index: int, stop_at: float) -> None:
            rng, block = rngs[index], blocks[index]
            while time.perf_counter() < stop_at:
                if not block:
                    block.extend([True] * HOT_PER_BLOCK + [False] * (BLOCK - HOT_PER_BLOCK))
                    rng.shuffle(block)
                hot = block.pop()
                kernel = rng.choice(self.kernels)
                opts = self.hot[kernel.name] if hot else self._cold_options()
                span = recorder.span("request") if recorder else contextlib.nullcontext()
                with span:
                    t0 = time.perf_counter()
                    try:
                        result = await self.gateway.submit(kernel.spec(), opts)
                    except Exception as exc:  # noqa: BLE001 - counted as failed
                        ledger.add_error(kernel.name, time.perf_counter() - t0, exc)
                        continue
                    latency = time.perf_counter() - t0
                ledger.add_result(kernel.name, latency, result)

        while ledger.wall < seconds:
            start = time.perf_counter()
            stop_at = start + min(SLICE_SECONDS, seconds - ledger.wall)
            await asyncio.gather(*(client(i, stop_at) for i in range(SERVE_CLIENTS)))
            ledger.wall += time.perf_counter() - start
            speedometer.sample_for(time.perf_counter() - start)
        return ledger

    def stats(self) -> Dict[str, float]:
        """Cumulative service, cache and gateway counters."""
        gw = self.gateway.stats.snapshot()
        return {
            "retries": self.service.stats.retries,
            "cache_hits": self.cache.stats.hits,
            "cache_misses": self.cache.stats.misses,
            "coalesced": gw["dedup_coalesced"],
            "shed": gw["shed_total"],
        }

    async def close(self) -> None:
        if self.gateway is not None:
            await self.gateway.aclose()
            self.gateway = None
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        if self.cache is not None:
            shutil.rmtree(self.cache.root, ignore_errors=True)
            self.cache = None

