"""DET — RNG and wall-clock discipline on the deterministic path.

The whole reproduction rests on one contract: every row, trajectory and
content hash is a pure function of the seeds in a :class:`SweepSpec`
(docs/SWEEPS.md).  One stray ``random.random()`` or ``time.time()`` on the
compute path silently breaks worker/shard independence — the exact class
of bug the parity tests can only catch when they happen to disagree.

Module scoping: the service, telemetry, store and backend layers are
*legitimately* wall-clock (lease TTLs, timestamps, jitter, tmp names) and
are exempt from the whole family via :data:`WALL_CLOCK_EXEMPT`.  On the
deterministic path the sanctioned exceptions are inline-suppressed with a
reason — ``repro/rng.py`` (the ``seed=None`` entropy contract) and
``repro/core/native.py`` (numba's nopython RNG) are the canonical examples.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .findings import Finding
from .rules import ModuleContext, Rule, dotted_name, import_map, iter_calls, \
    register

__all__ = ["WALL_CLOCK_EXEMPT", "on_deterministic_path"]

#: Package-relative path prefixes exempt from the DET family: modules that
#: are *off* the deterministic compute path and legitimately touch wall
#: clocks, entropy and jitter.
WALL_CLOCK_EXEMPT = (
    "service/",        # lease TTLs, retry jitter, uptime, job timestamps
    "telemetry/",      # event timestamps, wall-time histograms
    "sweeps/store.py",  # lock stamps, manifest timestamps
    "sweeps/backends/",  # tmp-object names, created_at stanzas
    "info.py",
    "lint/",           # the linter itself is tooling, not compute
)

#: numpy.random attributes that are seeded-stream plumbing, not draws from
#: the hidden global generator.
_NUMPY_SEEDED_API = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Wall-clock / entropy calls that have no place on the deterministic path.
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "uuid.uuid1", "uuid.uuid3", "uuid.uuid4", "uuid.uuid5",
    "os.urandom",
    "datetime.datetime.now", "datetime.datetime.utcnow",
})


def on_deterministic_path(rel: str) -> bool:
    """True when a module must obey the DET family."""
    return not any(rel.startswith(prefix) for prefix in WALL_CLOCK_EXEMPT)


class _DeterminismRule(Rule):
    """Base: applies only on the deterministic path."""

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.tree is not None and on_deterministic_path(ctx.rel)


@register
class StdlibRandomRule(_DeterminismRule):
    """Calls into the stdlib ``random`` module's hidden global state."""

    id = "DET001"
    name = "stdlib-random"
    protects = ("seed-to-row determinism: stdlib random draws from an "
                "unseeded process-global generator, so results depend on "
                "import order and worker count")
    hint = ("draw from a numpy Generator handed down from the point's "
            "SeedSequence (see repro/rng.py)")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        imports = import_map(ctx.tree)
        for call in iter_calls(ctx.tree):
            dotted = dotted_name(call.func, imports)
            # `random.` with a dot: a bare local name `random` (e.g. a
            # user-defined function) never resolves with a dot, so only
            # genuine stdlib-module access matches.
            if dotted and dotted.startswith("random."):
                yield ctx.finding(
                    self, call,
                    f"call to stdlib `{dotted}` uses the process-global "
                    "random state")


@register
class NumpyGlobalRngRule(_DeterminismRule):
    """Draws from numpy's legacy module-level generator."""

    id = "DET002"
    name = "numpy-global-rng"
    protects = ("worker/shard topology independence: np.random.<fn> module "
                "calls share one hidden global stream across everything in "
                "the process")
    hint = ("use a Generator from spawn_rngs/spawn_seed_sequences; the "
            "numba kernels that must use np.random are inline-suppressed "
            "with their seeding discipline (repro/core/native.py)")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        imports = import_map(ctx.tree)
        for call in iter_calls(ctx.tree):
            dotted = dotted_name(call.func, imports)
            if not dotted or not dotted.startswith("numpy.random."):
                continue
            attr = dotted.split(".")[-1]
            if attr in _NUMPY_SEEDED_API:
                continue
            yield ctx.finding(
                self, call,
                f"`{dotted}` draws from numpy's module-level global "
                "generator")


@register
class UnseededDefaultRngRule(_DeterminismRule):
    """``default_rng()`` without a seed: fresh OS entropy per call."""

    id = "DET003"
    name = "unseeded-default-rng"
    protects = ("reproducibility from a single master seed: an unseeded "
                "default_rng() yields different rows on every run")
    hint = ("pass a seed/SeedSequence; if fresh entropy is the *contract* "
            "(rng=None), suppress with `# lint: disable=DET003 -- reason` "
            "as repro/rng.py does")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        imports = import_map(ctx.tree)
        for call in iter_calls(ctx.tree):
            dotted = dotted_name(call.func, imports)
            if dotted != "numpy.random.default_rng":
                continue
            unseeded = (not call.args and not call.keywords) or (
                len(call.args) == 1 and not call.keywords
                and isinstance(call.args[0], ast.Constant)
                and call.args[0].value is None)
            if unseeded:
                yield ctx.finding(
                    self, call,
                    "default_rng() called without a seed draws fresh OS "
                    "entropy")


@register
class WallClockRule(_DeterminismRule):
    """Wall-clock / entropy reads on the deterministic path.

    ``time.perf_counter``/``time.monotonic`` stay legal everywhere: they
    feed elapsed-time telemetry (a side channel) and never key a result.
    """

    id = "DET004"
    name = "wall-clock"
    protects = ("byte-stable rows and content hashes: wall-clock values "
                "(time.time, uuid4, urandom) leak host/run identity into "
                "anything they touch")
    hint = ("move the timestamp to the telemetry side channel (perf_counter "
            "durations, StructuredLogger events), or relocate the code to "
            "a service/telemetry module")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        imports = import_map(ctx.tree)
        for call in iter_calls(ctx.tree):
            dotted = dotted_name(call.func, imports)
            if not dotted:
                continue
            if dotted in _WALL_CLOCK_CALLS or dotted.startswith("secrets."):
                yield ctx.finding(
                    self, call,
                    f"`{dotted}` reads wall-clock/entropy on the "
                    "deterministic path")
