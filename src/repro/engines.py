"""Round-engine registry: names, validation, and runtime capabilities.

Three engines execute the concurrent dynamics:

* ``"loop"`` — :class:`~repro.core.dynamics.ConcurrentDynamics`, one Python
  round loop per trajectory (the reference implementation);
* ``"batch"`` — :class:`~repro.core.ensemble.EnsembleDynamics`, all replicas
  advanced together through broadcasted numpy (bit-identical to ``loop``
  under per-replica rng streams);
* ``"native"`` — with numba installed, :mod:`repro.core.native`, a fused
  numba-JIT per-round kernel that never materialises the ``(R, S, S)``
  switch tensor; without numba, the ``batch`` round on the ensemble's
  single generator.

Every surface accepting an ``engine=`` argument validates it here, so an
unknown name fails immediately with a :class:`~repro.errors.EngineError`
listing the valid backends instead of surfacing as a backend-specific error
deep inside a run.  ``docs/ENGINE.md`` documents the parity contract between
the engines.
"""

from __future__ import annotations

from .errors import EngineError

__all__ = ["ENGINES", "DEFAULT_ENGINE", "PARITY_TIERS", "NATIVE_PARITY_TIERS",
           "validate_engine", "engine_runtime_info"]

#: All round engines, in documentation order.
ENGINES = ("loop", "batch", "native")

#: The engine used when a caller does not choose one explicitly.
DEFAULT_ENGINE = "batch"

#: Reproducibility tier of the reference pair: ``loop`` and ``batch`` are
#: bit-identical to each other (same stacked multinomial draws under
#: per-replica rng streams).  See docs/ENGINE.md.
PARITY_TIERS = {
    "loop": "bit-identical",
    "batch": "bit-identical",
}

#: ``native``'s tier by mode.  The numba kernel is deterministic given its
#: seed but draws migrations through a different (binomial-chain)
#: decomposition, so it agrees with ``batch`` in distribution and on every
#: deterministic quantity (allclose), not sample-path-wise.  Without numba
#: ``native`` runs the batch round itself on one generator.
NATIVE_PARITY_TIERS = {
    "numba-jit": "allclose",
    "batch-round": "bit-identical",
}


def validate_engine(engine: str, *, allowed: tuple[str, ...] = ENGINES,
                    context: str = "") -> str:
    """Return ``engine`` unchanged or raise :class:`EngineError` naming the
    valid backends.  ``context`` (e.g. ``"sweep kernel"``) prefixes the
    message so the failing surface is obvious."""
    if engine in allowed:
        return engine
    where = f"{context}: " if context else ""
    raise EngineError(
        f"{where}unknown engine {engine!r}; valid engines: {list(allowed)}"
    )


def engine_runtime_info() -> dict:
    """Engine availability/capability snapshot for ``repro info`` and the
    service health endpoint."""
    from .core.native import NUMBA_AVAILABLE, numba_version

    mode = "numba-jit" if NUMBA_AVAILABLE else "batch-round"
    return {
        "engines": list(ENGINES),
        "default_engine": DEFAULT_ENGINE,
        "parity_tiers": {**PARITY_TIERS, "native": NATIVE_PARITY_TIERS[mode]},
        "numba_available": NUMBA_AVAILABLE,
        "numba_version": numba_version(),
        "native_mode": mode,
    }
