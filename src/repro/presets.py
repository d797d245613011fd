"""Named sweep presets — the grid experiments' :class:`SweepSpec`s by name.

The registry used to live inside the CLI; it is a top-level module now so
that every consumer of "a sweep by name" — ``python -m repro sweep
--preset``, the sweep service's ``POST /v1/sweeps`` with ``{"preset": ...}``
and ``GET /v1/presets``, and ``python -m repro info`` — resolves the same
names to the same spec factories.

Every factory takes ``(quick: bool, seed: int)`` keywords and returns a
validated-able :class:`~repro.sweeps.spec.SweepSpec`; the preset *name* is
stable API, the grid behind it may grow with the experiment it mirrors.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Optional

from .errors import ReproError

if TYPE_CHECKING:
    from .sweeps import SweepSpec

__all__ = ["SWEEP_PRESETS", "get_sweep_preset", "list_sweep_presets",
           "preset_summaries"]

#: name -> (experiment module, spec factory, one-line description).  The
#: factory is imported when its preset is resolved, so listing the names
#: (the CLI's ``--preset`` choices) imports no experiment.  The descriptions
#: feed the CLI epilog, ``python -m repro info`` and the service's
#: ``GET /v1/presets``.
SWEEP_PRESETS: dict[str, tuple[str, str, str]] = {
    "logn": ("exp_logn_scaling", "logn_scaling_spec",
             "E2 hitting-time grid over the player count n (Theorem 7)"),
    "eps-delta": ("exp_eps_delta_sweep", "eps_delta_grid_spec",
                  "E3 hitting-time grid over (epsilon, delta)"),
    "overshoot": ("exp_overshooting", "overshoot_spec",
                  "E5 one-round overshoot ratios on the two-link game"),
    "protocol-work": ("exp_protocol_comparison", "protocol_comparison_spec",
                      "E11 concurrent-vs-sequential dynamics work"),
    "virtual-agents": ("exp_virtual_agents", "virtual_agents_spec",
                       "E13 innovativeness recovery via virtual agents"),
    "error-terms": ("exp_error_terms", "error_terms_spec",
                    "F1 Lemma 1/2 error-term ratios"),
    "network-scaling": ("exp_network_scaling", "network_scaling_spec",
                        "E14 layered-DAG routing with sampled path sets"),
}


def list_sweep_presets() -> list[str]:
    """The registered preset names, sorted."""
    return sorted(SWEEP_PRESETS)


def get_sweep_preset(name: str, *, quick: bool = True,
                     seed: Optional[int] = None) -> SweepSpec:
    """Resolve a preset name to its :class:`SweepSpec`.

    Raises :class:`~repro.errors.ReproError` for an unknown name, listing
    the known ones (the service turns this into an HTTP 400).
    """
    if name not in SWEEP_PRESETS:
        raise ReproError(f"unknown sweep preset {name!r}; "
                         f"known: {list_sweep_presets()}")
    module, function, _ = SWEEP_PRESETS[name]
    factory = getattr(
        importlib.import_module(f"{__package__}.experiments.{module}"), function)
    kwargs: dict[str, Any] = {"quick": quick}
    if seed is not None:
        kwargs["seed"] = seed
    return factory(**kwargs)


def preset_summaries(*, quick: bool = True) -> list[dict[str, Any]]:
    """One summary dict per preset (name, description, grid shape).

    Building a spec is cheap (no points execute), so the summaries report
    the actual grid size at the requested scale.
    """
    summaries = []
    for name in list_sweep_presets():
        spec = get_sweep_preset(name, quick=quick)
        summaries.append({
            "name": name,
            "description": SWEEP_PRESETS[name][2],
            "sweep_name": spec.name,
            "game": spec.game,
            "protocol": spec.protocol,
            "measure": spec.measure,
            "num_points": spec.num_points,
            "replicas": spec.replicas,
        })
    return summaries
