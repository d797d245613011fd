"""Experiment registry.

Each experiment module registers a callable under a short identifier
(``"E1"``, ``"E7"``, ...).  The registry is what the CLI, the benchmark
harness and ``EXPERIMENTS.md`` regeneration iterate over, so every
quantitative claim of the paper has exactly one executable entry point.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..errors import ExperimentError
from .reporting import render_markdown_table, render_table

__all__ = ["ExperimentResult", "ExperimentSpec", "register", "get_experiment",
           "experiment_accepts", "list_experiments", "run_experiment"]


@dataclass
class ExperimentResult:
    """Uniform result object produced by every experiment.

    Attributes
    ----------
    experiment_id, title, claim:
        Identity of the experiment and the paper claim it reproduces.
    rows:
        The result table (one dictionary per row).
    notes:
        Free-form observations (fit qualities, pass/fail of the shape check).
    parameters:
        The parameters the experiment actually ran with (after quick-mode
        scaling), recorded for reproducibility.
    """

    experiment_id: str
    title: str
    claim: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)

    def render(self) -> str:
        """Plain-text report of this experiment."""
        parts = [f"[{self.experiment_id}] {self.title}",
                 f"claim: {self.claim}"]
        if self.parameters:
            params = ", ".join(f"{key}={value}" for key, value in self.parameters.items())
            parts.append(f"parameters: {params}")
        parts.append(render_table(self.rows, title=None))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def render_markdown(self) -> str:
        """Markdown report of this experiment (for EXPERIMENTS.md)."""
        parts = [f"### {self.experiment_id} — {self.title}",
                 "",
                 f"*Claim:* {self.claim}",
                 "",
                 render_markdown_table(self.rows)]
        if self.notes:
            parts.append("")
            parts.extend(f"- {note}" for note in self.notes)
        return "\n".join(parts)


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment."""

    experiment_id: str
    title: str
    claim: str
    func: Callable[..., ExperimentResult]


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(experiment_id: str, title: str, claim: str
             ) -> Callable[[Callable[..., ExperimentResult]], Callable[..., ExperimentResult]]:
    """Decorator registering an experiment function under ``experiment_id``."""

    def decorator(func: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        if experiment_id in _REGISTRY:
            raise ExperimentError(f"experiment {experiment_id!r} registered twice")
        _REGISTRY[experiment_id] = ExperimentSpec(experiment_id, title, claim, func)
        return func

    return decorator


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up a registered experiment (case-insensitive identifier)."""
    _ensure_loaded()
    key = experiment_id.upper()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ExperimentError(f"unknown experiment {experiment_id!r}; known: {known}")
    return _REGISTRY[key]


def list_experiments() -> list[ExperimentSpec]:
    """All registered experiments, ordered by identifier."""
    _ensure_loaded()
    return [
        _REGISTRY[key]
        for key in sorted(_REGISTRY, key=lambda k: (len(k), k))
    ]


#: Harness-level keywords forwarded only to experiments that accept them:
#: a suite-wide setting (engine, worker pool, trial count) must not break
#: experiments without that knob (e.g. E6 has no concurrent-round engine).
_OPTIONAL_KEYWORDS = ("engine", "workers", "trials", "store")


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by identifier.

    The ``engine`` keyword ("loop", "batch" or "native"; see
    :mod:`repro.engines`) selects the round engine,
    ``workers``/``store`` drive the sweep scheduler of the grid-backed
    experiments and ``trials`` scales the Monte-Carlo replication.  Each is
    forwarded only to experiments that take it.
    """
    spec = get_experiment(experiment_id)
    dropped = [key for key in _OPTIONAL_KEYWORDS
               if key in kwargs and not _accepts_keyword(spec.func, key)]
    if dropped:
        kwargs = {key: value for key, value in kwargs.items() if key not in dropped}
    return spec.func(**kwargs)


def _accepts_keyword(func: Callable[..., ExperimentResult], name: str) -> bool:
    """True if ``func`` takes ``name`` as a keyword (directly or via **kwargs)."""
    parameters = inspect.signature(func).parameters
    if name in parameters:
        return True
    return any(parameter.kind is inspect.Parameter.VAR_KEYWORD
               for parameter in parameters.values())


def experiment_accepts(experiment_id: str, keyword: str) -> bool:
    """True if the experiment's runner takes ``keyword``.

    Lets callers that forward a user-typed option (the CLI's ``run
    --trials``) warn when the experiment has no such knob, instead of the
    option being dropped silently.
    """
    return _accepts_keyword(get_experiment(experiment_id).func, keyword)


def _ensure_loaded() -> None:
    """Import the experiment modules so their ``register`` calls execute."""
    from . import catalog  # noqa: F401  (import side effect populates registry)
