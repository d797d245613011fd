"""F1 — Virtual potential gains versus concurrency error terms (Lemmas 1 & 2).

The paper's only figure (Figure 1) illustrates the decomposition behind
Lemma 1: a migrating player's *virtual* potential gain (the hatched area)
versus its contribution to the concurrency *error term* ``F_e`` (the shaded
area caused by players that move onto the same resource in the same round).
Lemma 1 states ``Delta Phi <= sum V_PQ + sum F_e`` for every migration
vector; Lemma 2 states that under the IMITATION PROTOCOL the expected error
terms eat at most half of the expected (negative) virtual gain.

The experiment samples many protocol rounds on random singleton and network
instances and reports, per instance family, the fraction of sampled rounds on
which the Lemma 1 inequality holds (must be 1.0 — it is a deterministic
statement), the average ratio ``sum F_e / |sum V_PQ|`` (Lemma 2 predicts the
*expected* ratio stays at or below 1/2), and the comparison of the empirical
mean potential change against the Lemma 2 bound of half the expected virtual
gain.

The family axis is a :class:`~repro.sweeps.spec.SweepSpec`
(:func:`error_terms_spec`, CLI ``--preset error-terms``) driving the
``error_term_ratio`` kernel, which evaluates all sampled rounds through the
batched Lemma 1 decomposition
(:func:`repro.core.potential.potential_breakdown_batch`).
``engine="batch"`` (default) draws all migration samples in one stacked
multinomial; ``engine="loop"`` draws them one at a time from the same
generator — bit-identical stacks, bit-identical tables.
"""

from __future__ import annotations

from dataclasses import replace

from ..sweeps import SweepSpec, run_sweep
from .config import DEFAULTS, pick
from .registry import ExperimentResult, register

__all__ = ["run_error_terms_experiment", "error_terms_spec"]

#: Sweep-axis game identifiers -> experiment-table family labels.
FAMILY_LABELS = {
    "linear-singleton": "linear-singleton(m=6)",
    "monomial-singleton": "cubic-singleton(m=6)",
    "grid-network": "grid-network(2x3)",
}


def error_terms_spec(
    *, quick: bool = True, seed: int = DEFAULTS.seed, samples: int | None = None,
    num_players: int | None = None,
) -> SweepSpec:
    """The F1 family comparison as a declarative sweep."""
    samples = samples if samples is not None else pick(quick, 100, 500)
    num_players = num_players if num_players is not None else pick(quick, 200, 1000)
    return SweepSpec(
        name="f1-error-terms",
        game="linear-singleton",
        protocol="imitation",
        measure="error_term_ratio",
        axes={"game": list(FAMILY_LABELS)},
        base={"n": num_players, "links": 6, "exponent": 3.0, "rows": 2, "cols": 3,
              "lambda_": 1.0, "use_nu_threshold": False},
        replicas=samples,
        max_rounds=DEFAULTS.max_rounds(quick),
        seed=seed,
    )


@register(
    "F1",
    "Virtual potential gains vs concurrency error terms",
    "Lemma 1 (deterministic upper bound) and Lemma 2 (the expected error terms "
    "consume at most half of the expected virtual potential gain).",
)
def run_error_terms_experiment(
    *, quick: bool = True, seed: int = DEFAULTS.seed, samples: int | None = None,
    num_players: int | None = None, engine: str = "batch",
    workers: int = 1, store=None,
) -> ExperimentResult:
    """Run experiment F1 and return its result table."""
    spec = replace(error_terms_spec(quick=quick, seed=seed, samples=samples,
                                    num_players=num_players), engine=engine)
    sweep_rows = run_sweep(spec, workers=workers, store=store).rows

    rows = [{
        "game": FAMILY_LABELS[row["game"]],
        "samples": row["samples"],
        "lemma1_holds_fraction": row["lemma1_holds_fraction"],
        "mean_error_over_virtual": row["mean_error_over_virtual"],
        "expected_virtual_gain": row["expected_virtual_gain"],
        "lemma2_bound_half_virtual": row["lemma2_bound_half_virtual"],
        "mean_true_potential_gain": row["mean_true_potential_gain"],
        "lemma2_satisfied": row["lemma2_satisfied"],
    } for row in sweep_rows]

    notes: list[str] = []
    notes.append("Lemma 1 held on every sampled round (it is a deterministic inequality)"
                 if all(row["lemma1_holds_fraction"] == 1.0 for row in rows)
                 else "Lemma 1 violated on some sampled rounds — investigate")
    notes.append(
        "the mean error-to-virtual-gain ratio stays below 1/2 on every family, matching Lemma 2"
        if all(row["mean_error_over_virtual"] <= 0.5 for row in rows)
        else "warning: the empirical error ratio exceeded 1/2 on some family"
    )
    return ExperimentResult(
        experiment_id="F1",
        title="Error terms vs virtual potential gains (Figure 1 / Lemmas 1-2)",
        claim="Lemmas 1 and 2",
        rows=rows,
        notes=notes,
        parameters={"quick": quick, "seed": seed, "samples": spec.replicas,
                    "num_players": spec.base["n"],
                    "engine": engine, "workers": workers,
                    "sweep_spec_hash": spec.content_hash()},
    )
