"""The benchmark's workloads: which product runs make up one pass, per seed.

Each product run is what one CLI call would do: a configuration text (the
``--config`` file) plus the flag overrides of the subcommand.  The seed moves
only inputs that leave the amount of work nearly unchanged: the signal
center and the fit RNG seed of ``wide-spectrum``.  The other workloads stay
at the reference point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NAMES = ("reference-files", "streamlines", "purity-sweep", "wide-spectrum")

# Passes per 20 s of --seconds, at least one.  A pass takes 8-13 s on a
# 2-core machine (streamlines about 26 s), so a run measures 12-26 s and
# every run of a workload does the same work whatever the machine's speed.
PASSES_PER_20_S = {"reference-files": 1, "streamlines": 1, "purity-sweep": 2, "wide-spectrum": 2}


@dataclass(frozen=True)
class ProductRun:
    """One ``products.run`` call: its metric stem, config text, CLI overrides
    and the options of its output checks."""

    label: str
    sections: dict
    overrides: dict
    checks: dict = field(default_factory=dict)

    @property
    def config_text(self) -> str:
        lines = []
        for section, values in self.sections.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {value}" for key, value in values.items()]
        return "\n".join(lines) + "\n"


def wide_center(seed: int) -> float:
    """Off-center lobe position: 8 <= |x0| <= 22, so the w = 2 lobe sits well
    inside the L = 50 box and every one of the 800 modes has a coefficient."""
    rng = np.random.default_rng(seed)
    return round(float(rng.uniform(8.0, 22.0)), 3) * float(rng.choice((-1.0, 1.0)))


def build(name: str, seed: int, shrink: bool = False) -> list[ProductRun]:
    """Product runs of one pass of workload ``name``.

    ``shrink`` keeps every code path but cuts the sizes so that a pass takes
    about a second; the self-check uses it.
    """
    if name == "reference-files":
        small = {"grid": {"x_points": 51, "t_points": 41, "snapshots_tau": "0.5"}} if shrink else {}
        return [
            ProductRun("carpet_density", small, {"products": ("carpet",)}, {"rows": 5}),
            ProductRun("carpet_velocity", small, {"products": ("carpet",), "quantity": "velocity"}, {"rows": 5}),
            ProductRun("carpet_coherent", small, {"products": ("carpet",), "gamma": 0.0, "x0": 20.0}, {"rows": 5}),
            ProductRun("densmat", small, {"products": ("densmat",)}),
        ]
    if name == "streamlines":
        # x0 = 0 excites one parity class only, so the coherent run is back
        # at its seeds after each whole tau, the shrunken span of 1 tau too
        small = {"grid": {"t_points": 41, "tmax_tau": 1.0}, "ensemble": {"count": 4}} if shrink else {}
        return [
            ProductRun("trajectories", small, {"products": ("trajectories",)}),
            ProductRun("trajectories_coherent", small, {"products": ("trajectories",), "gamma": 0.0},
                       {"return_tol": 1e-3}),
        ]
    if name == "purity-sweep":
        # The fit seed stays at its default: the restarts' least-squares
        # evaluations over the sweep vary by about 20% between fit seeds,
        # which would show as spread across benchmark seeds.  The rms limit
        # holds for the full 20 restarts, so a shrunken pass drops centers.
        sections = {"sweep": {"stop": 1.0}} if shrink else {}
        return [
            ProductRun("sweep", sections, {"products": ("sweep",)}, {"rms_limit": 1e-3}),
            ProductRun("fit", sections, {"products": ("fit",)}, {"rms_limit": 1e-3}),
            ProductRun("purity", sections, {"products": ("purity",)}),
            ProductRun("decaymap", sections, {"products": ("decaymap",)}),
        ]
    if name == "wide-spectrum":
        sections = {
            "signal": {"x0": repr(wide_center(seed)), "w": 2.0},
            "modes": {"count": 100 if shrink else 800},
            "grid": {"x_points": 201, "t_points": 11} if shrink else {"t_points": 101},
            "fit": {"seed": seed},
        }
        return [
            ProductRun("carpet_density", sections, {"products": ("carpet",)}, {"rows": 5}),
            ProductRun("purity", sections, {"products": ("purity",)}),
            # a triple exponential cannot follow an 800-mode curve to 1e-3;
            # the rms is recorded, not held to a limit
            ProductRun("fit", sections, {"products": ("fit",)}),
        ]
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
