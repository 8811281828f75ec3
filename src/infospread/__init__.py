"""Deterministic simulators for word-of-mouth information flow among fund
managers: pair-wise gossip chains, network diffusion centrality, SIR-style
contagion, reaction-diffusion fronts, and fund summary reports."""

__version__ = "0.1.0"

# Submodules load on first import, not here: ``python -m infospread.cli``
# must find ``cli`` not yet imported, or runpy warns before the CLI runs.

__all__ = ["cli", "epi_sir", "errors", "fundstats", "gossip", "netdiff",
           "rdwave", "__version__"]
