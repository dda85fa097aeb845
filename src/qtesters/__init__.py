"""Unitary-tester toolkit: outcome statistics, entropic bounds, mutually
unbiased unitary bases, and two-way QKD Monte-Carlo simulation.

The command-line front end lives in ``qtesters.cli`` and is not imported
here, so ``python -m qtesters.cli`` runs it without a second import."""

from . import bounds, muub, ppovm, qkd, qmath, tester

__version__ = "0.1.0"

__all__ = ["bounds", "muub", "ppovm", "qkd", "qmath", "tester", "__version__"]
