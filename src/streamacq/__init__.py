"""Stream-based active learning with an ensemble of acquisition agents.

Exploration agents chase low-density and poorly covered regions of the
stream, an adaptive certainty-threshold agent exploits model uncertainty,
and an adversarial-bandit solver with a control-chart monitor weighs their
votes into one acquire-or-pass decision per sample under a labeling budget.

Each public name is imported from the module that defines it and lists it
in its ``__all__``: ``agents``, ``core``, ``datagen``, ``ensemble``,
``harness``, ``learner`` and ``theory``.
"""

__version__ = "0.1.0"
