"""Rule registration, mirroring the policies and exhibits registries.

A rule is a class with a ``name``, a one-line ``description``, and a
``run(ctx) -> List[Finding]`` method; the :func:`rule` decorator
registers it under its name.  ``repro lint`` runs every registered rule
by default; ``--rules`` (or :class:`~repro.analysis.model.LintOptions`)
selects a subset.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..errors import ReproError
from .model import Finding, LintContext


class LintRuleError(ReproError):
    """An unknown rule name, or an internally inconsistent rule setup."""


class Rule:
    """Base rule: subclasses define ``name``/``description`` and ``run``."""

    name: str = ""
    description: str = ""

    def run(self, ctx: LintContext) -> List[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator registering a rule under ``cls.name``."""
    if not cls.name:
        raise LintRuleError(f"rule class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise LintRuleError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def rule_names() -> Tuple[str, ...]:
    """All registered rule names, sorted."""
    return tuple(sorted(_REGISTRY))


def rule_descriptions() -> Dict[str, str]:
    return {name: _REGISTRY[name].description for name in rule_names()}


def create_rules(names: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the requested rules (default: all), in name order."""
    if names is None:
        names = rule_names()
    rules = []
    for name in names:
        try:
            rules.append(_REGISTRY[name]())
        except KeyError:
            raise LintRuleError(
                f"unknown lint rule {name!r} (known: "
                f"{', '.join(rule_names())})") from None
    return rules
