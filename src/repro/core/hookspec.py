"""The policy opt-in hook contract, as one shared classifier.

Cycle skipping (:meth:`SMTPipeline.advance
<repro.core.pipeline.SMTPipeline.advance>`) is gated on an *opt-in
declaration* from the fetch policy: it trusts a policy's
:meth:`~repro.policies.base.FetchPolicy.skip_horizon` only when whoever
last overrode :meth:`~repro.policies.base.FetchPolicy.on_cycle` also
(re)declared the horizon — otherwise skipping could jump over cycles the
policy needed to observe.

That is a question over a class hierarchy: *walking from the
most-derived class towards the base, does a contract declaration appear
at or before the first trigger override?*  :func:`contract_covers`
answers it over an abstract definition chain, so the exact same logic
serves two consumers:

* the **runtime auto-veto** at pipeline construction, which feeds it the
  real MRO (:func:`mro_defined_chain`); and
* the **static** ``hook-conformance`` lint rule
  (:mod:`repro.analysis.hooks`), which feeds it a chain derived from the
  AST of the policy sources.

``tests/test_lint.py`` pins that the two agree on every registered
policy.  Keep this module import-light (stdlib only): it is imported by
both the simulator core and the static-analysis package.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

#: Contract / trigger attribute names for the cycle-skipping opt-in.
HORIZON_CONTRACT: Tuple[str, ...] = ("skip_horizon",)
HORIZON_TRIGGERS: Tuple[str, ...] = ("on_cycle",)


def contract_covers(defined_chain: Iterable[Set[str]],
                    contract: Tuple[str, ...],
                    triggers: Tuple[str, ...]) -> bool:
    """Does a contract declaration cover every trigger override?

    ``defined_chain`` is the per-class sets of attribute names a
    hierarchy defines, ordered from the most-derived class to the base.
    Walking it in order, a ``contract`` name seen at or before the first
    ``triggers`` name means whoever last changed the triggered behaviour
    also declared (or re-declared) the contract — the declaration is
    *at or below* every live override.  A trigger seen first means the
    most recent behaviour change carries no declaration, so the
    conservative answer is False.  ``FetchPolicy`` itself defines both
    contract and triggers, so hierarchies without overrides are
    trivially covered (and an exhausted chain answers True).
    """
    for defined in defined_chain:
        for name in contract:
            if name in defined:
                return True
        for name in triggers:
            if name in defined:
                return False
    return True


def mro_defined_chain(policy_type: type) -> List[Set[str]]:
    """The runtime definition chain: one attribute set per MRO class."""
    return [set(vars(klass)) for klass in policy_type.__mro__]


def horizon_covers_on_cycle(policy_type: type) -> bool:
    """May the cycle-skip fast path trust this policy's ``skip_horizon``?"""
    return contract_covers(mro_defined_chain(policy_type),
                           HORIZON_CONTRACT, HORIZON_TRIGGERS)


#: Package whose policy classes the specialized kernel tier was
#: validated against (the bit-identity suites run over the registry).
KERNEL_POLICY_PACKAGE = "repro.policies"

#: Hook/attribute surface the specialized kernel generator folds or
#: hoists at generation time.  If any of these is (re)defined outside
#: :data:`KERNEL_POLICY_PACKAGE`, the generated kernel may disagree with
#: the author's intent (e.g. an instance-level ``uses_runahead`` flip),
#: so coverage is refused and selection falls back to the python tier.
KERNEL_HOOK_SURFACE: Tuple[str, ...] = (
    "attach", "fetch_order", "on_cycle", "on_l2_miss_detected",
    "skip_horizon", "uses_runahead",
)


def kernel_covers_policy(policy_type: type) -> bool:
    """May the specialized kernel tier drive a cell with this policy?

    Same conservative philosophy as the cycle-skip opt-in: a third-party
    subclass is never an error, it simply keeps the portable python run
    loop.  Coverage requires that every class defining (or overriding)
    a name in :data:`KERNEL_HOOK_SURFACE` lives inside
    :data:`KERNEL_POLICY_PACKAGE` — the set of classes the bit-identity
    suites actually exercise against the generated kernels.
    """
    package = KERNEL_POLICY_PACKAGE
    prefix = package + "."
    for name in KERNEL_HOOK_SURFACE:
        for klass in policy_type.__mro__:
            if name in vars(klass):
                module = getattr(klass, "__module__", "")
                if module != package and not module.startswith(prefix):
                    return False
                break
    return True
