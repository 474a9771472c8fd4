"""Machine-checked contracts: the declarations the analyzer enforces.

The repository's performance work rests on a handful of invariants that
used to live only in ROADMAP.md prose: snapshot objects are immutable
once built, memoized state is only read behind a revalidation point,
and the tuning subsystem never touches the wall clock.  This module turns those
invariants into *declarations that live next to the code they govern*:

* :func:`snapshot_contract` -- registers a class as a snapshot and
  names the methods allowed to write it (its *builders*) plus any memo
  attributes exempt from immutability (lazily-populated caches keyed to
  the snapshot's own content).
* :func:`builder` -- registers a free function (or a method of a
  non-snapshot class) as a builder: a construction context in which
  snapshot instances may still be assembled.
* :func:`cache_contract` -- declares a class's memo attributes and the
  invalidation discipline each one follows (see :data:`MemoPolicy`).
* :func:`deterministic_package` -- declares a package in which wall
  clocks, unseeded randomness and unsorted set iteration are forbidden.
* :func:`injection_site` -- declares a named fault-injection site: a
  seam at which :mod:`repro.faults` may raise a scripted failure.  The
  fault-coverage checker requires every catalog-mutating seam to
  consult a registered site, and every registered site to be consulted
  somewhere in the tree.
* :func:`observe_only_package` -- declares a non-governing telemetry
  package: it may record what the system did but may not import (and
  therefore cannot mutate) the governed packages of its tree, and
  instrumentation sites in governed code may not smuggle governed
  mutations into its recording calls.  Enforced by the telemetry
  checker.
* :func:`wall_clock_module` -- declares the single audited module
  allowed to read ``time.*`` clocks; the determinism checker flags any
  other direct clock read anywhere under the declaring tree's
  top-level package.

The declarations are consumed twice:

1. **Statically** by :mod:`repro.analysis` -- the ``xml-index-advisor
   lint`` checkers parse these decorator calls out of the source tree
   (no imports) and verify the code against them.
2. **At runtime**, optionally -- when the environment variable
   ``REPRO_FREEZE_SNAPSHOTS=1`` is set *at import time*, every
   registered non-frozen snapshot class gets a ``__setattr__`` /
   ``__delattr__`` trap that raises :class:`SnapshotMutationError`
   unless a registered builder is executing on the current thread.
   Frozen dataclasses already enforce this themselves and are
   registered without instrumentation.  Container-level mutation
   (``snapshot.attr.append(...)``) is *not* trapped at runtime; the
   static snapshot checker covers that case.

The guard is installed only when the environment variable is set, so
the default hot path pays nothing.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterable, Mapping, Tuple, Type

__all__ = [
    "FREEZE_ENV_VAR",
    "FREEZE_SNAPSHOTS",
    "SnapshotMutationError",
    "SnapshotContract",
    "ContractRegistry",
    "REGISTRY",
    "snapshot_contract",
    "cache_contract",
    "builder",
    "deterministic_package",
    "injection_site",
    "observe_only_package",
    "wall_clock_module",
    "building",
]

#: Environment variable that switches runtime snapshot freezing on.
FREEZE_ENV_VAR = "REPRO_FREEZE_SNAPSHOTS"

#: Read once at import: runtime freeze mode for this process.
FREEZE_SNAPSHOTS = os.environ.get(FREEZE_ENV_VAR, "").strip() not in ("", "0")


class SnapshotMutationError(AttributeError):
    """A registered snapshot was mutated outside a registered builder."""


@dataclass(frozen=True)
class SnapshotContract:
    """The declared write-surface of one snapshot class."""

    name: str
    module: str
    #: Methods (besides ``__init__``) allowed to write snapshot state.
    builders: Tuple[str, ...] = ()
    #: The subset of ``builders`` that mutate their *receiver* when
    #: called (``stats.merge(other)``); the rest assemble fresh
    #: instances (``stats.copy()``) and may be called from anywhere.
    mutators: Tuple[str, ...] = ()
    #: Attributes exempt from immutability: content-keyed memo caches
    #: that live and die with the snapshot object itself.
    memo_attrs: FrozenSet[str] = frozenset()


@dataclass
class ContractRegistry:
    """Process-wide record of every contract declaration."""

    snapshots: Dict[str, SnapshotContract] = field(default_factory=dict)
    builder_functions: Dict[Tuple[str, str], Callable[..., Any]] = \
        field(default_factory=dict)
    caches: Dict[Tuple[str, str], Mapping[str, Mapping[str, Any]]] = \
        field(default_factory=dict)
    deterministic_packages: Tuple[str, ...] = ()
    injection_sites: Dict[str, str] = field(default_factory=dict)
    observe_only_packages: Dict[str, str] = field(default_factory=dict)
    wall_clock_modules: Tuple[str, ...] = ()


#: The process-wide registry (populated as governed modules import).
REGISTRY = ContractRegistry()

# Thread-local build-phase depth: nonzero while any registered builder
# (or a registered snapshot's __init__) is executing on this thread.
_STATE = threading.local()


def _depth() -> int:
    return getattr(_STATE, "depth", 0)


class building:
    """Context manager marking a build phase on the current thread.

    Inside the ``with`` block, registered snapshot classes accept
    attribute writes even under ``REPRO_FREEZE_SNAPSHOTS=1``.  Used by
    the wrapped builders themselves; available to tests that need to
    assemble snapshots by hand.
    """

    def __enter__(self) -> "building":
        _STATE.depth = _depth() + 1
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _STATE.depth = _depth() - 1


def _wrap_build_phase(func: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        _STATE.depth = _depth() + 1
        try:
            return func(*args, **kwargs)
        finally:
            _STATE.depth = _depth() - 1
    return wrapper


def _is_frozen_dataclass(cls: type) -> bool:
    params = getattr(cls, "__dataclass_params__", None)
    return bool(params is not None and params.frozen)


def _install_freeze_guard(cls: type, contract: SnapshotContract) -> None:
    """Trap attribute writes on ``cls`` outside registered builders."""
    original_setattr = cls.__setattr__
    original_delattr = cls.__delattr__

    def _guard(self: Any, name: str) -> None:
        if _depth() == 0 and name not in contract.memo_attrs:
            raise SnapshotMutationError(
                f"{cls.__name__}.{name} written outside a registered "
                f"builder while {FREEZE_ENV_VAR} is set; allowed "
                f"builders: __init__, {', '.join(contract.builders) or '-'}")

    def guarded_setattr(self: Any, name: str, value: Any) -> None:
        _guard(self, name)
        original_setattr(self, name, value)

    def guarded_delattr(self: Any, name: str) -> None:
        _guard(self, name)
        original_delattr(self, name)

    cls.__setattr__ = guarded_setattr  # type: ignore[method-assign]
    cls.__delattr__ = guarded_delattr  # type: ignore[method-assign]

    for method_name in ("__init__",) + contract.builders:
        method = cls.__dict__.get(method_name)
        if method is None:
            continue
        if isinstance(method, property):
            wrapped = property(_wrap_build_phase(method.fget)
                               if method.fget else None,
                               method.fset, method.fdel, method.__doc__)
            setattr(cls, method_name, wrapped)
        elif isinstance(method, (staticmethod, classmethod)):
            setattr(cls, method_name,
                    type(method)(_wrap_build_phase(method.__func__)))
        elif callable(method):
            setattr(cls, method_name, _wrap_build_phase(method))


def snapshot_contract(*, builders: Iterable[str] = (),
                      mutators: Iterable[str] = (),
                      memo_attrs: Iterable[str] = ()) -> Callable[[type], type]:
    """Class decorator registering a snapshot class and its builders.

    Apply *above* ``@dataclass`` so the decorated object is the final
    class.  ``builders`` are the methods allowed to write snapshot
    state (their writes may target ``self`` or freshly constructed
    instances); ``mutators`` is the subset that mutates its receiver
    and therefore may itself only be *called* from a build phase;
    ``memo_attrs`` are content-keyed caches exempt from immutability.
    """
    builders_t = tuple(builders)
    mutators_t = tuple(mutators)
    memo = frozenset(memo_attrs)

    def decorate(cls: Type[Any]) -> Type[Any]:
        contract = SnapshotContract(name=cls.__name__, module=cls.__module__,
                                    builders=builders_t, mutators=mutators_t,
                                    memo_attrs=memo)
        REGISTRY.snapshots[cls.__name__] = contract
        if FREEZE_SNAPSHOTS and not _is_frozen_dataclass(cls):
            _install_freeze_guard(cls, contract)
        return cls

    return decorate


def cache_contract(*, memos: Mapping[str, Mapping[str, Any]]) \
        -> Callable[[type], type]:
    """Class decorator declaring memo attributes and their policies.

    ``memos`` maps attribute name to a policy mapping with a
    ``"policy"`` key:

    ``{"policy": "revalidate", "revalidators": (...)}``
        The memo is only valid behind a signature/version check.  It
        may be touched from the named revalidator methods, methods
        that directly call one, and private helpers reachable only
        through those.
    ``{"policy": "push", "readers": (...), "refreshers": (...)}``
        The memo is kept fresh by change notifications: only the named
        readers and refreshers (plus ``__init__``) may touch it.
    ``{"policy": "object-keyed"}``
        The memo's validity is tied to its (immutable or
        rebuilt-not-mutated) owner object; reads need no revalidation.
    ``{"policy": "static"}``
        The memo is data-independent (derived from construction
        arguments only); reads need no revalidation.

    Purely declarative at runtime; enforced by the static
    ``cache-invalidation`` checker.
    """
    frozen_memos = {attr: dict(policy) for attr, policy in memos.items()}

    def decorate(cls: Type[Any]) -> Type[Any]:
        REGISTRY.caches[(cls.__module__, cls.__name__)] = frozen_memos
        return cls

    return decorate


def builder(func: Callable[..., Any]) -> Callable[..., Any]:
    """Register a function as a snapshot construction context.

    Inside it (dynamically, on the current thread) registered snapshot
    instances may be written even under ``REPRO_FREEZE_SNAPSHOTS=1``.
    Statically, the snapshot checker permits snapshot writes in its
    body.  Apply *below* ``@property`` / ``@staticmethod`` (closest to
    the plain function).
    """
    REGISTRY.builder_functions[(func.__module__, func.__qualname__)] = func
    if not FREEZE_SNAPSHOTS:
        return func
    return _wrap_build_phase(func)


def deterministic_package(name: str) -> str:
    """Declare a package that must be wall-clock and hash-order free.

    Modules under ``name`` may not call ``time.time``-style clocks,
    ``datetime.now`` or the unseeded module-level ``random`` API, and
    may not iterate bare sets into emitted orderings without
    ``sorted()``.  Enforced by the determinism checker.
    """
    if name not in REGISTRY.deterministic_packages:
        REGISTRY.deterministic_packages = \
            REGISTRY.deterministic_packages + (name,)
    return name


def observe_only_package(name: str, description: str = "") -> str:
    """Declare a package that observes but never governs.

    Modules under ``name`` may record what the system did -- counters,
    spans, cost samples -- but may not import (and therefore cannot
    call or mutate) the governed packages of the same top-level tree,
    other than the contract declarations themselves.  The telemetry
    checker enforces the import direction statically, requires fixed
    literal histogram bucket bounds (no data-dependent bucketing), and
    verifies instrumentation sites in governed code never pass a
    governed mutation into a recording call.  Returns ``name`` so the
    call can double as a constant definition.
    """
    REGISTRY.observe_only_packages[name] = description
    return name


def wall_clock_module(name: str) -> str:
    """Declare an audited wall-clock module.

    Every direct ``time.*`` clock read in the tree must live in a
    module declared here; the determinism checker flags any other
    ``time.time``-style call in any module under the declaring tree's
    top-level package.  Deterministic packages remain stricter: no
    wall clocks at all, not even through the audited module.  Returns
    ``name`` so the call can double as a constant definition.
    """
    if name not in REGISTRY.wall_clock_modules:
        REGISTRY.wall_clock_modules = REGISTRY.wall_clock_modules + (name,)
    return name


def injection_site(name: str, description: str = "") -> str:
    """Declare a named fault-injection site.

    A site is a seam -- an index build, a journal replay, a migration
    commit point -- at which the deterministic fault harness
    (:mod:`repro.faults`) may raise a scripted failure.  Declaring the
    site here makes it part of the failure contract: the fault-coverage
    checker verifies that every catalog-mutating function consults a
    site via ``fault_point``/``guarded_fault_point`` and that every
    declared site is consulted somewhere in the tree.  Returns ``name``
    so the call can double as a constant definition.
    """
    REGISTRY.injection_sites[name] = description
    return name
